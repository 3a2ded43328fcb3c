//! FD-symmetry verification (rule SYM-L030).
//!
//! SymBIST's invariances hold only if the declared P/N half-circuits are
//! isomorphic with matched element values. Because both halves of a
//! healthy block are emitted by the same builder with identical nominal
//! inputs, the check is order-based: device `i` of the P half must
//! correspond to device `i` of the N half, and the induced node mapping
//! must be a consistent bijection that respects the declared seed
//! correspondences (ground ↔ ground, same-named nodes). This is far
//! cheaper than general graph isomorphism and — for builder-emitted
//! netlists — exactly as strong.

use std::collections::BTreeMap;

use symbist_adc::FdPair;
use symbist_circuit::netlist::{Device, Netlist, NodeId, SourceWave};

use crate::diag::{Diagnostic, LintReport, Rule};

/// Relative tolerance for element-value comparison. Healthy halves are
/// bit-identical; this only absorbs benign float formatting round-trips.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    if a.is_nan() || b.is_nan() {
        return false;
    }
    // Strictly relative: element values span ~1e-12 F to ~1e9 Ω, so any
    // absolute floor would mask real asymmetries at the small end.
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Flattens a waveform to comparable numbers plus a shape tag.
fn wave_signature(wave: &SourceWave) -> (&'static str, Vec<f64>) {
    match wave {
        SourceWave::Dc(v) => ("dc", vec![*v]),
        SourceWave::Pulse {
            low,
            high,
            delay,
            rise,
            fall,
            width,
            period,
        } => (
            "pulse",
            vec![*low, *high, *delay, *rise, *fall, *width, *period],
        ),
        SourceWave::Pwl(points) => ("pwl", points.iter().flat_map(|&(t, v)| [t, v]).collect()),
        SourceWave::Sine {
            offset,
            ampl,
            freq,
            delay,
        } => ("sine", vec![*offset, *ampl, *freq, *delay]),
    }
}

/// A device's comparable identity: kind/state tag plus numeric parameters
/// (terminals are handled separately by the node bijection).
fn device_signature(device: &Device) -> (String, Vec<f64>) {
    match device {
        Device::Resistor { ohms, .. } => ("resistor".into(), vec![*ohms]),
        Device::Capacitor { farads, ic, .. } => {
            let tag = if ic.is_some() {
                "capacitor+ic"
            } else {
                "capacitor"
            };
            let mut values = vec![*farads];
            values.extend(*ic);
            (tag.into(), values)
        }
        Device::VSource { wave, .. } => {
            let (shape, values) = wave_signature(wave);
            (format!("vsource/{shape}"), values)
        }
        Device::ISource { wave, .. } => {
            let (shape, values) = wave_signature(wave);
            (format!("isource/{shape}"), values)
        }
        Device::Switch {
            closed,
            r_on,
            r_off,
            ..
        } => (
            format!("switch/{}", if *closed { "closed" } else { "open" }),
            vec![*r_on, *r_off],
        ),
        Device::Diode {
            i_sat, ideality, ..
        } => ("diode".into(), vec![*i_sat, *ideality]),
        Device::Mosfet {
            polarity,
            vth,
            kp,
            lambda,
            ..
        } => (format!("mosfet/{polarity:?}"), vec![*vth, *kp, *lambda]),
        Device::Vcvs { gain, .. } => ("vcvs".into(), vec![*gain]),
        Device::Vccs { gm, .. } => ("vccs".into(), vec![*gm]),
    }
}

/// Renders a node for diagnostics: its name when it has one, else `gnd`
/// or `n{idx}`.
pub(crate) fn node_label(nl: &Netlist, node: NodeId) -> String {
    match nl.node_name(node) {
        Some(name) => name.to_string(),
        None if node.is_ground() => "gnd".to_string(),
        None => format!("n{}", node.index()),
    }
}

/// Incrementally grown node bijection between the halves.
#[derive(Default)]
struct NodeMap {
    p_to_n: BTreeMap<NodeId, NodeId>,
    n_to_p: BTreeMap<NodeId, NodeId>,
}

impl NodeMap {
    /// Records `p ↔ n`; returns the conflicting prior binding when the
    /// pair contradicts an existing entry in either direction.
    fn bind(&mut self, p: NodeId, n: NodeId) -> Result<(), (NodeId, NodeId)> {
        if let Some(&prior) = self.p_to_n.get(&p) {
            if prior != n {
                return Err((p, prior));
            }
        }
        if let Some(&prior) = self.n_to_p.get(&n) {
            if prior != p {
                return Err((prior, n));
            }
        }
        self.p_to_n.insert(p, n);
        self.n_to_p.insert(n, p);
        Ok(())
    }
}

/// Verifies one declared FD pair; every violation becomes a `SYM-L030`
/// diagnostic under the context `fd pair: {name}`.
pub fn check_fd_symmetry(pair: &FdPair) -> LintReport {
    let mut report = LintReport::new();
    let context = format!("fd pair: {}", pair.name);
    let diag = |subject: &str, message: String| {
        Diagnostic::new(Rule::FdAsymmetry, context.clone(), subject, message)
    };

    if pair.p.device_count() != pair.n.device_count() {
        report.push(diag(
            "device count",
            format!(
                "P half has {} device(s), N half has {} — the halves cannot \
                 be isomorphic",
                pair.p.device_count(),
                pair.n.device_count()
            ),
        ));
        return report;
    }
    if pair.p.node_count() != pair.n.node_count() {
        report.push(diag(
            "node count",
            format!(
                "P half has {} node(s), N half has {}",
                pair.p.node_count(),
                pair.n.node_count()
            ),
        ));
    }

    let mut map = NodeMap::default();
    for &(p, n) in &pair.seeds {
        if let Err((cp, cn)) = map.bind(p, n) {
            report.push(diag(
                "seed correspondences",
                format!(
                    "seed {} ↔ {} contradicts earlier binding {} ↔ {}",
                    node_label(&pair.p, p),
                    node_label(&pair.n, n),
                    node_label(&pair.p, cp),
                    node_label(&pair.n, cn),
                ),
            ));
        }
    }

    for ((pid, pd), (_, nd)) in pair.p.iter().zip(pair.n.iter()) {
        let subject = format!("device #{} ({})", pid.index(), pd.kind_name());
        let (p_tag, p_values) = device_signature(pd);
        let (n_tag, n_values) = device_signature(nd);
        if p_tag != n_tag {
            report.push(diag(
                &subject,
                format!("P half has {p_tag}, N half has {n_tag} at the same position"),
            ));
            continue;
        }
        if p_values.len() != n_values.len() {
            report.push(diag(
                &subject,
                format!(
                    "element parameter counts differ between halves: P has {} \
                     value(s) {p_values:?}, N has {} value(s) {n_values:?}",
                    p_values.len(),
                    n_values.len(),
                ),
            ));
        } else if let Some((param, (pv, nv))) = p_values
            .iter()
            .zip(&n_values)
            .enumerate()
            .find(|(_, (a, b))| !close(**a, **b))
        {
            let delta = nv - pv;
            let rel = if pv.abs().max(nv.abs()) > 0.0 {
                delta.abs() / pv.abs().max(nv.abs())
            } else {
                0.0
            };
            report.push(diag(
                &subject,
                format!(
                    "element values differ between halves: parameter #{param} \
                     of {p_tag} is {pv:e} in P vs {nv:e} in N \
                     (Δ = {delta:e}, relative {rel:.3e})"
                ),
            ));
        }
        for (tp, tn) in pd.terminals().into_iter().zip(nd.terminals()) {
            if let Err((cp, cn)) = map.bind(tp, tn) {
                report.push(diag(
                    &subject,
                    format!(
                        "terminal wiring breaks the node bijection: {} ↔ {} \
                         contradicts {} ↔ {}",
                        node_label(&pair.p, tp),
                        node_label(&pair.n, tn),
                        node_label(&pair.p, cp),
                        node_label(&pair.n, cn),
                    ),
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbist_adc::seeds_by_name;

    fn pair(p: Netlist, n: Netlist) -> FdPair {
        let seeds = seeds_by_name(&p, &n);
        FdPair {
            name: "test".to_string(),
            p,
            n,
            seeds,
        }
    }

    fn half(cap: f64) -> Netlist {
        let mut nl = Netlist::new();
        let top = nl.node("top");
        let out = nl.node("out");
        nl.vsource(top, Netlist::GND, 0.6);
        nl.resistor(top, out, 1e3);
        nl.capacitor(out, Netlist::GND, cap);
        nl
    }

    #[test]
    fn identical_halves_pass() {
        let report = check_fd_symmetry(&pair(half(1e-12), half(1e-12)));
        assert!(report.diagnostics().is_empty(), "{}", report.render_text());
    }

    #[test]
    fn value_mismatch_fires_l030() {
        let report = check_fd_symmetry(&pair(half(1e-12), half(2e-12)));
        assert!(report.has_rule("SYM-L030"), "{}", report.render_text());
    }

    #[test]
    fn extra_device_fires_l030() {
        let mut n = half(1e-12);
        let out = n.find_node("out").expect("out exists");
        n.resistor(out, Netlist::GND, 1e6);
        let report = check_fd_symmetry(&pair(half(1e-12), n));
        assert!(report.has_rule("SYM-L030"));
    }

    #[test]
    fn rewired_terminal_fires_l030() {
        // Same devices and values, but the N capacitor hangs off `top`
        // instead of `out` — caught by the node bijection.
        let mut n = Netlist::new();
        let top = n.node("top");
        let out = n.node("out");
        n.vsource(top, Netlist::GND, 0.6);
        n.resistor(top, out, 1e3);
        n.capacitor(top, Netlist::GND, 1e-12);
        let report = check_fd_symmetry(&pair(half(1e-12), n));
        assert!(report.has_rule("SYM-L030"), "{}", report.render_text());
    }
}
