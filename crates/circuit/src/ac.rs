//! Small-signal AC analysis.
//!
//! Linearizes the circuit around its DC operating point (diodes and
//! MOSFETs become their small-signal conductances/transconductances,
//! capacitors become `jωC` admittances) and solves the complex MNA system
//! at each requested frequency with a single designated source excited at
//! 1 V (all other independent sources zeroed).
//!
//! In the reproduction this powers the AC-BIST extension experiment:
//! decoupling-capacitor opens are invisible to every DC invariance but
//! leave an unmistakable signature in the ripple transfer function.
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::ac::AcSolver;
//! use symbist_circuit::netlist::Netlist;
//!
//! // RC low-pass: pole at 1/(2πRC) ≈ 159 kHz.
//! let mut nl = Netlist::new();
//! let src = nl.node("in");
//! let out = nl.node("out");
//! let vs = nl.vsource(src, Netlist::GND, 0.0);
//! nl.resistor(src, out, 1e3);
//! nl.capacitor(out, Netlist::GND, 1e-9);
//! let sweep = AcSolver::new().solve(&nl, vs, &[159.15e3])?;
//! let gain_db = sweep.magnitude_db(0, out);
//! assert!((gain_db + 3.01).abs() < 0.1, "-3 dB at the pole, got {gain_db}");
//! # Ok::<(), symbist_circuit::error::CircuitError>(())
//! ```

use std::f64::consts::PI;

use crate::dc::{DcSolver, GMIN};
use crate::error::CircuitError;
use crate::mna::{diode_eval, nmos_eval, MnaLayout, Thermal};
use crate::netlist::{Device, DeviceId, MosPolarity, Netlist, NodeId};

/// A complex number (kept local: the circuit crate has no deps).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cplx {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }

    fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    fn div(self, o: Self) -> Self {
        let d = o.re * o.re + o.im * o.im;
        Self::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

/// Dense complex matrix with LU solve (magnitude partial pivoting).
struct CMatrix {
    n: usize,
    data: Vec<Cplx>,
}

impl CMatrix {
    fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![Cplx::default(); n * n],
        }
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, v: Cplx) {
        let cell = &mut self.data[r * self.n + c];
        *cell = cell.add(v);
    }

    /// In-place LU solve; consumes the matrix.
    fn solve(mut self, mut b: Vec<Cplx>) -> Result<Vec<Cplx>, CircuitError> {
        let n = self.n;
        let scale = self
            .data
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        let tol = 1e-13 * scale;
        for k in 0..n {
            // Pivot by magnitude.
            let mut pr = k;
            let mut pv = self.data[k * n + k].abs();
            for r in (k + 1)..n {
                let v = self.data[r * n + k].abs();
                if v > pv {
                    pv = v;
                    pr = r;
                }
            }
            if pv <= tol {
                return Err(CircuitError::Singular { column: k });
            }
            if pr != k {
                for c in 0..n {
                    self.data.swap(k * n + c, pr * n + c);
                }
                b.swap(k, pr);
            }
            let pivot = self.data[k * n + k];
            for r in (k + 1)..n {
                let factor = self.data[r * n + k].div(pivot);
                if factor.abs() == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    let sub = factor.mul(self.data[k * n + c]);
                    let cell = &mut self.data[r * n + c];
                    *cell = cell.sub(sub);
                }
                b[r] = b[r].sub(factor.mul(b[k]));
            }
        }
        // Back substitution.
        let mut x = vec![Cplx::default(); n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                sum = sum.sub(self.data[i * n + j].mul(*xj));
            }
            x[i] = sum.div(self.data[i * n + i]);
        }
        Ok(x)
    }
}

/// Result of an AC sweep: complex node voltages per frequency point.
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    /// `solutions[f][unknown]` — node voltages then branch currents.
    solutions: Vec<Vec<Cplx>>,
    node_count: usize,
}

impl AcSweep {
    /// The swept frequencies.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex voltage of `node` at frequency point `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the point or node is out of range.
    pub fn voltage(&self, idx: usize, node: NodeId) -> Cplx {
        if node.is_ground() {
            return Cplx::default();
        }
        assert!(node.index() < self.node_count, "node out of range");
        self.solutions[idx][node.index() - 1]
    }

    /// Magnitude in dB (20·log10) of a node at a frequency point.
    pub fn magnitude_db(&self, idx: usize, node: NodeId) -> f64 {
        20.0 * self.voltage(idx, node).abs().max(1e-300).log10()
    }

    /// Phase in degrees of a node at a frequency point.
    pub fn phase_deg(&self, idx: usize, node: NodeId) -> f64 {
        self.voltage(idx, node).arg() * 180.0 / PI
    }
}

/// Small-signal AC solver.
#[derive(Debug, Clone, Default)]
pub struct AcSolver {
    dc: DcSolver,
}

impl AcSolver {
    /// Creates a solver with default DC options for the operating point.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sweeps the circuit at the given frequencies with `source` excited
    /// at 1 V AC.
    ///
    /// # Errors
    ///
    /// Returns an error if the DC operating point fails or the linearized
    /// system is singular.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a voltage source, or a frequency is not
    /// positive and finite.
    pub fn solve(
        &self,
        netlist: &Netlist,
        source: DeviceId,
        freqs: &[f64],
    ) -> Result<AcSweep, CircuitError> {
        assert!(
            matches!(netlist.device(source), Device::VSource { .. }),
            "AC excitation must be a voltage source"
        );
        assert!(
            freqs.iter().all(|f| f.is_finite() && *f > 0.0),
            "frequencies must be positive"
        );
        let op = self.dc.solve(netlist)?;
        let layout = MnaLayout::new(netlist);
        let dim = layout.dim;
        let v = |n: NodeId| op.voltage(n);

        let mut solutions = Vec::with_capacity(freqs.len());
        for &f in freqs {
            let omega = 2.0 * PI * f;
            let mut m = CMatrix::zeros(dim);
            let mut rhs = vec![Cplx::default(); dim];
            // gmin regularization, as in DC.
            for i in 0..(layout.node_count - 1) {
                m.add(i, i, Cplx::new(GMIN, 0.0));
            }

            let stamp_g = |m: &mut CMatrix, a: NodeId, b: NodeId, g: Cplx| {
                let ia = layout.node_index(a);
                let ib = layout.node_index(b);
                if let Some(i) = ia {
                    m.add(i, i, g);
                }
                if let Some(j) = ib {
                    m.add(j, j, g);
                }
                if let (Some(i), Some(j)) = (ia, ib) {
                    m.add(i, j, Cplx::new(-g.re, -g.im));
                    m.add(j, i, Cplx::new(-g.re, -g.im));
                }
            };
            let stamp_gm =
                |m: &mut CMatrix, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64| {
                    for (out, sign_o) in [(p, 1.0), (n, -1.0)] {
                        let Some(r) = layout.node_index(out) else {
                            continue;
                        };
                        for (ctrl, sign_c) in [(cp, 1.0), (cn, -1.0)] {
                            if let Some(c) = layout.node_index(ctrl) {
                                m.add(r, c, Cplx::new(gm * sign_o * sign_c, 0.0));
                            }
                        }
                    }
                };

            for (id, dev) in netlist.iter() {
                match dev {
                    Device::Resistor { a, b, ohms } => {
                        stamp_g(&mut m, *a, *b, Cplx::new(1.0 / ohms, 0.0));
                    }
                    Device::Switch {
                        a,
                        b,
                        closed,
                        r_on,
                        r_off,
                    } => {
                        let r = if *closed { *r_on } else { *r_off };
                        stamp_g(&mut m, *a, *b, Cplx::new(1.0 / r, 0.0));
                    }
                    Device::Capacitor { a, b, farads, .. } => {
                        stamp_g(&mut m, *a, *b, Cplx::new(0.0, omega * farads));
                    }
                    Device::VSource { p, n, .. } => {
                        let br = layout.branch_index(id);
                        if let Some(ip) = layout.node_index(*p) {
                            m.add(ip, br, Cplx::new(1.0, 0.0));
                            m.add(br, ip, Cplx::new(1.0, 0.0));
                        }
                        if let Some(in_) = layout.node_index(*n) {
                            m.add(in_, br, Cplx::new(-1.0, 0.0));
                            m.add(br, in_, Cplx::new(-1.0, 0.0));
                        }
                        rhs[br] = if id == source {
                            Cplx::new(1.0, 0.0)
                        } else {
                            Cplx::default()
                        };
                    }
                    Device::ISource { .. } => {
                        // Independent current sources are zeroed in AC.
                    }
                    Device::Vcvs { p, n, cp, cn, gain } => {
                        let br = layout.branch_index(id);
                        if let Some(ip) = layout.node_index(*p) {
                            m.add(ip, br, Cplx::new(1.0, 0.0));
                            m.add(br, ip, Cplx::new(1.0, 0.0));
                        }
                        if let Some(in_) = layout.node_index(*n) {
                            m.add(in_, br, Cplx::new(-1.0, 0.0));
                            m.add(br, in_, Cplx::new(-1.0, 0.0));
                        }
                        if let Some(icp) = layout.node_index(*cp) {
                            m.add(br, icp, Cplx::new(-gain, 0.0));
                        }
                        if let Some(icn) = layout.node_index(*cn) {
                            m.add(br, icn, Cplx::new(*gain, 0.0));
                        }
                    }
                    Device::Vccs { p, n, cp, cn, gm } => {
                        stamp_gm(&mut m, *p, *n, *cp, *cn, *gm);
                    }
                    Device::Diode {
                        anode,
                        cathode,
                        i_sat,
                        ideality,
                    } => {
                        let thermal = Thermal::new(self.dc.options().temperature_c + 273.15);
                        let vd = v(*anode) - v(*cathode);
                        let (_, g) =
                            diode_eval(vd, thermal.diode_is(*i_sat), ideality * thermal.vt());
                        stamp_g(&mut m, *anode, *cathode, Cplx::new(g, 0.0));
                    }
                    Device::Mosfet {
                        d,
                        g,
                        s,
                        polarity,
                        vth,
                        kp,
                        lambda,
                    } => {
                        // Same normalization as the DC stamp (see mna.rs):
                        // the small-signal gm/gds stamps are sign-invariant.
                        let sign = match polarity {
                            MosPolarity::Nmos => 1.0,
                            MosPolarity::Pmos => -1.0,
                        };
                        let (nvd, nvg, nvs) = (sign * v(*d), sign * v(*g), sign * v(*s));
                        let (hd, hs, nhd, nhs) = if nvd < nvs {
                            (*s, *d, nvs, nvd)
                        } else {
                            (*d, *s, nvd, nvs)
                        };
                        let (_, gm, gds) = nmos_eval(nvg - nhs, nhd - nhs, *vth, *kp, *lambda);
                        stamp_g(&mut m, hd, hs, Cplx::new(gds, 0.0));
                        stamp_gm(&mut m, hd, hs, *g, hs, gm);
                    }
                }
            }
            solutions.push(m.solve(rhs)?);
        }
        Ok(AcSweep {
            freqs: freqs.to_vec(),
            solutions,
            node_count: layout.node_count,
        })
    }
}

/// Builds a logarithmically spaced frequency grid.
///
/// # Panics
///
/// Panics if bounds are not positive or `points < 2`.
pub fn log_space(f_start: f64, f_stop: f64, points: usize) -> Vec<f64> {
    assert!(
        f_start > 0.0 && f_stop > f_start,
        "invalid frequency bounds"
    );
    assert!(points >= 2, "need at least 2 points");
    let l0 = f_start.log10();
    let l1 = f_stop.log10();
    (0..points)
        .map(|i| 10f64.powf(l0 + (l1 - l0) * i as f64 / (points - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc_lowpass() -> (Netlist, DeviceId, NodeId) {
        let mut nl = Netlist::new();
        let s = nl.node("in");
        let o = nl.node("out");
        let vs = nl.vsource(s, Netlist::GND, 0.0);
        nl.resistor(s, o, 1e3);
        nl.capacitor(o, Netlist::GND, 1e-9);
        (nl, vs, o)
    }

    #[test]
    fn rc_pole_minus_3db_and_phase() {
        let (nl, vs, out) = rc_lowpass();
        let fp = 1.0 / (2.0 * PI * 1e3 * 1e-9);
        let sweep = AcSolver::new()
            .solve(&nl, vs, &[fp / 100.0, fp, fp * 100.0])
            .unwrap();
        // Far below the pole: 0 dB, ~0°.
        assert!(sweep.magnitude_db(0, out).abs() < 0.01);
        assert!(sweep.phase_deg(0, out).abs() < 1.0);
        // At the pole: −3.01 dB, −45°.
        assert!((sweep.magnitude_db(1, out) + 3.0103).abs() < 0.01);
        assert!((sweep.phase_deg(1, out) + 45.0).abs() < 0.5);
        // Two decades above: −40 dB, approaching −90°.
        assert!((sweep.magnitude_db(2, out) + 40.0).abs() < 0.1);
        assert!((sweep.phase_deg(2, out) + 90.0).abs() < 2.0);
    }

    #[test]
    fn highpass_blocks_low_frequencies() {
        let mut nl = Netlist::new();
        let s = nl.node("in");
        let o = nl.node("out");
        let vs = nl.vsource(s, Netlist::GND, 0.0);
        nl.capacitor(s, o, 1e-9);
        nl.resistor(o, Netlist::GND, 1e3);
        let fp = 1.0 / (2.0 * PI * 1e3 * 1e-9);
        let sweep = AcSolver::new()
            .solve(&nl, vs, &[fp / 100.0, fp * 100.0])
            .unwrap();
        assert!(sweep.magnitude_db(0, o) < -35.0);
        assert!(sweep.magnitude_db(1, o).abs() < 0.1);
    }

    #[test]
    fn resistive_divider_is_flat() {
        let mut nl = Netlist::new();
        let s = nl.node("in");
        let o = nl.node("out");
        let vs = nl.vsource(s, Netlist::GND, 0.0);
        nl.resistor(s, o, 2e3);
        nl.resistor(o, Netlist::GND, 1e3);
        let sweep = AcSolver::new()
            .solve(&nl, vs, &log_space(1.0, 1e9, 7))
            .unwrap();
        for i in 0..7 {
            assert!((sweep.magnitude_db(i, o) + 9.542).abs() < 0.01, "point {i}");
        }
    }

    #[test]
    fn common_source_gain_is_minus_gm_rl() {
        // NMOS in saturation: small-signal gain −gm·RL at low frequency.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let d = nl.node("d");
        nl.vsource(vdd, Netlist::GND, 3.0);
        let vin = nl.vsource(g, Netlist::GND, 1.0);
        nl.resistor(vdd, d, 10e3);
        nl.mosfet(d, g, Netlist::GND, MosPolarity::Nmos, 0.5, 2e-4, 0.0);
        let sweep = AcSolver::new().solve(&nl, vin, &[1e3]).unwrap();
        // gm = kp·vov = 2e-4·0.5 = 1e-4 S → gain = −1.0 (0 dB, 180°).
        let gain = sweep.voltage(0, d);
        assert!((gain.abs() - 1.0).abs() < 0.01, "|gain| {}", gain.abs());
        assert!((sweep.phase_deg(0, d).abs() - 180.0).abs() < 1.0);
    }

    #[test]
    fn second_source_is_zeroed() {
        // Two sources; only the excited one drives the AC solution.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let o = nl.node("o");
        let v1 = nl.vsource(a, Netlist::GND, 1.0);
        nl.vsource(b, Netlist::GND, 2.0);
        nl.resistor(a, o, 1e3);
        nl.resistor(b, o, 1e3);
        let sweep = AcSolver::new().solve(&nl, v1, &[1e3]).unwrap();
        // v(o) = 0.5·v(a): the other source is an AC ground.
        assert!((sweep.voltage(0, o).abs() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn log_space_endpoints() {
        let f = log_space(10.0, 1e6, 6);
        assert_eq!(f.len(), 6);
        assert!((f[0] - 10.0).abs() < 1e-9);
        assert!((f[5] - 1e6).abs() < 1e-3);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    #[should_panic]
    fn non_source_excitation_panics() {
        let (nl, _, _) = rc_lowpass();
        // Device 1 is the resistor.
        AcSolver::new()
            .solve(&nl, crate::netlist::DeviceId(1), &[1e3])
            .unwrap();
    }
}
