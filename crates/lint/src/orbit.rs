//! Symmetry-orbit computation over netlists: Weisfeiler–Leman color
//! refinement, canonical labeling, and the automorphism-induced orbit
//! partition of nodes and devices.
//!
//! The netlist is modeled as a **colored multigraph**: one vertex per
//! circuit node and one per device, with an edge for every terminal,
//! labeled by the terminal's role (the two ends of a resistor are
//! interchangeable; a MOSFET's drain, gate, and source are not). Initial
//! vertex colors encode everything an automorphism must preserve — device
//! kind, quantized parameters, switch state, ground, and the caller's
//! observation coloring (which nodes an invariance watches).
//!
//! Three results come out of one construction:
//!
//! 1. **Stable WL colors** — iterative refinement until the partition
//!    stops splitting. Color ids are assigned by *sorted signature*, so
//!    they are invariant under any re-ordering or renaming of the input
//!    deck (the determinism the CI gate asserts).
//! 2. **Canonical certificate** — when refinement stalls on a
//!    non-discrete partition, the analyzer individualizes every vertex of
//!    the first non-singleton cell in turn and keeps the lexicographically
//!    smallest fully-refined encoding: a canonical form of the colored
//!    graph, equal for isomorphic decks.
//! 3. **Orbit partition** — two vertices share an orbit iff some
//!    automorphism maps one to the other. A same-cell pair `u, v` is
//!    co-orbital exactly when the canonical certificates of the
//!    `u`-marked and `v`-marked graphs coincide — and when they do, the
//!    two discrete colorings hand over the automorphism *explicitly* (the
//!    position map between them), which is unioned over **all** vertices
//!    at once. One mirror generator therefore merges every P/N pair in
//!    the deck in a single step, so orbits cost a handful of marked
//!    certificates rather than one per symmetric vertex. The result is
//!    *exact* (not the WL approximation): WL cells can only over-merge,
//!    and the marked certificate comparison splits any spurious merge.
//!
//! Cost: refinement is near-linear per pass; certificates branch over one
//! cell per level. Circuit symmetry groups here are tiny (mirror pairs,
//! replica triples), so cells stay small; a branch budget guards the
//! pathological case and degrades *soundly* (vertices fall back to
//! singleton orbits — equivalence is under-claimed, never over-claimed).

use std::collections::BTreeMap;

use symbist_circuit::netlist::{Device, Netlist, NodeId, SourceWave};
use symbist_circuit::topology::DisjointSet;
use symbist_obs::hash::Fnv1a;

/// Terminal roles. Symmetric two-terminal devices use the same role for
/// both ends, which is what lets WL discover their end-swap symmetry.
const ROLE_SYM: u8 = 0;
const ROLE_P: u8 = 1;
const ROLE_N: u8 = 2;
const ROLE_D: u8 = 3;
const ROLE_G: u8 = 4;
const ROLE_S: u8 = 5;
const ROLE_CP: u8 = 6;
const ROLE_CN: u8 = 7;

/// Branch budget for canonical-certificate search. Every individualization
/// branch costs one refinement sweep; circuits with human-scale symmetry
/// use a handful. Exceeding the budget aborts the certificate (`None`),
/// which callers must treat as "split conservatively".
const BRANCH_BUDGET: usize = 4096;

/// Quantizes a parameter for color comparison: 12 significant digits,
/// enough to absorb formatting round-trips while keeping any deliberate
/// value split (±50 % defects, sub-radix weights) distinct.
fn quant(v: f64) -> String {
    format!("{v:.12e}")
}

fn wave_color(wave: &SourceWave) -> String {
    match wave {
        SourceWave::Dc(v) => format!("dc:{}", quant(*v)),
        SourceWave::Pulse {
            low,
            high,
            delay,
            rise,
            fall,
            width,
            period,
        } => format!(
            "pulse:{}:{}:{}:{}:{}:{}:{}",
            quant(*low),
            quant(*high),
            quant(*delay),
            quant(*rise),
            quant(*fall),
            quant(*width),
            quant(*period)
        ),
        SourceWave::Pwl(points) => {
            let mut s = "pwl".to_string();
            for &(t, v) in points {
                s.push(':');
                s.push_str(&quant(t));
                s.push(':');
                s.push_str(&quant(v));
            }
            s
        }
        SourceWave::Sine {
            offset,
            ampl,
            freq,
            delay,
        } => format!(
            "sine:{}:{}:{}:{}",
            quant(*offset),
            quant(*ampl),
            quant(*freq),
            quant(*delay)
        ),
    }
}

/// Device color: kind tag plus quantized parameters. Terminals are
/// *not* part of the color — the graph edges carry them.
fn device_color(device: &Device) -> String {
    match device {
        Device::Resistor { ohms, .. } => format!("R:{}", quant(*ohms)),
        Device::Capacitor { farads, ic, .. } => match ic {
            Some(v) => format!("C:{}:ic{}", quant(*farads), quant(*v)),
            None => format!("C:{}", quant(*farads)),
        },
        Device::VSource { wave, .. } => format!("V:{}", wave_color(wave)),
        Device::ISource { wave, .. } => format!("I:{}", wave_color(wave)),
        Device::Switch {
            closed,
            r_on,
            r_off,
            ..
        } => format!(
            "S:{}:{}:{}",
            if *closed { "on" } else { "off" },
            quant(*r_on),
            quant(*r_off)
        ),
        Device::Diode {
            i_sat, ideality, ..
        } => format!("D:{}:{}", quant(*i_sat), quant(*ideality)),
        Device::Mosfet {
            polarity,
            vth,
            kp,
            lambda,
            ..
        } => format!(
            "M:{polarity:?}:{}:{}:{}",
            quant(*vth),
            quant(*kp),
            quant(*lambda)
        ),
        Device::Vcvs { gain, .. } => format!("E:{}", quant(*gain)),
        Device::Vccs { gm, .. } => format!("G:{}", quant(*gm)),
    }
}

fn terminal_roles(device: &Device) -> Vec<(u8, NodeId)> {
    match *device {
        Device::Resistor { a, b, .. }
        | Device::Capacitor { a, b, .. }
        | Device::Switch { a, b, .. } => vec![(ROLE_SYM, a), (ROLE_SYM, b)],
        Device::VSource { p, n, .. } | Device::ISource { p, n, .. } => {
            vec![(ROLE_P, p), (ROLE_N, n)]
        }
        Device::Diode { anode, cathode, .. } => vec![(ROLE_P, anode), (ROLE_N, cathode)],
        Device::Mosfet { d, g, s, .. } => vec![(ROLE_D, d), (ROLE_G, g), (ROLE_S, s)],
        Device::Vcvs { p, n, cp, cn, .. } | Device::Vccs { p, n, cp, cn, .. } => {
            vec![(ROLE_P, p), (ROLE_N, n), (ROLE_CP, cp), (ROLE_CN, cn)]
        }
    }
}

/// The colored multigraph of a netlist: vertices `0..node_count` are the
/// circuit nodes, `node_count..node_count+device_count` the devices.
struct ColoredGraph {
    node_count: usize,
    vertex_count: usize,
    /// Per-vertex adjacency: `(role, other_vertex)`, sorted.
    adj: Vec<Vec<(u8, usize)>>,
    /// Canonical initial color id per vertex (dense, by sorted color
    /// string — invariant under deck order and node naming).
    initial: Vec<u32>,
    initial_count: usize,
}

impl ColoredGraph {
    fn build(nl: &Netlist, node_colors: &BTreeMap<usize, String>) -> ColoredGraph {
        let node_count = nl.node_count();
        let device_count = nl.device_count();
        let vertex_count = node_count + device_count;
        let mut adj: Vec<Vec<(u8, usize)>> = vec![Vec::new(); vertex_count];
        let mut color_strings: Vec<String> = Vec::with_capacity(vertex_count);

        for node in nl.nodes() {
            let idx = node.index();
            let tag = node_colors.get(&idx).cloned().unwrap_or_default();
            if node.is_ground() {
                color_strings.push(format!("node:gnd:{tag}"));
            } else {
                // Deliberately name-blind: two isomorphic decks with
                // different node names must land on the same colors.
                color_strings.push(format!("node:{tag}"));
            }
        }
        for (id, device) in nl.iter() {
            let dv = node_count + id.index();
            color_strings.push(format!("dev:{}", device_color(device)));
            for (role, node) in terminal_roles(device) {
                adj[dv].push((role, node.index()));
                adj[node.index()].push((role, dv));
            }
        }
        for list in &mut adj {
            list.sort_unstable();
        }

        // Dense canonical ids by sorted distinct color string.
        let mut distinct: Vec<&String> = color_strings.iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let index: BTreeMap<&String, u32> = distinct
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, i as u32))
            .collect();
        let initial: Vec<u32> = color_strings.iter().map(|s| index[s]).collect();
        ColoredGraph {
            node_count,
            vertex_count,
            adj,
            initial_count: distinct.len(),
            initial,
        }
    }

    /// One full WL refinement: iterate color-splitting passes until the
    /// number of distinct colors stabilizes. Returns the stable coloring
    /// (dense ids assigned by sorted signature — canonical).
    fn refine(&self, start: &[u32]) -> Vec<u32> {
        /// One WL signature: own color plus the sorted
        /// `(edge role, neighbor color)` multiset.
        type WlSignature = (u32, Vec<(u8, u32)>);
        let mut colors = start.to_vec();
        let mut distinct = {
            let mut c = colors.clone();
            c.sort_unstable();
            c.dedup();
            c.len()
        };
        loop {
            let mut signatures: Vec<WlSignature> = Vec::with_capacity(self.vertex_count);
            for v in 0..self.vertex_count {
                let mut neigh: Vec<(u8, u32)> = self.adj[v]
                    .iter()
                    .map(|&(role, u)| (role, colors[u]))
                    .collect();
                neigh.sort_unstable();
                signatures.push((colors[v], neigh));
            }
            let mut order: Vec<&WlSignature> = signatures.iter().collect();
            order.sort_unstable();
            order.dedup();
            if order.len() == distinct {
                return colors;
            }
            distinct = order.len();
            let index: BTreeMap<&WlSignature, u32> = order
                .iter()
                .enumerate()
                .map(|(i, s)| (*s, i as u32))
                .collect();
            colors = signatures.iter().map(|s| index[s]).collect();
        }
    }

    fn is_discrete(&self, colors: &[u32]) -> bool {
        let mut seen = vec![false; self.vertex_count];
        for &c in colors {
            let c = c as usize;
            if seen[c] {
                return false;
            }
            seen[c] = true;
        }
        true
    }

    /// First (smallest color id) cell with more than one member.
    fn first_nonsingleton_cell(&self, colors: &[u32]) -> Option<Vec<usize>> {
        let mut cells: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (v, &c) in colors.iter().enumerate() {
            cells.entry(c).or_default().push(v);
        }
        cells.into_values().find(|members| members.len() > 1)
    }

    /// Encodes a *discrete* coloring as a comparable certificate: for each
    /// vertex in canonical (color) order, its initial color and its sorted
    /// role-labeled adjacency in canonical indices.
    fn encode(&self, colors: &[u32]) -> Vec<u64> {
        debug_assert!(self.is_discrete(colors));
        let mut by_color: Vec<usize> = (0..self.vertex_count).collect();
        by_color.sort_unstable_by_key(|&v| colors[v]);
        let mut cert: Vec<u64> = Vec::with_capacity(self.vertex_count * 4);
        cert.push(self.vertex_count as u64);
        cert.push(self.node_count as u64);
        for &v in &by_color {
            cert.push(u64::from(self.initial[v]));
            let mut edges: Vec<(u8, u32)> = self.adj[v]
                .iter()
                .map(|&(role, u)| (role, colors[u]))
                .collect();
            edges.sort_unstable();
            cert.push(edges.len() as u64);
            for (role, c) in edges {
                cert.push((u64::from(role) << 32) | u64::from(c));
            }
        }
        cert
    }

    /// Canonical certificate of the graph under `start` colors: the
    /// lexicographically smallest encoding over all individualization
    /// branches, together with the discrete coloring that realizes it.
    /// `None` when the branch budget runs out.
    fn canonical(&self, start: &[u32], budget: &mut usize) -> Option<(Vec<u64>, Vec<u32>)> {
        let colors = self.refine(start);
        if self.is_discrete(&colors) {
            return Some((self.encode(&colors), colors));
        }
        let cell = self
            .first_nonsingleton_cell(&colors)
            .expect("non-discrete coloring has a non-singleton cell");
        let mut best: Option<(Vec<u64>, Vec<u32>)> = None;
        for v in cell {
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            let mut branched = colors.clone();
            // Individualize: give v a fresh color *below* every other so
            // the choice is positionally canonical across branches.
            for c in &mut branched {
                *c += 1;
            }
            branched[v] = 0;
            let cand = self.canonical(&branched, budget)?;
            best = Some(match best {
                Some(b) if b.0 <= cand.0 => b,
                _ => cand,
            });
        }
        best
    }

    /// Canonical certificate of the graph with vertex `v` marked
    /// (individualized). Equal marked certificates ⇔ an automorphism maps
    /// the two marked vertices onto each other — and the two returned
    /// discrete colorings realize it as an explicit position map.
    fn marked_canonical(
        &self,
        stable: &[u32],
        v: usize,
        budget: &mut usize,
    ) -> Option<(Vec<u64>, Vec<u32>)> {
        let mut marked = stable.to_vec();
        for c in &mut marked {
            *c += 1;
        }
        marked[v] = 0;
        self.canonical(&marked, budget)
    }
}

/// The orbit partition of one netlist.
#[derive(Debug, Clone)]
pub struct OrbitPartition {
    /// Orbit id per circuit node, indexed by `NodeId::index()`. Ids are
    /// canonical: isomorphic decks produce identical id assignments for
    /// corresponding vertices.
    pub node_orbits: Vec<usize>,
    /// Orbit id per device, indexed by `DeviceId::index()`. Shares the id
    /// space with `node_orbits`.
    pub device_orbits: Vec<usize>,
    /// Total distinct orbits across nodes and devices.
    pub orbit_count: usize,
    /// FNV-1a hash of the canonical certificate — a deck fingerprint that
    /// is stable across card shuffles and node renames.
    pub certificate: u64,
}

impl OrbitPartition {
    /// Number of distinct node orbits.
    pub fn node_orbit_count(&self) -> usize {
        let mut ids: Vec<usize> = self.node_orbits.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Number of distinct device orbits.
    pub fn device_orbit_count(&self) -> usize {
        let mut ids: Vec<usize> = self.device_orbits.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// FNV-1a over the little-endian bytes of `data`.
fn fnv1a(data: &[u64]) -> u64 {
    let mut h = Fnv1a::default();
    for word in data {
        h.write(&word.to_le_bytes());
    }
    h.finish()
}

/// Computes the orbit partition of `nl`. `node_colors` carries the
/// observation coloring: `NodeId::index() → tag`; an automorphism must
/// preserve each tag, which is what restricts orbits to symmetries that
/// fix every invariance's observation structure.
///
/// Orbits are **exact** automorphism orbits (soundness): WL cells are
/// split by marked-certificate comparison, and a budget overrun degrades
/// to singleton orbits rather than over-merged ones.
pub fn orbit_partition(nl: &Netlist, node_colors: &BTreeMap<usize, String>) -> OrbitPartition {
    let graph = ColoredGraph::build(nl, node_colors);
    let initial: Vec<u32> = graph.initial.clone();
    debug_assert!(graph.initial_count <= graph.vertex_count);
    let stable = graph.refine(&initial);

    let mut cells: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (v, &c) in stable.iter().enumerate() {
        cells.entry(c).or_default().push(v);
    }

    // Discover automorphism generators cell by cell. Within a cell, one
    // representative per not-yet-merged group is marked and canonically
    // certified; equal certificates prove co-orbitality *and* hand over
    // the automorphism explicitly (the position map between the two
    // discrete colorings), which is unioned across every vertex of the
    // deck. The first mirror generator therefore merges every P/N pair at
    // once, and later cells collapse to a single group before any of
    // their certificates are computed.
    let mut dsu = DisjointSet::new(graph.vertex_count);
    let mut cert_of: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for members in cells.values() {
        if members.len() == 1 {
            continue;
        }
        // Representatives of the current merge-groups, in member order.
        let mut reps: Vec<usize> = Vec::new();
        let mut roots: Vec<usize> = Vec::new();
        for &v in members {
            let root = dsu.find(v);
            if !roots.contains(&root) {
                roots.push(root);
                reps.push(v);
            }
        }
        if reps.len() == 1 {
            continue;
        }
        let mut done: Vec<(Vec<u64>, Vec<u32>, usize)> = Vec::new();
        for v in reps {
            let mut budget = BRANCH_BUDGET;
            let Some((cert, coloring)) = graph.marked_canonical(&stable, v, &mut budget) else {
                // Budget overrun: conservative singleton group.
                continue;
            };
            if let Some((_, prior_coloring, _)) = done.iter().find(|(prior, _, _)| *prior == cert) {
                // Same certificate: σ(x) = the vertex holding x's canonical
                // position in the prior coloring — an automorphism mapping
                // v onto the prior representative. Union its entire cycle
                // structure, not just the tested pair.
                let mut pos = vec![0usize; graph.vertex_count];
                for (x, &c) in prior_coloring.iter().enumerate() {
                    pos[c as usize] = x;
                }
                for (x, &c) in coloring.iter().enumerate() {
                    dsu.union(x, pos[c as usize]);
                }
            } else {
                cert_of.insert(v, cert.clone());
                done.push((cert, coloring, v));
            }
        }
    }

    // Canonical orbit ids: cells in color order; groups inside a cell
    // ordered by marked certificate (deck-invariant), with certificate-
    // less groups — the budget-degraded remainder — last, in member
    // order.
    let mut orbit_of: Vec<usize> = vec![0; graph.vertex_count];
    let mut next_orbit = 0;
    for members in cells.values() {
        if members.len() == 1 {
            orbit_of[members[0]] = next_orbit;
            next_orbit += 1;
            continue;
        }
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut order: Vec<usize> = Vec::new();
        for &v in members {
            let root = dsu.find(v);
            if !groups.contains_key(&root) {
                order.push(root);
            }
            groups.entry(root).or_default().push(v);
        }
        order.sort_by(|a, b| {
            let (ca, cb) = (
                groups[a].iter().find_map(|v| cert_of.get(v)),
                groups[b].iter().find_map(|v| cert_of.get(v)),
            );
            match (ca, cb) {
                (Some(ca), Some(cb)) => ca.cmp(cb),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }
        });
        for root in order {
            for &v in &groups[&root] {
                orbit_of[v] = next_orbit;
            }
            next_orbit += 1;
        }
    }

    let mut budget = BRANCH_BUDGET;
    let certificate = graph
        .canonical(&stable, &mut budget)
        .map(|(cert, _)| fnv1a(&cert))
        // Budget overrun: fall back to a weaker but still
        // shuffle-invariant fingerprint — the sorted stable colors.
        .unwrap_or_else(|| {
            let mut sorted: Vec<u64> = stable.iter().map(|&c| u64::from(c)).collect();
            sorted.sort_unstable();
            fnv1a(&sorted)
        });

    OrbitPartition {
        node_orbits: orbit_of[..graph.node_count].to_vec(),
        device_orbits: orbit_of[graph.node_count..].to_vec(),
        orbit_count: next_orbit,
        certificate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_colors() -> BTreeMap<usize, String> {
        BTreeMap::new()
    }

    /// A symmetric FD divider: two identical legs off one source.
    fn fd_divider() -> Netlist {
        let mut nl = Netlist::new();
        let vref = nl.node("vref");
        let outp = nl.node("outp");
        let outn = nl.node("outn");
        nl.vsource(vref, Netlist::GND, 1.2);
        nl.resistor(vref, outp, 1_000.0);
        nl.resistor(outp, Netlist::GND, 1_000.0);
        nl.resistor(vref, outn, 1_000.0);
        nl.resistor(outn, Netlist::GND, 1_000.0);
        nl
    }

    #[test]
    fn symmetric_legs_share_orbits() {
        let nl = fd_divider();
        let orbits = orbit_partition(&nl, &no_colors());
        let outp = nl.find_node("outp").unwrap().index();
        let outn = nl.find_node("outn").unwrap().index();
        assert_eq!(orbits.node_orbits[outp], orbits.node_orbits[outn]);
        // Devices 1..5 are the four leg resistors: upper pair and lower
        // pair each share an orbit, and the pairs differ.
        assert_eq!(orbits.device_orbits[1], orbits.device_orbits[3]);
        assert_eq!(orbits.device_orbits[2], orbits.device_orbits[4]);
        assert_ne!(orbits.device_orbits[1], orbits.device_orbits[2]);
    }

    #[test]
    fn observation_coloring_restricts_orbits() {
        let nl = fd_divider();
        let outp = nl.find_node("outp").unwrap().index();
        let outn = nl.find_node("outn").unwrap().index();
        // Same tag on both: the mirror survives.
        let mut same = BTreeMap::new();
        same.insert(outp, "obs".to_string());
        same.insert(outn, "obs".to_string());
        let orbits = orbit_partition(&nl, &same);
        assert_eq!(orbits.node_orbits[outp], orbits.node_orbits[outn]);
        // Distinct tags: the mirror is forbidden, everything splits.
        let mut distinct = BTreeMap::new();
        distinct.insert(outp, "obs-a".to_string());
        distinct.insert(outn, "obs-b".to_string());
        let orbits = orbit_partition(&nl, &distinct);
        assert_ne!(orbits.node_orbits[outp], orbits.node_orbits[outn]);
        assert_ne!(orbits.device_orbits[1], orbits.device_orbits[3]);
    }

    #[test]
    fn value_mismatch_splits_orbits() {
        let mut nl = Netlist::new();
        let vref = nl.node("vref");
        let outp = nl.node("outp");
        let outn = nl.node("outn");
        nl.vsource(vref, Netlist::GND, 1.2);
        nl.resistor(vref, outp, 1_000.0);
        nl.resistor(outp, Netlist::GND, 1_000.0);
        nl.resistor(vref, outn, 1_100.0); // broken mirror
        nl.resistor(outn, Netlist::GND, 1_000.0);
        let orbits = orbit_partition(&nl, &no_colors());
        let outp = nl.find_node("outp").unwrap().index();
        let outn = nl.find_node("outn").unwrap().index();
        assert_ne!(orbits.node_orbits[outp], orbits.node_orbits[outn]);
    }

    #[test]
    fn shuffled_isomorphic_decks_share_certificates() {
        // Same circuit, different card order and node names.
        let a = fd_divider();
        let mut b = Netlist::new();
        let n_out = b.node("neg_leg");
        let p_out = b.node("pos_leg");
        let supply = b.node("supply");
        b.resistor(n_out, Netlist::GND, 1_000.0);
        b.resistor(supply, n_out, 1_000.0);
        b.resistor(p_out, Netlist::GND, 1_000.0);
        b.vsource(supply, Netlist::GND, 1.2);
        b.resistor(supply, p_out, 1_000.0);
        let oa = orbit_partition(&a, &no_colors());
        let ob = orbit_partition(&b, &no_colors());
        assert_eq!(oa.certificate, ob.certificate);
        assert_eq!(oa.orbit_count, ob.orbit_count);
        assert_eq!(oa.node_orbit_count(), ob.node_orbit_count());
        assert_eq!(oa.device_orbit_count(), ob.device_orbit_count());
        // And a genuinely different deck does not collide.
        let mut c = fd_divider();
        let outp = c.find_node("outp").unwrap();
        c.capacitor(outp, Netlist::GND, 1e-12);
        let oc = orbit_partition(&c, &no_colors());
        assert_ne!(oa.certificate, oc.certificate);
    }

    #[test]
    fn asymmetric_roles_do_not_merge() {
        // Two anti-series diodes: anode/cathode roles differ, so the two
        // diodes must not share an orbit even though params match.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let mid = nl.node("mid");
        nl.vsource(a, Netlist::GND, 1.0);
        nl.diode(a, mid, 1e-15, 1.0);
        nl.diode(Netlist::GND, mid, 1e-15, 1.0);
        let orbits = orbit_partition(&nl, &no_colors());
        assert_ne!(orbits.device_orbits[1], orbits.device_orbits[2]);
    }

    #[test]
    fn three_way_replica_forms_one_orbit() {
        // Three identical legs: one orbit of size 3 per position.
        let mut nl = Netlist::new();
        let vref = nl.node("vref");
        nl.vsource(vref, Netlist::GND, 1.0);
        for name in ["x", "y", "z"] {
            let out = nl.node(name);
            nl.resistor(vref, out, 2_000.0);
            nl.resistor(out, Netlist::GND, 2_000.0);
        }
        let orbits = orbit_partition(&nl, &no_colors());
        let x = nl.find_node("x").unwrap().index();
        let y = nl.find_node("y").unwrap().index();
        let z = nl.find_node("z").unwrap().index();
        assert_eq!(orbits.node_orbits[x], orbits.node_orbits[y]);
        assert_eq!(orbits.node_orbits[y], orbits.node_orbits[z]);
    }
}
