//! Modified Nodal Analysis assembly.
//!
//! This module turns a [`Netlist`] plus an evaluation context (time, source
//! scale, Newton guess, capacitor companion models) into the linear system
//! `A x = b`, where `x` stacks non-ground node voltages followed by branch
//! currents of voltage-defined elements.
//!
//! The assembly is re-run at every Newton iteration / time step; the layout
//! (index assignment) is computed once per topology.

use crate::matrix::{Matrix, SingularMatrixError};
use crate::netlist::{Device, DeviceId, MosPolarity, Netlist, NodeId};
use crate::sparse::{analyze_cached, FnvHasher, Numeric, Symbolic};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::rc::Rc;

/// Thermal voltage at room temperature, kT/q at 300 K.
pub const VT_THERMAL: f64 = 0.025852;
/// Reference temperature for device parameters (kelvin).
pub const T_NOMINAL_K: f64 = 300.0;
/// Boltzmann constant over electron charge, V/K — defined as
/// `VT_THERMAL / T_NOMINAL_K` so the nominal-temperature path is
/// bit-identical to the temperature-unaware model.
pub const K_OVER_Q: f64 = VT_THERMAL / T_NOMINAL_K;
/// Silicon bandgap energy in eV (for diode Is(T) scaling).
pub const SILICON_EG: f64 = 1.12;

/// Temperature-dependent device parameters.
///
/// * Diode: `Vt = kT/q`; `Is(T) = Is·(T/T0)³·exp(Eg/k·(1/T0 − 1/T))` — the
///   classic scaling that makes VBE complementary-to-absolute-temperature.
/// * MOSFET: `Vth(T) = Vth − 2 mV/K·(T − T0)`, `kp(T) = kp·(T0/T)^1.5`
///   (mobility degradation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Thermal {
    pub temp_k: f64,
}

impl Thermal {
    pub(crate) fn new(temp_k: f64) -> Self {
        debug_assert!(temp_k > 0.0);
        Self { temp_k }
    }

    pub(crate) fn vt(&self) -> f64 {
        K_OVER_Q * self.temp_k
    }

    pub(crate) fn diode_is(&self, i_sat_nominal: f64) -> f64 {
        let t = self.temp_k;
        let ratio = t / T_NOMINAL_K;
        i_sat_nominal
            * ratio.powi(3)
            * (SILICON_EG / K_OVER_Q * (1.0 / T_NOMINAL_K - 1.0 / t)).exp()
    }

    pub(crate) fn mos_vth(&self, vth_nominal: f64) -> f64 {
        (vth_nominal - 0.002 * (self.temp_k - T_NOMINAL_K)).max(0.01)
    }

    pub(crate) fn mos_kp(&self, kp_nominal: f64) -> f64 {
        kp_nominal * (T_NOMINAL_K / self.temp_k).powf(1.5)
    }
}

/// Maximum diode exponent before linear extrapolation, to keep the Jacobian
/// finite (`exp(40) ≈ 2.4e17`).
const DIODE_EXP_MAX: f64 = 40.0;

/// Index layout of the MNA unknown vector.
#[derive(Debug, Clone)]
pub(crate) struct MnaLayout {
    /// Number of circuit nodes including ground.
    pub node_count: usize,
    /// Branch index (offset after node voltages) per voltage-defined device,
    /// indexed by device id; `usize::MAX` when the device has no branch.
    pub branch_of: Vec<usize>,
    /// Total unknowns.
    pub dim: usize,
}

impl MnaLayout {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let node_count = netlist.node_count();
        let mut branch_of = vec![usize::MAX; netlist.device_count()];
        let mut next = node_count - 1;
        for (id, dev) in netlist.iter() {
            if dev.has_branch() {
                branch_of[id.index()] = next;
                next += 1;
            }
        }
        Self {
            node_count,
            branch_of,
            dim: next,
        }
    }

    /// Index of a node voltage in the unknown vector, `None` for ground.
    #[inline]
    pub(crate) fn node_index(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    /// Branch-current index of a voltage-defined device.
    ///
    /// # Panics
    ///
    /// Panics if the device has no branch current.
    pub(crate) fn branch_index(&self, id: DeviceId) -> usize {
        let b = self.branch_of[id.index()];
        assert!(b != usize::MAX, "device {id:?} has no branch current");
        b
    }
}

/// Companion-model state for one capacitor during transient analysis.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapCompanion {
    /// Equivalent conductance `C/h` (backward Euler).
    pub g: f64,
    /// Equivalent current source injected a → b.
    pub ieq: f64,
}

/// Evaluation context for one assembly pass.
#[derive(Debug)]
pub(crate) struct AssemblyCtx<'a> {
    /// Simulation time for waveform evaluation.
    pub time: f64,
    /// Scale factor on all independent sources (source stepping).
    pub source_scale: f64,
    /// Conductance added from every non-ground node to ground.
    pub gmin: f64,
    /// Current Newton guess (node voltages + branch currents).
    pub guess: &'a [f64],
    /// Per-device capacitor companion (indexed by device id); empty in DC
    /// analysis, in which case capacitors stamp only `gmin`-scale leakage.
    pub cap_companion: &'a [Option<CapCompanion>],
    /// Simulation temperature.
    pub thermal: Thermal,
}

/// Reusable assembly buffers.
#[derive(Debug)]
pub(crate) struct Assembler {
    pub layout: MnaLayout,
    pub matrix: Matrix,
    pub rhs: Vec<f64>,
}

impl Assembler {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let layout = MnaLayout::new(netlist);
        let dim = layout.dim;
        Self {
            layout,
            matrix: Matrix::zeros(dim, dim),
            rhs: vec![0.0; dim],
        }
    }

    #[inline]
    fn v(&self, ctx: &AssemblyCtx<'_>, n: NodeId) -> f64 {
        match self.layout.node_index(n) {
            None => 0.0,
            Some(i) => ctx.guess[i],
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    #[inline]
    fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        let ia = self.layout.node_index(a);
        let ib = self.layout.node_index(b);
        if let Some(i) = ia {
            self.matrix.add(i, i, g);
        }
        if let Some(j) = ib {
            self.matrix.add(j, j, g);
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            self.matrix.add(i, j, -g);
            self.matrix.add(j, i, -g);
        }
    }

    /// Stamps a current `i` flowing from node `p` through the element to
    /// node `n` (KCL: `i` leaves `p`, enters `n`).
    #[inline]
    fn stamp_current(&mut self, p: NodeId, n: NodeId, i: f64) {
        if let Some(ip) = self.layout.node_index(p) {
            self.rhs[ip] -= i;
        }
        if let Some(in_) = self.layout.node_index(n) {
            self.rhs[in_] += i;
        }
    }

    /// Stamps a transconductance: current `gm * (v(cp) − v(cn))` from `p`
    /// through the element to `n`.
    #[inline]
    fn stamp_vccs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) {
        let ip = self.layout.node_index(p);
        let in_ = self.layout.node_index(n);
        let icp = self.layout.node_index(cp);
        let icn = self.layout.node_index(cn);
        if let (Some(r), Some(c)) = (ip, icp) {
            self.matrix.add(r, c, gm);
        }
        if let (Some(r), Some(c)) = (ip, icn) {
            self.matrix.add(r, c, -gm);
        }
        if let (Some(r), Some(c)) = (in_, icp) {
            self.matrix.add(r, c, -gm);
        }
        if let (Some(r), Some(c)) = (in_, icn) {
            self.matrix.add(r, c, gm);
        }
    }

    /// Assembles the full MNA system for the given context.
    pub(crate) fn assemble(&mut self, netlist: &Netlist, ctx: &AssemblyCtx<'_>) {
        self.matrix.clear();
        self.rhs.fill(0.0);

        // gmin from every non-ground node to ground keeps otherwise floating
        // nodes (e.g. capacitor-only nodes in DC) solvable.
        if ctx.gmin > 0.0 {
            for i in 0..(self.layout.node_count - 1) {
                self.matrix.add(i, i, ctx.gmin);
            }
        }

        for (id, dev) in netlist.iter() {
            match dev {
                Device::Resistor { a, b, ohms } => {
                    self.stamp_conductance(*a, *b, 1.0 / ohms);
                }
                Device::Switch {
                    a,
                    b,
                    closed,
                    r_on,
                    r_off,
                } => {
                    let r = if *closed { *r_on } else { *r_off };
                    self.stamp_conductance(*a, *b, 1.0 / r);
                }
                Device::Capacitor { a, b, .. } => {
                    if let Some(Some(comp)) = ctx.cap_companion.get(id.index()) {
                        self.stamp_conductance(*a, *b, comp.g);
                        // ieq is injected from b to a (i.e. it *feeds* node a)
                        // so that i_cap = g·v − ieq.
                        self.stamp_current(*a, *b, -comp.ieq);
                    }
                    // DC: capacitor is an open circuit (gmin covers floating
                    // nodes).
                }
                Device::VSource { p, n, wave } => {
                    let br = self.layout.branch_index(id);
                    let val = wave.at(ctx.time) * ctx.source_scale;
                    if let Some(ip) = self.layout.node_index(*p) {
                        self.matrix.add(ip, br, 1.0);
                        self.matrix.add(br, ip, 1.0);
                    }
                    if let Some(in_) = self.layout.node_index(*n) {
                        self.matrix.add(in_, br, -1.0);
                        self.matrix.add(br, in_, -1.0);
                    }
                    self.rhs[br] += val;
                }
                Device::ISource { p, n, wave } => {
                    let val = wave.at(ctx.time) * ctx.source_scale;
                    self.stamp_current(*p, *n, val);
                }
                Device::Vcvs { p, n, cp, cn, gain } => {
                    let br = self.layout.branch_index(id);
                    if let Some(ip) = self.layout.node_index(*p) {
                        self.matrix.add(ip, br, 1.0);
                        self.matrix.add(br, ip, 1.0);
                    }
                    if let Some(in_) = self.layout.node_index(*n) {
                        self.matrix.add(in_, br, -1.0);
                        self.matrix.add(br, in_, -1.0);
                    }
                    if let Some(icp) = self.layout.node_index(*cp) {
                        self.matrix.add(br, icp, -gain);
                    }
                    if let Some(icn) = self.layout.node_index(*cn) {
                        self.matrix.add(br, icn, *gain);
                    }
                }
                Device::Vccs { p, n, cp, cn, gm } => {
                    self.stamp_vccs(*p, *n, *cp, *cn, *gm);
                }
                Device::Diode {
                    anode,
                    cathode,
                    i_sat,
                    ideality,
                } => {
                    let vd = self.v(ctx, *anode) - self.v(ctx, *cathode);
                    let nvt = ideality * ctx.thermal.vt();
                    let is_eff = ctx.thermal.diode_is(*i_sat);
                    let (i, g) = diode_eval(vd, is_eff, nvt);
                    let ieq = i - g * vd;
                    self.stamp_conductance(*anode, *cathode, g);
                    self.stamp_current(*anode, *cathode, ieq);
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
                    let vth_t = ctx.thermal.mos_vth(*vth);
                    let kp_t = ctx.thermal.mos_kp(*kp);
                    self.stamp_mosfet(ctx, *d, *g, *s, *polarity, vth_t, kp_t, *lambda);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn stamp_mosfet(
        &mut self,
        ctx: &AssemblyCtx<'_>,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        polarity: MosPolarity,
        vth: f64,
        kp: f64,
        lambda: f64,
    ) {
        let vd = self.v(ctx, d);
        let vg = self.v(ctx, g);
        let vs = self.v(ctx, s);

        // Normalize to NMOS-like voltages. For PMOS we flip every sign so
        // that the same square-law expressions apply, then flip the
        // resulting current direction back.
        let sign = match polarity {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        };
        let (nvd, nvg, nvs) = (sign * vd, sign * vg, sign * vs);

        // The MOS is symmetric: if the normalized drain is below the
        // normalized source, exchange roles.
        let swapped = nvd < nvs;
        let (hd, hs, nhd, nhs) = if swapped {
            (s, d, nvs, nvd)
        } else {
            (d, s, nvd, nvs)
        };

        let vgs = nvg - nhs;
        let vds = nhd - nhs;
        let (ids, gm, gds) = nmos_eval(vgs, vds, vth, kp, lambda);

        // Companion: i(vgs, vds) ≈ ids + gm·Δvgs + gds·Δvds.
        // Current flows hd → hs in normalized space; `sign` maps it back.
        // In original node space for PMOS, a positive normalized ids means
        // current from hs to hd (i.e. source to drain), which the sign flip
        // on the stamp handles because conductances are sign-invariant and
        // the equivalent current flips direction.
        // Real current hd → hs expands to
        //   gm·(v(g) − v(hs)) + gds·(v(hd) − v(hs)) + sign·ieq
        // because for PMOS both the control voltage and the output current
        // flip sign (the two flips cancel in the gm/gds terms).
        let ieq = ids - gm * vgs - gds * vds;
        let _ = swapped;
        self.stamp_conductance(hd, hs, gds);
        self.stamp_vccs(hd, hs, g, hs, gm);
        self.stamp_current(hd, hs, sign * ieq);
    }
}

/// Sparse MNA assembler for linear netlists.
///
/// The expensive per-topology work — sparsity-pattern discovery, fill-reducing
/// ordering, symbolic factorization, and stamping of every device — happens
/// once. Each solve then only rebuilds the right-hand side and, when the
/// matrix values changed, runs the static-pattern numeric refactorization
/// from [`crate::sparse`].
///
/// Device values *can* change between solves (switches toggled by the SAR
/// controller, capacitor companions when `dt` changes, `gmin` stepping); a
/// per-device fingerprint detects that and rebuilds the matrix lazily.
///
/// Netlists with a diode or MOSFET never get one: [`MnaEngine::new`] routes
/// them to the dense path.
#[derive(Debug)]
pub(crate) struct SparseAssembler {
    symbolic: Rc<Symbolic>,
    numeric: Numeric,
    /// Cached matrix values.
    base: Vec<f64>,
    /// The values the current factorization was computed from; when `base`
    /// is bit-identical (every solve after the first at an unchanged switch
    /// state), the refactorization is skipped.
    factored: Vec<f64>,
    pub rhs: Vec<f64>,
    /// Per-device value fingerprint; a change forces a base rebuild.
    fingerprint: Vec<f64>,
    /// gmin the base was built with (part of the fingerprint).
    base_gmin: f64,
    /// `true` until the first base build.
    base_dirty: bool,
    /// Structure key this assembler was built for; used to return it to the
    /// per-topology cache when the owning engine is dropped.
    key: Vec<u64>,
}

/// Panic message for a nonlinear device reaching the sparse assembler.
const LINEAR_ONLY: &str = "sparse assembly is for linear netlists only";

/// Per-thread assemblers keyed by topology, each stamped with the tick of
/// its last release. [`SparseAssembler::obtain`] removes an entry and
/// [`SparseAssembler::release`] re-inserts it, so the smallest stamp is the
/// least recently used topology.
#[derive(Default)]
struct AssemblerCache {
    entries: HashMap<Vec<u64>, (u64, SparseAssembler), BuildHasherDefault<FnvHasher>>,
    tick: u64,
}

thread_local! {
    static ASSEMBLER_CACHE: RefCell<AssemblerCache> = RefCell::new(AssemblerCache::default());
}

/// Entry cap on the per-thread assembler cache; on overflow the least
/// recently released topology is evicted. A defect campaign keeps a few
/// dozen topologies hot (the healthy blocks plus their common defect
/// variants) and streams hundreds of one-off defect topologies past them;
/// recency eviction drops the one-offs without flushing the hot set.
const ASSEMBLER_CACHE_CAP: usize = 64;

impl SparseAssembler {
    /// A cheap structural fingerprint of the netlist: device kinds and node
    /// wiring, excluding every value (resistances, source levels, switch
    /// state) — those are handled per solve by the per-device value
    /// fingerprint and the RHS rebuild.
    ///
    /// # Panics
    ///
    /// Panics on a diode or MOSFET.
    fn structure_key(netlist: &Netlist, dim: usize) -> Vec<u64> {
        let mut key = Vec::with_capacity(1 + netlist.device_count() * 4);
        key.push(dim as u64);
        let node = |n: &crate::netlist::NodeId| n.index() as u64;
        for (_, dev) in netlist.iter() {
            match dev {
                Device::Resistor { a, b, .. } => key.extend([1, node(a), node(b)]),
                Device::Switch { a, b, .. } => key.extend([2, node(a), node(b)]),
                Device::Capacitor { a, b, .. } => key.extend([3, node(a), node(b)]),
                Device::VSource { p, n, .. } => key.extend([5, node(p), node(n)]),
                Device::ISource { p, n, .. } => key.extend([6, node(p), node(n)]),
                Device::Vcvs { p, n, cp, cn, .. } => {
                    key.extend([7, node(p), node(n), node(cp), node(cn)]);
                }
                Device::Vccs { p, n, cp, cn, .. } => {
                    key.extend([8, node(p), node(n), node(cp), node(cn)]);
                }
                Device::Diode { .. } | Device::Mosfet { .. } => unreachable!("{LINEAR_ONLY}"),
            }
        }
        key
    }

    /// Fetches the assembler for this linear topology from the per-thread
    /// cache, or builds one on first sight. The caller owns it until
    /// [`Self::release`].
    ///
    /// A cached assembler may carry state from a *different netlist* of the
    /// same structure (other Monte-Carlo sample, toggled switches); that is
    /// safe by construction — the value fingerprint rebuilds the base on
    /// mismatch, the RHS is rebuilt from the actual netlist every solve,
    /// and the numeric factorization is refreshed whenever the assembled
    /// values change.
    ///
    /// # Panics
    ///
    /// Panics on a netlist with a diode or MOSFET.
    pub(crate) fn obtain(netlist: &Netlist, layout: &MnaLayout) -> Self {
        let key = Self::structure_key(netlist, layout.dim);
        let cached = ASSEMBLER_CACHE.with(|c| c.borrow_mut().entries.remove(&key));
        let mut asm = cached.map_or_else(|| Self::new(netlist, layout), |(_, asm)| asm);
        asm.key = key;
        asm
    }

    /// Returns the assembler to the per-thread cache for the next engine on
    /// the same topology.
    fn release(mut self) {
        let key = std::mem::take(&mut self.key);
        if key.is_empty() {
            return;
        }
        // `try_with`: drops during thread teardown must not panic.
        let _ = ASSEMBLER_CACHE.try_with(|c| {
            let mut cache = c.borrow_mut();
            if cache.entries.len() >= ASSEMBLER_CACHE_CAP {
                let oldest = cache
                    .entries
                    .iter()
                    .min_by_key(|(_, (tick, _))| *tick)
                    .map(|(k, _)| k.clone());
                if let Some(oldest) = oldest {
                    cache.entries.remove(&oldest);
                }
            }
            cache.tick += 1;
            let tick = cache.tick;
            cache.entries.insert(key, (tick, self));
        });
    }

    pub(crate) fn new(netlist: &Netlist, layout: &MnaLayout) -> Self {
        let mut entries: Vec<(usize, usize)> = Vec::new();
        let sym = |a: Option<usize>, b: Option<usize>, out: &mut Vec<(usize, usize)>| {
            if let Some(i) = a {
                out.push((i, i));
            }
            if let Some(j) = b {
                out.push((j, j));
            }
            if let (Some(i), Some(j)) = (a, b) {
                out.push((i, j));
                out.push((j, i));
            }
        };
        for (id, dev) in netlist.iter() {
            match dev {
                Device::Resistor { a, b, .. }
                | Device::Switch { a, b, .. }
                | Device::Capacitor { a, b, .. } => {
                    sym(layout.node_index(*a), layout.node_index(*b), &mut entries);
                }
                Device::VSource { p, n, .. } => {
                    let br = layout.branch_index(id);
                    for i in [layout.node_index(*p), layout.node_index(*n)]
                        .into_iter()
                        .flatten()
                    {
                        entries.push((i, br));
                        entries.push((br, i));
                    }
                }
                Device::Vcvs { p, n, cp, cn, .. } => {
                    let br = layout.branch_index(id);
                    for i in [layout.node_index(*p), layout.node_index(*n)]
                        .into_iter()
                        .flatten()
                    {
                        entries.push((i, br));
                        entries.push((br, i));
                    }
                    for i in [layout.node_index(*cp), layout.node_index(*cn)]
                        .into_iter()
                        .flatten()
                    {
                        entries.push((br, i));
                    }
                }
                Device::Vccs { p, n, cp, cn, .. } => {
                    for row in [layout.node_index(*p), layout.node_index(*n)] {
                        for col in [layout.node_index(*cp), layout.node_index(*cn)] {
                            if let (Some(r), Some(c)) = (row, col) {
                                entries.push((r, c));
                            }
                        }
                    }
                }
                Device::ISource { .. } => {}
                Device::Diode { .. } | Device::Mosfet { .. } => unreachable!("{LINEAR_ONLY}"),
            }
        }
        let symbolic = analyze_cached(layout.dim, &entries);
        let numeric = Numeric::new(&symbolic);

        let nnz = symbolic.nnz();
        Self {
            symbolic,
            numeric,
            base: vec![0.0; nnz],
            factored: vec![f64::NAN; nnz],
            rhs: vec![0.0; layout.dim],
            fingerprint: vec![f64::NAN; netlist.device_count()],
            base_gmin: f64::NAN,
            base_dirty: true,
            key: Vec::new(),
        }
    }

    /// The value a device contributes to the matrix; when it changes, the
    /// cached base is stale. RHS-only changes (source values, companion
    /// `ieq`) deliberately do not appear here.
    fn matrix_value(dev: &Device, companion: Option<&CapCompanion>) -> f64 {
        match dev {
            Device::Resistor { ohms, .. } => 1.0 / ohms,
            Device::Switch {
                closed,
                r_on,
                r_off,
                ..
            } => 1.0 / if *closed { *r_on } else { *r_off },
            Device::Capacitor { .. } => companion.map_or(0.0, |c| c.g),
            Device::Vcvs { gain, .. } => *gain,
            Device::Vccs { gm, .. } => *gm,
            // Sources only move the RHS.
            _ => 0.0,
        }
    }

    /// Rebuilds the cached base if any device value changed.
    fn refresh_base(&mut self, netlist: &Netlist, layout: &MnaLayout, ctx: &AssemblyCtx<'_>) {
        let mut stale = self.base_dirty || self.base_gmin != ctx.gmin;
        for (id, dev) in netlist.iter() {
            let comp = ctx.cap_companion.get(id.index()).and_then(|c| c.as_ref());
            let v = Self::matrix_value(dev, comp);
            if self.fingerprint[id.index()].to_bits() != v.to_bits() {
                self.fingerprint[id.index()] = v;
                stale = true;
            }
        }
        if !stale {
            return;
        }
        self.base.fill(0.0);
        fn add(sym: &Symbolic, base: &mut [f64], r: usize, c: usize, v: f64) {
            let s = sym.slot(r, c).expect("position in pattern");
            base[s] += v;
        }
        fn conductance(
            sym: &Symbolic,
            base: &mut [f64],
            a: Option<usize>,
            b: Option<usize>,
            g: f64,
        ) {
            if let Some(i) = a {
                add(sym, base, i, i, g);
            }
            if let Some(j) = b {
                add(sym, base, j, j, g);
            }
            if let (Some(i), Some(j)) = (a, b) {
                add(sym, base, i, j, -g);
                add(sym, base, j, i, -g);
            }
        }
        let sym = &self.symbolic;
        let base = &mut self.base;
        if ctx.gmin > 0.0 {
            for i in 0..(layout.node_count - 1) {
                add(sym, base, i, i, ctx.gmin);
            }
        }
        for (id, dev) in netlist.iter() {
            match dev {
                Device::Resistor { a, b, ohms } => {
                    conductance(
                        sym,
                        base,
                        layout.node_index(*a),
                        layout.node_index(*b),
                        1.0 / ohms,
                    );
                }
                Device::Switch {
                    a,
                    b,
                    closed,
                    r_on,
                    r_off,
                } => {
                    let r = if *closed { *r_on } else { *r_off };
                    conductance(
                        sym,
                        base,
                        layout.node_index(*a),
                        layout.node_index(*b),
                        1.0 / r,
                    );
                }
                Device::Capacitor { a, b, .. } => {
                    if let Some(Some(comp)) = ctx.cap_companion.get(id.index()) {
                        conductance(
                            sym,
                            base,
                            layout.node_index(*a),
                            layout.node_index(*b),
                            comp.g,
                        );
                    }
                }
                Device::VSource { p, n, .. } => {
                    let br = layout.branch_index(id);
                    if let Some(ip) = layout.node_index(*p) {
                        add(sym, base, ip, br, 1.0);
                        add(sym, base, br, ip, 1.0);
                    }
                    if let Some(in_) = layout.node_index(*n) {
                        add(sym, base, in_, br, -1.0);
                        add(sym, base, br, in_, -1.0);
                    }
                }
                Device::Vcvs { p, n, cp, cn, gain } => {
                    let br = layout.branch_index(id);
                    if let Some(ip) = layout.node_index(*p) {
                        add(sym, base, ip, br, 1.0);
                        add(sym, base, br, ip, 1.0);
                    }
                    if let Some(in_) = layout.node_index(*n) {
                        add(sym, base, in_, br, -1.0);
                        add(sym, base, br, in_, -1.0);
                    }
                    if let Some(icp) = layout.node_index(*cp) {
                        add(sym, base, br, icp, -gain);
                    }
                    if let Some(icn) = layout.node_index(*cn) {
                        add(sym, base, br, icn, *gain);
                    }
                }
                Device::Vccs { p, n, cp, cn, gm } => {
                    let rows = [(layout.node_index(*p), *gm), (layout.node_index(*n), -*gm)];
                    for (row, s) in rows {
                        if let Some(r) = row {
                            if let Some(c) = layout.node_index(*cp) {
                                add(sym, base, r, c, s);
                            }
                            if let Some(c) = layout.node_index(*cn) {
                                add(sym, base, r, c, -s);
                            }
                        }
                    }
                }
                // Current sources only touch the RHS.
                Device::ISource { .. } => {}
                Device::Diode { .. } | Device::Mosfet { .. } => unreachable!("{LINEAR_ONLY}"),
            }
        }
        self.base_gmin = ctx.gmin;
        self.base_dirty = false;
    }

    /// Assembles (incrementally) and solves the MNA system. Returns
    /// `true` when a numeric refactorization was performed, `false` when
    /// the bit-identical-matrix check allowed it to be skipped — the
    /// engine turns this into the refactor-skip hit-rate metrics.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when the static-pivot refactorization
    /// hits a numerically vanishing pivot; the caller may retry on the dense
    /// partially-pivoted path.
    pub(crate) fn assemble_and_solve(
        &mut self,
        netlist: &Netlist,
        layout: &MnaLayout,
        ctx: &AssemblyCtx<'_>,
        x_out: &mut [f64],
    ) -> Result<bool, SingularMatrixError> {
        self.refresh_base(netlist, layout, ctx);
        self.rhs.fill(0.0);
        for (id, dev) in netlist.iter() {
            match dev {
                Device::VSource { p: _, n: _, wave } => {
                    let br = layout.branch_index(id);
                    self.rhs[br] += wave.at(ctx.time) * ctx.source_scale;
                }
                Device::ISource { p, n, wave } => {
                    let i = wave.at(ctx.time) * ctx.source_scale;
                    if let Some(ip) = layout.node_index(*p) {
                        self.rhs[ip] -= i;
                    }
                    if let Some(in_) = layout.node_index(*n) {
                        self.rhs[in_] += i;
                    }
                }
                Device::Capacitor { a, b, .. } => {
                    if let Some(Some(comp)) = ctx.cap_companion.get(id.index()) {
                        // ieq feeds node a: i(a→b) = −ieq on the source term.
                        if let Some(ia) = layout.node_index(*a) {
                            self.rhs[ia] += comp.ieq;
                        }
                        if let Some(ib) = layout.node_index(*b) {
                            self.rhs[ib] -= comp.ieq;
                        }
                    }
                }
                // The rest stamp only the matrix; `refresh_base` rejects
                // diodes and MOSFETs.
                _ => {}
            }
        }

        // NaN-initialized `factored` never bit-matches, so the first
        // solve always factors.
        let same = self
            .base
            .iter()
            .zip(&self.factored)
            .all(|(b, f)| b.to_bits() == f.to_bits());
        if !same {
            self.numeric.refactor(&self.symbolic, &self.base)?;
            self.factored.copy_from_slice(&self.base);
        }
        self.numeric.solve_into(&self.symbolic, &self.rhs, x_out);
        Ok(!same)
    }

    /// Solves the last factored system for another right-hand side.
    pub(crate) fn solve_factored(&mut self, rhs: &[f64], x_out: &mut [f64]) {
        self.numeric.solve_into(&self.symbolic, rhs, x_out);
    }
}

/// Solver engine: the sparse path for linear netlists, with the dense
/// partially-pivoted path as fallback and cross-check oracle.
#[derive(Debug)]
pub(crate) struct MnaEngine {
    dense: Assembler,
    /// `None` when the engine is dense-only: by choice, or because the
    /// netlist has a diode or MOSFET.
    sparse: Option<SparseAssembler>,
    /// Solution buffer reused across iterations; [`MnaEngine::assemble_and_solve`]
    /// hands out a borrow of it so the hot loop never allocates.
    solution: Vec<f64>,
    stats: EngineStats,
}

/// Plain-integer solve tallies, accumulated per engine and flushed to the
/// shared `symbist-obs` registry once, on [`MnaEngine`] drop. Keeping the
/// per-solve cost at ordinary integer increments (no atomics, no clock
/// reads) is what holds the measured instrumentation overhead on the
/// transient hot loop under the 3% budget.
#[derive(Debug)]
struct EngineStats {
    sparse_solves: u64,
    dense_solves: u64,
    refactors: u64,
    refactor_skips: u64,
    /// Newton iterations per converged operating-point solve; local
    /// buckets, merged into the shared histogram on drop.
    newton_iters: symbist_obs::LocalHistogram,
}

impl EngineStats {
    fn new() -> Self {
        Self {
            sparse_solves: 0,
            dense_solves: 0,
            refactors: 0,
            refactor_skips: 0,
            newton_iters: symbist_obs::LocalHistogram::new(symbist_obs::histogram!(
                "symbist_solver_newton_iterations",
                "Newton iterations per converged operating-point solve",
                symbist_obs::ITERATION_EDGES
            )),
        }
    }

    fn flush(&mut self) {
        symbist_obs::counter!(
            r#"symbist_solver_solves_total{path="sparse"}"#,
            "Linear MNA solves by assembly path"
        )
        .add(self.sparse_solves);
        symbist_obs::counter!(
            r#"symbist_solver_solves_total{path="dense"}"#,
            "Linear MNA solves by assembly path"
        )
        .add(self.dense_solves);
        symbist_obs::counter!(
            "symbist_solver_refactors_total",
            "Sparse numeric refactorizations performed"
        )
        .add(self.refactors);
        symbist_obs::counter!(
            "symbist_solver_refactor_skips_total",
            "Sparse refactorizations skipped via the bit-identical-matrix check"
        )
        .add(self.refactor_skips);
        self.sparse_solves = 0;
        self.dense_solves = 0;
        self.refactors = 0;
        self.refactor_skips = 0;
        self.newton_iters.flush();
    }
}

impl MnaEngine {
    /// An engine for `netlist`. A netlist with a diode or MOSFET is solved
    /// dense whatever `choice` says: on the ADC's nonlinear blocks no
    /// Newton iterate ever passed the sparse static pivot, so every attempt
    /// was a wasted refactorization before the dense solve.
    pub(crate) fn new(netlist: &Netlist, choice: crate::dc::EngineChoice) -> Self {
        let dense = Assembler::new(netlist);
        let sparse = (crate::dc::resolve_engine(choice) != crate::dc::EngineChoice::Dense
            && !netlist.has_nonlinear())
        .then(|| SparseAssembler::obtain(netlist, &dense.layout));
        let solution = vec![0.0; dense.layout.dim];
        Self {
            dense,
            sparse,
            solution,
            stats: EngineStats::new(),
        }
    }

    /// Records the iteration count of one converged Newton solve into the
    /// engine-local histogram (flushed on drop).
    pub(crate) fn note_newton(&mut self, iterations: u64) {
        #[allow(clippy::cast_precision_loss)]
        self.stats.newton_iters.record(iterations as f64);
    }

    pub(crate) fn layout(&self) -> &MnaLayout {
        &self.dense.layout
    }

    /// Assembles and solves one MNA system, preferring the sparse path.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] only when the dense fallback also
    /// finds the matrix singular (a genuinely singular iterate).
    pub(crate) fn assemble_and_solve(
        &mut self,
        netlist: &Netlist,
        ctx: &AssemblyCtx<'_>,
    ) -> Result<&[f64], SingularMatrixError> {
        if !self.try_sparse(netlist, ctx) {
            self.dense.assemble(netlist, ctx);
            self.solution = self.dense.matrix.solve(&self.dense.rhs)?;
            self.stats.dense_solves += 1;
        }
        Ok(&self.solution)
    }

    /// Assembles the system matrix at `ctx` once and solves it for every
    /// right-hand side in `columns`, overwriting each with its solution.
    /// The right-hand side `ctx` itself implies is not used. Path choice,
    /// dense fallback and solve tallies are those of
    /// [`Self::assemble_and_solve`]: one solve per call, however many
    /// columns.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when the dense fallback also finds
    /// the matrix singular.
    pub(crate) fn solve_columns(
        &mut self,
        netlist: &Netlist,
        ctx: &AssemblyCtx<'_>,
        columns: &mut [Vec<f64>],
    ) -> Result<(), SingularMatrixError> {
        if self.try_sparse(netlist, ctx) {
            let sparse = self.sparse.as_mut().expect("sparse path just solved");
            for col in columns {
                sparse.solve_factored(col, &mut self.solution);
                col.copy_from_slice(&self.solution);
            }
        } else {
            self.dense.assemble(netlist, ctx);
            let lu = self.dense.matrix.lu()?;
            for col in columns {
                *col = lu.solve(col);
            }
            self.stats.dense_solves += 1;
        }
        Ok(())
    }

    /// Solves on the sparse path into `self.solution`; `false` when the
    /// caller must take the dense path (no sparse assembler, or a vanishing
    /// static pivot).
    fn try_sparse(&mut self, netlist: &Netlist, ctx: &AssemblyCtx<'_>) -> bool {
        // Split borrows: the layout lives on the dense assembler.
        let Some(sparse) = self.sparse.as_mut() else {
            return false;
        };
        let Ok(refactored) =
            sparse.assemble_and_solve(netlist, &self.dense.layout, ctx, &mut self.solution)
        else {
            return false;
        };
        self.stats.sparse_solves += 1;
        if refactored {
            self.stats.refactors += 1;
        } else {
            self.stats.refactor_skips += 1;
        }
        true
    }
}

impl Drop for MnaEngine {
    fn drop(&mut self) {
        self.stats.flush();
        if let Some(sparse) = self.sparse.take() {
            sparse.release();
        }
    }
}

/// Shockley diode with exponent limiting: returns `(i, di/dv)`.
pub(crate) fn diode_eval(vd: f64, i_sat: f64, nvt: f64) -> (f64, f64) {
    let x = vd / nvt;
    if x > DIODE_EXP_MAX {
        // Linear extrapolation beyond the exponent cap.
        let e = DIODE_EXP_MAX.exp();
        let i_cap = i_sat * (e - 1.0);
        let g_cap = i_sat * e / nvt;
        (i_cap + g_cap * (vd - DIODE_EXP_MAX * nvt), g_cap)
    } else if x < -DIODE_EXP_MAX {
        // Deep reverse: saturation current with a tiny conductance to keep
        // the Jacobian nonsingular.
        (-i_sat, i_sat / nvt * (-DIODE_EXP_MAX).exp() + 1e-15)
    } else {
        let e = x.exp();
        (i_sat * (e - 1.0), i_sat * e / nvt)
    }
}

/// Level-1 NMOS square law: returns `(ids, gm, gds)` for `vds >= 0`.
pub(crate) fn nmos_eval(vgs: f64, vds: f64, vth: f64, kp: f64, lambda: f64) -> (f64, f64, f64) {
    debug_assert!(vds >= 0.0);
    let vov = vgs - vth;
    if vov <= 0.0 {
        // Cutoff: zero current; tiny gds keeps the node from floating.
        return (0.0, 0.0, 1e-12);
    }
    if vds < vov {
        // Triode.
        let ids = kp * (vov * vds - 0.5 * vds * vds);
        let gm = kp * vds;
        let gds = kp * (vov - vds) + 1e-12;
        (ids, gm, gds)
    } else {
        // Saturation with channel-length modulation.
        let ids0 = 0.5 * kp * vov * vov;
        let ids = ids0 * (1.0 + lambda * vds);
        let gm = kp * vov * (1.0 + lambda * vds);
        let gds = ids0 * lambda + 1e-12;
        (ids, gm, gds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    #[test]
    #[ignore = "timing probe, run manually with --release --nocapture"]
    fn timing_probe() {
        use std::hint::black_box;
        use std::time::Instant;
        let mut nl = Netlist::new();
        let top = nl.node("top");
        nl.vsource(top, Netlist::GND, 1.2);
        let mut prev = top;
        for i in 0..32 {
            let n = nl.node(&format!("tap{i}"));
            nl.resistor(prev, n, 250.0);
            prev = n;
        }
        nl.resistor(prev, Netlist::GND, 250.0);
        let time = |label: &str, f: &mut dyn FnMut()| {
            let iters = 20000;
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            println!(
                "{label:>30}: {:.0} ns",
                start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
            );
        };
        time("MnaLayout::new", &mut || {
            black_box(MnaLayout::new(&nl));
        });
        time("Assembler::new", &mut || {
            black_box(Assembler::new(&nl));
        });
        let layout = MnaLayout::new(&nl);
        time("structure_key", &mut || {
            black_box(SparseAssembler::structure_key(&nl, layout.dim));
        });
        time("obtain+release", &mut || {
            SparseAssembler::obtain(&nl, &layout).release();
        });
        let caps = vec![None; nl.device_count()];
        let guess = vec![0.0; layout.dim];
        let ctx = AssemblyCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: 1e-12,
            guess: &guess,
            cap_companion: &caps,
            thermal: Thermal::new(T_NOMINAL_K),
        };
        let mut sp = SparseAssembler::obtain(&nl, &layout);
        let mut x = vec![0.0; layout.dim];
        time("sparse assemble_and_solve", &mut || {
            sp.assemble_and_solve(&nl, &layout, &ctx, &mut x).unwrap();
            black_box(&x);
        });
        let mut engine = MnaEngine::new(&nl, crate::dc::EngineChoice::Sparse);
        time("engine assemble_and_solve", &mut || {
            black_box(engine.assemble_and_solve(&nl, &ctx).unwrap());
        });
        time("MnaEngine::new sparse", &mut || {
            black_box(MnaEngine::new(&nl, crate::dc::EngineChoice::Sparse));
        });
        time("MnaEngine::new dense", &mut || {
            black_box(MnaEngine::new(&nl, crate::dc::EngineChoice::Dense));
        });
        time("full DcSolver sparse", &mut || {
            black_box(
                crate::dc::DcSolver::with_options(crate::dc::DcOptions {
                    engine: crate::dc::EngineChoice::Sparse,
                    ..Default::default()
                })
                .solve(&nl)
                .unwrap(),
            );
        });
    }

    fn assemble_linear(netlist: &Netlist) -> (Matrix, Vec<f64>) {
        let mut asm = Assembler::new(netlist);
        let guess = vec![0.0; asm.layout.dim];
        let caps = vec![None; netlist.device_count()];
        let ctx = AssemblyCtx {
            time: 0.0,
            source_scale: 1.0,
            gmin: 0.0,
            guess: &guess,
            cap_companion: &caps,
            thermal: Thermal::new(T_NOMINAL_K),
        };
        asm.assemble(netlist, &ctx);
        (asm.matrix.clone(), asm.rhs.clone())
    }

    #[test]
    fn resistor_divider_system() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource(a, Netlist::GND, 2.0);
        nl.resistor(a, b, 1000.0);
        nl.resistor(b, Netlist::GND, 1000.0);
        let (m, rhs) = assemble_linear(&nl);
        // Unknowns: v(a), v(b), i(V1). Solve and check.
        let x = m.solve(&rhs).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        // Branch current = 2V across 2k = 1 mA flowing out of the source's
        // positive terminal into the divider, i.e. i(V) = −1 mA by MNA
        // convention (current p→n through the source).
        assert!((x[2] + 1e-3).abs() < 1e-9, "i = {}", x[2]);
    }

    #[test]
    fn isource_direction() {
        // 1 A source from gnd (p) to node (n) feeds the node; with a 1 Ω
        // resistor to ground the node must sit at +1 V.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource(Netlist::GND, a, 1.0);
        nl.resistor(a, Netlist::GND, 1.0);
        let (m, rhs) = assemble_linear(&nl);
        let x = m.solve(&rhs).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vccs_stamp() {
        // VCCS gm=2 S controlled by a 1 V source, output through 1 Ω.
        let mut nl = Netlist::new();
        let c = nl.node("c");
        let o = nl.node("o");
        nl.vsource(c, Netlist::GND, 1.0);
        // Current 2·v(c) flows o → gnd through the source ⇒ pulls o down.
        nl.vccs(o, Netlist::GND, c, Netlist::GND, 2.0);
        nl.resistor(o, Netlist::GND, 1.0);
        let (m, rhs) = assemble_linear(&nl);
        let x = m.solve(&rhs).unwrap();
        // KCL at o: v(o)/1 + 2·1 = 0 ⇒ v(o) = −2.
        assert!((x[1] + 2.0).abs() < 1e-12, "v(o) = {}", x[1]);
    }

    #[test]
    fn vcvs_gain() {
        let mut nl = Netlist::new();
        let c = nl.node("c");
        let o = nl.node("o");
        nl.vsource(c, Netlist::GND, 0.25);
        nl.vcvs(o, Netlist::GND, c, Netlist::GND, 8.0);
        nl.resistor(o, Netlist::GND, 50.0);
        let (m, rhs) = assemble_linear(&nl);
        let x = m.solve(&rhs).unwrap();
        assert!((x[1] - 2.0).abs() < 1e-12, "v(o) = {}", x[1]);
    }

    #[test]
    fn diode_eval_monotone() {
        let mut prev = f64::NEG_INFINITY;
        for mv in -100..=120 {
            let v = mv as f64 * 0.01;
            let (i, g) = diode_eval(v, 1e-14, VT_THERMAL);
            // Non-decreasing everywhere (deep reverse saturates to −Isat at
            // f64 precision), strictly increasing once forward biased.
            if v > 0.0 {
                assert!(
                    i > prev,
                    "forward current must be strictly increasing at v={v}"
                );
            } else {
                assert!(i >= prev, "current must never decrease at v={v}");
            }
            assert!(g > 0.0);
            prev = i;
        }
    }

    #[test]
    fn diode_eval_continuous_at_cap() {
        let nvt = VT_THERMAL;
        let vcap = DIODE_EXP_MAX * nvt;
        let (i_below, _) = diode_eval(vcap - 1e-9, 1e-14, nvt);
        let (i_above, _) = diode_eval(vcap + 1e-9, 1e-14, nvt);
        assert!((i_above - i_below) / i_below < 1e-3);
    }

    #[test]
    fn nmos_regions() {
        // Cutoff.
        let (i, gm, _) = nmos_eval(0.2, 1.0, 0.5, 1e-3, 0.0);
        assert_eq!(i, 0.0);
        assert_eq!(gm, 0.0);
        // Triode: vds < vov.
        let (i, _, gds) = nmos_eval(1.5, 0.2, 0.5, 1e-3, 0.0);
        let expect = 1e-3 * (1.0 * 0.2 - 0.5 * 0.04);
        assert!((i - expect).abs() < 1e-12);
        assert!(gds > 1e-6);
        // Saturation.
        let (i, gm, _) = nmos_eval(1.5, 2.0, 0.5, 1e-3, 0.0);
        assert!((i - 0.5e-3).abs() < 1e-12);
        assert!((gm - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn nmos_continuous_at_pinchoff() {
        let (i_tri, _, _) = nmos_eval(1.0, 0.5 - 1e-9, 0.5, 1e-3, 0.1);
        let (i_sat, _, _) = nmos_eval(1.0, 0.5 + 1e-9, 0.5, 1e-3, 0.1);
        // lambda introduces a small step at pinch-off in the level-1 model
        // (standard behaviour); with lambda·vds = 5% the step is bounded.
        assert!((i_sat - i_tri).abs() / i_tri < 0.06);
    }

    #[test]
    fn only_linear_netlists_get_a_sparse_assembler() {
        use crate::dc::EngineChoice;
        let divider = || {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let b = nl.node("b");
            nl.vsource(a, Netlist::GND, 1.0);
            nl.resistor(a, b, 1e3);
            (nl, b)
        };
        let (mut diode, b) = divider();
        diode.diode(b, Netlist::GND, 1e-14, 1.0);
        let (mut mos, b) = divider();
        mos.mosfet(b, b, Netlist::GND, MosPolarity::Nmos, 0.4, 1e-4, 0.0);
        let (mut linear, b) = divider();
        linear.resistor(b, Netlist::GND, 1e3);
        let sparse = |nl: &Netlist, choice| MnaEngine::new(nl, choice).sparse.is_some();
        for choice in [EngineChoice::Auto, EngineChoice::Sparse] {
            assert!(!sparse(&diode, choice));
            assert!(!sparse(&mos, choice));
            assert!(sparse(&linear, choice));
        }
        assert!(!sparse(&linear, EngineChoice::Dense));
    }

    #[test]
    fn assembler_cache_evicts_the_least_recently_released_topology() {
        // A ladder of `k` resistors: one distinct topology per `k`.
        let ladder = |k: usize| {
            let mut nl = Netlist::new();
            let mut prev = nl.node("n0");
            nl.vsource(prev, Netlist::GND, 1.0);
            for i in 1..=k {
                let n = nl.node(&format!("n{i}"));
                nl.resistor(prev, n, 1e3);
                prev = n;
            }
            nl.resistor(prev, Netlist::GND, 1e3);
            nl
        };
        let cycle = |nl: &Netlist| SparseAssembler::obtain(nl, &MnaLayout::new(nl)).release();
        let cached = |nl: &Netlist| {
            let key = SparseAssembler::structure_key(nl, MnaLayout::new(nl).dim);
            ASSEMBLER_CACHE.with(|c| c.borrow().entries.contains_key(&key))
        };
        ASSEMBLER_CACHE.with(|c| c.borrow_mut().entries.clear());
        let nets: Vec<Netlist> = (1..=ASSEMBLER_CACHE_CAP + 1).map(ladder).collect();
        for nl in &nets[..ASSEMBLER_CACHE_CAP] {
            cycle(nl);
        }
        // Re-using the oldest entry makes the second-oldest the eviction
        // victim when one more topology arrives.
        cycle(&nets[0]);
        cycle(&nets[ASSEMBLER_CACHE_CAP]);
        assert!(cached(&nets[0]));
        assert!(!cached(&nets[1]));
        assert!(nets[2..].iter().all(cached));
        ASSEMBLER_CACHE.with(|c| assert_eq!(c.borrow().entries.len(), ASSEMBLER_CACHE_CAP));
    }
}
