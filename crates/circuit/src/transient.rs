//! Transient analysis with switch-event co-simulation.
//!
//! Capacitors are replaced by their backward-Euler companion models and the
//! resulting resistive circuit is solved per time step with the same Newton
//! engine as the DC analysis. The simulation object borrows the netlist per
//! step, so a digital controller can flip switches or retarget sources
//! between steps — this is how the SAR conversion loop and the SymBIST
//! stimulus drive the analog core.
//!
//! # Examples
//!
//! ```
//! use symbist_circuit::netlist::Netlist;
//! use symbist_circuit::transient::{TransientOptions, TransientSim};
//!
//! // RC charging step: v(t) = 1 − exp(−t/RC), RC = 1 µs.
//! let mut nl = Netlist::new();
//! let src = nl.node("src");
//! let out = nl.node("out");
//! nl.vsource(src, Netlist::GND, 1.0);
//! nl.resistor(src, out, 1e3);
//! nl.capacitor_with_ic(out, Netlist::GND, 1e-9, 0.0);
//! let opts = TransientOptions { dt: 1e-8, use_ic: true, ..Default::default() };
//! let mut sim = TransientSim::new(&nl, opts)?;
//! while sim.time() < 1e-6 {
//!     sim.step(&nl)?;
//! }
//! let v = sim.voltage(out);
//! assert!((v - (1.0 - (-1.0f64).exp())).abs() < 5e-3);
//! # Ok::<(), symbist_circuit::error::CircuitError>(())
//! ```

use crate::dc::{charge_newton_iteration, DcOptions, DcSolver, Operating, GMIN, MAX_ITER};
use crate::error::CircuitError;
use crate::mna::{AssemblyCtx, CapCompanion, MnaEngine, Thermal};
use crate::netlist::{Device, DeviceId, Netlist, NodeId};
use crate::waveform::{Trace, TraceSet};

/// Transient analysis options.
///
/// Capacitors integrate with backward Euler: L-stable and first order, it
/// damps switching ringing, which is what switched-capacitor work needs.
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Fixed time step in seconds.
    pub dt: f64,
    /// When `true`, capacitors with an `ic` start from it instead of the DC
    /// operating point.
    pub use_ic: bool,
    /// Newton options for the per-step solves.
    pub dc: DcOptions,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            dt: 1e-10,
            use_ic: false,
            dc: DcOptions::default(),
        }
    }
}

/// A running transient simulation.
///
/// The netlist is borrowed per call rather than owned so that external
/// controllers can mutate switch states and source values between steps.
/// The topology (device and node counts) must not change between steps.
#[derive(Debug)]
pub struct TransientSim {
    asm: MnaEngine,
    solver: DcSolver,
    x: Vec<f64>,
    time: f64,
    dt: f64,
    /// Capacitor voltage at the current time, indexed by device id (`None`
    /// for other devices).
    cap_v: Vec<Option<f64>>,
    companions: Vec<Option<CapCompanion>>,
    device_count: usize,
    /// Steps taken by this sim, flushed to the registry once on drop so
    /// the per-step cost stays a plain integer increment.
    steps_taken: u64,
}

impl Drop for TransientSim {
    fn drop(&mut self) {
        symbist_obs::counter!(
            "symbist_solver_transient_steps_total",
            "Transient integration steps taken"
        )
        .add(self.steps_taken);
    }
}

impl TransientSim {
    /// Initializes the simulation at `t = 0`.
    ///
    /// The initial point is the DC operating point of the netlist (with all
    /// waveforms evaluated at `t = 0`); capacitors carrying an explicit
    /// initial condition override it when `options.use_ic` is set.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial operating point cannot be solved or
    /// if `options.dt` is not strictly positive.
    pub fn new(netlist: &Netlist, options: TransientOptions) -> Result<Self, CircuitError> {
        if !(options.dt.is_finite() && options.dt > 0.0) {
            return Err(CircuitError::InvalidConfig {
                reason: format!("time step must be > 0, got {}", options.dt),
            });
        }
        let solver = DcSolver::with_options(options.dc.clone());
        let op = solver.solve(netlist)?;
        let asm = MnaEngine::new(netlist, options.dc.engine);
        let mut cap_v = vec![None; netlist.device_count()];
        for (id, dev) in netlist.iter() {
            if let Device::Capacitor { a, b, ic, .. } = dev {
                let v0 = match (options.use_ic, ic) {
                    (true, Some(v)) => *v,
                    _ => op.voltage(*a) - op.voltage(*b),
                };
                cap_v[id.index()] = Some(v0);
            }
        }
        let device_count = netlist.device_count();
        Ok(Self {
            x: op.raw().to_vec(),
            asm,
            solver,
            time: 0.0,
            dt: options.dt,
            cap_v,
            companions: vec![None; device_count],
            device_count,
            steps_taken: 0,
        })
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current time step.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Changes the time step for subsequent steps.
    ///
    /// # Errors
    ///
    /// Returns an error if `dt` is not strictly positive.
    pub fn set_dt(&mut self, dt: f64) -> Result<(), CircuitError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(CircuitError::InvalidConfig {
                reason: format!("time step must be > 0, got {dt}"),
            });
        }
        self.dt = dt;
        Ok(())
    }

    /// Voltage of a node at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range for the simulated netlist.
    pub fn voltage(&self, n: NodeId) -> f64 {
        if n.is_ground() {
            return 0.0;
        }
        assert!(
            n.index() < self.asm.layout().node_count,
            "node {n} out of range"
        );
        self.x[n.index() - 1]
    }

    /// Differential voltage `v(a) − v(b)` at the current time.
    pub fn differential(&self, a: NodeId, b: NodeId) -> f64 {
        self.voltage(a) - self.voltage(b)
    }

    /// Branch current of a voltage-defined device at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the device has no branch current.
    pub fn branch_current(&self, id: DeviceId) -> f64 {
        self.x[self.asm.layout().branch_index(id)]
    }

    /// A snapshot of the current solution as an [`Operating`] point.
    pub fn operating(&self) -> Operating {
        Operating {
            x: self.x.clone(),
            node_count: self.asm.layout().node_count,
            branch_of: self.asm.layout().branch_of.clone(),
        }
    }

    /// Advances one time step.
    ///
    /// The caller may have mutated switch states or source waveform values
    /// in `netlist` since the previous call; the topology must be unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error if the step's Newton solve fails.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's device count changed since construction.
    pub fn step(&mut self, netlist: &Netlist) -> Result<(), CircuitError> {
        assert_eq!(
            netlist.device_count(),
            self.device_count,
            "netlist topology changed mid-simulation"
        );
        let t_next = self.time + self.dt;

        // Build companion models from the previous step's state.
        for (id, dev) in netlist.iter() {
            if let Device::Capacitor { farads, .. } = dev {
                let v_prev = self.cap_v[id.index()].expect("capacitor state missing");
                let g = farads / self.dt;
                self.companions[id.index()] = Some(CapCompanion { g, ieq: g * v_prev });
            }
        }

        let converged = {
            let companions = std::mem::take(&mut self.companions);
            let result = self.solver.newton(
                netlist,
                &mut self.asm,
                &mut self.x,
                t_next,
                1.0,
                GMIN,
                &companions,
            );
            self.companions = companions;
            result?
        };
        if !converged {
            return Err(CircuitError::NoConvergence {
                analysis: "transient step",
                iterations: MAX_ITER,
            });
        }

        // Update capacitor states from the solved step.
        for (id, dev) in netlist.iter() {
            if let Device::Capacitor { a, b, .. } = dev {
                let v = self.node_v(*a) - self.node_v(*b);
                self.cap_v[id.index()] = Some(v);
            }
        }
        self.time = t_next;
        self.steps_taken += 1;
        Ok(())
    }

    /// Extracts the next backward-Euler step of a linear netlist, at its
    /// current switch state, as an affine [`StepMap`].
    ///
    /// `inputs` names every independent source of the netlist, in the
    /// order [`MapStepper::step`] takes their values; `probes` are the
    /// node voltages the map reports besides the capacitor voltages. The
    /// map is assembled by this sim's own engine with its companions and
    /// gmin (dense fallback included), one solve column per capacitor and
    /// per input, so stepping it reproduces [`TransientSim::step`] up to
    /// rounding. It stays valid while switches and capacitances hold.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidConfig`] for a nonlinear netlist, an
    /// `inputs` entry that is not an independent source, or a source
    /// missing from `inputs`;
    /// [`CircuitError::NoConvergence`] (as a failed step would report it)
    /// when the step's system is singular.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's device count changed since construction or
    /// a probe is out of range.
    pub fn step_map(
        &mut self,
        netlist: &Netlist,
        inputs: &[DeviceId],
        probes: &[NodeId],
    ) -> Result<StepMap, CircuitError> {
        assert_eq!(
            netlist.device_count(),
            self.device_count,
            "netlist topology changed mid-simulation"
        );
        let invalid = |reason: String| Err(CircuitError::InvalidConfig { reason });
        if netlist.has_nonlinear() {
            return invalid("step maps need a linear netlist".into());
        }
        let layout = self.asm.layout();
        let dim = layout.dim;
        let mut caps = Vec::new();
        let mut columns = Vec::new();
        for (id, dev) in netlist.iter() {
            match dev {
                Device::Capacitor { a, b, farads, .. } => {
                    // A unit voltage on this capacitor alone: its companion
                    // current g·1 is the whole right-hand side.
                    let g = farads / self.dt;
                    self.companions[id.index()] = Some(CapCompanion { g, ieq: g });
                    let mut col = vec![0.0; dim];
                    if let Some(i) = layout.node_index(*a) {
                        col[i] += g;
                    }
                    if let Some(i) = layout.node_index(*b) {
                        col[i] -= g;
                    }
                    caps.push((*a, *b));
                    columns.push(col);
                }
                Device::VSource { .. } | Device::ISource { .. } if !inputs.contains(&id) => {
                    return invalid(format!("source {id:?} is not a step-map input"));
                }
                _ => {}
            }
        }
        for &id in inputs {
            let mut col = vec![0.0; dim];
            match netlist.device(id) {
                Device::VSource { .. } => col[layout.branch_index(id)] = 1.0,
                Device::ISource { p, n, .. } => {
                    if let Some(i) = layout.node_index(*p) {
                        col[i] -= 1.0;
                    }
                    if let Some(i) = layout.node_index(*n) {
                        col[i] += 1.0;
                    }
                }
                _ => return invalid(format!("step-map input {id:?} is not a source")),
            }
            columns.push(col);
        }

        let ctx = AssemblyCtx {
            time: self.time + self.dt,
            source_scale: 1.0,
            gmin: GMIN,
            guess: &self.x,
            cap_companion: &self.companions,
            thermal: Thermal::new(self.solver.options().temperature_c + 273.15),
        };
        if self.asm.solve_columns(netlist, &ctx, &mut columns).is_err() {
            return Err(CircuitError::NoConvergence {
                analysis: "transient step",
                iterations: MAX_ITER,
            });
        }

        let layout = self.asm.layout();
        let at = |col: &[f64], n: NodeId| layout.node_index(n).map_or(0.0, |i| col[i]);
        let mut coef = Vec::with_capacity((caps.len() + probes.len()) * columns.len());
        for &(a, b) in &caps {
            coef.extend(columns.iter().map(|col| at(col, a) - at(col, b)));
        }
        for &n in probes {
            assert!(n.index() < layout.node_count, "node {n} out of range");
            coef.extend(columns.iter().map(|col| at(col, n)));
        }
        Ok(StepMap {
            states: caps.len(),
            probes: probes.to_vec(),
            inputs: inputs.len(),
            coef,
            dt: self.dt,
        })
    }

    /// A [`MapStepper`] starting from this sim's current state: its
    /// capacitor voltages and the voltages of `probes`, which must be the
    /// probes the stepped maps are extracted with.
    pub fn map_stepper(&self, probes: &[NodeId]) -> MapStepper {
        let mut state: Vec<f64> = self.cap_v.iter().flatten().copied().collect();
        let states = state.len();
        state.extend(probes.iter().map(|&n| self.voltage(n)));
        MapStepper {
            next: vec![0.0; state.len()],
            state,
            states,
            probes: probes.to_vec(),
            time: self.time,
            steps_taken: 0,
        }
    }

    fn node_v(&self, n: NodeId) -> f64 {
        match self.asm.layout().node_index(n) {
            None => 0.0,
            Some(i) => self.x[i],
        }
    }

    /// Runs until `t_end`, recording the given probes at every step.
    ///
    /// # Errors
    ///
    /// Propagates step failures.
    pub fn run_until(
        &mut self,
        netlist: &Netlist,
        t_end: f64,
        probes: &[(&str, NodeId)],
    ) -> Result<TraceSet, CircuitError> {
        let mut traces: Vec<Trace> = probes.iter().map(|(name, _)| Trace::new(*name)).collect();
        for (trace, (_, node)) in traces.iter_mut().zip(probes) {
            trace.push(self.time, self.voltage(*node));
        }
        while self.time < t_end - 0.5 * self.dt {
            self.step(netlist)?;
            for (trace, (_, node)) in traces.iter_mut().zip(probes) {
                trace.push(self.time, self.voltage(*node));
            }
        }
        let mut set = TraceSet::new();
        for t in traces {
            set.insert(t);
        }
        Ok(set)
    }
}

/// One backward-Euler step of a linear netlist at a fixed switch state,
/// as an affine map.
///
/// While every switch holds, a step is linear in the capacitor voltages it
/// starts from and in the source values it is taken at:
///
/// ```text
/// [v; p](t + dt) = A·v(t) + B·u(t + dt)
/// ```
///
/// `v` stacks the capacitor voltages in device order, `p` the probed node
/// voltages and `u` the source values. A [`MapStepper`] advances a state
/// with a few multiply-adds per step instead of assembling and solving the
/// MNA system; extract one map per switch state with
/// [`TransientSim::step_map`].
#[derive(Debug, Clone)]
pub struct StepMap {
    states: usize,
    probes: Vec<NodeId>,
    inputs: usize,
    /// Row-major `[A | B]`, `states + probes` rows of `states + inputs`.
    coef: Vec<f64>,
    dt: f64,
}

/// The state a [`StepMap`] advances: capacitor voltages plus probed node
/// voltages of one linear netlist. Created by [`TransientSim::map_stepper`].
///
/// Each step keeps the bookkeeping of [`TransientSim::step`]: it charges
/// one Newton iteration against the thread's [`crate::dc::SolveBudget`]
/// (a linear step is one Newton iteration) and counts towards
/// `symbist_solver_transient_steps_total`, flushed once on drop.
#[derive(Debug)]
pub struct MapStepper {
    /// Capacitor voltages, then probe voltages.
    state: Vec<f64>,
    /// Scratch for the next state.
    next: Vec<f64>,
    states: usize,
    probes: Vec<NodeId>,
    time: f64,
    steps_taken: u64,
}

impl Drop for MapStepper {
    fn drop(&mut self) {
        symbist_obs::counter!(
            "symbist_solver_transient_steps_total",
            "Transient integration steps taken"
        )
        .add(self.steps_taken);
    }
}

impl MapStepper {
    /// Advances one step with the source values `inputs`, ordered as the
    /// map's `inputs` were.
    ///
    /// # Errors
    ///
    /// [`CircuitError::BudgetExhausted`] when the thread budget runs out;
    /// [`CircuitError::NoConvergence`] when the new state is not finite
    /// (the state is then left unchanged).
    ///
    /// # Panics
    ///
    /// Panics if the map was extracted for another capacitor count or
    /// other probes than this state holds, or `inputs` has the wrong
    /// length.
    pub fn step(&mut self, map: &StepMap, inputs: &[f64]) -> Result<(), CircuitError> {
        assert_eq!(map.states, self.states, "step map capacitor count");
        assert_eq!(map.probes, self.probes, "step map probes");
        assert_eq!(map.inputs, inputs.len(), "step map inputs");
        charge_newton_iteration()?;
        let (v, width) = (&self.state[..self.states], map.states + map.inputs);
        for (next, row) in self.next.iter_mut().zip(map.coef.chunks_exact(width)) {
            let (a, b) = row.split_at(map.states);
            *next = dot(a, v) + dot(b, inputs);
        }
        if !self.next.iter().all(|x| x.is_finite()) {
            return Err(CircuitError::NoConvergence {
                analysis: "transient step",
                iterations: MAX_ITER,
            });
        }
        std::mem::swap(&mut self.state, &mut self.next);
        self.time += map.dt;
        self.steps_taken += 1;
        Ok(())
    }

    /// Voltage of probe `i` at the current time.
    pub fn probe(&self, i: usize) -> f64 {
        self.state[self.states + i]
    }

    /// Capacitor voltages at the current time, in device order.
    pub fn capacitor_voltages(&self) -> &[f64] {
        &self.state[..self.states]
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::SourceWave;

    #[test]
    fn rc_step_response_be() {
        // R = 1k, C = 1n → τ = 1 µs.
        let mut nl = Netlist::new();
        let s = nl.node("s");
        let o = nl.node("o");
        nl.vsource(s, Netlist::GND, 1.0);
        nl.resistor(s, o, 1e3);
        nl.capacitor_with_ic(o, Netlist::GND, 1e-9, 0.0);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 5e-9,
                use_ic: true,
                ..Default::default()
            },
        )
        .unwrap();
        while sim.time() < 1e-6 {
            sim.step(&nl).unwrap();
        }
        let expect = 1.0 - (-1.0f64).exp();
        assert!(
            (sim.voltage(o) - expect).abs() < 2e-3,
            "v = {}",
            sim.voltage(o)
        );
    }

    #[test]
    fn starts_from_dc_when_no_ic() {
        // Divider holds the cap at 0.5 V; transient must start there.
        let mut nl = Netlist::new();
        let s = nl.node("s");
        let o = nl.node("o");
        nl.vsource(s, Netlist::GND, 1.0);
        nl.resistor(s, o, 1e3);
        nl.resistor(o, Netlist::GND, 1e3);
        nl.capacitor(o, Netlist::GND, 1e-9);
        let mut sim = TransientSim::new(&nl, TransientOptions::default()).unwrap();
        assert!((sim.voltage(o) - 0.5).abs() < 1e-6);
        sim.step(&nl).unwrap();
        assert!((sim.voltage(o) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn switch_discharge_mid_run() {
        // Charge a cap, then close a discharge switch at t = 1 µs.
        let mut nl = Netlist::new();
        let s = nl.node("s");
        let o = nl.node("o");
        nl.vsource(s, Netlist::GND, 1.0);
        nl.resistor(s, o, 1e6); // slow charge
        nl.capacitor_with_ic(o, Netlist::GND, 1e-9, 1.0);
        let sw = nl.switch(o, Netlist::GND, 10.0, 1e12);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 1e-9,
                use_ic: true,
                ..Default::default()
            },
        )
        .unwrap();
        while sim.time() < 1e-6 {
            sim.step(&nl).unwrap();
        }
        assert!(sim.voltage(o) > 0.9);
        nl.set_switch(sw, true);
        // τ = 10 Ω · 1 nF = 10 ns; after 200 ns the node is at ground.
        while sim.time() < 1.2e-6 {
            sim.step(&nl).unwrap();
        }
        assert!(sim.voltage(o).abs() < 1e-3, "v = {}", sim.voltage(o));
    }

    #[test]
    fn pulse_source_toggles_output() {
        let mut nl = Netlist::new();
        let s = nl.node("s");
        nl.vsource_wave(
            s,
            Netlist::GND,
            SourceWave::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 1e-7,
                rise: 1e-9,
                fall: 1e-9,
                width: 1e-7,
                period: 0.0,
            },
        );
        nl.resistor(s, Netlist::GND, 1e3);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
        let traces = sim
            .run_until(&nl, 4e-7, &[("s", nl.find_node("s").unwrap())])
            .unwrap();
        let tr = traces.trace("s").unwrap();
        assert!(tr.sample_at(5e-8) < 0.01);
        assert!(tr.sample_at(1.5e-7) > 0.99);
        assert!(tr.sample_at(3.5e-7) < 0.01);
    }

    #[test]
    fn sc_charge_sharing() {
        // Two equal caps, one at 1 V one at 0 V, connected by a switch:
        // final voltage 0.5 V on both (charge conservation).
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.capacitor_with_ic(a, Netlist::GND, 1e-12, 1.0);
        nl.capacitor_with_ic(b, Netlist::GND, 1e-12, 0.0);
        let sw = nl.switch(a, b, 100.0, 1e15);
        nl.set_switch(sw, true);
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 1e-12,
                use_ic: true,
                ..Default::default()
            },
        )
        .unwrap();
        while sim.time() < 5e-9 {
            sim.step(&nl).unwrap();
        }
        assert!(
            (sim.voltage(a) - 0.5).abs() < 1e-3,
            "va = {}",
            sim.voltage(a)
        );
        assert!(
            (sim.voltage(b) - 0.5).abs() < 1e-3,
            "vb = {}",
            sim.voltage(b)
        );
    }

    /// Two caps charged through a switch from a voltage source, an
    /// injected current and a probe node between them.
    fn switched_rc() -> (Netlist, [DeviceId; 3], NodeId) {
        let mut nl = Netlist::new();
        let s = nl.node("s");
        let a = nl.node("a");
        let b = nl.node("b");
        let vs = nl.vsource(s, Netlist::GND, 1.0);
        let is = nl.isource(Netlist::GND, b, 1e-6);
        nl.resistor(s, a, 1e3);
        nl.capacitor(a, Netlist::GND, 1e-12);
        nl.capacitor(a, b, 2e-12);
        nl.resistor(b, Netlist::GND, 1e5);
        let sw = nl.switch(b, Netlist::GND, 100.0, 1e9);
        (nl, [vs, is, sw], b)
    }

    #[test]
    fn step_map_tracks_generic_steps_across_switch_and_source_changes() {
        let (mut nl, [vs, is, sw], b) = switched_rc();
        let opts = TransientOptions {
            dt: 1e-10,
            ..Default::default()
        };
        let mut oracle = TransientSim::new(&nl, opts.clone()).unwrap();
        let mut sim = TransientSim::new(&nl, opts).unwrap();
        let mut state = sim.map_stepper(&[b]);
        for phase in 0..4 {
            let closed = phase % 2 == 1;
            nl.set_switch(sw, closed);
            let map = sim.step_map(&nl, &[vs, is], &[b]).unwrap();
            for k in 0..40 {
                let (v, i) = (0.2 * f64::from(phase + 1), 1e-6 * f64::from(k % 3));
                for (id, value) in [(vs, v), (is, i)] {
                    match nl.device_mut(id) {
                        Device::VSource { wave, .. } | Device::ISource { wave, .. } => {
                            *wave = SourceWave::Dc(value);
                        }
                        _ => unreachable!(),
                    }
                }
                oracle.step(&nl).unwrap();
                state.step(&map, &[v, i]).unwrap();
                assert!((state.probe(0) - oracle.voltage(b)).abs() < 1e-12);
                assert_eq!(state.time(), oracle.time());
            }
        }
        let a = nl.find_node("a").unwrap();
        let expect = [oracle.voltage(a), oracle.differential(a, b)];
        for (got, want) in state.capacitor_voltages().iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn map_steps_charge_the_budget_like_linear_newton_steps() {
        let (nl, [vs, is, _], b) = switched_rc();
        let budget = |iters| {
            crate::dc::set_thread_solve_budget(Some(crate::dc::SolveBudget {
                deadline: None,
                newton_iters: Some(iters),
            }))
        };
        let mut sim = TransientSim::new(&nl, TransientOptions::default()).unwrap();
        let map = sim.step_map(&nl, &[vs, is], &[b]).unwrap();
        let mut state = sim.map_stepper(&[b]);
        budget(3);
        let results: Vec<_> = (0..4).map(|_| state.step(&map, &[1.0, 0.0])).collect();
        budget(3);
        let generic: Vec<_> = (0..4).map(|_| sim.step(&nl)).collect();
        crate::dc::set_thread_solve_budget(None);
        assert_eq!(results, generic);
        assert!(matches!(
            results[3],
            Err(CircuitError::BudgetExhausted {
                resource: "newton-iterations"
            })
        ));
    }

    #[test]
    fn step_map_preconditions() {
        let (nl, [vs, is, sw], b) = switched_rc();
        let mut sim = TransientSim::new(&nl, TransientOptions::default()).unwrap();
        let invalid =
            |r: Result<StepMap, CircuitError>| matches!(r, Err(CircuitError::InvalidConfig { .. }));
        // Every independent source must be an input, and only sources.
        assert!(invalid(sim.step_map(&nl, &[vs], &[b])));
        assert!(invalid(sim.step_map(&nl, &[vs, is, sw], &[b])));
        // Nonlinear netlists have no fixed step map.
        let mut nl = nl;
        nl.diode(b, Netlist::GND, 1e-14, 1.0);
        let mut sim = TransientSim::new(&nl, TransientOptions::default()).unwrap();
        assert!(invalid(sim.step_map(&nl, &[vs, is], &[b])));
    }

    #[test]
    fn non_finite_map_state_is_a_failed_step() {
        let (nl, [vs, is, _], b) = switched_rc();
        let mut sim = TransientSim::new(&nl, TransientOptions::default()).unwrap();
        let map = sim.step_map(&nl, &[vs, is], &[b]).unwrap();
        let mut state = sim.map_stepper(&[b]);
        let before = state.probe(0);
        assert!(matches!(
            state.step(&map, &[f64::NAN, 0.0]),
            Err(CircuitError::NoConvergence {
                analysis: "transient step",
                ..
            })
        ));
        assert_eq!(state.probe(0), before);
    }

    #[test]
    fn invalid_dt_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor(a, Netlist::GND, 1e3);
        assert!(TransientSim::new(
            &nl,
            TransientOptions {
                dt: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        let mut sim = TransientSim::new(&nl, TransientOptions::default()).unwrap();
        assert!(sim.set_dt(-1.0).is_err());
        assert!(sim.set_dt(1e-9).is_ok());
    }
}
