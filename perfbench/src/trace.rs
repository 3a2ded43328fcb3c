//! The traced run: spans recorded from the benchmark's own code around each
//! `try_run`, then a replay of every simulated DUT through the `adc` layers'
//! public entry points with one child span per layer call, checked bit for
//! bit against `ObservationStream::try_observe`.
//!
//! Spans live in a bounded in-memory buffer and are written out as NDJSON
//! when the run ends. The solver counters (`circuit.*`) are read from the
//! program's own `symbist_solver_*` metrics, only after the campaign's
//! worker threads have joined.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use symbist::{BistResult, InvarianceId, Schedule, StimulusSpec, SymBist};
use symbist_adc::refnet::{solve_ref_network, RefOutputs};
use symbist_adc::sc_array::SideLevels;
use symbist_adc::{Faultable, SarAdc};
use symbist_circuit::error::CircuitError;

use crate::stats::median;
use crate::workloads::{DutKey, Setup, Tester};

/// Spans kept in memory; later ones are dropped and counted.
const SPAN_CAPACITY: usize = 1 << 21;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// The DUT the span belongs to; all spans of one DUT share it.
    pub dut: DutKey,
    /// Layer name.
    pub name: &'static str,
    /// Start, µs since the buffer was created.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
}

/// Bounded span buffer shared by the traced tester and the replay.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl SpanLog {
    /// An empty buffer.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Allocates a span id (for parents that close after their children).
    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that started at `start` and ends now.
    fn close(&self, id: u64, parent: u64, dut: DutKey, name: &'static str, start: Instant) {
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            dut,
            name,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        };
        let mut spans = self.spans.lock().expect("span buffer lock");
        if spans.len() < SPAN_CAPACITY {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Times `f` as a span.
    fn time<T>(&self, parent: u64, dut: DutKey, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.close(id, parent, dut, name, start);
        out
    }

    /// Spans that did not fit into the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let (kind, idx) = match s.dut {
                DutKey::Defect(i) => ("defect", i),
                DutKey::Die(i) => ("die", i),
            };
            writeln!(
                out,
                "{{\"trace\":\"{kind}-{idx}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"ts_us\":{:.3},\"dur_us\":{:.3}}}",
                s.id, s.parent, s.name, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span buffer lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

/// What the traced tester saw of one DUT: enough to replay it.
#[derive(Debug, Clone, Copy)]
pub struct Simulated {
    /// The DUT.
    pub dut: DutKey,
    /// Counter codes the run consumed before it stopped (1..=32).
    pub codes: u8,
}

/// `SymBist::try_run` inside a `core.session` root span.
#[derive(Debug, Default)]
pub struct TracedTester {
    /// The span buffer.
    pub log: SpanLog,
    /// Every resolved simulation, in completion order.
    pub simulated: Mutex<Vec<Simulated>>,
}

impl Tester for TracedTester {
    fn run(
        &self,
        engine: &SymBist,
        dut: &SarAdc,
        key: DutKey,
        stop_on_detection: bool,
    ) -> Result<BistResult, CircuitError> {
        let res = self.log.time(0, key, "core.session", || {
            engine.try_run(dut, stop_on_detection)
        });
        if let Ok(r) = &res {
            self.simulated
                .lock()
                .expect("simulated list lock")
                .push(Simulated {
                    dut: key,
                    codes: codes_consumed(engine.schedule(), r.cycles_run),
                });
        }
        res
    }
}

/// Counter codes a run consumed: the highest code of any check scheduled
/// before the run stopped, plus one.
pub fn codes_consumed(schedule: Schedule, cycles_run: u32) -> u8 {
    let mut codes = 0;
    for id in InvarianceId::ALL {
        for code in 0..StimulusSpec::CODES as u8 {
            if schedule.cycle_of(id, code) < cycles_run {
                codes = codes.max(code + 1);
            }
        }
    }
    codes
}

/// Per-layer totals of the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// DUTs replayed.
    pub duts: usize,
    /// SC-array codes applied.
    pub sc_codes: u64,
    /// Reference-network solves.
    pub refnet_calls: u64,
    /// Bandgap solves.
    pub bandgap_calls: u64,
    /// Codes whose replayed `(DAC+, DAC−)` differ in bits from the stream.
    pub mismatches: u64,
}

/// Replays every DUT the traced pass simulated, on `threads` workers. Each
/// DUT is cloned and injected, run through `SymBist::try_run` again (the
/// share denominator, timed next to its layers so machine drift between
/// passes cancels), replayed layer by layer with one child span per call,
/// and checked against a fresh `ObservationStream`.
pub fn replay(setup: &Setup, tester: &TracedTester, threads: usize) -> Replay {
    let simulated = tester.simulated.lock().expect("simulated list lock");
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut out = Replay::default();
        while let Some(sim) = simulated.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            replay_one(setup, &tester.log, sim, &mut out);
        }
        out
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .fold(Replay::default(), |a, b| Replay {
                duts: a.duts + b.duts,
                sc_codes: a.sc_codes + b.sc_codes,
                refnet_calls: a.refnet_calls + b.refnet_calls,
                bandgap_calls: a.bandgap_calls + b.bandgap_calls,
                mismatches: a.mismatches + b.mismatches,
            })
    })
}

fn replay_one(setup: &Setup, log: &SpanLog, sim: &Simulated, out: &mut Replay) {
    let din = setup.engine.stimulus().din;
    let root = log.id();
    let root_start = Instant::now();
    let (dut, stop_on_detection) = match sim.dut {
        DutKey::Defect(i) => {
            let dut = log.time(root, sim.dut, "defects.campaign.inject", || {
                let mut dut = setup.adc.clone();
                dut.inject(setup.universe.defects()[i].site);
                dut
            });
            (dut, true)
        }
        DutKey::Die(i) => (setup.dies[i].clone(), false),
    };
    let rerun = log.time(root, sim.dut, "core.session.replay", || {
        setup.engine.try_run(&dut, stop_on_detection)
    });
    let layered = replay_layers(log, root, sim, &dut, din, out);
    let stream = reference_dacs(&dut, din, sim.codes);
    match (rerun, layered, stream) {
        (Ok(r), Ok(a), Ok(b))
            if codes_consumed(setup.engine.schedule(), r.cycles_run) == sim.codes =>
        {
            out.mismatches += a
                .iter()
                .zip(&b)
                .filter(|(x, y)| x.0.to_bits() != y.0.to_bits() || x.1.to_bits() != y.1.to_bits())
                .count() as u64;
        }
        _ => out.mismatches += u64::from(sim.codes),
    }
    log.close(root, 0, sim.dut, "replay", root_start);
    out.duts += 1;
}

/// The observation stream's path, layer by layer, through public entry
/// points only: bandgap DC, reference network at (0, 0) (which also gives
/// VREFP and the common-mode pin), Vcm DC, SC-array sampling, then one
/// reference-network solve and one SC code per counter code.
fn replay_layers(
    log: &SpanLog,
    root: u64,
    sim: &Simulated,
    dut: &SarAdc,
    din: f64,
    out: &mut Replay,
) -> Result<Vec<(f64, f64)>, CircuitError> {
    let key = sim.dut;
    let vbg = log
        .time(root, key, "adc.bandgap", || dut.bandgap().solve())?
        .vbg;
    out.bandgap_calls += 1;
    let solve = |m: u8, out: &mut Replay| -> Result<RefOutputs, CircuitError> {
        out.refnet_calls += 1;
        log.time(root, key, "adc.refnet", || {
            solve_ref_network(
                dut.reference_buffer(),
                dut.subdac1(),
                dut.subdac2(),
                vbg,
                m,
                m,
            )
        })
    };
    let r0 = solve(0, out)?;
    let vcm = log.time(root, key, "adc.vcm", || {
        dut.vcm_generator().solve(r0.vref32)
    })?;
    let (in_p, in_n) = (r0.vref16 + din / 2.0, r0.vref16 - din / 2.0);
    let mut session = log.time(root, key, "adc.sc_array.begin", || {
        dut.sc_array().begin(in_p, in_n, vcm, false)
    })?;
    let mut dacs = Vec::with_capacity(usize::from(sim.codes));
    for code in 0..sim.codes {
        let r = if code == 0 { r0 } else { solve(code, out)? };
        let dac = log.time(root, key, "adc.sc_array.code", || {
            session.apply_code(
                SideLevels {
                    m: r.m_plus,
                    l: r.l_plus,
                },
                SideLevels {
                    m: r.m_minus,
                    l: r.l_minus,
                },
            )
        })?;
        out.sc_codes += 1;
        dacs.push(dac);
    }
    Ok(dacs)
}

/// `(DAC+, DAC−)` of the first `codes` codes from the program's own
/// observation stream.
fn reference_dacs(dut: &SarAdc, din: f64, codes: u8) -> Result<Vec<(f64, f64)>, CircuitError> {
    let mut stream = dut.try_observation_stream(din)?;
    (0..codes)
        .map(|c| stream.try_observe(c).map(|o| (o.dac_plus, o.dac_minus)))
        .collect()
}

/// Sum of span durations named `name`, in µs.
pub fn total_us(log: &SpanLog, name: &str) -> f64 {
    log.durations(name).iter().sum()
}

/// Median span duration named `name`, in µs (0 when there is none).
pub fn median_us(log: &SpanLog, name: &str) -> f64 {
    let d = log.durations(name);
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Snapshot of the program's solver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverCounts {
    /// `symbist_solver_dc_solves_total`.
    pub dc_solves: u64,
    /// Sum of `symbist_solver_newton_iterations`.
    pub newton_iterations: f64,
    /// `symbist_solver_refactors_total`.
    pub refactors: u64,
    /// `symbist_solver_refactor_skips_total`.
    pub refactor_skips: u64,
    /// `symbist_solver_transient_steps_total`.
    pub transient_steps: u64,
}

impl SolverCounts {
    /// Reads the counters now. Call only while no solver thread runs: the
    /// program flushes its per-engine tallies when engines drop.
    pub fn read() -> SolverCounts {
        let reg = symbist_obs::registry();
        SolverCounts {
            dc_solves: reg
                .counter(
                    "symbist_solver_dc_solves_total",
                    "DC operating-point solves (all continuation strategies included)",
                )
                .get(),
            newton_iterations: reg
                .histogram(
                    "symbist_solver_newton_iterations",
                    "Newton iterations per converged operating-point solve",
                    symbist_obs::ITERATION_EDGES,
                )
                .sum(),
            refactors: reg
                .counter(
                    "symbist_solver_refactors_total",
                    "Sparse numeric refactorizations performed",
                )
                .get(),
            refactor_skips: reg
                .counter(
                    "symbist_solver_refactor_skips_total",
                    "Sparse refactorizations skipped via the bit-identical-matrix check",
                )
                .get(),
            transient_steps: reg
                .counter(
                    "symbist_solver_transient_steps_total",
                    "Transient integration steps taken",
                )
                .get(),
        }
    }

    /// `self − earlier`.
    pub fn since(&self, earlier: &SolverCounts) -> SolverCounts {
        SolverCounts {
            dc_solves: self.dc_solves - earlier.dc_solves,
            newton_iterations: self.newton_iterations - earlier.newton_iterations,
            refactors: self.refactors - earlier.refactors,
            refactor_skips: self.refactor_skips - earlier.refactor_skips,
            transient_steps: self.transient_steps - earlier.transient_steps,
        }
    }

    /// Share of refactorizations the bit-identical check skipped.
    pub fn refactor_skip_ratio(&self) -> f64 {
        let total = self.refactors + self.refactor_skips;
        if total == 0 {
            0.0
        } else {
            self.refactor_skips as f64 / total as f64
        }
    }
}

/// Total seconds spent appending checkpoint records so far
/// (`symbist_campaign_checkpoint_seconds` sum).
pub fn checkpoint_seconds() -> f64 {
    symbist_obs::registry()
        .histogram(
            "symbist_campaign_checkpoint_seconds",
            "Latency of one checkpoint record append (lock + write + flush)",
            symbist_obs::SECONDS_EDGES,
        )
        .sum()
}
