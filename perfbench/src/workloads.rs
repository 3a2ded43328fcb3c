//! The four workloads: set-up, one timed iteration, and the correctness
//! checks on its outputs. Every call goes through the library's public API
//! (`run_campaign`, `run_class_campaign`, `SymBist::try_run`,
//! `Calibration`, `analyze_adc_with_universe`); nothing shells out to the
//! experiment binaries.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use symbist::experiments::{ExperimentConfig, Table1Options};
use symbist::{BistResult, InvarianceId, StimulusSpec, SymBist};
use symbist_adc::{AdcMismatch, BlockKind, DefectSite, Faultable, SarAdc};
use symbist_circuit::error::CircuitError;
use symbist_circuit::rng::Rng;
use symbist_defects::{
    run_campaign, run_class_campaign, CampaignOptions, CampaignResult, ClassCampaignOptions,
    CoverageTable, DefectUniverse, LikelihoodModel, SimOutcome,
};
use symbist_lint::analyze_adc_with_universe;

use crate::golden::Golden;

/// The seed the baseline was recorded at. It equals the repository's
/// `ExperimentConfig` seed, so at this seed the `table1` workload draws
/// exactly the LWRS samples of `symbist::experiments::table1`.
pub const DEFAULT_SEED: u64 = 0xD47E_2020;

/// The seed of iteration `i` of a run: the workload seed itself first, then
/// a fixed sequence derived from it. Sampled workloads (`table1`'s LWRS
/// draws, `class_reps`' sibling audit) therefore pool several draws per
/// run, so one unlucky draw does not move a run's medians.
pub fn iteration_seed(seed: u64, iteration: usize) -> u64 {
    seed.wrapping_add((iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Monte-Carlo dies per `mc_dies` iteration.
pub const MC_DIES: usize = 400;

/// Every `DIE_AUDIT_STRIDE`-th die's verdict is re-derived from the batch
/// observation path (`SarAdc::try_symbist_observations`) at any seed.
const DIE_AUDIT_STRIDE: usize = 8;

/// `mc_dies` verdicts pinned at [`DEFAULT_SEED`]: dies passing, and an
/// FNV-1a fingerprint over every die's ordered detection list.
const PINNED_DIES: (usize, u64) = (394, 0x3191_d180_a803_b429);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 3922 defects through `run_campaign` with the JSONL checkpoint on.
    Exhaustive,
    /// The paper's Table I: 11 per-block campaigns plus the aggregate row.
    Table1,
    /// Static orbit analysis, then one representative per class plus a
    /// 10 % sibling audit through `run_class_campaign`.
    ClassReps,
    /// Healthy Monte-Carlo dies, each through the full 32-code BIST.
    McDies,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Exhaustive,
        Workload::Table1,
        Workload::ClassReps,
        Workload::McDies,
    ];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Exhaustive => "exhaustive",
            Workload::Table1 => "table1",
            Workload::ClassReps => "class_reps",
            Workload::McDies => "mc_dies",
        }
    }

    /// DUTs one iteration simulates at [`DEFAULT_SEED`]. The tail
    /// percentile is chosen from this fixed count, not from the pooled
    /// sample, so it does not change with the number of iterations.
    pub fn nominal_duts(self) -> usize {
        match self {
            Workload::Exhaustive => 3922,
            Workload::Table1 => 711,
            Workload::ClassReps => 2442,
            Workload::McDies => MC_DIES,
        }
    }
}

/// Set-up time split by layer, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `core.calibrate`: Monte-Carlo window calibration.
    pub calibrate_s: f64,
    /// `defects.universe`: DUT construction and defect enumeration.
    pub enumerate_s: f64,
    /// `lint.analysis`: orbit analysis and class partition (`class_reps`).
    pub analysis_s: f64,
    /// Monte-Carlo die generation (`mc_dies`).
    pub dies_s: f64,
}

impl Phases {
    /// Total set-up seconds.
    pub fn total(&self) -> f64 {
        self.calibrate_s + self.enumerate_s + self.analysis_s + self.dies_s
    }
}

/// Everything a workload needs before its timed loop starts.
#[derive(Debug)]
pub struct Setup {
    /// The workload seed the inputs were generated from.
    pub seed: u64,
    /// Calibrated SymBIST engine (fixed calibration seed).
    pub engine: SymBist,
    /// The defect-free DUT.
    pub adc: SarAdc,
    /// The full defect universe.
    pub universe: DefectUniverse,
    /// Universe index of every defect site.
    pub index_of: HashMap<DefectSite, usize>,
    /// Static class partition (`class_reps` only).
    pub partition: Vec<Vec<usize>>,
    /// Monte-Carlo dies (`mc_dies` only), never simulated: each iteration
    /// runs on fresh clones so no per-DUT cache survives between
    /// iterations.
    pub dies: Vec<SarAdc>,
}

/// Builds the workload's inputs from `seed` and times each layer.
pub fn setup(workload: Workload, seed: u64) -> Result<(Setup, Phases), String> {
    let xc = ExperimentConfig::default();
    let mut phases = Phases::default();

    let t = Instant::now();
    let engine = xc.build_engine();
    phases.calibrate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let adc = SarAdc::new(xc.adc.clone());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    phases.enumerate_s = t.elapsed().as_secs_f64();
    let index_of = universe
        .iter()
        .enumerate()
        .map(|(i, d)| (d.site, i))
        .collect();

    let mut partition = Vec::new();
    if workload == Workload::ClassReps {
        let t = Instant::now();
        let analysis = analyze_adc_with_universe(&adc, &universe);
        partition = analysis.partition();
        phases.analysis_s = t.elapsed().as_secs_f64();
        if analysis.diagnostics.has_errors() {
            return Err(format!(
                "orbit analysis reported errors:\n{}",
                analysis.diagnostics.render_text()
            ));
        }
    }

    let mut dies = Vec::new();
    if workload == Workload::McDies {
        let t = Instant::now();
        let mut rng = Rng::seed_from_u64(seed);
        dies = (0..MC_DIES)
            .map(|_| {
                let mut die = adc.clone();
                die.apply_mismatch(&AdcMismatch::sample(&mut rng));
                die
            })
            .collect();
        phases.dies_s = t.elapsed().as_secs_f64();
    }

    Ok((
        Setup {
            seed,
            engine,
            adc,
            universe,
            index_of,
            partition,
            dies,
        },
        phases,
    ))
}

/// Which DUT a simulation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DutKey {
    /// A defect, by universe index.
    Defect(usize),
    /// A Monte-Carlo die, by index in [`Setup::dies`].
    Die(usize),
}

/// How one DUT is simulated. The plain tester is `SymBist::try_run`; the
/// traced run wraps it in a span.
pub trait Tester: Sync {
    /// Runs the BIST on `dut`.
    fn run(
        &self,
        engine: &SymBist,
        dut: &SarAdc,
        key: DutKey,
        stop_on_detection: bool,
    ) -> Result<BistResult, CircuitError>;
}

/// The untraced tester.
#[derive(Debug, Clone, Copy)]
pub struct Plain;

impl Tester for Plain {
    fn run(
        &self,
        engine: &SymBist,
        dut: &SarAdc,
        _key: DutKey,
        stop_on_detection: bool,
    ) -> Result<BistResult, CircuitError> {
        engine.try_run(dut, stop_on_detection)
    }
}

/// One timed pass over a workload.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Host seconds from the start of the campaign (or die loop) to the
    /// coverage (or yield) result.
    pub wall_s: f64,
    /// Host milliseconds of every simulated DUT.
    pub sim_ms: Vec<f64>,
    /// Simulations that ended unresolved (no convergence, timeout, panic).
    pub unresolved: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Sum of per-DUT seconds (the busy time of the worker pool).
    pub busy_s: f64,
    /// `(simulated, saved)` of a class-representative campaign.
    pub classes: Option<(usize, usize)>,
    /// Every problem the correctness checks found.
    pub errors: Vec<String>,
}

impl Iteration {
    /// `1 − busy / (wall × threads)`: the share of worker time spent
    /// outside DUT simulations (campaign set-up, checkpoint, idle tails).
    pub fn idle_share(&self) -> f64 {
        1.0 - self.busy_s / (self.wall_s * self.threads as f64)
    }
}

/// Runs one iteration of `workload` and checks its outputs.
/// `audit_dies` additionally re-derives a stride of die verdicts.
#[allow(clippy::too_many_arguments)]
pub fn run_iteration(
    workload: Workload,
    setup: &Setup,
    golden: &Golden,
    seed: u64,
    threads: usize,
    tester: &dyn Tester,
    out_dir: &Path,
    audit_dies: bool,
) -> Iteration {
    let mut it = Iteration {
        threads,
        ..Default::default()
    };
    let result = match workload {
        Workload::Exhaustive => exhaustive(setup, golden, seed, tester, out_dir, &mut it),
        Workload::Table1 => table1(setup, golden, seed, tester, &mut it),
        Workload::ClassReps => class_reps(setup, golden, seed, tester, &mut it),
        Workload::McDies => mc_dies(setup, tester, audit_dies, &mut it),
    };
    if let Err(e) = result {
        it.errors.push(e);
    }
    it
}

/// The campaign test closure: key the DUT by its injected site.
fn campaign_test<'a>(
    setup: &'a Setup,
    tester: &'a dyn Tester,
) -> impl Fn(&SarAdc) -> SimOutcome + Sync + 'a {
    move |dut: &SarAdc| {
        let site = dut.injected().expect("campaign DUTs carry a defect");
        let key = DutKey::Defect(setup.index_of[&site]);
        tester
            .run(&setup.engine, dut, key, true)
            .map(|r| r.to_test_outcome())
            .into()
    }
}

fn exhaustive(
    setup: &Setup,
    golden: &Golden,
    seed: u64,
    tester: &dyn Tester,
    out_dir: &Path,
    it: &mut Iteration,
) -> Result<(), String> {
    let checkpoint = out_dir.join("exhaustive.ckpt.jsonl");
    // A leftover journal would be resumed instead of simulated.
    match std::fs::remove_file(&checkpoint) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("{}: {e}", checkpoint.display())),
    }
    let t0 = Instant::now();
    let res = run_campaign(
        &setup.adc,
        &setup.universe,
        &CampaignOptions {
            seed,
            threads: it.threads,
            checkpoint: Some(checkpoint.clone()),
            ..Default::default()
        },
        campaign_test(setup, tester),
    )
    .map_err(|e| e.to_string())?;
    black_box(res.coverage());
    it.wall_s = t0.elapsed().as_secs_f64();

    for r in &res.records {
        it.sim_ms.push(r.wall.as_secs_f64() * 1e3);
        it.busy_s += r.wall.as_secs_f64();
        it.unresolved += usize::from(r.outcome.is_unresolved());
        if let Err(e) = golden.check(r.defect_index, &r.outcome) {
            it.errors.push(e);
        }
    }
    if res.records.len() != setup.universe.len() || res.resumed != 0 {
        it.errors.push(format!(
            "exhaustive campaign produced {} records ({} resumed) for {} defects",
            res.records.len(),
            res.resumed,
            setup.universe.len()
        ));
    }
    let journal = std::fs::read_to_string(&checkpoint)
        .map_err(|e| format!("{}: {e}", checkpoint.display()))?;
    if journal.lines().count() != res.records.len() {
        it.errors.push(format!(
            "checkpoint holds {} lines for {} records",
            journal.lines().count(),
            res.records.len()
        ));
    }
    Ok(())
}

/// Table I exactly as `symbist::experiments::table1` builds it: one
/// campaign per block (exhaustive up to the threshold, LWRS above it) and
/// the LWRS aggregate row. The LWRS seeds derive from the workload seed
/// instead of the calibration seed (the engine is calibrated once, in
/// set-up); at [`DEFAULT_SEED`] the two coincide.
pub fn table1_campaigns(
    setup: &Setup,
    seed: u64,
    threads: usize,
    tester: &dyn Tester,
) -> Result<(CoverageTable, Vec<CampaignResult>), String> {
    let opts = Table1Options::default();
    let mut table = CoverageTable::new();
    let mut results = Vec::new();
    for (block_idx, block) in BlockKind::ALL.into_iter().enumerate() {
        let sub = setup.universe.filter_block(block);
        let sample =
            (sub.len() > opts.exhaustive_threshold).then_some(opts.per_block_sample.min(sub.len()));
        let res = run_campaign(
            &setup.adc,
            &sub,
            &CampaignOptions {
                sample_size: sample,
                seed: seed.wrapping_add(block_idx as u64 * 0x9E37_79B9),
                threads,
                ..Default::default()
            },
            campaign_test(setup, tester),
        )
        .map_err(|e| format!("{block} campaign: {e}"))?;
        table.push_block(block, &res);
        results.push(res);
    }
    let aggregate = run_campaign(
        &setup.adc,
        &setup.universe,
        &CampaignOptions {
            sample_size: Some(opts.aggregate_sample.min(setup.universe.len())),
            seed: seed ^ 0xA66,
            threads,
            ..Default::default()
        },
        campaign_test(setup, tester),
    )
    .map_err(|e| format!("aggregate campaign: {e}"))?;
    table.push_aggregate("Complete A/M-S part of SAR ADC IP", &aggregate);
    results.push(aggregate);
    Ok((table, results))
}

fn table1(
    setup: &Setup,
    golden: &Golden,
    seed: u64,
    tester: &dyn Tester,
    it: &mut Iteration,
) -> Result<(), String> {
    let t0 = Instant::now();
    let (table, results) = table1_campaigns(setup, seed, it.threads, tester)?;
    black_box(&table);
    it.wall_s = t0.elapsed().as_secs_f64();

    for r in results.iter().flat_map(|res| &res.records) {
        it.sim_ms.push(r.wall.as_secs_f64() * 1e3);
        it.busy_s += r.wall.as_secs_f64();
        it.unresolved += usize::from(r.outcome.is_unresolved());
        if let Err(e) = golden.check(setup.index_of[&r.site], &r.outcome) {
            it.errors.push(e);
        }
    }
    if table.rows().len() != BlockKind::ALL.len() + 1 {
        it.errors
            .push(format!("Table I has {} rows", table.rows().len()));
    }
    Ok(())
}

fn class_reps(
    setup: &Setup,
    golden: &Golden,
    seed: u64,
    tester: &dyn Tester,
    it: &mut Iteration,
) -> Result<(), String> {
    // `ClassCampaignResult` keeps no per-record wall time, so the closure
    // times each simulation itself (clone + inject excluded).
    let times = Mutex::new(Vec::with_capacity(Workload::ClassReps.nominal_duts()));
    let test = campaign_test(setup, tester);
    let t0 = Instant::now();
    let res = run_class_campaign(
        &setup.adc,
        &setup.universe,
        &setup.partition,
        &ClassCampaignOptions {
            seed,
            threads: it.threads,
            ..Default::default()
        },
        |dut: &SarAdc| {
            let t = Instant::now();
            let outcome = test(dut);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            times.lock().expect("timing vector lock").push(ms);
            outcome
        },
    )
    .map_err(|e| e.to_string())?;
    let coverage = res.coverage();
    it.wall_s = t0.elapsed().as_secs_f64();

    it.classes = Some((res.simulated, res.defects_saved()));
    it.sim_ms = times.into_inner().expect("timing vector lock");
    it.busy_s = it.sim_ms.iter().sum::<f64>() / 1e3;
    for c in &res.classes {
        let sims =
            std::iter::once((c.representative, c.outcome)).chain(c.sibling.zip(c.sibling_outcome));
        for (index, outcome) in sims {
            it.unresolved += usize::from(outcome.is_unresolved());
            if let Err(e) = golden.check(index, &outcome) {
                it.errors.push(e);
            }
        }
    }
    if res.simulated != it.sim_ms.len() {
        it.errors.push(format!(
            "class campaign reports {} simulated, {} timed",
            res.simulated,
            it.sim_ms.len()
        ));
    }
    if res.violation_count() != 0 {
        it.errors
            .push(format!("{} class violations", res.violation_count()));
    }
    let exhaustive = golden.coverage(&setup.universe);
    if (coverage.value - exhaustive).abs() > 1e-12 {
        it.errors.push(format!(
            "extrapolated coverage {} differs from exhaustive {exhaustive}",
            coverage.value
        ));
    }
    Ok(())
}

fn mc_dies(
    setup: &Setup,
    tester: &dyn Tester,
    audit: bool,
    it: &mut Iteration,
) -> Result<(), String> {
    let batch = setup.dies.clone();
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(die) = batch.get(i) else {
                return local;
            };
            let t = Instant::now();
            let res = tester.run(&setup.engine, die, DutKey::Die(i), false);
            local.push((i, t.elapsed().as_secs_f64() * 1e3, res));
        }
    };
    let t0 = Instant::now();
    let mut runs: Vec<(usize, f64, Result<BistResult, CircuitError>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..it.threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("die worker panicked"))
                .collect()
        });
    let passing = runs
        .iter()
        .filter(|(_, _, r)| r.as_ref().is_ok_and(|r| r.pass))
        .count();
    black_box(passing as f64 / batch.len() as f64);
    it.wall_s = t0.elapsed().as_secs_f64();

    runs.sort_unstable_by_key(|(i, _, _)| *i);
    let mut fingerprint = Fnv::new();
    for (i, ms, res) in &runs {
        it.sim_ms.push(*ms);
        it.busy_s += ms / 1e3;
        match res {
            Ok(r) => {
                fingerprint.write(&[u8::from(r.pass)]);
                for d in &r.detections {
                    fingerprint.write(&[d.invariance.index() as u8, d.code]);
                }
                if audit && i % DIE_AUDIT_STRIDE == 0 {
                    if let Err(e) = audit_die(&setup.engine, &setup.dies[*i], r) {
                        it.errors.push(format!("die {i}: {e}"));
                    }
                }
            }
            Err(e) => {
                it.unresolved += 1;
                it.errors.push(format!("die {i}: {e}"));
            }
        }
    }
    if runs.len() != batch.len() {
        it.errors
            .push(format!("{} of {} dies ran", runs.len(), batch.len()));
    }
    let found = (passing, fingerprint.finish());
    if setup.seed == DEFAULT_SEED && found != PINNED_DIES {
        it.errors.push(format!(
            "die verdicts (passing, fingerprint) = ({}, {:#018x}), pinned ({}, {:#018x})",
            found.0, found.1, PINNED_DIES.0, PINNED_DIES.1
        ));
    }
    Ok(())
}

/// Re-derives a die's detections from the batch observation path and the
/// calibrated windows, independently of the lazy session stream.
fn audit_die(engine: &SymBist, die: &SarAdc, run: &BistResult) -> Result<(), String> {
    let cal = engine.calibration();
    let obs = die
        .try_symbist_observations(engine.stimulus().din)
        .map_err(|e| e.to_string())?;
    let mut expected = Vec::new();
    for id in InvarianceId::ALL {
        for code in 0..StimulusSpec::CODES as u8 {
            let dev = symbist::deviation(id, &obs[code as usize], &cal.wiring);
            let pass = if id.is_digital() {
                dev < 0.5
            } else {
                cal.window(id).check(cal.centered(id, dev))
            };
            if !pass {
                expected.push((engine.schedule().cycle_of(id, code), id.index(), code));
            }
        }
    }
    expected.sort_unstable();
    let got: Vec<(u32, usize, u8)> = run
        .detections
        .iter()
        .map(|d| (d.cycle, d.invariance.index(), d.code))
        .collect();
    if got != expected {
        return Err(format!(
            "session detections {got:?}, observation audit {expected:?}"
        ));
    }
    Ok(())
}

/// 64-bit FNV-1a, for verdict fingerprints.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
