//! The two kinds of run: the untraced end-to-end run (`--trace 0`) and the
//! traced per-layer run (`--trace 1`), each producing one [`Report`].

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::golden::Golden;
use crate::stats::{median, peak_rss_mb, percentile, tail_percentile};
use crate::trace::{checkpoint_seconds, median_us, replay, total_us, SolverCounts, TracedTester};
use crate::workloads::{
    iteration_seed, run_iteration, setup, Iteration, Phases, Plain, Setup, Tester, Workload,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget of the untraced run, in seconds.
    pub seconds: f64,
    /// Campaign worker threads.
    pub threads: usize,
    /// Directory for the checkpoint journal and the span dump.
    pub out_dir: PathBuf,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
    /// Every correctness problem found.
    pub errors: Vec<String>,
    /// DUT simulations attempted.
    pub attempted: usize,
    /// DUT simulations that ended unresolved.
    pub failed: usize,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn absorb(&mut self, it: &Iteration) {
        self.attempted += it.sim_ms.len();
        self.failed += it.unresolved;
        self.errors.extend(it.errors.iter().cloned());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Sets the workload up [`SETUP_REPEATS`] times, keeping the last set-up.
fn repeated_setup(o: &Options, report: &mut Report) -> Option<(Setup, Vec<Phases>)> {
    let mut phases = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take()); // free the previous set-up before building the next
        match setup(o.workload, o.seed) {
            Ok((s, p)) => {
                kept = Some(s);
                phases.push(p);
            }
            Err(e) => {
                report.errors.push(e);
                return None;
            }
        }
    }
    kept.map(|s| (s, phases))
}

fn load_golden(setup: &Setup, report: &mut Report) -> Option<Golden> {
    let golden = Golden::load().and_then(|g| g.check_universe(&setup.universe).map(|()| g));
    golden.map_err(|e| report.errors.push(e)).ok()
}

/// The end-to-end run: repeat the workload until `--seconds` is spent
/// (at least once) and report medians.
pub fn untraced(o: &Options) -> Report {
    let mut report = Report::default();
    let Some((setup, phases)) = repeated_setup(o, &mut report) else {
        return report;
    };
    let Some(golden) = load_golden(&setup, &mut report) else {
        return report;
    };
    let setup_s = median(&phases.iter().map(Phases::total).collect::<Vec<_>>());

    let start = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    loop {
        let it = run_iteration(
            o.workload,
            &setup,
            &golden,
            iteration_seed(o.seed, iterations.len()),
            o.threads,
            &Plain,
            &o.out_dir,
            iterations.is_empty(),
        );
        report.absorb(&it);
        iterations.push(it);
        let elapsed = start.elapsed().as_secs_f64();
        let per_iteration = elapsed / iterations.len() as f64;
        if !report.errors.is_empty() || elapsed + per_iteration > o.seconds {
            break;
        }
    }

    let walls: Vec<f64> = iterations.iter().map(|it| it.wall_s).collect();
    let rates: Vec<f64> = iterations
        .iter()
        .map(|it| it.sim_ms.len() as f64 / it.wall_s)
        .collect();
    let pooled: Vec<f64> = iterations.iter().flat_map(|it| it.sim_ms.clone()).collect();
    if pooled.is_empty() {
        report.errors.push("no DUT was simulated".into());
        return report;
    }
    let tail_p = tail_percentile(o.workload.nominal_duts());
    report.metric("wall_s", median(&walls), "s");
    report.metric("sims_per_s", median(&rates), "1/s");
    let mean_ms = pooled.iter().sum::<f64>() / pooled.len() as f64;
    report.metric("sim_ms_mean", mean_ms, "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");

    report.lines.push(format!(
        "workload {} seed {} threads {}: {} iteration(s), {} DUT simulations per iteration",
        o.workload.name(),
        o.seed,
        o.threads,
        iterations.len(),
        iterations[0].sim_ms.len()
    ));
    for m in &report.metrics {
        report
            .lines
            .push(format!("  {:<12} {:>14.6} {}", m.name, m.value, m.unit));
    }
    // Printed, not gated. Per-DUT times are bimodal (early detections vs
    // full 32-code runs) with the median in the gap between the modes, so
    // the median jumps between them with the draw and the host load; the
    // tail follows the host's stalls. Neither holds a bound of 25 % here.
    report.lines.push(format!(
        "  sim_ms_p50   {:>14.6} ms (median over {} DUTs)",
        median(&pooled),
        pooled.len()
    ));
    report.lines.push(format!(
        "  sim_ms_tail  {:>14.6} ms (p{tail_p} over {} DUTs; {} beyond it per iteration)",
        percentile(&pooled, tail_p),
        pooled.len(),
        (o.workload.nominal_duts() as f64 * (1.0 - tail_p / 100.0)).floor()
    ));
    report.lines.push(format!(
        "  fail_ratio   {:>14.6} ({} unresolved of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report
}

/// The per-layer run. Passes, in order:
/// 1. untraced at the run's thread count: idle share, checkpoint time, and
///    the base of the tracing overhead;
/// 2. traced at the same thread count: one `core.session` span per
///    `try_run`, recording which DUTs ran and how many codes each consumed;
/// 3. untraced on one thread: the solver counter deltas (one worker makes
///    the program's per-thread factorization caches see DUTs in a fixed
///    order, so the counts repeat exactly);
/// 4. replay of every DUT of pass 2 through the `adc` layers.
pub fn traced(o: &Options) -> Report {
    let mut report = Report::default();
    let Some((setup, phases)) = repeated_setup(o, &mut report) else {
        return report;
    };
    let Some(golden) = load_golden(&setup, &mut report) else {
        return report;
    };
    let phase = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let pass = |threads: usize, tester: &dyn Tester, audit: bool| {
        run_iteration(
            o.workload, &setup, &golden, o.seed, threads, tester, &o.out_dir, audit,
        )
    };

    let ckpt_before = checkpoint_seconds();
    let base = pass(o.threads, &Plain, true);
    let checkpoint_s = checkpoint_seconds() - ckpt_before;
    report.absorb(&base);

    let tester = TracedTester::default();
    let traced = pass(o.threads, &tester, false);
    report.absorb(&traced);

    let counts_before = SolverCounts::read();
    let counted = pass(1, &Plain, false);
    let counts = SolverCounts::read().since(&counts_before);
    report.absorb(&counted);

    let rp = replay(&setup, &tester, o.threads);
    let dump = o
        .out_dir
        .join(format!("trace-{}-{}.ndjson", o.workload.name(), o.seed));
    if let Err(e) = tester.log.write_ndjson(&dump) {
        report.errors.push(format!("{}: {e}", dump.display()));
    }
    if rp.mismatches != 0 {
        report.errors.push(format!(
            "{} replayed codes differ from the stream",
            rp.mismatches
        ));
    }
    if tester.log.dropped() != 0 {
        report
            .errors
            .push(format!("{} spans dropped", tester.log.dropped()));
    }

    let log = &tester.log;
    let session_us = total_us(log, "core.session.replay");
    let share = |name: &str| total_us(log, name) / session_us;
    let layers = [
        "adc.sc_array.code",
        "adc.sc_array.begin",
        "adc.refnet",
        "adc.bandgap",
        "adc.vcm",
    ];
    let replayed: f64 = layers.iter().map(|l| share(l)).sum();
    let is_campaign = o.workload != Workload::McDies;
    let (class_simulated, class_saved) = traced.classes.unwrap_or((0, 0));

    report.metric("adc.sc_array.share", share("adc.sc_array.code"), "ratio");
    report.metric("adc.sc_array.codes", rp.sc_codes as f64, "count");
    report.metric(
        "adc.sc_array.code_us_p50",
        median_us(log, "adc.sc_array.code"),
        "us",
    );
    report.metric(
        "adc.sc_array.begin_us_p50",
        median_us(log, "adc.sc_array.begin"),
        "us",
    );
    report.metric("adc.refnet.calls", rp.refnet_calls as f64, "count");
    report.metric("adc.refnet.share", share("adc.refnet"), "ratio");
    report.metric("adc.refnet.us_p50", median_us(log, "adc.refnet"), "us");
    report.metric("adc.bandgap.calls", rp.bandgap_calls as f64, "count");
    report.metric("adc.bandgap.share", share("adc.bandgap"), "ratio");
    report.metric("adc.bandgap.us_p50", median_us(log, "adc.bandgap"), "us");
    report.metric("adc.vcm.share", share("adc.vcm"), "ratio");
    report.metric("core.session.us_p50", median_us(log, "core.session"), "us");
    report.metric(
        "core.session.codes_per_dut",
        rp.sc_codes as f64 / rp.duts.max(1) as f64,
        "codes",
    );
    report.metric("core.session.residual_share", 1.0 - replayed, "ratio");
    report.metric("core.calibrate.s", phase(|p| p.calibrate_s), "s");
    report.metric(
        "defects.universe.enumerate_s",
        phase(|p| p.enumerate_s),
        "s",
    );
    report.metric("lint.analysis.s", phase(|p| p.analysis_s), "s");
    report.metric("defects.classes.simulated", class_simulated as f64, "count");
    report.metric("defects.classes.saved", class_saved as f64, "count");
    report.metric(
        "defects.campaign.inject_us_p50",
        median_us(log, "defects.campaign.inject"),
        "us",
    );
    report.metric(
        "defects.campaign.idle_share",
        if is_campaign { base.idle_share() } else { 0.0 },
        "ratio",
    );
    report.metric("defects.campaign.checkpoint_s", checkpoint_s, "s");
    report.metric("circuit.dc_solves", counts.dc_solves as f64, "count");
    report.metric(
        "circuit.newton_iterations",
        counts.newton_iterations,
        "count",
    );
    report.metric("circuit.refactors", counts.refactors as f64, "count");
    report.metric(
        "circuit.refactor_skip_ratio",
        counts.refactor_skip_ratio(),
        "ratio",
    );
    report.metric(
        "circuit.transient_steps",
        counts.transient_steps as f64,
        "count",
    );
    report.metric(
        "trace.overhead_pct",
        (traced.wall_s / base.wall_s - 1.0) * 100.0,
        "%",
    );
    report.metric("trace.replay_mismatches", rp.mismatches as f64, "count");
    report.metric("trace.spans_dropped", tester.log.dropped() as f64, "count");

    report.lines.push(format!(
        "workload {} seed {} (traced, {} threads): {:.3} s untraced, {:.3} s traced, \
         {:.3} s counted on one thread, {} DUTs replayed; spans in {}",
        o.workload.name(),
        o.seed,
        o.threads,
        base.wall_s,
        traced.wall_s,
        counted.wall_s,
        rp.duts,
        dump.display()
    ));
    for m in &report.metrics {
        report
            .lines
            .push(format!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit));
    }
    report
}
