//! `perfbench`: runs one workload and prints its metrics, the last stdout
//! line being the JSON result. See the crate documentation for usage.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --emit-golden
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use symbist_defects::{run_campaign, CampaignOptions};
use symbist_perfbench::golden::{render, GOLDEN_PATH};
use symbist_perfbench::run::{traced, untraced, Options};
use symbist_perfbench::workloads::{setup, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload exhaustive|table1|class_reps|mc_dies \
                     --seed N --seconds S --trace 0|1 | --emit-golden";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--emit-golden") {
        return emit_golden();
    }
    let (options, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&options.out_dir) {
        eprintln!("{}: {e}", options.out_dir.display());
        return ExitCode::FAILURE;
    }
    let report = if trace {
        traced(&options)
    } else {
        untraced(&options)
    };
    for line in &report.lines {
        println!("{line}");
    }
    for e in report.errors.iter().take(20) {
        eprintln!("correctness: {e}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 25.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Options {
            workload,
            seed,
            seconds,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        },
        trace,
    ))
}

/// Regenerates the golden verdict file from one exhaustive campaign.
fn emit_golden() -> ExitCode {
    match write_golden() {
        Ok(n) => {
            eprintln!("wrote {n} verdicts to {GOLDEN_PATH}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn write_golden() -> Result<usize, String> {
    let (s, _) = setup(Workload::Exhaustive, DEFAULT_SEED)?;
    let res = run_campaign(&s.adc, &s.universe, &CampaignOptions::default(), |dut| {
        s.engine.campaign_test(dut)
    })
    .map_err(|e| e.to_string())?;
    let outcomes: Vec<_> = res.records.iter().map(|r| r.outcome).collect();
    let text = render(&s.universe, &outcomes)?;
    std::fs::write(GOLDEN_PATH, text).map_err(|e| format!("{GOLDEN_PATH}: {e}"))?;
    Ok(outcomes.len())
}
