//! The SymBIST campaign service daemon.
//!
//! ```sh
//! cargo run --release -p symbist-service --bin serve -- \
//!     --addr 127.0.0.1:7171 --workers 2 --queue 16 --data-dir ./jobs
//! ```
//!
//! Flags (all optional):
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7171`)
//! * `--workers N` — campaign worker threads (default 2)
//! * `--handlers N` — HTTP handler threads (default 4)
//! * `--queue N` — job-queue capacity, the 503 threshold (default 16)
//! * `--data-dir PATH` — persist jobs + checkpoints for drain/resume
//! * `--calibration-samples N` — Monte-Carlo samples for the window
//!   calibration at startup (default 10, as in the paper experiments)
//! * `--synthetic N` — serve the scripted N-component synthetic backend
//!   instead of the SAR ADC (fast; for demos and smoke tests)
//! * `--dut-quota N` — max registered DUTs per tenant on `POST /v1/duts`
//!   (default 64). The registry persists as `duts.jsonl` under
//!   `--data-dir` and reloads on restart; without a data dir it is
//!   in-memory only.
//! * `--trace-out PATH` — on exit, dump the captured trace ring as
//!   `chrome://tracing`-compatible NDJSON to PATH
//! * `--fault-plan SPEC` — install a deterministic fault-injection plan
//!   (e.g. `seed=7;worker/kill:shard-1@4=panic`) for chaos testing; see
//!   `symbist::faultplan`. Injections are counted on
//!   `symbist_fault_injections_total`.
//!
//! The process exits after `POST /v1/shutdown` finishes draining: running
//! campaigns stop at the next defect boundary with every completed record
//! checkpointed, and restarting with the same `--data-dir` resumes them.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use symbist::experiments::ExperimentConfig;
use symbist_dut::{DutRegistry, DutRegistryConfig};
use symbist_service::backend::{AdcBackend, CampaignBackend, SyntheticBackend};
use symbist_service::dut_backend::GenericBackend;
use symbist_service::http::{Server, ServiceConfig};

struct Args {
    config: ServiceConfig,
    calibration_samples: usize,
    synthetic: Option<usize>,
    dut_quota: usize,
    trace_out: Option<PathBuf>,
    fault_plan: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: ServiceConfig {
            addr: "127.0.0.1:7171".into(),
            ..ServiceConfig::default()
        },
        calibration_samples: 10,
        synthetic: None,
        dut_quota: DutRegistryConfig::default().max_per_tenant,
        trace_out: None,
        fault_plan: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.config.addr = value("--addr")?,
            "--workers" => args.config.workers = parse_num(&value("--workers")?)?,
            "--handlers" => args.config.handlers = parse_num(&value("--handlers")?)?,
            "--queue" => args.config.queue_capacity = parse_num(&value("--queue")?)?,
            "--data-dir" => args.config.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--calibration-samples" => {
                args.calibration_samples = parse_num(&value("--calibration-samples")?)?
            }
            "--synthetic" => args.synthetic = Some(parse_num(&value("--synthetic")?)?),
            "--dut-quota" => args.dut_quota = parse_num(&value("--dut-quota")?)?,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--fault-plan" => args.fault_plan = Some(value("--fault-plan")?),
            "--help" | "-h" => {
                return Err(
                    "usage: serve [--addr HOST:PORT] [--workers N] [--handlers N] \
                            [--queue N] [--data-dir PATH] [--calibration-samples N] \
                            [--synthetic N] [--dut-quota N] [--trace-out PATH] \
                            [--fault-plan SPEC]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    // Keep the guard alive for the process lifetime: dropping it would
    // uninstall the plan while workers are mid-campaign.
    let _fault_guard = match &args.fault_plan {
        Some(spec) => match symbist_obs::FaultPlan::parse(spec) {
            Ok(plan) => {
                eprintln!("serve: fault plan active: {plan}");
                Some(symbist_obs::fault::install(Arc::new(plan)))
            }
            Err(e) => {
                eprintln!("serve: bad --fault-plan: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let backend: Arc<dyn CampaignBackend> = match args.synthetic {
        Some(components) => {
            eprintln!("serve: synthetic backend with {components} components");
            Arc::new(SyntheticBackend::new(components))
        }
        None => {
            eprintln!(
                "serve: calibrating SymBIST on the SAR ADC IP \
                 ({} Monte-Carlo samples)...",
                args.calibration_samples
            );
            let xc = ExperimentConfig {
                calibration_samples: args.calibration_samples,
                ..ExperimentConfig::default()
            };
            let backend = AdcBackend::new(&xc);
            eprintln!(
                "serve: ready; defect universe has {} defects",
                backend.universe_len()
            );
            Arc::new(backend)
        }
    };

    // Every server carries a DUT registry: `POST /v1/duts` registers
    // arbitrary netlist DUTs, and specs with a `dut` field run generic
    // invariance campaigns against them. Specs without one still reach
    // the inner backend verbatim.
    let registry = match DutRegistry::open(DutRegistryConfig {
        dir: args.config.data_dir.clone(),
        max_per_tenant: args.dut_quota,
    }) {
        Ok(registry) => Arc::new(registry),
        Err(e) => {
            eprintln!("serve: failed to open DUT registry: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !registry.is_empty() {
        eprintln!("serve: DUT registry reloaded {} entries", registry.len());
    }
    let backend: Arc<dyn CampaignBackend> = Arc::new(GenericBackend::new(backend, registry));

    let server = match Server::start(args.config, backend) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serve: listening on http://{} (POST /v1/shutdown to drain and exit)",
        server.addr()
    );
    server.wait();
    if let Some(path) = &args.trace_out {
        match write_trace(path) {
            Ok(events) => eprintln!("serve: wrote {events} trace events to {}", path.display()),
            Err(e) => eprintln!("serve: failed to write trace to {}: {e}", path.display()),
        }
    }
    eprintln!("serve: drained; bye");
    ExitCode::SUCCESS
}

fn write_trace(path: &std::path::Path) -> std::io::Result<usize> {
    let tracer = symbist_obs::tracer();
    let events = tracer.len();
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_ndjson(&mut file)?;
    std::io::Write::flush(&mut file)?;
    Ok(events)
}
