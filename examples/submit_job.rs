//! End-to-end session against the campaign job service: start an
//! in-process server on the real SAR ADC backend, submit a campaign on
//! the Vcm generator over HTTP, stream the per-defect records as NDJSON
//! while the job runs, and print the final coverage report — the same
//! conversation the curl session in the README has with the `serve`
//! daemon.
//!
//! ```sh
//! cargo run --release --example submit_job
//! ```

use std::sync::Arc;
use std::time::Duration;

use symbist_repro::bist::experiments::ExperimentConfig;
use symbist_service::{AdcBackend, Client, JobSpec, Json, Server, ServiceConfig};

fn main() {
    // The expensive part — building the ADC and calibrating the δ = kσ
    // comparator windows for both schedules — happens once at backend
    // construction, not per job.
    println!("calibrating SymBIST on the SAR ADC IP...");
    let xc = ExperimentConfig {
        calibration_samples: 6,
        ..ExperimentConfig::default()
    };
    let backend = AdcBackend::new(&xc);
    println!("defect universe: {} defects\n", backend.universe_len());

    let config = ServiceConfig {
        addr: "127.0.0.1:0".into(), // OS-assigned port
        workers: 1,
        ..ServiceConfig::default()
    };
    let server = Server::start(config, Arc::new(backend)).expect("bind service");
    let client = Client::builder()
        .base_url(server.addr().to_string())
        .timeout(Duration::from_secs(60))
        .build();
    client.health().expect("service is healthy");
    println!("service listening on http://{}", server.addr());

    // POST /v1/jobs — an exhaustive campaign on one Table-I row.
    let spec = JobSpec {
        block: Some("Vcm Generator".into()),
        seed: 7,
        tag: Some("submit_job example".into()),
        ..JobSpec::default()
    };
    let id = client.submit(&spec).expect("submit job");
    println!(
        "submitted job {id} ({:?} block, exhaustive)\n",
        "Vcm Generator"
    );

    // GET /v1/jobs/{id} — one status poll while the campaign runs.
    let status = client.status(id).expect("job status");
    println!(
        "state after submit: {}",
        status.get("state").and_then(Json::as_str).unwrap_or("?")
    );

    // GET /v1/jobs/{id}/results — NDJSON, each line a checkpoint record,
    // streamed live and following the job to its terminal state.
    println!("\n{:<8} {:>12} {:>12}", "defect", "likelihood", "verdict");
    let mut detected = 0usize;
    for record in client.stream_results(id).expect("open result stream") {
        let r = record.expect("well-formed record line");
        let verdict = match r.outcome.completed() {
            Some(o) if o.detected => {
                detected += 1;
                "detected"
            }
            Some(_) => "escape",
            None => "unresolved",
        };
        println!(
            "#{:<7} {:>12.3} {:>12}",
            r.defect_index, r.likelihood, verdict
        );
    }

    // GET /v1/report/{id} — the L-W coverage bounds with 95 % CI.
    let (state, _) = client
        .wait_terminal(id, Duration::from_millis(20))
        .expect("job reaches a terminal state");
    let report = client.report(id).expect("coverage report");
    let bound = |key: &str| {
        report
            .get("coverage")
            .and_then(|c| c.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    println!(
        "\njob {id} {state}: {detected} detected, L-W coverage bounds \
         [{:.1} %, {:.1} %] (pessimistic/optimistic unresolved accounting)",
        bound("lower") * 100.0,
        bound("upper") * 100.0,
    );

    // POST /v1/shutdown — drain and exit; no jobs are in flight, so this
    // returns promptly.
    client.shutdown().expect("request shutdown");
    server.wait();
    println!("server drained and stopped");
}
