//! End-to-end tests for the DUT registry subsystem through the real
//! TCP/HTTP stack: `POST /v1/duts` upload/dedup/lint-gate/quota, generic
//! campaigns selected by the job spec's `dut` field, bit-identity of the
//! ADC campaign across the legacy and registry paths, and a sharded
//! coordinator run over an uploaded DUT merging byte-identical to the
//! 1-process oracle.
#![allow(clippy::unwrap_used)] // integration tests assert by panicking

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use symbist::experiments::ExperimentConfig;
use symbist_defects::checkpoint::merged_line;
use symbist_defects::DefectRecord;
use symbist_dut::{CapArrayConfig, DutRegistry, DutRegistryConfig, DutSpec};
use symbist_service::backend::{AdcBackend, CampaignBackend, SyntheticBackend};
use symbist_service::client::{Client, ClientError, ServiceError};
use symbist_service::coord::{run_coordinator, CoordConfig};
use symbist_service::dut_backend::GenericBackend;
use symbist_service::http::{Server, ServiceConfig};
use symbist_service::spec::JobSpec;
use symbist_service::Json;

const POLL: Duration = Duration::from_millis(10);

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("symbist-dut-e2e-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A server whose backend carries a DUT registry (in-memory unless a
/// directory is given), plus a client bound to it.
fn start_with_registry(
    inner: Arc<dyn CampaignBackend>,
    max_per_tenant: usize,
    dir: Option<PathBuf>,
) -> (Server, Client) {
    let registry = Arc::new(
        DutRegistry::open(DutRegistryConfig {
            dir,
            max_per_tenant,
        })
        .expect("registry opens"),
    );
    let backend = Arc::new(GenericBackend::new(inner, registry));
    let server = Server::start(ServiceConfig::default(), backend).expect("server starts");
    let client = Client::builder()
        .base_url(server.addr().to_string())
        .build();
    (server, client)
}

fn shut_down(server: Server) {
    server.request_shutdown();
    server.wait();
}

/// Streams a completed job's records sorted by catalog index and
/// projected through `merged_line` (the wall-free byte-comparable form).
fn merged_projection(client: &Client, id: symbist_service::JobId) -> Vec<String> {
    let mut records: Vec<DefectRecord> = client
        .stream_results(id)
        .expect("stream")
        .map(|r| r.expect("record parses"))
        .collect();
    records.sort_by_key(|r| r.defect_index);
    records.iter().map(merged_line).collect()
}

#[test]
fn upload_lint_gate_dedup_and_quota_over_the_wire() {
    let (server, client) = start_with_registry(Arc::new(SyntheticBackend::new(4)), 1, None);

    // An Error-grade netlist (floating island) is rejected 422 with the
    // SYM-Lxxx diagnostics, before any registry slot is consumed.
    let mut bad = CapArrayConfig::binary(3).dut_spec();
    bad.name = "islanded".into();
    bad.netlist.push_str("RZ island1 island2 1k\n");
    match client.upload_dut(&bad) {
        Err(ClientError::Service(ServiceError::LintFailed {
            diagnostics: Some(report),
            ..
        })) => {
            assert!(
                report.to_string().contains("SYM-L"),
                "diagnostics carry lint codes: {report}"
            );
        }
        other => panic!("expected 422 lint_failed with diagnostics, got {other:?}"),
    }
    assert!(client.list_duts().unwrap().is_empty(), "slot was consumed");

    // A clean upload still fits the 1-slot quota after the rejection.
    let good = CapArrayConfig::binary(3).dut_spec();
    let first = client.upload_dut(&good).unwrap();
    assert_eq!(first.get("created").and_then(Json::as_bool), Some(true));
    let id = first.get("id").and_then(Json::as_str).unwrap().to_string();

    // Identical content answers from the cache: same id, created=false,
    // and the lint-cache-hit counter advances.
    let hits = || {
        symbist_obs::counter!(
            "symbist_dut_lint_cache_hits_total",
            "re-uploads of identical content answered from the lint cache"
        )
        .get()
    };
    let before = hits();
    let again = client.upload_dut(&good).unwrap();
    assert_eq!(again.get("created").and_then(Json::as_bool), Some(false));
    assert_eq!(again.get("id").and_then(Json::as_str), Some(id.as_str()));
    assert!(hits() > before, "cache hit not counted");

    // Distinct content against a full quota: 403 quota_exceeded — a
    // definitive answer the client never auto-retries.
    let mut second = CapArrayConfig::binary(3).dut_spec();
    second.name = "other".into();
    second.calibration.seed ^= 7;
    match client.upload_dut(&second) {
        Err(ClientError::Service(ServiceError::QuotaExceeded(m))) => {
            assert!(m.contains("quota"), "message: {m}");
        }
        other => panic!("expected 403 quota_exceeded, got {other:?}"),
    }

    // The new metric families are live on /v1/metrics.
    let metrics = client.metrics().unwrap();
    for family in [
        "symbist_dut_uploads_total",
        "symbist_dut_lint_cache_hits_total",
        "symbist_dut_lint_rejects_total",
        "symbist_dut_registry_entries",
    ] {
        assert!(metrics.contains(family), "missing {family}");
    }
    shut_down(server);
}

#[test]
fn generic_job_runs_the_uploaded_dut_end_to_end() {
    let (server, client) = start_with_registry(Arc::new(SyntheticBackend::new(4)), 64, None);

    let spec = CapArrayConfig::binary(3).dut_spec();
    let doc = client.upload_dut(&spec).unwrap();
    let id = doc.get("id").and_then(Json::as_str).unwrap().to_string();
    let defects = doc.get("defects").and_then(Json::as_u64).unwrap() as usize;
    assert_eq!(defects, 27 * 4);

    // GET /v1/duts/{id} serves the detail document (with lint report).
    let detail = client.get_dut(&id).unwrap();
    assert_eq!(detail.get("defects").and_then(Json::as_u64), Some(108));
    assert!(detail.get("lint").is_some(), "detail includes lint report");

    // A job addressed by registry *name* runs the registered universe,
    // not the synthetic inner backend's.
    let job = JobSpec {
        dut: Some("cap-array-b3-r2".into()),
        tag: Some("dut e2e".into()),
        ..JobSpec::default()
    };
    let id = client.submit(&job).expect("submit");
    let (state, _) = client.wait_terminal(id, POLL).expect("terminal");
    assert_eq!(state, "completed");
    let records = merged_projection(&client, id);
    assert_eq!(records.len(), defects);
    let report = client.report(id).expect("report");
    assert!(report.get("coverage").is_some());

    // Unknown DUT references and ADC-only knobs are 400s at submission.
    for bad in [
        JobSpec {
            dut: Some("no-such-dut".into()),
            ..JobSpec::default()
        },
        JobSpec {
            dut: Some("cap-array-b3-r2".into()),
            block: Some("SC Array".into()),
            ..JobSpec::default()
        },
    ] {
        match client.submit(&bad) {
            Err(ClientError::Service(ServiceError::BadRequest(_))) => {}
            other => panic!("expected 400, got {other:?}"),
        }
    }
    shut_down(server);
}

#[test]
fn analysis_endpoint_serves_the_cached_partition() {
    let (server, client) = start_with_registry(Arc::new(SyntheticBackend::new(4)), 64, None);

    let spec = CapArrayConfig::binary(3).dut_spec();
    let doc = client.upload_dut(&spec).unwrap();
    let id = doc.get("id").and_then(Json::as_str).unwrap().to_string();
    let defects = doc.get("defects").and_then(Json::as_u64).unwrap();

    // By id and by name: the full analysis document, with the class
    // partition covering the whole universe.
    for reference in [id.as_str(), "cap-array-b3-r2"] {
        let analysis = client.dut_analysis(reference).unwrap();
        assert_eq!(
            analysis.get("universe_size").and_then(Json::as_u64),
            Some(defects),
            "analysis for {reference}"
        );
        let cert = analysis.get("certificate").and_then(Json::as_str).unwrap();
        assert_eq!(cert.len(), 16, "certificate is a 64-bit hex string");
        let classes = analysis.get("classes").and_then(Json::as_arr).unwrap();
        let covered: u64 = classes
            .iter()
            .map(|c| c.get("members").and_then(Json::as_arr).unwrap().len() as u64)
            .sum();
        assert_eq!(covered, defects, "classes partition the universe");
    }

    // The job-facing lint route folds the orbit summary in.
    let job = client
        .submit(&JobSpec {
            dut: Some(id.clone()),
            sample_size: Some(1),
            ..JobSpec::default()
        })
        .unwrap();
    let lint = client.lint(job).unwrap();
    let summary = lint.get("analysis").expect("lint carries analysis summary");
    assert_eq!(
        summary.get("class_count").and_then(Json::as_u64),
        Some(
            client
                .dut_analysis(&id)
                .unwrap()
                .get("class_count")
                .and_then(Json::as_u64)
                .unwrap()
        )
    );
    assert_eq!(summary.get("errors").and_then(Json::as_u64), Some(0));
    let (_, _) = client.wait_terminal(job, POLL).unwrap();

    // Unknown references 404 rather than guessing a DUT.
    match client.dut_analysis("no-such-dut") {
        Err(ClientError::Service(ServiceError::NotFound(_))) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    shut_down(server);
}

#[test]
fn adc_campaign_is_bit_identical_across_legacy_and_registry_paths() {
    // One server, both paths: specs without `dut` take the code path that
    // predates the registry; `dut: "sar-adc"` routes through
    // GenericBackend's dispatch. The records must match byte-for-byte.
    let xc = ExperimentConfig {
        calibration_samples: 2,
        ..ExperimentConfig::default()
    };
    let adc: Arc<dyn CampaignBackend> = Arc::new(AdcBackend::new(&xc));
    let (server, client) = start_with_registry(adc, 64, None);

    // The reserved name serves the backend's own startup-computed static
    // analysis (the registry holds no such entry).
    let analysis = client.dut_analysis("sar-adc").expect("builtin analysis");
    assert_eq!(
        analysis.get("universe_size").and_then(Json::as_u64),
        Some(client.universe().unwrap()),
    );
    assert!(
        analysis.get("defects_saved").and_then(Json::as_u64) > Some(0),
        "ADC P/N pairs collapse into shared classes"
    );

    // Exhaustive on one Table-I block, and LWRS-sampled on the full
    // universe — both shapes of the paper's Table-1 experiment.
    let shapes = [
        JobSpec {
            block: Some("Vcm Generator".into()),
            seed: 3,
            ..JobSpec::default()
        },
        JobSpec {
            sample_size: Some(150),
            seed: 11,
            ..JobSpec::default()
        },
    ];
    for shape in shapes {
        let legacy = JobSpec {
            dut: None,
            ..shape.clone()
        };
        let registry_path = JobSpec {
            dut: Some("sar-adc".into()),
            ..shape
        };
        let mut projections = Vec::new();
        for spec in [legacy, registry_path] {
            let id = client.submit(&spec).expect("submit");
            let (state, _) = client.wait_terminal(id, POLL).expect("terminal");
            assert_eq!(state, "completed");
            projections.push(merged_projection(&client, id));
        }
        assert!(!projections[0].is_empty());
        assert_eq!(
            projections[0], projections[1],
            "registry path diverged from the legacy ADC campaign"
        );
    }
    shut_down(server);
}

#[test]
fn coordinator_shards_an_uploaded_dut_and_merges_bit_identical() {
    // Two workers, each with its own empty registry: the coordinator
    // uploads the spec to both (content addressing makes the ids agree),
    // shards the DUT's universe, and merges byte-identical to a
    // 1-process run of the same entry.
    let dut_spec = CapArrayConfig::binary(4).dut_spec();
    let dut_text = dut_spec.to_json().to_string();
    let universe = 4 * 3 * 3 * 4; // bits × arrays × components × defect kinds

    let servers: Vec<Server> = (0..2)
        .map(|_| {
            let registry =
                Arc::new(DutRegistry::open(DutRegistryConfig::default()).expect("registry"));
            let backend: Arc<dyn CampaignBackend> = Arc::new(GenericBackend::new(
                Arc::new(SyntheticBackend::new(4)),
                registry,
            ));
            Server::start(ServiceConfig::default(), backend).expect("worker starts")
        })
        .collect();

    let workers = servers.iter().map(|s| s.addr().to_string()).collect();
    let mut config = CoordConfig::new(workers, 2, temp_dir("coord"));
    config.spec = JobSpec {
        threads: 1,
        seed: 9,
        ..JobSpec::default()
    };
    config.dut_spec = Some(dut_text);
    config.poll_interval = POLL;
    config.backoff_base = Duration::from_millis(2);
    config.backoff_cap = Duration::from_millis(20);

    let outcome = run_coordinator(&config).expect("coordinator run");
    assert_eq!(outcome.result.simulated(), universe);
    assert_eq!(outcome.redispatches, 0);
    for shard in &outcome.shards {
        assert_eq!(shard.attempts, 1);
    }

    // 1-process oracle over the same content: a private registry derives
    // the identical id, engine, and universe from the same spec text.
    let oracle_registry =
        Arc::new(DutRegistry::open(DutRegistryConfig::default()).expect("registry"));
    let uploaded = oracle_registry
        .upload(DutSpec::from_json_text(config.dut_spec.as_deref().unwrap()).unwrap())
        .unwrap();
    let oracle_backend = GenericBackend::new(
        Arc::new(SyntheticBackend::new(4)),
        Arc::clone(&oracle_registry),
    );
    let oracle_spec = JobSpec {
        dut: Some(uploaded.entry().id.clone()),
        threads: 1,
        seed: 9,
        ..JobSpec::default()
    };
    oracle_backend.validate(&oracle_spec).unwrap();
    let oracle = oracle_backend.run(&oracle_spec, None, &()).unwrap();

    let coord_lines: Vec<String> = outcome.result.records.iter().map(merged_line).collect();
    let oracle_lines: Vec<String> = oracle.records.iter().map(merged_line).collect();
    assert_eq!(coord_lines, oracle_lines, "merge diverged from the oracle");

    let artifact = std::fs::read_to_string(&outcome.merged_path).expect("merged artifact");
    let mut expected = oracle_lines.join("\n");
    expected.push('\n');
    assert_eq!(artifact, expected, "merged.jsonl must equal the oracle");

    // Every worker now holds the uploaded DUT under the agreed id.
    for server in &servers {
        let client = Client::builder()
            .base_url(server.addr().to_string())
            .build();
        let listed = client.list_duts().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(
            listed[0].get("id").and_then(Json::as_str),
            Some(uploaded.entry().id.as_str())
        );
    }
    for server in servers {
        shut_down(server);
    }
}
