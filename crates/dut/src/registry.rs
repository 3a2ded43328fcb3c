//! The content-addressed DUT registry.
//!
//! Uploads are keyed by [`DutSpec::content_hash`]: semantically identical
//! re-uploads (whitespace, comments, continuation layout) resolve to the
//! same entry and return the **cached** lint report — "upload once, lint
//! once, run many campaigns". Entries persist as append-only JSONL with
//! the same torn-line tolerance as campaign checkpoints: a process killed
//! mid-append loses at most the half-written line, and the next open
//! compacts the file. Per-tenant quotas bound how much registry state any
//! one client can pin, independently of the job queue's backpressure.
//!
//! The lint gate runs *before* a registry slot is consumed: an
//! Error-grade netlist (SYM-Lxxx) is rejected without persisting
//! anything, so a hostile or broken upload cannot burn quota.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use symbist::generic::GenericBist;
use symbist_adc::fault::Faultable;
use symbist_lint::{lint_netlist, lint_universe, AnalysisReport, LintReport};
use symbist_obs::{counter, gauge};

use crate::model::DutModel;
use crate::spec::{DutSpec, DutSpecError};
use crate::Json;

/// The job-spec `dut` value selecting the baked-in SAR ADC campaign
/// (equivalent to omitting `dut`; the name is reserved in the registry).
pub const BUILTIN_ADC_DUT: &str = "sar-adc";

/// Persistence file name within the registry directory.
const REGISTRY_FILE: &str = "duts.jsonl";

/// Registry configuration.
#[derive(Debug, Clone)]
pub struct DutRegistryConfig {
    /// Directory for `duts.jsonl`; `None` keeps the registry in memory
    /// (tests, synthetic servers).
    pub dir: Option<PathBuf>,
    /// Maximum registered DUTs per tenant.
    pub max_per_tenant: usize,
}

impl Default for DutRegistryConfig {
    fn default() -> Self {
        Self {
            dir: None,
            max_per_tenant: 64,
        }
    }
}

/// One registered DUT.
#[derive(Debug, Clone)]
pub struct DutEntry {
    /// Content-hash id (16 hex digits).
    pub id: String,
    /// Monotonic upload sequence number (name lookups resolve to the
    /// highest-seq entry with that name).
    pub seq: u64,
    /// The resolved model (netlist, catalog, universe, invariances).
    pub model: DutModel,
    /// The lint report computed at upload ("lint once").
    pub lint: LintReport,
    /// The stage-two static analysis (symmetry orbits, defect-class
    /// partition, detectability) computed at upload — content-addressed
    /// like the lint report, so identical re-uploads never re-analyze.
    pub analysis: AnalysisReport,
}

impl DutEntry {
    /// The upload spec.
    pub fn spec(&self) -> &DutSpec {
        &self.model.spec
    }
}

/// Outcome of a successful upload.
#[derive(Debug, Clone)]
pub enum UploadOutcome {
    /// New content: linted, persisted, quota consumed.
    Created(Arc<DutEntry>),
    /// Identical content already registered: the cached entry (and its
    /// cached lint report) is returned; no quota consumed.
    Existing(Arc<DutEntry>),
}

impl UploadOutcome {
    /// The entry either way.
    pub fn entry(&self) -> &Arc<DutEntry> {
        match self {
            UploadOutcome::Created(e) | UploadOutcome::Existing(e) => e,
        }
    }

    /// `true` for [`UploadOutcome::Created`].
    pub fn created(&self) -> bool {
        matches!(self, UploadOutcome::Created(_))
    }
}

/// Why an upload was refused.
#[derive(Debug)]
pub enum UploadError {
    /// The name is reserved for the baked-in DUT.
    ReservedName(String),
    /// The spec is structurally invalid: the netlist does not parse, an
    /// invariance references an unknown node, no faultable components, ….
    Spec(DutSpecError),
    /// The lint gate found Error-grade diagnostics; the report carries
    /// the SYM-Lxxx findings.
    Lint(LintReport),
    /// The tenant is at its registry quota.
    Quota {
        /// The refused tenant.
        tenant: String,
        /// Its configured limit.
        limit: usize,
    },
    /// Persistence failed; nothing was registered.
    Io(String),
}

impl fmt::Display for UploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UploadError::ReservedName(name) => {
                write!(f, "DUT name \"{name}\" is reserved for the baked-in ADC")
            }
            UploadError::Spec(e) => write!(f, "invalid DUT spec: {e}"),
            UploadError::Lint(report) => write!(
                f,
                "netlist failed lint preflight with {} error(s)",
                report.error_count()
            ),
            UploadError::Quota { tenant, limit } => {
                write!(f, "tenant \"{tenant}\" is at its quota of {limit} DUTs")
            }
            UploadError::Io(e) => write!(f, "registry persistence failed: {e}"),
        }
    }
}

impl std::error::Error for UploadError {}

#[derive(Default)]
struct Inner {
    by_id: BTreeMap<String, Arc<DutEntry>>,
    /// name → id of the highest-seq entry carrying it.
    by_name: HashMap<String, String>,
    per_tenant: HashMap<String, usize>,
    next_seq: u64,
}

/// The content-addressed DUT registry. Thread-safe; the service shares
/// one behind an `Arc` between the HTTP front-end and the backend.
pub struct DutRegistry {
    inner: Mutex<Inner>,
    /// Calibrated engines keyed by content id: the same "upload once, run
    /// many" contract as the lint cache, but for the expensive part —
    /// `δ = k·σ` Monte-Carlo window calibration.
    engines: Mutex<HashMap<String, Arc<GenericBist>>>,
    file: Option<PathBuf>,
    max_per_tenant: usize,
}

impl fmt::Debug for DutRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DutRegistry")
            .field("file", &self.file)
            .field("max_per_tenant", &self.max_per_tenant)
            .finish_non_exhaustive()
    }
}

impl DutRegistry {
    /// Opens (and, if persistent, reloads) a registry.
    ///
    /// Reload is crash-safe: unparseable lines — a torn tail from a kill
    /// mid-append, the same failure mode campaign checkpoints tolerate —
    /// are skipped, and the file is compacted (atomic tmp + rename) so
    /// the corruption cannot compound across restarts.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the directory cannot be created or the
    /// persistence file cannot be read/rewritten.
    pub fn open(config: DutRegistryConfig) -> std::io::Result<DutRegistry> {
        touch_metric_families();
        let registry = DutRegistry {
            inner: Mutex::new(Inner::default()),
            engines: Mutex::new(HashMap::new()),
            file: config.dir.as_ref().map(|d| d.join(REGISTRY_FILE)),
            max_per_tenant: config.max_per_tenant.max(1),
        };
        if let Some(dir) = &config.dir {
            std::fs::create_dir_all(dir)?;
            registry.reload()?;
        }
        Ok(registry)
    }

    fn reload(&self) -> std::io::Result<()> {
        let Some(path) = &self.file else {
            return Ok(());
        };
        if !path.exists() {
            return Ok(());
        }
        let reader = BufReader::new(File::open(path)?);
        let mut entries: Vec<(u64, DutSpec)> = Vec::new();
        let mut total_lines = 0usize;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            total_lines += 1;
            let Some((seq, spec)) = parse_registry_line(&line) else {
                continue; // torn or corrupt line: tolerated, compacted away
            };
            entries.push((seq, spec));
        }
        let clean = entries.len();
        {
            let mut inner = self.lock();
            for (seq, spec) in entries {
                // Lint is recomputed on reload ("lint once" is per content
                // hash, not per process lifetime); entries that no longer
                // build are dropped like torn lines rather than poisoning
                // the whole registry.
                let Ok((entry, _)) = build_entry(spec, seq) else {
                    continue;
                };
                inner.next_seq = inner.next_seq.max(seq + 1);
                insert(&mut inner, Arc::new(entry));
            }
            set_entries_gauge(&inner);
        }
        if clean < total_lines {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the persistence file from the in-memory state via tmp +
    /// rename, dropping any torn/corrupt lines.
    fn compact(&self) -> std::io::Result<()> {
        let Some(path) = &self.file else {
            return Ok(());
        };
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut out = File::create(&tmp)?;
            let inner = self.lock();
            let mut entries: Vec<&Arc<DutEntry>> = inner.by_id.values().collect();
            entries.sort_by_key(|e| e.seq);
            for entry in entries {
                writeln!(out, "{}", registry_line(entry.seq, entry.spec()))?;
            }
            out.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Uploads a spec: content-hash dedup, lint gate, quota check,
    /// persist, register — in that order, so nothing is consumed or
    /// written unless every earlier gate passes.
    ///
    /// # Errors
    ///
    /// See [`UploadError`]; on error the registry is unchanged.
    pub fn upload(&self, spec: DutSpec) -> Result<UploadOutcome, UploadError> {
        if spec.name == BUILTIN_ADC_DUT {
            counter!(
                r#"symbist_dut_uploads_total{result="rejected"}"#,
                "DUT uploads by outcome"
            )
            .inc();
            return Err(UploadError::ReservedName(spec.name));
        }
        let id = spec.id();
        {
            let inner = self.lock();
            if let Some(entry) = inner.by_id.get(&id) {
                counter!(
                    "symbist_dut_lint_cache_hits_total",
                    "re-uploads of identical content answered from the lint cache"
                )
                .inc();
                counter!(
                    r#"symbist_dut_uploads_total{result="existing"}"#,
                    "DUT uploads by outcome"
                )
                .inc();
                return Ok(UploadOutcome::Existing(Arc::clone(entry)));
            }
        }
        // Build + lint outside the lock: universe enumeration and the
        // lint topology walk are O(components) and need no shared state.
        let (mut entry, lint_errors) = build_entry(spec, 0).map_err(|e| {
            counter!(
                r#"symbist_dut_uploads_total{result="rejected"}"#,
                "DUT uploads by outcome"
            )
            .inc();
            UploadError::Spec(e)
        })?;
        if lint_errors {
            counter!(
                "symbist_dut_lint_rejects_total",
                "uploads rejected by the lint preflight gate"
            )
            .inc();
            counter!(
                r#"symbist_dut_uploads_total{result="rejected"}"#,
                "DUT uploads by outcome"
            )
            .inc();
            return Err(UploadError::Lint(entry.lint));
        }
        // Calibrate here, not lazily at first campaign: a netlist whose
        // Monte-Carlo instances fail to solve is rejected at upload (where
        // the client can react) instead of failing every job against it.
        // The engine lands in the cache, so the first campaign pays
        // nothing.
        self.engine_for(&entry).map_err(|e| {
            counter!(
                r#"symbist_dut_uploads_total{result="rejected"}"#,
                "DUT uploads by outcome"
            )
            .inc();
            UploadError::Spec(e)
        })?;
        let mut inner = self.lock();
        // Re-check under the lock: a racing identical upload wins cleanly.
        if let Some(existing) = inner.by_id.get(&id) {
            counter!(
                "symbist_dut_lint_cache_hits_total",
                "re-uploads of identical content answered from the lint cache"
            )
            .inc();
            return Ok(UploadOutcome::Existing(Arc::clone(existing)));
        }
        let tenant = entry.spec().tenant.clone();
        let used = inner.per_tenant.get(&tenant).copied().unwrap_or(0);
        if used >= self.max_per_tenant {
            counter!(
                r#"symbist_dut_uploads_total{result="rejected"}"#,
                "DUT uploads by outcome"
            )
            .inc();
            return Err(UploadError::Quota {
                tenant,
                limit: self.max_per_tenant,
            });
        }
        entry.seq = inner.next_seq;
        if let Some(path) = &self.file {
            append_line(path, &registry_line(entry.seq, entry.spec()))
                .map_err(|e| UploadError::Io(e.to_string()))?;
        }
        inner.next_seq += 1;
        let entry = Arc::new(entry);
        insert(&mut inner, Arc::clone(&entry));
        set_entries_gauge(&inner);
        counter!(
            r#"symbist_dut_uploads_total{result="created"}"#,
            "DUT uploads by outcome"
        )
        .inc();
        Ok(UploadOutcome::Created(entry))
    }

    /// Resolves an entry by content id (16-hex) or by name (latest upload
    /// with that name wins).
    pub fn get(&self, id_or_name: &str) -> Option<Arc<DutEntry>> {
        let inner = self.lock();
        if let Some(entry) = inner.by_id.get(id_or_name) {
            return Some(Arc::clone(entry));
        }
        inner
            .by_name
            .get(id_or_name)
            .and_then(|id| inner.by_id.get(id))
            .map(Arc::clone)
    }

    /// Every entry, in upload order.
    pub fn list(&self) -> Vec<Arc<DutEntry>> {
        let inner = self.lock();
        let mut entries: Vec<Arc<DutEntry>> = inner.by_id.values().map(Arc::clone).collect();
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// Number of registered DUTs.
    pub fn len(&self) -> usize {
        self.lock().by_id.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The calibrated window-comparator engine for an entry, from the
    /// per-content-hash cache. A miss (first use after a reload) runs the
    /// deterministic `δ = k·σ` calibration and caches it.
    ///
    /// # Errors
    ///
    /// Calibration DC-solve failures come back as [`DutSpecError`];
    /// [`upload`](Self::upload) runs this eagerly, so post-upload misses
    /// can only fail if the process was restarted into a broken state.
    pub fn engine_for(&self, entry: &DutEntry) -> Result<Arc<GenericBist>, DutSpecError> {
        {
            let engines = self.engines.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(engine) = engines.get(&entry.id) {
                return Ok(Arc::clone(engine));
            }
        }
        // Calibrate outside the lock — it is the expensive step, and a
        // racing duplicate calibration is deterministic, so last-write
        // wins harmlessly.
        let engine = Arc::new(
            entry
                .model
                .calibrate()
                .map_err(|e| DutSpecError(format!("window calibration failed to solve: {e}")))?,
        );
        counter!(
            "symbist_dut_calibrations_total",
            "generic-DUT window calibrations performed (cache misses)"
        )
        .inc();
        self.engines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(entry.id.clone(), Arc::clone(&engine));
        Ok(engine)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Builds an entry (model + lint report + static analysis). The bool is
/// `lint.has_errors()` — the upload gate; analysis findings (SYM-L05x) are
/// cached advisory results, not gates, since a symmetry-broken upload is
/// still a runnable DUT.
fn build_entry(spec: DutSpec, seq: u64) -> Result<(DutEntry, bool), DutSpecError> {
    let id = spec.id();
    let model = DutModel::build(spec)?;
    let context = format!("dut \"{}\"", model.spec.name);
    let mut lint = lint_netlist(&context, model.dut.template());
    lint.extend(lint_universe(&model.universe, model.dut.components()));
    let has_errors = lint.has_errors();
    // Skip the orbit computation for entries the lint gate is about to
    // reject anyway; an empty default report never persists.
    let analysis = if has_errors {
        AnalysisReport::default()
    } else {
        counter!(
            "symbist_dut_analyses_total",
            "stage-two static analyses computed for registered DUTs (cache misses)"
        )
        .inc();
        model.analysis()
    };
    Ok((
        DutEntry {
            id,
            seq,
            model,
            lint,
            analysis,
        },
        has_errors,
    ))
}

fn insert(inner: &mut Inner, entry: Arc<DutEntry>) {
    let name = entry.spec().name.clone();
    let tenant = entry.spec().tenant.clone();
    // Latest seq wins the name.
    match inner.by_name.get(&name) {
        Some(existing_id) => {
            let existing_seq = inner.by_id.get(existing_id).map(|e| e.seq).unwrap_or(0);
            if entry.seq >= existing_seq {
                inner.by_name.insert(name, entry.id.clone());
            }
        }
        None => {
            inner.by_name.insert(name, entry.id.clone());
        }
    }
    if inner.by_id.insert(entry.id.clone(), entry).is_none() {
        *inner.per_tenant.entry(tenant).or_insert(0) += 1;
    }
}

fn registry_line(seq: u64, spec: &DutSpec) -> String {
    Json::obj([("seq", Json::num(seq as f64)), ("spec", spec.to_json())]).to_string()
}

fn parse_registry_line(line: &str) -> Option<(u64, DutSpec)> {
    let json = Json::parse(line).ok()?;
    let seq = json.get("seq").and_then(Json::as_u64)?;
    let spec = DutSpec::from_json(json.get("spec")?).ok()?;
    Some((seq, spec))
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(line.as_bytes())?;
    file.write_all(b"\n")?;
    file.sync_all()
}

fn set_entries_gauge(inner: &Inner) {
    gauge!("symbist_dut_registry_entries", "DUTs currently registered")
        .set(inner.by_id.len() as i64);
}

/// Registers every `symbist_dut_*` family so the `/metrics` exposition
/// (and the CI family-grep gate) sees them from process start, not only
/// after the first upload.
fn touch_metric_families() {
    counter!(
        r#"symbist_dut_uploads_total{result="created"}"#,
        "DUT uploads by outcome"
    )
    .add(0);
    counter!(
        r#"symbist_dut_uploads_total{result="existing"}"#,
        "DUT uploads by outcome"
    )
    .add(0);
    counter!(
        r#"symbist_dut_uploads_total{result="rejected"}"#,
        "DUT uploads by outcome"
    )
    .add(0);
    counter!(
        "symbist_dut_lint_cache_hits_total",
        "re-uploads of identical content answered from the lint cache"
    )
    .add(0);
    counter!(
        "symbist_dut_lint_rejects_total",
        "uploads rejected by the lint preflight gate"
    )
    .add(0);
    counter!(
        "symbist_dut_calibrations_total",
        "generic-DUT window calibrations performed (cache misses)"
    )
    .add(0);
    counter!(
        "symbist_dut_campaigns_total",
        "campaigns run against registered DUTs"
    )
    .add(0);
    counter!(
        "symbist_dut_analyses_total",
        "stage-two static analyses computed for registered DUTs (cache misses)"
    )
    .add(0);
    gauge!("symbist_dut_registry_entries", "DUTs currently registered").set(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, tenant: &str) -> DutSpec {
        let mut s = DutSpec::from_json_text(&format!(
            r#"{{
            "name": "{name}",
            "netlist": "V1 vref 0 1.2\nRP1 vref outp 1k\nRP2 outp 0 1k\nRN1 vref outn 1k\nRN2 outn 0 1k",
            "invariances": [
                {{"name": "sum", "kind": "complementary", "a": "outp", "b": "outn", "alpha": 1.2}}
            ],
            "calibration": {{"samples": 8}}
        }}"#
        ))
        .expect("spec parses");
        s.tenant = tenant.into();
        s
    }

    #[test]
    fn upload_get_and_dedup() {
        let reg = DutRegistry::open(DutRegistryConfig::default()).unwrap();
        let first = reg.upload(spec("a", "t")).unwrap();
        assert!(first.created());
        // Identical content (different tenant!) dedups to the same entry.
        let again = reg.upload(spec("a", "other")).unwrap();
        assert!(!again.created());
        assert_eq!(again.entry().id, first.entry().id);
        assert_eq!(reg.len(), 1);
        let by_name = reg.get("a").unwrap();
        let by_id = reg.get(&first.entry().id).unwrap();
        assert_eq!(by_name.id, by_id.id);
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn reserved_name_is_refused() {
        let reg = DutRegistry::open(DutRegistryConfig::default()).unwrap();
        let err = reg.upload(spec(BUILTIN_ADC_DUT, "t")).unwrap_err();
        assert!(matches!(err, UploadError::ReservedName(_)));
    }

    #[test]
    fn lint_gate_rejects_before_quota() {
        let reg = DutRegistry::open(DutRegistryConfig {
            dir: None,
            max_per_tenant: 1,
        })
        .unwrap();
        // A floating island: R between two otherwise unconnected nodes.
        let mut bad = spec("bad", "t");
        bad.netlist = "R1 a b 1k".into();
        bad.invariances[0].a = "a".into();
        bad.invariances[0].b = "b".into();
        let err = reg.upload(bad).unwrap_err();
        let UploadError::Lint(report) = err else {
            panic!("expected lint rejection, got {err:?}");
        };
        assert!(report.has_errors());
        // The rejected upload consumed no quota: a clean one still fits.
        assert!(reg.upload(spec("good", "t")).unwrap().created());
    }

    #[test]
    fn quota_is_per_tenant() {
        let reg = DutRegistry::open(DutRegistryConfig {
            dir: None,
            max_per_tenant: 1,
        })
        .unwrap();
        assert!(reg.upload(spec("a", "t1")).unwrap().created());
        let err = reg.upload(spec("b", "t1")).unwrap_err();
        assert!(matches!(err, UploadError::Quota { .. }), "{err:?}");
        // A different tenant still has room.
        assert!(reg.upload(spec("b", "t2")).unwrap().created());
    }

    #[test]
    fn name_resolves_to_latest_upload() {
        let reg = DutRegistry::open(DutRegistryConfig::default()).unwrap();
        let v1 = reg.upload(spec("x", "t")).unwrap();
        let mut newer = spec("x", "t");
        newer.calibration.seed ^= 7; // different content, same name
        let v2 = reg.upload(newer).unwrap();
        assert_ne!(v1.entry().id, v2.entry().id);
        assert_eq!(reg.get("x").unwrap().id, v2.entry().id);
        // The older entry remains addressable by id.
        assert!(reg.get(&v1.entry().id).is_some());
    }
}
