//! The seed-independent correctness oracle: one committed verdict per
//! defect of the exhaustive universe (detected flag plus detection
//! cycle/code), generated once by `perfbench --emit-golden`. Every defect
//! workload checks each simulated record against it, so any workload seed
//! (any LWRS draw, any sibling audit) is checked against the same truth.

use std::fmt::Write as _;

use symbist::StimulusSpec;
use symbist_defects::coverage::lw_coverage_exhaustive;
use symbist_defects::{DefectUniverse, SimOutcome};

/// Location of the committed verdict file.
pub const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/golden/exhaustive_verdicts.tsv"
);

/// Expected verdict of one defect.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    component: usize,
    kind: String,
    detected: bool,
    cycle: Option<u32>,
}

/// The loaded oracle.
#[derive(Debug)]
pub struct Golden {
    verdicts: Vec<Verdict>,
}

impl Golden {
    /// Reads and parses [`GOLDEN_PATH`].
    pub fn load() -> Result<Golden, String> {
        let text = std::fs::read_to_string(GOLDEN_PATH)
            .map_err(|e| format!("golden verdicts {GOLDEN_PATH}: {e}"))?;
        Self::parse(&text)
    }

    fn parse(text: &str) -> Result<Golden, String> {
        let mut verdicts = Vec::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("golden line {}: malformed {line:?}", n + 1);
            let cols: Vec<&str> = line.split('\t').collect();
            let [index, component, kind, detected, cycle, _code] = cols[..] else {
                return Err(bad());
            };
            if index.parse::<usize>().ok() != Some(verdicts.len()) {
                return Err(bad());
            }
            verdicts.push(Verdict {
                component: component.parse().map_err(|_| bad())?,
                kind: kind.to_string(),
                detected: match detected {
                    "1" => true,
                    "0" => false,
                    _ => return Err(bad()),
                },
                cycle: match cycle {
                    "-" => None,
                    c => Some(c.parse().map_err(|_| bad())?),
                },
            });
        }
        Ok(Golden { verdicts })
    }

    /// Fails unless `universe` is the universe the oracle was made from
    /// (same size, same site at every index).
    pub fn check_universe(&self, universe: &DefectUniverse) -> Result<(), String> {
        if universe.len() != self.verdicts.len() {
            return Err(format!(
                "universe has {} defects, golden file {}",
                universe.len(),
                self.verdicts.len()
            ));
        }
        for (i, (d, v)) in universe.iter().zip(&self.verdicts).enumerate() {
            if d.site.component != v.component || d.site.kind.label() != v.kind {
                return Err(format!("defect {i}: universe site differs from golden"));
            }
        }
        Ok(())
    }

    /// Checks one record of universe defect `index` against the oracle.
    /// An unresolved outcome never matches: the golden file has none.
    pub fn check(&self, index: usize, outcome: &SimOutcome) -> Result<(), String> {
        let v = self
            .verdicts
            .get(index)
            .ok_or_else(|| format!("defect {index} outside the golden universe"))?;
        let Some(o) = outcome.completed() else {
            return Err(format!("defect {index}: unresolved {outcome:?}"));
        };
        if o.detected != v.detected || o.detection_cycle != v.cycle {
            return Err(format!(
                "defect {index}: detected={} cycle={:?}, golden detected={} cycle={:?}",
                o.detected, o.detection_cycle, v.detected, v.cycle
            ));
        }
        Ok(())
    }

    /// Exhaustive L-W coverage implied by the oracle over `universe`.
    pub fn coverage(&self, universe: &DefectUniverse) -> f64 {
        let outcomes: Vec<(f64, bool)> = universe
            .iter()
            .zip(&self.verdicts)
            .map(|(d, v)| (d.likelihood, v.detected))
            .collect();
        lw_coverage_exhaustive(&outcomes).value
    }
}

/// Renders the oracle file from an exhaustive campaign's outcomes, in
/// universe order.
pub fn render(universe: &DefectUniverse, outcomes: &[SimOutcome]) -> Result<String, String> {
    let mut out = String::from(
        "# Golden per-defect verdicts of the exhaustive SAR ADC defect universe\n\
         # (stop-on-detection, sequential schedule, calibration at the default\n\
         # ExperimentConfig seed). Regenerate: perfbench --emit-golden\n\
         # index\tcomponent\tkind\tdetected\tcycle\tcode\n",
    );
    for (i, (d, outcome)) in universe.iter().zip(outcomes).enumerate() {
        let o = outcome
            .completed()
            .ok_or_else(|| format!("defect {i} unresolved; refusing to pin it"))?;
        let (cycle, code) = match o.detection_cycle {
            Some(c) => (c.to_string(), (c % StimulusSpec::CODES).to_string()),
            None => ("-".into(), "-".into()),
        };
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{cycle}\t{code}",
            d.site.component,
            d.site.kind.label(),
            u8::from(o.detected)
        );
    }
    Ok(out)
}
