//! JSONL checkpoint serialization for campaign records.
//!
//! One [`DefectRecord`] per line, as a flat JSON object. The writer lays
//! the line out by hand with a fixed key order, so checkpoints and the
//! coordinator's merged artifact stay byte-stable (the shared [`Json`]
//! codec sorts object keys, which would reorder them). The format must
//! round-trip *bit-identically*: a resumed campaign replays loaded
//! records into the final result, and the acceptance test for resume
//! compares records with `==` on `f64` fields. `f64` values are written
//! with Rust's shortest-roundtrip `Display`, which guarantees the parser
//! recovers the exact bits for every finite value; wall time is written
//! as integer nanoseconds.
//!
//! The parser is the shared [`Json`] codec and deliberately tolerant: any
//! line that does not parse — including a torn final line left by a
//! killed process — is skipped by the loader, and unknown keys are
//! ignored, so the format can grow fields without invalidating old
//! checkpoints. A `wall_ns` of 2^53 or more (about 104 days) cannot be
//! read back exactly, so such a line is skipped too and its defect is
//! simulated again rather than misread.
//!
//! ## Line format
//!
//! ```json
//! {"defect_index":12,"component":3,"kind":"short","likelihood":1.5,
//!  "outcome":"completed","detected":true,"detection_cycle":3,
//!  "cycles_run":3,"wall_ns":51234}
//! {"defect_index":13,"component":3,"kind":"open","likelihood":0.5,
//!  "outcome":"unresolved","reason":"timeout","wall_ns":2000051234}
//! ```
//! (shown wrapped; real lines are single-line)

use std::fmt::Write as _;
use std::time::Duration;

use symbist_adc::fault::{DefectKind, DefectSite};
use symbist_obs::json::Json;

use crate::campaign::{DefectRecord, SimOutcome, TestOutcome, UnresolvedReason};

/// Serializes one record as a single JSON line (no trailing newline).
pub fn checkpoint_line(record: &DefectRecord) -> String {
    line_with(record, true)
}

/// The deterministic projection of a record: the checkpoint line minus
/// `wall_ns`, the only field that differs between two runs of the same
/// defect. This is what the coordinator writes to its merged artifact and
/// what the chaos gate compares byte-for-byte against the 1-process
/// oracle — every remaining field (`defect_index`, site, bit-exact
/// likelihood, outcome) is a pure function of the universe and the seed.
pub fn merged_line(record: &DefectRecord) -> String {
    line_with(record, false)
}

fn line_with(record: &DefectRecord, include_wall: bool) -> String {
    let mut s = String::with_capacity(160);
    let _ = write!(
        s,
        "{{\"defect_index\":{},\"component\":{},\"kind\":\"{}\",\"likelihood\":{}",
        record.defect_index,
        record.site.component,
        record.site.kind.label(),
        record.likelihood,
    );
    match record.outcome {
        SimOutcome::Completed(o) => {
            let _ = write!(s, ",\"outcome\":\"completed\",\"detected\":{}", o.detected);
            match o.detection_cycle {
                Some(c) => {
                    let _ = write!(s, ",\"detection_cycle\":{c}");
                }
                None => s.push_str(",\"detection_cycle\":null"),
            }
            let _ = write!(s, ",\"cycles_run\":{}", o.cycles_run);
        }
        SimOutcome::Unresolved(reason) => {
            let _ = write!(
                s,
                ",\"outcome\":\"unresolved\",\"reason\":\"{}\"",
                reason.label()
            );
        }
    }
    if include_wall {
        let _ = write!(s, ",\"wall_ns\":{}", record.wall.as_nanos());
    }
    s.push('}');
    s
}

/// Parses one checkpoint line. Returns `None` on any malformed input
/// (tolerant-parser contract: the loader skips such lines).
pub fn parse_checkpoint_line(line: &str) -> Option<DefectRecord> {
    let doc = Json::parse(line).ok()?;
    let uint = |key: &str| doc.get(key)?.as_u64();
    let cycle = |key: &str| u32::try_from(uint(key)?).ok();
    let outcome = match doc.get("outcome")?.as_str()? {
        "completed" => SimOutcome::Completed(TestOutcome {
            detected: doc.get("detected")?.as_bool()?,
            detection_cycle: match doc.get("detection_cycle")? {
                Json::Null => None,
                _ => Some(cycle("detection_cycle")?),
            },
            cycles_run: cycle("cycles_run")?,
        }),
        "unresolved" => {
            SimOutcome::Unresolved(UnresolvedReason::from_label(doc.get("reason")?.as_str()?)?)
        }
        _ => return None,
    };
    Some(DefectRecord {
        defect_index: usize::try_from(uint("defect_index")?).ok()?,
        site: DefectSite {
            component: usize::try_from(uint("component")?).ok()?,
            kind: DefectKind::from_label(doc.get("kind")?.as_str()?)?,
        },
        likelihood: doc.get("likelihood")?.as_f64()?,
        outcome,
        wall: Duration::from_nanos(uint("wall_ns")?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(detected: bool) -> SimOutcome {
        SimOutcome::Completed(TestOutcome {
            detected,
            detection_cycle: detected.then_some(7),
            cycles_run: if detected { 7 } else { 192 },
        })
    }

    fn record(outcome: SimOutcome) -> DefectRecord {
        DefectRecord {
            defect_index: 42,
            site: DefectSite {
                component: 9,
                kind: DefectKind::ShortGd,
            },
            // Deliberately not exactly representable in short decimal form.
            likelihood: 0.1 + 0.2,
            outcome,
            wall: Duration::new(3, 141_592_653),
        }
    }

    #[test]
    fn roundtrip_completed() {
        for detected in [true, false] {
            let r = record(completed(detected));
            let line = checkpoint_line(&r);
            let back = parse_checkpoint_line(&line).expect("parses");
            assert_eq!(back, r);
        }
    }

    #[test]
    fn roundtrip_unresolved_reasons() {
        for reason in [
            UnresolvedReason::NoConvergence,
            UnresolvedReason::Timeout,
            UnresolvedReason::Panic,
        ] {
            let r = record(SimOutcome::Unresolved(reason));
            let back = parse_checkpoint_line(&checkpoint_line(&r)).expect("parses");
            assert_eq!(back, r);
        }
    }

    #[test]
    fn f64_roundtrip_is_bit_identical() {
        // Shortest-roundtrip Display must recover the exact bits, even for
        // likelihoods whose decimal expansion is ugly.
        for bits_seed in [0.1 + 0.2, 1.0 / 3.0, 2.5e-17, 123456.789_012_345_6] {
            let mut r = record(completed(true));
            r.likelihood = bits_seed;
            let back = parse_checkpoint_line(&checkpoint_line(&r)).unwrap();
            assert_eq!(back.likelihood.to_bits(), r.likelihood.to_bits());
        }
    }

    #[test]
    fn wall_roundtrips_to_the_nanosecond() {
        let mut r = record(completed(false));
        r.wall = Duration::new(86_400, 999_999_999);
        let back = parse_checkpoint_line(&checkpoint_line(&r)).unwrap();
        assert_eq!(back.wall, r.wall);
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        let good = checkpoint_line(&record(completed(true)));
        for bad in [
            "",
            "not json",
            "{\"defect_index\":1}",
            "{\"defect_index\":\"x\",\"component\":0}",
            &good[..good.len() / 2], // torn line from a killed process
            "{\"defect_index\":1,\"component\":0,\"kind\":\"bogus\",\"likelihood\":1,\"outcome\":\"completed\",\"detected\":true,\"detection_cycle\":null,\"cycles_run\":1,\"wall_ns\":0}",
            "{\"defect_index\":1,\"component\":0,\"kind\":\"short\",\"likelihood\":1,\"outcome\":\"weird\",\"wall_ns\":0}",
        ] {
            assert!(parse_checkpoint_line(bad).is_none(), "accepted: {bad}");
        }
        // The reference line itself still parses.
        assert!(parse_checkpoint_line(&good).is_some());
    }

    #[test]
    fn merged_line_is_checkpoint_line_minus_wall() {
        for outcome in [
            completed(true),
            SimOutcome::Unresolved(UnresolvedReason::Timeout),
        ] {
            let mut a = record(outcome);
            let mut b = a;
            a.wall = Duration::from_nanos(1);
            b.wall = Duration::from_secs(99);
            // Wall differences vanish under the projection...
            assert_eq!(merged_line(&a), merged_line(&b));
            assert!(!merged_line(&a).contains("wall_ns"));
            // ...and the projection is a strict prefix of the full line.
            let full = checkpoint_line(&a);
            let merged = merged_line(&a);
            assert!(full.starts_with(&merged[..merged.len() - 1]));
        }
    }

    #[test]
    fn wall_roundtrips_exactly_below_2_pow_53_ns() {
        let mut r = record(completed(true));
        r.wall = Duration::from_nanos((1 << 53) - 1);
        let back = parse_checkpoint_line(&checkpoint_line(&r)).unwrap();
        assert_eq!(back.wall, r.wall);
        // From 2^53 ns (~104 days) on, f64 cannot tell neighbouring
        // integers apart: the line is refused (and the defect simulated
        // again) rather than read back with a rounded wall time.
        for nanos in [1 << 53, (1 << 53) + 1, u64::MAX] {
            r.wall = Duration::from_nanos(nanos);
            assert!(parse_checkpoint_line(&checkpoint_line(&r)).is_none());
        }
    }

    #[test]
    fn nested_kind_key_does_not_shadow_the_record_kind() {
        let line = r#"{"x":{"kind":"open"},"defect_index":1,"component":0,"kind":"short","likelihood":1,"outcome":"completed","detected":true,"detection_cycle":3,"cycles_run":3,"wall_ns":0}"#;
        let rec = parse_checkpoint_line(line).expect("parses");
        assert_eq!(rec.site.kind, DefectKind::Short);
    }

    #[test]
    fn whitespace_around_colons_is_valid_json() {
        let line = r#"{"defect_index" : 1, "component" : 0, "kind" : "short", "likelihood" : 1, "outcome" : "completed", "detected" : true, "detection_cycle" : null, "cycles_run" : 3, "wall_ns" : 0}"#;
        let rec = parse_checkpoint_line(line).expect("parses");
        assert_eq!(rec.site.kind, DefectKind::Short);
        assert_eq!(rec.defect_index, 1);
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let r = record(completed(true));
        let line = checkpoint_line(&r);
        let extended = format!("{},\"future_field\":\"abc\"}}", &line[..line.len() - 1]);
        assert_eq!(parse_checkpoint_line(&extended), Some(r));
    }
}
