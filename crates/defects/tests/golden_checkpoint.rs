//! Byte-stability gate for the checkpoint and merged-artifact formats.
//!
//! `data/golden.ckpt.jsonl` and `data/golden.merged.jsonl` were written by
//! `checkpoint_line` / `merged_line` before the checkpoint parser moved onto
//! the shared JSON codec, and are never regenerated. Line `i` of both files
//! is the same record: detected and undetected (`null` cycle) verdicts,
//! every `UnresolvedReason`, every defect kind, and likelihoods whose
//! shortest decimal form is awkward (`0.1 + 0.2`, `1/3`, `2.5e-17`). Each
//! checkpoint line must parse, and re-serialize byte-identically through
//! both writers — so neither the parser nor the writers can drift without
//! this test noticing.

use symbist_defects::checkpoint::{checkpoint_line, merged_line, parse_checkpoint_line};

const CKPT: &str = include_str!("data/golden.ckpt.jsonl");
const MERGED: &str = include_str!("data/golden.merged.jsonl");

#[test]
fn golden_lines_round_trip_byte_identically_through_both_writers() {
    let ckpt: Vec<&str> = CKPT.lines().collect();
    let merged: Vec<&str> = MERGED.lines().collect();
    assert_eq!(ckpt.len(), merged.len());
    assert!(!ckpt.is_empty());
    for (line, merged) in ckpt.iter().zip(&merged) {
        let record = parse_checkpoint_line(line).unwrap_or_else(|| panic!("unparsed: {line}"));
        assert_eq!(checkpoint_line(&record), *line);
        assert_eq!(merged_line(&record), *merged);
    }
}
