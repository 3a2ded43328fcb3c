//! Campaign-throughput benchmark for the SymBIST SAR ADC reproduction.
//!
//! The figure of merit is DUT simulations per host second on the paper's
//! stop-on-detection defect campaign (§V, Table I) and on the Monte-Carlo
//! yield experiment (§VI). Four workloads drive the library in-process;
//! see `baseline.json` beside this crate for their rationale, the
//! layer → metric → workload map and the recorded baseline.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exhaustive --seed 3565035552 --seconds 25 --trace 0
//! ```

#![warn(missing_docs)]

pub mod golden;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
