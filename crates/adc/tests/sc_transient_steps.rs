//! The SC array's step-map path keeps the transient-step accounting of the
//! generic solver: one 32-code run is one sampling cycle plus 32 conversion
//! cycles of 48 steps, on each of the two sides. This is the only test in
//! this binary: `symbist_solver_transient_steps_total` is process-global,
//! and a concurrently running test would add to it.

#![allow(clippy::unwrap_used)] // integration tests assert by panicking

use symbist_adc::sc_array::{ScArray, SideLevels};
use symbist_adc::AdcConfig;

#[test]
fn run_codes_counts_every_step_of_both_sides() {
    let steps = || {
        symbist_obs::registry()
            .counter(
                "symbist_solver_transient_steps_total",
                "Transient integration steps taken",
            )
            .get()
    };
    let sc = ScArray::new(&AdcConfig::default());
    let level = |i: u8| f64::from(i) / 32.0 * 1.2;
    let levels_p: Vec<SideLevels> = (0..32)
        .map(|i| SideLevels {
            m: level(i),
            l: level(i),
        })
        .collect();
    let levels_n: Vec<SideLevels> = (0..32)
        .map(|i| SideLevels {
            m: level(32 - i),
            l: level(32 - i),
        })
        .collect();

    let before = steps();
    let settled = sc.run_codes(0.75, 0.45, 0.6, &levels_p, &levels_n).unwrap();
    assert_eq!(settled.len(), 32);
    assert_eq!(steps() - before, 2 * 48 * 33);
}
