//! The `circuit.*` per-layer metrics are deltas of the program's solver
//! counters over a one-worker campaign. A later change may rest a count-based
//! claim on them only if they repeat exactly, which this test pins on a small
//! defect subset. It is the only test in this binary: the counters are
//! process-global, and a concurrently running test would add to them.

use symbist_defects::{run_campaign, CampaignOptions, DefectUniverse};
use symbist_perfbench::trace::SolverCounts;
use symbist_perfbench::workloads::{setup, Workload, DEFAULT_SEED};

#[test]
fn circuit_counts_repeat_exactly_on_a_defect_subset() {
    let (s, _) = setup(Workload::Exhaustive, DEFAULT_SEED).expect("set-up succeeds");
    let subset = DefectUniverse::from_defects(s.universe.iter().step_by(40).cloned().collect());
    let count = || {
        let before = SolverCounts::read();
        let res = run_campaign(
            &s.adc,
            &subset,
            &CampaignOptions {
                threads: 1,
                ..Default::default()
            },
            |dut| s.engine.campaign_test(dut),
        )
        .expect("subset campaign runs");
        assert_eq!(res.unresolved(), 0);
        // Read only after `run_campaign` has joined its worker.
        SolverCounts::read().since(&before)
    };
    let first = count();
    let second = count();
    assert!(
        first.dc_solves > 0 && first.transient_steps > 0,
        "{first:?}"
    );
    assert_eq!(first, second);
}
