//! The `table1` workload re-runs Table I with LWRS seeds taken from the
//! workload seed. At the default seed it must simulate exactly the defects
//! `symbist::experiments::table1` simulates, with the same verdicts.

use symbist::experiments::{table1, ExperimentConfig, Table1Options};
use symbist_perfbench::workloads::{setup, table1_campaigns, Plain, Workload, DEFAULT_SEED};

#[test]
fn default_seed_reproduces_experiments_table1() {
    let xc = ExperimentConfig::default();
    assert_eq!(xc.seed, DEFAULT_SEED);
    let (_, expected) = table1(&xc, &Table1Options::default());
    let (s, _) = setup(Workload::Table1, DEFAULT_SEED).expect("set-up succeeds");
    let (_, got) = table1_campaigns(&s, DEFAULT_SEED, xc.threads, &Plain).expect("campaigns run");
    let view = |results: &[symbist_defects::CampaignResult]| -> Vec<Vec<_>> {
        results
            .iter()
            .map(|r| {
                r.records
                    .iter()
                    .map(|rec| (rec.site, rec.outcome))
                    .collect()
            })
            .collect()
    };
    assert_eq!(view(&got), view(&expected));
    let simulated: usize = got.iter().map(|r| r.simulated()).sum();
    assert_eq!(simulated, Workload::Table1.nominal_duts());
}
