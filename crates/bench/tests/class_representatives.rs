//! Cross-validates the class-representative campaign against an
//! exhaustive campaign on a restricted slice of the Table-I universe:
//! extrapolating one simulated representative per (orbit × defect kind)
//! class must reproduce the exhaustive L-W coverage while simulating
//! measurably fewer defects.
//!
//! The first case restricts to the SC-array and Vcm-generator blocks and
//! runs the default 10% sibling audit. The full-universe cases audit
//! every multi-member class of all 3922 defects, so the partition is
//! checked on the whole universe rather than on a sample.

use std::collections::HashMap;

use symbist::experiments::ExperimentConfig;
use symbist::SymBist;
use symbist_adc::{BlockKind, SarAdc};
use symbist_defects::{
    run_campaign, run_class_campaign, CampaignOptions, ClassCampaignOptions, ClassCampaignResult,
    DefectUniverse, LikelihoodModel,
};
use symbist_lint::analyze_adc_with_universe;

/// The shared setup: an engine calibrated on `calibration_samples`
/// Monte-Carlo dies, the healthy ADC, its whole defect universe, and the
/// analyzer's class partition of it.
fn setup(
    calibration_samples: usize,
) -> (
    ExperimentConfig,
    SymBist,
    SarAdc,
    DefectUniverse,
    Vec<Vec<usize>>,
) {
    let xc = ExperimentConfig {
        calibration_samples,
        ..Default::default()
    };
    let engine = xc.build_engine();
    let adc = SarAdc::new(xc.adc.clone());
    let universe = DefectUniverse::enumerate(&adc, &LikelihoodModel::default());
    let analysis = analyze_adc_with_universe(&adc, &universe);
    assert!(
        !analysis.diagnostics.has_errors(),
        "{}",
        analysis.diagnostics.render_text()
    );
    let partition = analysis.partition();
    (xc, engine, adc, universe, partition)
}

#[test]
fn class_representatives_agree_with_exhaustive_campaign() {
    let (xc, engine, adc, universe, partition) = setup(8);

    // Restrict to two blocks: defect classes never straddle a block
    // boundary (an orbit lives on one component's devices), so slicing
    // the partition down to the kept indices is still an exact cover.
    let keep: Vec<usize> = (0..universe.len())
        .filter(|&i| {
            matches!(
                universe.defects()[i].block,
                BlockKind::ScArray | BlockKind::VcmGenerator
            )
        })
        .collect();
    let sub_index: HashMap<usize, usize> = keep.iter().enumerate().map(|(s, &f)| (f, s)).collect();
    let sub = DefectUniverse::from_defects(
        keep.iter()
            .map(|&f| universe.defects()[f].clone())
            .collect(),
    );
    let sub_partition: Vec<Vec<usize>> = partition
        .iter()
        .map(|class| {
            let kept: Vec<usize> = class
                .iter()
                .filter_map(|d| sub_index.get(d).copied())
                .collect();
            assert!(
                kept.is_empty() || kept.len() == class.len(),
                "class straddles the block restriction"
            );
            kept
        })
        .filter(|c| !c.is_empty())
        .collect();

    let exhaustive = run_campaign(
        &adc,
        &sub,
        &CampaignOptions {
            seed: xc.seed,
            threads: xc.threads,
            ..Default::default()
        },
        |dut| engine.campaign_test(dut),
    )
    .expect("exhaustive sub-campaign is well-formed");
    let class = run_class_campaign(
        &adc,
        &sub,
        &sub_partition,
        &ClassCampaignOptions {
            seed: xc.seed,
            threads: xc.threads,
            ..Default::default()
        },
        |dut| engine.campaign_test(dut),
    )
    .expect("analyzer partition restricts to an exact cover");

    // The representative campaign must be measurably cheaper...
    assert!(
        class.simulated < sub.len(),
        "simulated {} of {} — no savings",
        class.simulated,
        sub.len()
    );
    assert!(class.defects_saved() > 0);
    // ...the sibling audit must not refute any class...
    assert_eq!(
        class.violation_count(),
        0,
        "violations: {:?}",
        class.violations().collect::<Vec<_>>()
    );
    // ...and the extrapolated coverage must agree with the exhaustive
    // figure. Both campaigns completed (or not) the same defect families,
    // so compare lower bounds against lower bounds.
    let lo = class.coverage().value;
    let xlo = exhaustive.coverage().value;
    assert!(
        (lo - xlo).abs() < 0.05,
        "extrapolated {lo} vs exhaustive {xlo}"
    );
    let hi = class.coverage_upper().value;
    let xhi = exhaustive.coverage_upper().value;
    assert!(
        (hi - xhi).abs() < 0.05,
        "extrapolated upper {hi} vs exhaustive upper {xhi}"
    );
}

/// Runs the class campaign with every multi-member class audited, and the
/// exhaustive campaign, over the whole universe. Asserts what must hold at
/// every calibration: every defect is simulated once (the classes are mirror
/// pairs or singletons), and because both members of every pair are
/// simulated, the coverage bounds equal the exhaustive ones bit for bit.
fn full_audit(calibration_samples: usize) -> (DefectUniverse, ClassCampaignResult) {
    let (xc, engine, adc, universe, partition) = setup(calibration_samples);
    let class = run_class_campaign(
        &adc,
        &universe,
        &partition,
        &ClassCampaignOptions {
            seed: xc.seed,
            cross_check_fraction: 1.0,
            threads: xc.threads,
            ..Default::default()
        },
        |dut| engine.campaign_test(dut),
    )
    .expect("analyzer partition is an exact cover");
    assert_eq!(class.simulated, 3922);

    let exhaustive = run_campaign(
        &adc,
        &universe,
        &CampaignOptions {
            seed: xc.seed,
            threads: xc.threads,
            ..Default::default()
        },
        |dut| engine.campaign_test(dut),
    )
    .expect("exhaustive campaign is well-formed");
    let (lo, xlo) = (class.coverage().value, exhaustive.coverage().value);
    assert_eq!(
        lo.to_bits(),
        xlo.to_bits(),
        "extrapolated {lo} vs exhaustive {xlo}"
    );
    let (hi, xhi) = (
        class.coverage_upper().value,
        exhaustive.coverage_upper().value,
    );
    assert_eq!(
        hi.to_bits(),
        xhi.to_bits(),
        "extrapolated upper {hi} vs exhaustive upper {xhi}"
    );
    (universe, class)
}

/// At the default calibration (the one `table1` and the committed
/// exhaustive verdict file use), no mirror pair of the whole universe
/// disagrees on its detected flag.
#[test]
fn full_audit_at_the_default_calibration_finds_no_class_violation() {
    let (_, class) = full_audit(ExperimentConfig::default().calibration_samples);
    assert_eq!(
        class.violation_count(),
        0,
        "violations: {:?}",
        class.violations().collect::<Vec<_>>()
    );
}

/// The static model is the design at zero differential input, where the
/// P ↔ N swap is an automorphism. The BIST stimulus is not: it samples a
/// differential DC input (`din` = 0.2 V, P at `v_cm + din/2`, N at
/// `v_cm − din/2`). A stuck-off interpolation-cap sample switch leaves
/// its side's input unsampled, so its I3 error follows that side's input
/// level: ~13.7 mV on P, ~9.7 mV on N (equal at `din` = 0). Any window
/// between the two splits the pair. The 8-die calibration's (~12.1 mV)
/// does, and the full audit must catch it. This pins the known gap: a
/// change that makes the pair agree, or splits another one, must update
/// this test.
#[test]
fn full_audit_refutes_the_input_dependent_sc_array_pair_at_a_narrower_window() {
    let (universe, class) = full_audit(8);
    let refuted: Vec<(String, String)> = class
        .violations()
        .map(|c| {
            let name = |i: usize| {
                let d = &universe.defects()[i];
                format!("{} {}", d.component_name, d.site.kind)
            };
            let sibling = c.sibling.expect("a violation has an audited sibling");
            (name(c.representative), name(sibling))
        })
        .collect();
    assert_eq!(
        refuted,
        [(
            "scarray/p/sw_sample_interp open-gate".to_string(),
            "scarray/n/sw_sample_interp open-gate".to_string()
        )]
    );
}
