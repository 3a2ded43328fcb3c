//! Differential tests: the sparse engine against the dense
//! partially-pivoted oracle.
//!
//! Every representative topology from the SymBIST reproduction — the
//! reference-ladder DC network, a bandgap-style nonlinear branch, a
//! switched-capacitor sampling step — plus randomly generated netlists must
//! agree between the two engines to ≤ 1e-9 on every unknown. Netlists with
//! a diode or MOSFET are solved dense whatever engine is asked for, so the
//! nonlinear cases check that routing; the linear ones, random ones
//! included, run the sparse path itself.
#![allow(clippy::unwrap_used)] // integration tests assert by panicking

use symbist_circuit::dc::{DcOptions, DcSolver, EngineChoice};
use symbist_circuit::netlist::{MosPolarity, Netlist, NodeId};
use symbist_circuit::rng::Rng;
use symbist_circuit::transient::{TransientOptions, TransientSim};

const TOL: f64 = 1e-9;

fn solver(engine: EngineChoice) -> DcSolver {
    DcSolver::with_options(DcOptions {
        engine,
        ..Default::default()
    })
}

/// Solves with both engines and asserts the full solution vectors agree.
fn assert_dc_agreement(nl: &Netlist, label: &str) {
    let sparse = solver(EngineChoice::Sparse).solve(nl).unwrap();
    let dense = solver(EngineChoice::Dense).solve(nl).unwrap();
    assert_eq!(sparse.raw().len(), dense.raw().len());
    for (i, (s, d)) in sparse.raw().iter().zip(dense.raw().iter()).enumerate() {
        assert!(
            (s - d).abs() <= TOL,
            "{label}: unknown {i} differs: sparse {s} vs dense {d}"
        );
    }
}

/// 32-segment resistor ladder with tap loads — the shape of the SAR ADC's
/// reference network (`refnet`), the hottest DC solve in the codebase.
#[test]
fn resistor_ladder_dc() {
    let mut nl = Netlist::new();
    let top = nl.node("top");
    nl.vsource(top, Netlist::GND, 1.2);
    let mut prev = top;
    let mut taps: Vec<NodeId> = Vec::new();
    for i in 0..32 {
        let n = nl.node(&format!("tap{i}"));
        nl.resistor(prev, n, 250.0);
        taps.push(n);
        prev = n;
    }
    nl.resistor(prev, Netlist::GND, 250.0);
    // Tap loads emulate the mux/buffer input impedance.
    for (i, tap) in taps.iter().enumerate() {
        if i % 4 == 0 {
            nl.resistor(*tap, Netlist::GND, 1e6);
        }
    }
    assert_dc_agreement(&nl, "resistor ladder");
}

/// Bandgap-style branch: diodes ratioed 1:8, resistors, a MOSFET current
/// leg — a nonlinear netlist, routed dense even when sparse is asked for.
#[test]
fn bandgap_branch_dc() {
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let a = nl.node("a");
    let b = nl.node("b");
    let fb = nl.node("fb");
    nl.vsource(vdd, Netlist::GND, 3.0);
    nl.resistor(vdd, a, 20e3);
    nl.resistor(vdd, b, 20e3);
    nl.diode(a, Netlist::GND, 1e-15, 1.0);
    // The 8x diode: eight times the saturation current.
    nl.resistor(b, fb, 5e3);
    nl.diode(fb, Netlist::GND, 8e-15, 1.0);
    // A MOSFET leg loading the midpoint.
    nl.mosfet(a, b, Netlist::GND, MosPolarity::Nmos, 0.5, 1e-4, 0.02);
    assert_dc_agreement(&nl, "bandgap branch");
}

/// Controlled sources (the comparator/buffer models): VCVS + VCCS mixed
/// with the resistive network — covers the structurally unsymmetric stamps.
#[test]
fn controlled_sources_dc() {
    let mut nl = Netlist::new();
    let inp = nl.node("inp");
    let mid = nl.node("mid");
    let out = nl.node("out");
    nl.vsource(inp, Netlist::GND, 0.35);
    nl.resistor(inp, mid, 10e3);
    nl.vcvs(out, Netlist::GND, mid, Netlist::GND, 20.0);
    nl.resistor(out, mid, 100e3); // feedback
    nl.vccs(mid, Netlist::GND, out, Netlist::GND, 1e-5);
    nl.resistor(out, Netlist::GND, 5e3);
    assert_dc_agreement(&nl, "controlled sources");
}

/// A switched-capacitor sampling step: caps with initial conditions, series
/// switches toggled mid-run. Both engines must track the whole trajectory,
/// including the switch-state change that invalidates the cached base.
#[test]
fn sc_array_step_transient() {
    let build = || {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let tops: Vec<NodeId> = (0..4).map(|i| nl.node(&format!("top{i}"))).collect();
        nl.vsource(vin, Netlist::GND, 0.8);
        let mut switches = Vec::new();
        for (i, top) in tops.iter().enumerate() {
            // Binary-weighted caps, as in the SAR DAC array.
            let c = 1e-12 * f64::from(1 << i);
            nl.capacitor_with_ic(*top, Netlist::GND, c, 0.0);
            switches.push(nl.switch(vin, *top, 100.0, 1e12));
        }
        (nl, switches, tops)
    };

    let run = |engine: EngineChoice| {
        let (mut nl, switches, tops) = build();
        for sw in &switches {
            nl.set_switch(*sw, true);
        }
        let mut sim = TransientSim::new(
            &nl,
            TransientOptions {
                dt: 1e-10,
                use_ic: true,
                dc: DcOptions {
                    engine,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        // Track phase: all switches closed.
        while sim.time() < 5e-9 {
            sim.step(&nl).unwrap();
        }
        // Hold phase: open every other switch mid-run.
        for sw in switches.iter().step_by(2) {
            nl.set_switch(*sw, false);
        }
        while sim.time() < 1e-8 {
            sim.step(&nl).unwrap();
        }
        tops.iter().map(|t| sim.voltage(*t)).collect::<Vec<f64>>()
    };

    let sparse = run(EngineChoice::Sparse);
    let dense = run(EngineChoice::Dense);
    for (i, (s, d)) in sparse.iter().zip(&dense).enumerate() {
        assert!(
            (s - d).abs() <= TOL,
            "sc step: cap {i} differs: sparse {s} vs dense {d}"
        );
        // Tracked caps should have charged towards the input.
        assert!(*s > 0.7, "cap {i} did not track: {s}");
    }
}

/// A random resistive ladder/mesh: a spanning chain keeps every node
/// connected, plus random extra edges. Node 0 is driven by a voltage
/// source, or with `norton` by its Norton equivalent through 1 kΩ.
fn random_mesh(rng: &mut Rng, norton: bool) -> (Netlist, Vec<NodeId>) {
    let n_nodes = 4 + rng.below(20) as usize;
    let mut nl = Netlist::new();
    let nodes: Vec<NodeId> = (0..n_nodes).map(|i| nl.node(&format!("n{i}"))).collect();
    let level = rng.uniform(0.5, 3.0);
    if norton {
        nl.isource(Netlist::GND, nodes[0], level / 1e3);
        nl.resistor(nodes[0], Netlist::GND, 1e3);
    } else {
        nl.vsource(nodes[0], Netlist::GND, level);
    }
    for w in nodes.windows(2) {
        nl.resistor(w[0], w[1], rng.uniform(100.0, 10e3));
    }
    nl.resistor(nodes[n_nodes - 1], Netlist::GND, rng.uniform(100.0, 10e3));
    for _ in 0..n_nodes {
        let a = nodes[rng.below(n_nodes as u64) as usize];
        let b = nodes[rng.below(n_nodes as u64) as usize];
        if a != b {
            nl.resistor(a, b, rng.uniform(100.0, 100e3));
        }
    }
    (nl, nodes)
}

/// Random meshes with controlled sources in place of the nonlinear
/// elements: linear, so both engines really run and must agree. The mesh
/// is current-driven because a voltage source on a mesh node puts its
/// zero-diagonal branch row first in the minimum-degree order, where the
/// static pivot fails and the solve reruns dense; the VCVS drives a node
/// of its own, which the ordering eliminates before the branch row.
#[test]
fn random_linear_netlists_dc() {
    for seed in 0u64..40 {
        let mut rng = Rng::seed_from_u64(seed);
        let (mut nl, nodes) = random_mesh(&mut rng, true);
        let mut pick = || nodes[rng.below(nodes.len() as u64) as usize];
        let (c, load, sense, g_out, g_in) = (pick(), pick(), pick(), pick(), pick());
        // A VCVS buffer driving its own output node through a load.
        let out = nl.node("out");
        nl.vcvs(out, Netlist::GND, c, Netlist::GND, rng.uniform(0.1, 2.0));
        nl.resistor(out, load, rng.uniform(1e3, 100e3));
        // A weak VCCS: current into the mesh set by a mesh voltage.
        nl.vccs(g_out, Netlist::GND, sense, g_in, rng.uniform(1e-6, 1e-4));
        assert_dc_agreement(&nl, &format!("random linear netlist seed {seed}"));
    }
}

/// Randomly generated ladder/mesh netlists with diodes and MOSFETs
/// sprinkled in: the generator-driven analogue of the fixed cases.
#[test]
fn random_netlists_dc() {
    for seed in 0u64..40 {
        let mut rng = Rng::seed_from_u64(seed);
        let (mut nl, nodes) = random_mesh(&mut rng, false);
        let n_nodes = nodes.len();
        // A couple of nonlinear elements.
        let d = nodes[rng.below(n_nodes as u64) as usize];
        nl.diode(d, Netlist::GND, 1e-14, 1.0);
        let m_d = nodes[rng.below(n_nodes as u64) as usize];
        let m_g = nodes[rng.below(n_nodes as u64) as usize];
        nl.mosfet(m_d, m_g, Netlist::GND, MosPolarity::Nmos, 0.4, 1e-4, 0.01);
        assert_dc_agreement(&nl, &format!("random netlist seed {seed}"));
    }
}

/// The `Auto` default must match the dense oracle on a mixed netlist.
#[test]
fn auto_engine_matches_dense() {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    nl.vsource(a, Netlist::GND, 2.0);
    nl.resistor(a, b, 1e3);
    nl.diode(b, Netlist::GND, 1e-14, 1.0);
    let auto = DcSolver::new().solve(&nl).unwrap();
    let dense = solver(EngineChoice::Dense).solve(&nl).unwrap();
    for (s, d) in auto.raw().iter().zip(dense.raw()) {
        assert!((s - d).abs() <= TOL);
    }
}
