//! Property-based tests of the core model invariants.
//!
//! These complement the example-based tests with randomly drawn operating
//! points: physical sanity (positivity, finiteness), the bracketing of the
//! closed-form delay by its two limiting cases, monotonicity in each
//! impedance, and the consistency of the repeater closed forms with their RC
//! limits. The solver and JSON codec properties follow further down.

use proptest::prelude::*;

use rlckit::model::model::{propagation_delay, rc_limit_delay, scaled_delay};
use rlckit::prelude::*;
use rlckit::repeater::rlc::{sections_error_factor, size_error_factor, t_l_over_r};
use rlckit::telemetry::json;

/// Strategy for a physically plausible gate-driven RLC load:
/// Rt ∈ [1 Ω, 10 kΩ], Lt ∈ [10 pH, 10 µH], Ct ∈ [10 fF, 10 pF],
/// Rtr ∈ [0, 5 kΩ], CL ∈ [0, 5 pF].
fn arb_load() -> impl Strategy<Value = GateRlcLoad> {
    (1.0f64..1e4, 1e-11f64..1e-5, 1e-14f64..1e-11, 0.0f64..5e3, 0.0f64..5e-12).prop_map(
        |(rt, lt, ct, rtr, cl)| {
            GateRlcLoad::new(
                Resistance::from_ohms(rt),
                Inductance::from_henries(lt),
                Capacitance::from_farads(ct),
                Resistance::from_ohms(rtr),
                Capacitance::from_farads(cl),
            )
            .expect("strategy only produces valid impedances")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delay_is_positive_and_finite(load in arb_load()) {
        let tpd = propagation_delay(&load);
        prop_assert!(tpd.seconds() > 0.0);
        prop_assert!(tpd.seconds().is_finite());
        prop_assert!(load.zeta() > 0.0 && load.zeta().is_finite());
    }

    #[test]
    fn delay_is_bracketed_by_its_limiting_cases(load in arb_load()) {
        // The true delay is never faster than ~the time of flight and never
        // slower than ~the RC limit plus the time of flight (loose physical
        // bracketing of Eq. 9; the 0.9/1.1 factors absorb the fit wiggle).
        let tpd = propagation_delay(&load).seconds();
        let lc = 1.0 / load.omega_n();
        let rc = rc_limit_delay(&load).seconds();
        prop_assert!(tpd >= 0.85 * lc, "tpd {tpd} vs LC limit {lc}");
        prop_assert!(tpd <= 1.1 * (rc + lc), "tpd {tpd} vs RC+LC {}", rc + lc);
    }

    #[test]
    fn delay_is_monotone_in_every_impedance(load in arb_load(), factor in 1.05f64..3.0) {
        let base = propagation_delay(&load).seconds();
        let grow = |rt: f64, lt: f64, ct: f64, rtr: f64, cl: f64| {
            GateRlcLoad::new(
                Resistance::from_ohms(rt),
                Inductance::from_henries(lt),
                Capacitance::from_farads(ct),
                Resistance::from_ohms(rtr),
                Capacitance::from_farads(cl),
            )
            .expect("valid")
        };
        let rt = load.total_resistance().ohms();
        let lt = load.total_inductance().henries();
        let ct = load.total_capacitance().farads();
        let rtr = load.driver_resistance().ohms();
        let cl = load.load_capacitance().farads();
        // Growing any single impedance cannot make the line faster
        // (tolerance covers the small non-monotone dip of Eq. 9 near ζ ≈ 0.3).
        for bigger in [
            grow(rt * factor, lt, ct, rtr, cl),
            grow(rt, lt * factor, ct, rtr, cl),
            grow(rt, lt, ct * factor, rtr, cl),
            grow(rt, lt, ct, rtr * factor + 1.0, cl),
            grow(rt, lt, ct, rtr, cl * factor + 1e-15),
        ] {
            let slower = propagation_delay(&bigger).seconds();
            prop_assert!(slower >= 0.93 * base, "delay dropped from {base} to {slower}");
        }
    }

    #[test]
    fn scaled_and_physical_delay_are_consistent(load in arb_load(), impedance_scale in 0.1f64..10.0) {
        // Exact identity: the physical delay is the scaled delay divided by ωn.
        let direct = scaled_delay(load.zeta());
        let via_time = propagation_delay(&load).seconds() * load.omega_n();
        prop_assert!((direct - via_time).abs() < 1e-9 * direct.max(1.0));
        // Impedance-level scaling: dividing every resistance and inductance by s
        // while multiplying every capacitance by s preserves all time constants
        // (R·C, L/R, L·C), so RT, CT, ζ and ωn — and therefore the delay — must
        // all be exactly unchanged.
        let scaled_load = GateRlcLoad::new(
            load.total_resistance() / impedance_scale,
            load.total_inductance() / impedance_scale,
            load.total_capacitance() * impedance_scale,
            load.driver_resistance() / impedance_scale,
            load.load_capacitance() * impedance_scale,
        ).expect("valid");
        prop_assert!((scaled_load.zeta() - load.zeta()).abs() < 1e-9 * load.zeta());
        let d0 = propagation_delay(&load).seconds();
        let d1 = propagation_delay(&scaled_load).seconds();
        prop_assert!((d0 - d1).abs() < 1e-9 * d0);
    }

    #[test]
    fn repeater_error_factors_stay_in_unit_interval(t in 0.0f64..20.0) {
        let h = size_error_factor(t);
        let k = sections_error_factor(t);
        prop_assert!(h > 0.0 && h <= 1.0);
        prop_assert!(k > 0.0 && k <= 1.0);
    }

    #[test]
    fn t_l_over_r_scales_as_square_root_of_inductance(
        rt in 1.0f64..1e3,
        lt in 1e-10f64..1e-6,
        tau_ps in 1.0f64..100.0,
    ) {
        let tau = Time::from_picoseconds(tau_ps);
        let t1 = t_l_over_r(Resistance::from_ohms(rt), Inductance::from_henries(lt), tau);
        let t4 = t_l_over_r(Resistance::from_ohms(rt), Inductance::from_henries(4.0 * lt), tau);
        prop_assert!((t4 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn repeater_designs_are_physical(
        rt in 10.0f64..2e3,
        lt in 1e-9f64..1e-6,
        ct in 1e-12f64..3e-11,
    ) {
        let tech = Technology::quarter_micron();
        let problem = RepeaterProblem::new(
            Resistance::from_ohms(rt),
            Inductance::from_henries(lt),
            Capacitance::from_farads(ct),
            tech.min_buffer_resistance,
            tech.min_buffer_capacitance,
            tech.min_buffer_area,
            tech.supply,
        ).expect("valid problem");
        let rc = problem.bakoglu_optimum();
        let rlc = problem.rlc_optimum();
        prop_assert!(rc.size > 0.0 && rlc.size > 0.0);
        prop_assert!(rc.sections >= 1.0 && rlc.sections >= 1.0);
        prop_assert!(rlc.sections <= rc.sections + 1e-9);
        prop_assert!(rlc.size <= rc.size + 1e-9);
        prop_assert!(rlc.total_delay.seconds() <= rc.total_delay.seconds() * 1.005);
    }

    #[test]
    fn unit_round_trips(ohms in 0.0f64..1e9, farads in 0.0f64..1.0, meters in 0.0f64..1.0) {
        prop_assert_eq!(Resistance::from_ohms(ohms).ohms(), ohms);
        prop_assert_eq!(Capacitance::from_farads(farads).farads(), farads);
        prop_assert_eq!(Length::from_meters(meters).meters(), meters);
        let t = Resistance::from_ohms(ohms) * Capacitance::from_farads(farads);
        prop_assert!((t.seconds() - ohms * farads).abs() <= 1e-12 * (ohms * farads).abs());
    }

    #[test]
    fn exact_step_response_is_finite(load in arb_load(), decades in -3.0f64..1.5) {
        // Underdamped lines included: cosh θ and sinh θ overflow on the
        // Talbot contour, so only the scaled H(s) keeps every sample finite.
        let line = DistributedLine::from_totals(
            load.total_resistance(),
            load.total_inductance(),
            load.total_capacitance(),
            Length::from_millimeters(1.0),
        )
        .unwrap();
        let driven =
            DrivenLine::new(line, load.driver_resistance(), load.load_capacitance()).unwrap();
        let scale = (load.total_resistance() + load.driver_resistance()).ohms()
            * (load.total_capacitance() + load.load_capacitance()).farads()
            + (load.total_inductance().henries() * load.total_capacitance().farads()).sqrt();
        let t = scale * 10f64.powf(decades);
        let v = driven.step_response(Time::from_seconds(t));
        prop_assert!(v.is_finite(), "step response {v} at t = {t:e} s");
    }
}

// ---------------------------------------------------------------------------
// Three-way solver-backend equivalence: every `SolverBackend` (the dense
// oracle, the sparse kernel and the default `Auto`) on ladders, coupled
// buses, meshes and random trees, plus singular-rejection parity. Each case
// assembles one MNA system, factorises it under every backend and compares
// the solutions of the same right-hand side to 1e-9.
// ---------------------------------------------------------------------------

use rlckit::circuit::dc::operating_point_of;
use rlckit::circuit::ladder::LadderSpec;
use rlckit::circuit::mesh::MeshSpec;
use rlckit::circuit::mna::MnaSystem;
use rlckit::circuit::solve::factor_real;
use rlckit::circuit::tree::{TreeBranch, TreeSpec};
use rlckit::circuit::{CircuitError, SolverBackend};
use rlckit::coupling::netlist::build_bus_circuit;
use rlckit::coupling::scenario::SwitchingPattern;
use rlckit::units::{
    CapacitancePerLength, InductancePerLength, ResistancePerLength, Time, Voltage,
};

const BACKENDS: [SolverBackend; 2] = [SolverBackend::Dense, SolverBackend::Sparse];

/// DC-solves one assembled system under every backend and asserts the states
/// agree with the dense oracle's to 1e-9.
fn assert_backends_agree(mna: &MnaSystem, context: &str) {
    let t = Time::from_picoseconds(3.0);
    let reference = operating_point_of(mna, t, SolverBackend::Dense).expect("dense DC solves");
    for backend in [SolverBackend::Sparse, SolverBackend::Auto] {
        let other = operating_point_of(mna, t, backend).expect("backend DC solves");
        for (i, (d, o)) in reference.state().iter().zip(other.state().iter()).enumerate() {
            assert!(
                (d - o).abs() < 1e-9,
                "{context}: dense vs {backend:?} differ at unknown {i}: {d} vs {o}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn three_backends_agree_on_ladders(
        rt in 10.0f64..2e3,
        lt in 1e-9f64..5e-8,
        ct in 2e-13f64..3e-12,
        segments_f in 10.0f64..40.0,
    ) {
        let segments = segments_f as usize;
        let spec = LadderSpec::new(
            Resistance::from_ohms(rt),
            Inductance::from_henries(lt),
            Capacitance::from_farads(ct),
            Resistance::from_ohms(100.0),
            Capacitance::from_femtofarads(30.0),
        );
        let spec = LadderSpec { segments, ..spec };
        let line = spec.build().expect("ladder builds");
        let mna = MnaSystem::build(&line.circuit).expect("ladder assembles");
        assert_backends_agree(&mna, "ladder");
    }

    #[test]
    fn three_backends_agree_on_coupled_buses(
        lines_f in 2.0f64..5.0,
        sections_f in 4.0f64..12.0,
        coupling in 0.05f64..0.4,
    ) {
        let lines = lines_f as usize;
        let sections = sections_f as usize;
        let spec = rlckit::coupling::bus::UniformBusSpec {
            lines,
            resistance: ResistancePerLength::from_ohms_per_millimeter(50.0),
            self_inductance: InductancePerLength::from_nanohenries_per_millimeter(1.0),
            ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
            coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.08),
            inductive_coupling: (1..lines).map(|d| coupling * 0.43f64.powi(d as i32 - 1)).collect(),
            length: Length::from_millimeters(2.0),
        };
        let bus = spec.build().expect("bus builds");
        let drive = rlckit::coupling::netlist::BusDrive::new(
            Resistance::from_ohms(120.0),
            Capacitance::from_femtofarads(20.0),
            Voltage::from_volts(1.0),
        )
        .with_sections(sections);
        let pattern = SwitchingPattern::odd_mode(lines / 2, lines).expect("odd mode");
        let circuit = build_bus_circuit(&bus, &pattern, &drive).expect("bus netlist builds");
        let mna = MnaSystem::build(&circuit.circuit).expect("bus assembles");
        assert_backends_agree(&mna, "coupled bus");
    }

    #[test]
    fn three_backends_agree_on_random_trees(
        shape in proptest::collection::vec(0.0f64..1.0, 11),
        scale in 0.5f64..2.0,
    ) {
        // Branch i attaches to a pseudo-random earlier branch: `shape` drives
        // the topology, so the cases cover chains, stars and everything
        // between.
        let mut spec = TreeSpec::new(Resistance::from_ohms(150.0));
        for (i, &u) in shape.iter().enumerate() {
            let parent = if i == 0 { None } else { Some((u * i as f64) as usize % i) };
            spec.branches.push(TreeBranch {
                parent,
                total_resistance: Resistance::from_ohms(100.0 * scale),
                total_inductance: Inductance::from_nanohenries(2.0 * scale),
                total_capacitance: Capacitance::from_picofarads(0.2 * scale),
                segments: 4,
                sink_capacitance: Capacitance::from_femtofarads(10.0),
            });
        }
        let net = spec.build().expect("tree builds");
        let mna = MnaSystem::build(&net.circuit).expect("tree assembles");
        assert_backends_agree(&mna, "random tree");
    }

    #[test]
    fn three_backends_agree_on_meshes(
        rows_f in 2.0f64..7.0,
        cols_f in 2.0f64..7.0,
        r_seg in 1.0f64..50.0,
        c_node_ff in 5.0f64..100.0,
    ) {
        let spec = MeshSpec { rows: rows_f as usize, cols: cols_f as usize, segment_resistance: Resistance::from_ohms(r_seg), segment_inductance: Inductance::ZERO, node_capacitance: Capacitance::from_femtofarads(c_node_ff), driver_resistance: Resistance::from_ohms(75.0), load_capacitance: Capacitance::ZERO, supply: Voltage::from_volts(1.0) };
        let net = spec.build().expect("mesh builds");
        let mna = MnaSystem::build(&net.circuit).expect("mesh assembles");
        assert_backends_agree(&mna, "mesh");
    }

    #[test]
    fn singular_rejection_parity_across_backends(segments_f in 2.0f64..12.0) {
        let segments = segments_f as usize;
        // 0·G + 0·C is exactly singular; every backend must report it as a
        // SingularSystem with the caller's stage string, not panic or return
        // garbage.
        let spec = LadderSpec::new(
            Resistance::from_ohms(100.0),
            Inductance::from_nanohenries(5.0),
            Capacitance::from_picofarads(1.0),
            Resistance::from_ohms(50.0),
            Capacitance::from_femtofarads(10.0),
        );
        let spec = LadderSpec { segments, ..spec };
        let line = spec.build().expect("ladder builds");
        let mna = MnaSystem::build(&line.circuit).expect("assembles");
        for backend in BACKENDS {
            let result = factor_real(&mna, 0.0, 0.0, backend, "parity test");
            prop_assert!(
                matches!(result, Err(CircuitError::SingularSystem { stage: "parity test" })),
                "{backend:?} must reject the zero matrix"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Sparse-kernel scaling invariants: the value-only refactorisation must be
// numerically indistinguishable from a fresh pivoting factorisation across
// the workload families (ladders, trees, meshes), blocked multi-RHS solves
// must match one-at-a-time solves, and the AMD ordering must stay a valid
// permutation with fill competitive with classical minimum degree.
// ---------------------------------------------------------------------------

use rlckit::numeric::condition;
use rlckit::numeric::lu::LuFactor;
use rlckit::numeric::solver::FactoredSolver;
use rlckit::numeric::sparse::{
    approximate_minimum_degree, minimum_degree, SparseLuFactor, SparseSymbolic,
};

/// The three workload families the refactor path must cover.
fn family_mna(family: usize, size: usize) -> MnaSystem {
    let circuit = match family % 3 {
        0 => {
            let spec = LadderSpec::new(
                Resistance::from_ohms(400.0),
                Inductance::from_nanohenries(8.0),
                Capacitance::from_picofarads(0.8),
                Resistance::from_ohms(120.0),
                Capacitance::from_femtofarads(25.0),
            );
            LadderSpec { segments: size.max(2), ..spec }.build().expect("ladder builds").circuit
        }
        1 => {
            let mut spec = TreeSpec::new(Resistance::from_ohms(150.0));
            for i in 0..size.max(2) {
                spec.branches.push(TreeBranch {
                    parent: if i == 0 { None } else { Some((i - 1) / 2) },
                    total_resistance: Resistance::from_ohms(90.0),
                    total_inductance: Inductance::from_nanohenries(1.5),
                    total_capacitance: Capacitance::from_picofarads(0.15),
                    segments: 3,
                    sink_capacitance: Capacitance::from_femtofarads(12.0),
                });
            }
            spec.build().expect("tree builds").circuit
        }
        _ => {
            let side = (size.max(4) as f64).sqrt().ceil() as usize;
            MeshSpec {
                rows: side,
                cols: side,
                segment_resistance: Resistance::from_ohms(4.0),
                segment_inductance: Inductance::ZERO,
                node_capacitance: Capacitance::from_femtofarads(15.0),
                driver_resistance: Resistance::from_ohms(60.0),
                load_capacitance: Capacitance::ZERO,
                supply: Voltage::from_volts(1.0),
            }
            .build()
            .expect("mesh builds")
            .circuit
        }
    };
    MnaSystem::build(&circuit).expect("family circuit assembles")
}

/// Builds the adjacency lists of a random grid-graph pattern with a few
/// extra chords, the shape AMD has to be competitive on.
fn grid_adjacency(rows: usize, cols: usize, chords: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let n = rows * cols;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut connect = |a: usize, b: usize| {
        if a != b {
            adj[a].push(b);
            adj[b].push(a);
        }
    };
    for r in 0..rows {
        for c in 0..cols {
            let here = r * cols + c;
            if c + 1 < cols {
                connect(here, here + 1);
            }
            if r + 1 < rows {
                connect(here, here + cols);
            }
        }
    }
    for &(a, b) in chords {
        connect(a % n, b % n);
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Diagonally dominant matrix over an adjacency structure, so every
/// elimination order factors without pivoting surprises.
fn matrix_from_adjacency(adj: &[Vec<usize>]) -> rlckit::numeric::sparse::CscMatrix<f64> {
    let n = adj.len();
    let mut triplets = Vec::new();
    for (i, neighbours) in adj.iter().enumerate() {
        triplets.push((i, i, 4.0 + neighbours.len() as f64));
        for &j in neighbours {
            triplets.push((i, j, -1.0));
        }
    }
    rlckit::numeric::sparse::CscMatrix::from_triplets(n, &triplets)
}

/// `nnz(L) + nnz(U)` of a factorisation under the given ordering.
fn fill_under(a: &rlckit::numeric::sparse::CscMatrix<f64>, perm: Vec<usize>) -> usize {
    let symbolic = SparseSymbolic::from_permutation(a.dim(), perm);
    let f = SparseLuFactor::factor(a, &symbolic).expect("diagonally dominant system factors");
    f.l_nnz() + f.u_nnz()
}

/// A 5-line × 100-section coupled bus factors with fill linear in its size.
/// The stepping matrix keeps diagonal pivots on the fill-reducing order,
/// where strict partial pivoting wanders off it (fill ratio above 40 on this
/// system). The DC matrix, whose branch columns must pivot off the diagonal,
/// is ordered on the pattern of `G` alone (fill ratio above 35 under the
/// union-pattern ordering).
#[test]
fn coupled_bus_factors_with_linear_fill() {
    let bus = rlckit::coupling::bus::UniformBusSpec {
        lines: 5,
        resistance: ResistancePerLength::from_ohms_per_millimeter(1.3),
        self_inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
        ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
        coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
        inductive_coupling: vec![0.35, 0.15],
        length: Length::from_millimeters(5.0),
    }
    .build()
    .expect("bus builds");
    let drive = rlckit::coupling::netlist::BusDrive::new(
        Resistance::from_ohms(112.5),
        Capacitance::from_femtofarads(120.0),
        Voltage::from_volts(1.8),
    )
    .with_sections(100);
    let pattern = SwitchingPattern::odd_mode(2, 5).expect("odd mode");
    let circuit = build_bus_circuit(&bus, &pattern, &drive).expect("bus netlist builds");
    let mna = MnaSystem::build(&circuit.circuit).expect("bus assembles");
    let fill = |a: &rlckit::numeric::sparse::CscMatrix<f64>, symbolic: &SparseSymbolic| {
        let f = SparseLuFactor::factor(a, symbolic).expect("bus system factors");
        (f.l_nnz() + f.u_nnz()) as f64 / a.nnz() as f64
    };
    // The trapezoidal stepping matrix at a 1 ps step, and the DC matrix.
    let stepping = fill(&mna.assemble_csc_real(0.5, 1e12), mna.sparse_symbolic());
    assert!(stepping < 3.0, "stepping fill ratio (nnz(L) + nnz(U)) / nnz(A) = {stepping}");
    let dc = fill(&mna.assemble_csc_real(1.0, 0.0), mna.dc_symbolic());
    assert!(dc < 4.0, "DC fill ratio (nnz(L) + nnz(U)) / nnz(A) = {dc}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn refactorisation_matches_a_fresh_factorisation(
        family in 0.0f64..3.0,
        size_f in 6.0f64..30.0,
        scalars in proptest::collection::vec(0.2f64..5.0, 3),
    ) {
        // Factor `G + cs·C` once, then walk through new `cs` scalars (the
        // per-timestep/per-frequency value perturbation: the pattern is
        // frozen, every stored value changes). The warm refactorisation must
        // agree with a cold pivoting factorisation of the same matrix to
        // 1e-12 on the solution of a common right-hand side.
        let mna = family_mna(family as usize, size_f as usize);
        let n = mna.dim();
        let a0 = mna.assemble_csc_real(1.0, 1e10);
        let mut warm = SparseLuFactor::factor(&a0, mna.sparse_symbolic()).expect("factors");
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        for cs in &scalars {
            let a = mna.assemble_csc_real(1.0, cs * 1e10);
            warm.refactor(&a).expect("same pattern refactors");
            let cold = SparseLuFactor::factor(&a, mna.sparse_symbolic()).expect("factors");
            let xw = warm.solve(&rhs);
            let xc = cold.solve(&rhs);
            let scale = xc.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (i, (w, c)) in xw.iter().zip(xc.iter()).enumerate() {
                prop_assert!(
                    (w - c).abs() <= 1e-12 * scale,
                    "family {family}, cs {cs}: warm vs cold differ at {i}: {w} vs {c}"
                );
            }
        }
    }

    #[test]
    fn condest_tracks_the_exact_condition_number(
        family in 0.0f64..3.0,
        size_f in 6.0f64..24.0,
        cs_scale in 0.3f64..3.0,
    ) {
        // The Hager–Higham estimate reuses the LU factors, so it is a lower
        // bound on the exact 1-norm condition number and — on these
        // diagonally-dominated MNA systems — must land within a factor of 10
        // of it, on every kernel. The exact value comes from the brute-force
        // inverse: n dense solves, one per unit vector.
        let mna = family_mna(family as usize, size_f as usize);
        let n = mna.dim();
        let csc = mna.assemble_csc_real(1.0, cs_scale * 1e10);
        let dense = csc.to_dense();
        let dense_lu = LuFactor::new(&dense).expect("family system factors");
        let mut inv_norm_one = 0.0f64;
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = dense_lu.solve(&e);
            inv_norm_one = inv_norm_one.max(col.iter().map(|v| v.abs()).sum());
        }
        let norm_one = (0..n)
            .map(|j| (0..n).map(|i| dense[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max);
        let exact = norm_one * inv_norm_one;
        // The solver retains its matrix (and so can estimate) only while the
        // profiler is on.
        let _serial = rlckit::telemetry::test_support::lock();
        let _on = rlckit::telemetry::Collector::enable();
        let estimates = BACKENDS.map(|backend| {
            let factor = FactoredSolver::factor_csc(&csc, backend).expect("factors");
            (backend, factor.condest().expect("matrix retained while profiling"))
        });
        for (kernel, est) in estimates {
            prop_assert!(
                est <= exact * (1.0 + 1e-9),
                "{kernel:?}: estimate {est} exceeds the exact condition number {exact}"
            );
            prop_assert!(
                est >= exact / 10.0,
                "{kernel:?}: estimate {est} more than 10x below the exact {exact}"
            );
        }
    }

    #[test]
    fn solves_stay_backward_stable_across_backends(
        family in 0.0f64..3.0,
        size_f in 6.0f64..30.0,
        rhs_seed in 0.1f64..10.0,
    ) {
        // The componentwise backward error the health monitors report is
        // computed from the retained matrix; here the same formula is applied
        // directly to every backend's solution. Partial-pivoted LU on these
        // well-conditioned systems must stay near machine precision — the
        // 1e-12 ceiling is ~4500 ulps of headroom.
        let mna = family_mna(family as usize, size_f as usize);
        let n = mna.dim();
        let a = mna.assemble_csc_real(1.0, 1e10);
        let rhs: Vec<f64> = (0..n).map(|i| rhs_seed * (1.0 + (i % 7) as f64)).collect();
        for backend in BACKENDS {
            let factor = factor_real(&mna, 1.0, 1e10, backend, "backward-error test")
                .expect("family system factors");
            let x = factor.solve(&rhs);
            let be = condition::backward_error(a.norm_inf(), &a.mul_vec(&x), &x, &rhs);
            prop_assert!(
                be <= 1e-12,
                "{backend:?}: backward error {be} above 1e-12 on a {n}-dim system"
            );
        }
    }

    #[test]
    fn amd_is_valid_and_fill_competitive_on_random_meshes(
        rows_f in 3.0f64..12.0,
        cols_f in 3.0f64..12.0,
        chord_seeds in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        let (rows, cols) = (rows_f as usize, cols_f as usize);
        let n = rows * cols;
        let chords: Vec<(usize, usize)> = chord_seeds
            .chunks(2)
            .map(|pair| {
                let a = (pair[0] * n as f64) as usize % n;
                let b = (pair.get(1).copied().unwrap_or(0.5) * n as f64) as usize % n;
                (a, b)
            })
            .collect();
        let adj = grid_adjacency(rows, cols, &chords);
        let amd = approximate_minimum_degree(n, &adj);
        // A valid permutation: every position hit exactly once.
        let mut seen = vec![false; n];
        for &p in &amd {
            prop_assert!(p < n && !seen[p], "AMD emitted position {p} twice or out of range");
            seen[p] = true;
        }
        // Fill within 2x of the classical (exact-degree) orderings' fill.
        let a = matrix_from_adjacency(&adj);
        let amd_fill = fill_under(&a, amd);
        let md_fill = fill_under(&a, minimum_degree(n, &adj));
        prop_assert!(
            amd_fill <= 2 * md_fill,
            "{rows}x{cols} grid: AMD fill {amd_fill} vs classical MD fill {md_fill}"
        );
    }
}

// ---------------------------------------------------------------------------
// The JSON codec (`rlckit_telemetry::json`) every writer and parser shares.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_strings_round_trip_through_the_escaper(
        draws in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 24),
    ) {
        // Quotes, backslashes, every C0 control, non-BMP scalars, ASCII.
        let awkward = ['"', '\\', '/', '\u{7f}', '\u{2028}'];
        let s: String = draws
            .iter()
            .map(|&(sel, pick)| {
                let code = match sel {
                    x if x < 0.15 => awkward[(pick * 5.0) as usize] as u32,
                    x if x < 0.4 => (pick * 32.0) as u32,
                    x if x < 0.6 => 0x10000 + (pick * 0xF_0000 as f64) as u32,
                    _ => 0x20 + (pick * 95.0) as u32,
                };
                char::from_u32(code).expect("a Unicode scalar")
            })
            .collect();
        let mut text = String::new();
        json::push_str_escaped(&mut text, &s);
        prop_assert!(!text.bytes().any(|b| b < 0x20), "raw control byte in {text:?}");
        prop_assert_eq!(json::parse(&text).expect("escaped strings parse").as_str(), Some(&*s));
    }

    #[test]
    fn json_numbers_round_trip_bit_exactly(
        sel in 0.0f64..1.0,
        hi in 0.0f64..1.0,
        lo in 0.0f64..1.0,
    ) {
        let bits = ((hi * 4_294_967_296.0) as u64) << 32 | (lo * 4_294_967_296.0) as u64;
        let v = match sel {
            x if x < 0.1 => -0.0,
            x if x < 0.4 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF), // subnormal
            _ => Some(f64::from_bits(bits)).filter(|v| v.is_finite()).unwrap_or(f64::MAX),
        };
        let mut text = String::new();
        json::push_f64(&mut text, v);
        let back = json::parse(&text).expect("formatted numbers parse").as_f64();
        prop_assert_eq!(back.map(f64::to_bits), Some(v.to_bits()), "{} via {}", v, text);
    }

    #[test]
    fn json_lone_surrogates_are_rejected(unit in 0.0f64..1.0, other in 0.0f64..1.0) {
        let high = 0xD800 + (unit * 1024.0) as u32;
        let low = 0xDC00 + (other * 1024.0) as u32;
        let plain = 0x20 + (other * 0xD000 as f64) as u32;
        for bad in [
            format!("\"\\u{high:04x}\""),
            format!("\"\\u{low:04x}\""),
            format!("\"\\u{high:04x}\\u{plain:04x}\""),
            format!("\"\\u{low:04x}\\u{high:04x}\""),
        ] {
            prop_assert!(json::parse(&bad).is_err(), "{} must be rejected", bad);
        }
        let pair = json::parse(&format!("\"\\u{high:04x}\\u{low:04x}\"")).expect("pairs parse");
        let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
        prop_assert_eq!(pair.as_str(), Some(&*char::from_u32(code).expect("scalar").to_string()));
    }
}
