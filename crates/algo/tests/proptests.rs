//! Property-based tests across the solver stack: solver agreement,
//! relaxation orderings, and objective-comparator laws on random instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpwf_algo::exact::{
    min_latency_interval, min_latency_one_to_one, pareto_front_comm_homog, BranchBound, Exhaustive,
};
use rpwf_algo::heuristics::neighborhood::{
    move_count, neighbors, nth_move, random_mapping, MoveStream,
};
use rpwf_algo::heuristics::{one_to_one::solve_one_to_one, split_dp, Portfolio};
use rpwf_algo::mono::general_mapping_shortest_path;
use rpwf_algo::{BiSolution, Objective};
use rpwf_core::num::approx_eq;
use rpwf_core::platform::{FailureClass, PlatformClass};
use rpwf_core::prelude::*;
use rpwf_gen::{PipelineGen, PlatformGen};

/// `|a − b| ≤ 1` unit in the last place (and bit-equal covers ±0, inf).
fn within_one_ulp(a: f64, b: f64) -> bool {
    if a.to_bits() == b.to_bits() {
        return true;
    }
    if a.is_nan() || b.is_nan() || a.signum() != b.signum() {
        return false;
    }
    a.to_bits().abs_diff(b.to_bits()) <= 1
}

/// Instances are generated from a single seed through the crate generators,
/// so shrinking operates on the seed.
fn instance(seed: u64, n: usize, m: usize, class: PlatformClass) -> (Pipeline, Platform) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pipeline = PipelineGen::balanced(n).sample(&mut rng);
    let platform = PlatformGen::new(m, class, FailureClass::Heterogeneous).sample(&mut rng);
    (pipeline, platform)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bitmask DP front equals the exhaustive front on tiny random
    /// comm-homogeneous instances.
    #[test]
    fn bitmask_dp_equals_oracle(seed in 0u64..10_000) {
        let (pipe, pf) = instance(seed, 3, 3, PlatformClass::CommHomogeneous);
        let dp = pareto_front_comm_homog(&pipe, &pf).unwrap();
        let oracle = Exhaustive::new(&pipe, &pf).pareto_front();
        prop_assert_eq!(dp.len(), oracle.len());
        for (a, b) in dp.iter().zip(oracle.iter()) {
            prop_assert!(approx_eq(a.latency, b.latency, 1e-9));
            prop_assert!(approx_eq(a.failure_prob, b.failure_prob, 1e-9));
        }
    }

    /// Branch-and-bound agrees with the oracle at a random threshold on
    /// fully heterogeneous instances.
    #[test]
    fn branch_bound_equals_oracle(seed in 0u64..10_000, frac in 0.0f64..1.0) {
        let (pipe, pf) = instance(seed, 3, 4, PlatformClass::FullyHeterogeneous);
        let ex = Exhaustive::new(&pipe, &pf);
        let lo = ex.min_latency().latency;
        let hi = rpwf_algo::mono::minimize_failure(&pipe, &pf).latency;
        let l = lo + (hi - lo) * frac;
        let objective = Objective::MinFpUnderLatency(l);
        let bnb = BranchBound::new(&pipe, &pf).solve(objective);
        let oracle = ex.solve(objective);
        match (bnb, oracle) {
            (Some(a), Some(o)) => prop_assert!(
                approx_eq(a.failure_prob, o.failure_prob, 1e-9),
                "{} vs {}", a.failure_prob, o.failure_prob
            ),
            (None, None) => {}
            (a, o) => prop_assert!(false, "disagreement: {a:?} vs {o:?}"),
        }
    }

    /// Relaxation chain: general ≤ interval ≤ one-to-one latency, and the
    /// one-to-one heuristic upper-bounds the exact DP.
    #[test]
    fn relaxation_chain(seed in 0u64..10_000) {
        let (pipe, pf) = instance(seed, 3, 5, PlatformClass::FullyHeterogeneous);
        let (_, general) = general_mapping_shortest_path(&pipe, &pf);
        let (_, interval) = min_latency_interval(&pipe, &pf);
        let (_, exact_oto) = min_latency_one_to_one(&pipe, &pf).unwrap();
        let (_, heur_oto) = solve_one_to_one(&pipe, &pf).unwrap();
        prop_assert!(general <= interval + 1e-9);
        prop_assert!(interval <= exact_oto + 1e-9);
        prop_assert!(exact_oto <= heur_oto + 1e-9);
    }

    /// Split-DP points always lie inside (are dominated by) the exact
    /// comm-homogeneous front and re-evaluate to their reported values.
    #[test]
    fn split_dp_is_sound(seed in 0u64..10_000) {
        let (pipe, pf) = instance(seed, 4, 5, PlatformClass::CommHomogeneous);
        let heur = split_dp::pareto_front(&pipe, &pf).unwrap();
        let exact = pareto_front_comm_homog(&pipe, &pf).unwrap();
        for pt in heur.iter() {
            let covered = exact
                .iter()
                .any(|e| e.latency <= pt.latency + 1e-9 && e.failure_prob <= pt.failure_prob + 1e-9);
            prop_assert!(covered);
            let re = BiSolution::evaluate(pt.payload.clone(), &pipe, &pf);
            prop_assert!(approx_eq(re.latency, pt.latency, 1e-9));
            prop_assert!(approx_eq(re.failure_prob, pt.failure_prob, 1e-9));
        }
    }

    /// Portfolio answers are feasible and never beat the exact optimum.
    #[test]
    fn portfolio_is_sound(seed in 0u64..10_000, frac in 0.1f64..0.9) {
        let (pipe, pf) = instance(seed, 3, 4, PlatformClass::FullyHeterogeneous);
        let ex = Exhaustive::new(&pipe, &pf);
        let lo = ex.min_latency().latency;
        let hi = rpwf_algo::mono::minimize_failure(&pipe, &pf).latency;
        let l = lo + (hi - lo) * frac;
        let objective = Objective::MinFpUnderLatency(l);
        if let Some(sol) = Portfolio::new(seed).solve(&pipe, &pf, objective) {
            prop_assert!(sol.latency <= l * (1.0 + 1e-9) + 1e-9);
            if let Some(exact) = ex.solve(objective) {
                prop_assert!(sol.failure_prob >= exact.failure_prob - 1e-9);
            }
        }
    }

    /// The lazy move stream reproduces the materialized neighbor list
    /// exactly: same count, same order, same produced mappings.
    #[test]
    fn move_stream_equals_materialized_neighbors(seed in 0u64..10_000) {
        let (pipe, pf) = instance(seed, 5, 5, PlatformClass::FullyHeterogeneous);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
        let mapping = random_mapping(pipe.n_stages(), pf.n_procs(), &mut rng);
        let ctx = EvalContext::new(&pipe, &pf);
        let mut de = DeltaEval::new(&ctx, &mapping);
        let materialized = neighbors(&mapping, pf.n_procs());
        prop_assert_eq!(move_count(&de), materialized.len());
        let mut stream = MoveStream::new();
        let mut i = 0usize;
        while let Some(mv) = stream.next(&de) {
            de.apply(mv);
            prop_assert_eq!(&de.mapping(), &materialized[i], "move {} ({:?})", i, mv);
            de.revert();
            i += 1;
        }
        prop_assert_eq!(i, materialized.len());
        prop_assert_eq!(&de.mapping(), &mapping, "stream walk must not disturb the state");
    }

    /// Delta scoring stays exact over random apply/revert sequences:
    /// latency bit-for-bit, log-FP within 1 ulp (empirically bit-for-bit
    /// too) of the full `metrics` recomputation after every step.
    #[test]
    fn delta_eval_matches_full_recomputation(seed in 0u64..10_000) {
        let (pipe, pf) = instance(seed, 6, 6, PlatformClass::FullyHeterogeneous);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD317A);
        let mapping = random_mapping(pipe.n_stages(), pf.n_procs(), &mut rng);
        let ctx = EvalContext::new(&pipe, &pf);
        let mut de = DeltaEval::new(&ctx, &mapping);
        for step in 0..40 {
            let count = move_count(&de);
            if count == 0 {
                break;
            }
            let mv = nth_move(&de, rng.gen_range(0..count));
            let before = de.scores();
            let s = de.apply(mv);
            if rng.gen_bool(1.0 / 3.0) {
                de.revert();
                let after = de.scores();
                prop_assert_eq!(
                    after.latency.to_bits(), before.latency.to_bits(),
                    "step {}: revert must restore latency bits", step
                );
                prop_assert_eq!(
                    after.ln_success.to_bits(), before.ln_success.to_bits(),
                    "step {}: revert must restore ln-success bits", step
                );
            } else {
                de.accept();
                let current = de.mapping();
                let full_lat = rpwf_core::metrics::latency(&current, &pipe, &pf);
                let full_ln = rpwf_core::metrics::log_success_probability(&current, &pf);
                prop_assert_eq!(
                    s.latency.to_bits(), full_lat.to_bits(),
                    "step {} ({:?}): delta latency {} vs full {}",
                    step, mv, s.latency, full_lat
                );
                prop_assert!(
                    within_one_ulp(s.ln_success, full_ln),
                    "step {} ({:?}): delta ln-success {} vs full {}",
                    step, mv, s.ln_success, full_ln
                );
                prop_assert!(
                    within_one_ulp(s.failure_prob(), rpwf_core::metrics::failure_probability(&current, &pf)),
                    "step {}: failure probabilities diverged", step
                );
            }
        }
    }

    /// Budgeted heuristics with an unlimited budget reproduce the plain
    /// solvers exactly (same mapping, bit-equal objectives).
    #[test]
    fn unbudgeted_heuristics_are_unchanged(seed in 0u64..10_000) {
        let (pipe, pf) = instance(seed, 4, 5, PlatformClass::FullyHeterogeneous);
        let objective = Objective::MinLatencyUnderFp(0.6);
        let ls = rpwf_algo::heuristics::LocalSearch {
            random_restarts: 2, max_steps: 40, seed
        };
        let budgeted = ls.solve_with_budget(&pipe, &pf, objective, &Budget::unlimited());
        prop_assert!(budgeted.is_complete());
        prop_assert_eq!(budgeted.into_inner(), ls.solve(&pipe, &pf, objective));
        let sa = rpwf_algo::heuristics::Annealing { seed, epochs: 10, ..Default::default() };
        let budgeted = sa.solve_with_budget(&pipe, &pf, objective, &Budget::unlimited());
        prop_assert!(budgeted.is_complete());
        prop_assert_eq!(budgeted.into_inner(), sa.solve(&pipe, &pf, objective));
    }

    /// Vectorized threshold reads equal `k` independent reads on random
    /// fronts and random mixed-objective query batches (the batch sweep
    /// is a pure amortization).
    #[test]
    fn batch_threshold_reads_equal_independent_reads(
        seed in 0u64..10_000,
        queries in prop::collection::vec((0u8..2, 0.0f64..2.0), 1..24),
    ) {
        let (pipe, pf) = instance(seed, 3, 4, PlatformClass::FullyHeterogeneous);
        let front = Exhaustive::new(&pipe, &pf).pareto_front();
        let lat_hi = front.points().last().map_or(1.0, |p| p.latency * 1.5);
        let objectives: Vec<Objective> = queries
            .iter()
            .map(|&(kind, t)| if kind == 1 {
                Objective::MinFpUnderLatency(t * lat_hi)
            } else {
                Objective::MinLatencyUnderFp(t / 2.0)
            })
            .collect();
        let batch = rpwf_algo::front::threshold_read_batch(&front, &objectives);
        prop_assert_eq!(batch.len(), objectives.len());
        for (objective, got) in objectives.iter().zip(&batch) {
            let independent = rpwf_algo::front::threshold_read(&front, *objective);
            prop_assert_eq!(got, &independent, "objective {:?}", objective);
        }
    }

    /// Comparator laws: `better` is irreflexive and asymmetric.
    #[test]
    fn objective_better_is_a_strict_order(
        lat_a in 0.0f64..100.0, fp_a in 0.0f64..1.0,
        lat_b in 0.0f64..100.0, fp_b in 0.0f64..1.0,
        l in 1.0f64..100.0,
    ) {
        let mk = |lat: f64, fp: f64| BiSolution {
            mapping: IntervalMapping::single_interval(1, vec![ProcId(0)], 1).unwrap(),
            latency: lat,
            failure_prob: fp,
        };
        for objective in [Objective::MinFpUnderLatency(l), Objective::MinLatencyUnderFp(fp_a.max(1e-6))] {
            let a = mk(lat_a, fp_a);
            let b = mk(lat_b, fp_b);
            prop_assert!(!objective.better(&a, &a), "irreflexive");
            prop_assert!(
                !(objective.better(&a, &b) && objective.better(&b, &a)),
                "asymmetric"
            );
        }
    }

    /// Theorem 4's solver is invariant under pipeline scaling: multiplying
    /// all works and data sizes by c scales the optimum by c.
    #[test]
    fn shortest_path_scales_linearly(seed in 0u64..10_000, c in 0.1f64..10.0) {
        let (pipe, pf) = instance(seed, 4, 4, PlatformClass::FullyHeterogeneous);
        let scaled = Pipeline::new(
            pipe.works().iter().map(|w| w * c).collect(),
            pipe.deltas().iter().map(|d| d * c).collect(),
        ).unwrap();
        let (_, base) = general_mapping_shortest_path(&pipe, &pf);
        let (_, big) = general_mapping_shortest_path(&scaled, &pf);
        prop_assert!(approx_eq(big, base * c, 1e-6), "{big} vs {}", base * c);
    }
}
