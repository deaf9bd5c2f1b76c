//! Differential front agreement between the exact front backends where
//! their domains overlap (`n ≤ 7`, `m ≤ 6`): the exhaustive oracle, the
//! branch-and-bound ε-constraint sweep (`bnb-sweep`) and, on uniform
//! links, the bitmask DP. Instances cover every platform class and both
//! failure classes.
//!
//! The oracle and the sweep evaluate every mapping with the same closed
//! forms, so their fronts agree bit for bit. On fully heterogeneous
//! platforms the mappings agree too; uniform platforms hold many
//! equal-valued mappings, which the two may break differently. The DP sums
//! its log-space terms in another order, so it agrees with the oracle to
//! `DEFAULT_REL_TOL` rather than in the bits.

use proptest::prelude::*;
use rpwf_algo::exact::{pareto_front_comm_homog, Exhaustive};
use rpwf_algo::front::{BranchBoundSweep, FrontSource};
use rpwf_core::budget::Budget;
use rpwf_core::num::{approx_eq, DEFAULT_REL_TOL};
use rpwf_core::platform::{FailureClass, PlatformClass};
use rpwf_gen::Instance;

const CLASSES: [PlatformClass; 3] = [
    PlatformClass::FullyHomogeneous,
    PlatformClass::CommHomogeneous,
    PlatformClass::FullyHeterogeneous,
];

const FAILURES: [FailureClass; 2] = [FailureClass::Homogeneous, FailureClass::Heterogeneous];

/// A seeded instance of the requested classes. One processor has one
/// speed and one failure probability, so at `m = 1` the classes collapse
/// to their homogeneous forms (the generator asserts the class it built).
fn instance(seed: u64, class: PlatformClass, failures: usize, n: usize, m: usize) -> Instance {
    let (class, failures) = match (m, class) {
        (1, PlatformClass::CommHomogeneous) => {
            (PlatformClass::FullyHomogeneous, FailureClass::Homogeneous)
        }
        (1, _) => (class, FailureClass::Homogeneous),
        _ => (class, FAILURES[failures]),
    };
    rpwf_gen::make_instance(class, failures, n, m, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Exhaustive vs `bnb-sweep`: same length, bit-identical latency and
    /// failure probability at every point, and identical mappings on
    /// fully heterogeneous platforms.
    #[test]
    fn exhaustive_and_bnb_sweep_fronts_are_bit_identical(
        seed in 0u64..10_000,
        class in 0usize..3,
        failures in 0usize..2,
        n in 1usize..=7,
        m in 1usize..=6,
    ) {
        let inst = instance(seed, CLASSES[class], failures, n, m);
        let (pipeline, platform) = (&inst.pipeline, &inst.platform);
        let oracle = Exhaustive::new(pipeline, platform).pareto_front();
        let sweep =
            BranchBoundSweep::default().front_with_budget(pipeline, platform, &Budget::unlimited());
        prop_assert!(sweep.is_complete(), "{}: unlimited sweep completes", inst.label);
        let sweep = sweep.into_inner();
        prop_assert_eq!(sweep.len(), oracle.len(), "{}: front lengths", inst.label);
        for (i, (s, o)) in sweep.iter().zip(oracle.iter()).enumerate() {
            prop_assert_eq!(
                (s.latency.to_bits(), s.failure_prob.to_bits()),
                (o.latency.to_bits(), o.failure_prob.to_bits()),
                "{}: point {}", inst.label, i
            );
            if CLASSES[class] == PlatformClass::FullyHeterogeneous {
                prop_assert_eq!(&s.payload, &o.payload, "{}: mapping {}", inst.label, i);
            }
        }
    }

    /// Bitmask DP vs exhaustive on uniform links: same length, and every
    /// point equal within `DEFAULT_REL_TOL`.
    #[test]
    fn bitmask_dp_front_matches_the_oracle_on_uniform_links(
        seed in 0u64..10_000,
        class in 0usize..2,
        failures in 0usize..2,
        n in 1usize..=7,
        m in 1usize..=6,
    ) {
        let inst = instance(seed, CLASSES[class], failures, n, m);
        let (pipeline, platform) = (&inst.pipeline, &inst.platform);
        let oracle = Exhaustive::new(pipeline, platform).pareto_front();
        let dp = pareto_front_comm_homog(pipeline, platform).expect("uniform links");
        prop_assert_eq!(dp.len(), oracle.len(), "{}: front lengths", inst.label);
        for (i, (d, o)) in dp.iter().zip(oracle.iter()).enumerate() {
            prop_assert!(
                approx_eq(d.latency, o.latency, DEFAULT_REL_TOL)
                    && approx_eq(d.failure_prob, o.failure_prob, DEFAULT_REL_TOL),
                "{}: point {}: dp ({}, {}) vs oracle ({}, {})",
                inst.label, i, d.latency, d.failure_prob, o.latency, o.failure_prob
            );
        }
    }
}
