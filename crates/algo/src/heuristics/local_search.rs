//! Steepest-descent local search over interval mappings with restarts.
//!
//! Start points cover the structurally distinct corners of the space (all
//! processors pooled, fastest alone, most-reliable half, plus seeded random
//! mappings); each descent repeatedly moves to the best neighbor under the
//! objective ordering of [`Objective::better`] (feasibility first, then the
//! minimized criterion). Works on every platform class — the go-to
//! heuristic for Fully Heterogeneous bi-criteria instances (NP-hard,
//! Theorem 7).
//!
//! Neighbors are scored through the incremental engine
//! ([`DeltaEval`] + [`MoveStream`]): each candidate is applied in place,
//! delta-scored, and reverted — no mapping clones, no full re-evaluation —
//! with scores bit-identical to the full formulas, so the descent
//! trajectory (and final answer) is exactly what the materializing
//! implementation produced. The step loop polls the request [`Budget`] so
//! tight server deadlines cut the search off with its best-so-far.

use crate::heuristics::neighborhood::{random_mapping, MoveStream};
use crate::solution::{BiSolution, Budgeted, Objective};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpwf_core::budget::Budget;
use rpwf_core::eval::{DeltaEval, EvalContext};
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::platform::Platform;
use rpwf_core::stage::Pipeline;

/// Configuration of the local search.
#[derive(Clone, Copy, Debug)]
pub struct LocalSearch {
    /// Number of additional random restarts (beyond the deterministic
    /// start points).
    pub random_restarts: usize,
    /// Cap on descent steps per start point.
    pub max_steps: usize,
    /// RNG seed for the random restarts.
    pub seed: u64,
}

impl Default for LocalSearch {
    fn default() -> Self {
        LocalSearch {
            random_restarts: 8,
            max_steps: 200,
            seed: 0xC0FFEE,
        }
    }
}

impl LocalSearch {
    /// Runs the search; `None` when no visited mapping satisfies the
    /// threshold.
    #[must_use]
    pub fn solve(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
    ) -> Option<BiSolution> {
        self.solve_with_budget(pipeline, platform, objective, &Budget::unlimited())
            .into_inner()
    }

    /// Budgeted variant: the descent polls `budget` between steps (and at
    /// a coarse stride inside each neighborhood scan) and returns the
    /// best feasible solution found so far as [`Budgeted::Cutoff`] when
    /// it expires. With an unlimited budget the result equals
    /// [`solve`](Self::solve) exactly.
    #[must_use]
    pub fn solve_with_budget(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        let n = pipeline.n_stages();
        let m = platform.n_procs();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut starts: Vec<IntervalMapping> = Vec::new();
        // All processors, one interval (Theorem 1 corner).
        starts.push(
            IntervalMapping::single_interval(n, platform.procs().collect(), m)
                .expect("valid start"),
        );
        // Fastest processor alone (Theorem 2 corner).
        starts.push(
            IntervalMapping::single_interval(n, vec![platform.fastest_proc()], m)
                .expect("valid start"),
        );
        // Most reliable half.
        let half = m.div_ceil(2);
        starts.push(
            IntervalMapping::single_interval(
                n,
                platform.procs_by_reliability_desc()[..half].to_vec(),
                m,
            )
            .expect("valid start"),
        );
        for _ in 0..self.random_restarts {
            starts.push(random_mapping(n, m, &mut rng));
        }

        let ctx = EvalContext::new(pipeline, platform);
        let limited = budget.is_limited();
        let mut cut = false;
        let mut de: Option<DeltaEval> = None;
        let mut best: Option<BiSolution> = None;
        let mut scanned = 0u32;
        for start in starts {
            if limited && budget.is_exhausted() {
                cut = true;
                break;
            }
            // One evaluator reused across restarts (buffers stay warm).
            let de = match &mut de {
                Some(de) => {
                    de.reset(&start);
                    de
                }
                none => none.insert(DeltaEval::new(&ctx, &start)),
            };
            let mut cur = de.scores();
            'descent: for _ in 0..self.max_steps {
                if limited && budget.is_exhausted() {
                    cut = true;
                    break;
                }
                // Scan the neighborhood in place, tracking the running
                // best exactly like the materializing scan did: each
                // improving candidate becomes the comparison point for
                // the rest of the scan.
                let mut stream = MoveStream::new();
                let mut best_mv = None;
                let mut scan = cur;
                while let Some(mv) = stream.next(de) {
                    scanned += 1;
                    if limited && scanned & 0x1FF == 0 && budget.is_exhausted() {
                        // `cur` still describes the committed state; the
                        // partial scan's winner is simply discarded.
                        cut = true;
                        break 'descent;
                    }
                    let s = de.apply(mv);
                    de.revert();
                    if objective.better_values(
                        s.latency,
                        s.failure_prob(),
                        scan.latency,
                        scan.failure_prob(),
                    ) {
                        scan = s;
                        best_mv = Some(mv);
                    }
                }
                let Some(mv) = best_mv else { break };
                cur = de.apply(mv);
                de.accept();
            }
            if objective.feasible(cur.latency, cur.failure_prob())
                && best.as_ref().is_none_or(|b| {
                    objective.better_values(
                        cur.latency,
                        cur.failure_prob(),
                        b.latency,
                        b.failure_prob,
                    )
                })
            {
                best = Some(BiSolution {
                    mapping: de.mapping(),
                    latency: cur.latency,
                    failure_prob: cur.failure_prob(),
                });
            }
            if cut {
                break;
            }
        }
        if cut {
            Budgeted::Cutoff(best)
        } else {
            Budgeted::Complete(best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::Exhaustive;
    use rand::Rng;
    use rpwf_core::assert_approx_eq;
    use rpwf_core::platform::{FailureClass, PlatformClass};
    use rpwf_gen::{PipelineGen, PlatformGen};

    #[test]
    fn finds_figure5_optimum() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let sol = LocalSearch::default()
            .solve(&pipe, &pf, Objective::MinFpUnderLatency(22.0))
            .expect("feasible");
        // The descent must at least beat the best single interval (0.64)
        // and in practice reaches the paper optimum.
        assert!(sol.failure_prob < 0.64);
        assert_approx_eq!(sol.failure_prob, 1.0 - 0.9 * (1.0 - 0.8f64.powi(10)), 1e-6);
    }

    #[test]
    fn respects_feasibility() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let pipe = PipelineGen::balanced(3).sample(&mut rng);
            let pf = PlatformGen::new(
                4,
                PlatformClass::FullyHeterogeneous,
                FailureClass::Heterogeneous,
            )
            .sample(&mut rng);
            let l = rng.gen_range(10.0..200.0);
            if let Some(sol) =
                LocalSearch::default().solve(&pipe, &pf, Objective::MinFpUnderLatency(l))
            {
                assert!(sol.latency <= l + 1e-6, "latency {} > {l}", sol.latency);
            }
        }
    }

    #[test]
    fn near_oracle_on_small_het_instances() {
        // On tiny instances the descent should land within a small factor of
        // the oracle (and often exactly on it).
        let mut rng = StdRng::seed_from_u64(7);
        let mut hits = 0usize;
        let trials = 6;
        for _ in 0..trials {
            let pipe = PipelineGen::balanced(3).sample(&mut rng);
            let pf = PlatformGen::new(
                4,
                PlatformClass::FullyHeterogeneous,
                FailureClass::Heterogeneous,
            )
            .sample(&mut rng);
            let oracle = Exhaustive::new(&pipe, &pf).min_failure();
            let l = oracle.latency * 1.2;
            let opt = Exhaustive::new(&pipe, &pf)
                .solve(Objective::MinFpUnderLatency(l))
                .expect("oracle feasible");
            let heur = LocalSearch::default()
                .solve(&pipe, &pf, Objective::MinFpUnderLatency(l))
                .expect("heuristic feasible when oracle is");
            assert!(heur.failure_prob >= opt.failure_prob - 1e-12);
            if (heur.failure_prob - opt.failure_prob).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(
            hits >= trials / 2,
            "local search matched oracle only {hits}/{trials} times"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let ls = LocalSearch {
            random_restarts: 4,
            max_steps: 50,
            seed: 99,
        };
        let a = ls.solve(&pipe, &pf, Objective::MinLatencyUnderFp(0.3));
        let b = ls.solve(&pipe, &pf, Objective::MinLatencyUnderFp(0.3));
        assert_eq!(a, b);
    }

    #[test]
    fn infeasible_returns_none() {
        let pipe = Pipeline::uniform(2, 100.0, 100.0).unwrap();
        let pf = Platform::fully_homogeneous(2, 1.0, 1.0, 0.9).unwrap();
        assert!(LocalSearch::default()
            .solve(&pipe, &pf, Objective::MinFpUnderLatency(1.0))
            .is_none());
    }

    #[test]
    fn unlimited_budget_matches_solve_exactly() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let objective = Objective::MinFpUnderLatency(22.0);
        let plain = LocalSearch::default().solve(&pipe, &pf, objective);
        let budgeted = LocalSearch::default().solve_with_budget(
            &pipe,
            &pf,
            objective,
            &rpwf_core::budget::Budget::unlimited(),
        );
        assert!(budgeted.is_complete());
        assert_eq!(budgeted.into_inner(), plain);
    }

    #[test]
    fn expired_budget_reports_cutoff_promptly() {
        let mut rng = StdRng::seed_from_u64(3);
        let pipe = PipelineGen::balanced(10).sample(&mut rng);
        let pf = PlatformGen::new(
            12,
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        let budget = rpwf_core::budget::Budget::with_deadline(std::time::Duration::ZERO);
        let start = std::time::Instant::now();
        let outcome = LocalSearch::default().solve_with_budget(
            &pipe,
            &pf,
            Objective::MinLatencyUnderFp(0.9),
            &budget,
        );
        assert!(!outcome.is_complete(), "expired budget must cut off");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "cutoff must be prompt, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn cancellation_cuts_the_search_off() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let (budget, handle) = rpwf_core::budget::Budget::unlimited().cancellable();
        handle.cancel();
        let outcome = LocalSearch::default().solve_with_budget(
            &pipe,
            &pf,
            Objective::MinFpUnderLatency(22.0),
            &budget,
        );
        assert!(!outcome.is_complete());
    }
}
