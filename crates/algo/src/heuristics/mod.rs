//! Heuristics for the NP-hard and open bi-criteria problem variants.
//!
//! | heuristic | platforms | idea |
//! |-----------|-----------|------|
//! | [`single_interval`] | all | best mapping within the single-interval family (exact family search on comm-homog) |
//! | [`split_dp`] | comm-homog | exact Pareto DP restricted to processor orders (portfolio of 3 orders) |
//! | [`local_search`] | all | steepest descent over the 7-move neighborhood, multi-start |
//! | [`annealing`] | all | penalty-based simulated annealing (tunnels through infeasible regions) |
//! | [`random_search`] | all | uniform random baseline |
//!
//! The uniform entry point is [`Portfolio`], which runs every heuristic
//! applicable to the platform class and returns the best result; experiment
//! E10 quantifies each against the exact fronts of [`crate::exact`].

pub mod annealing;
pub mod local_search;
pub mod neighborhood;
pub mod one_to_one;
pub mod random_search;
pub mod single_interval;
pub mod split_dp;

pub use annealing::Annealing;
pub use local_search::LocalSearch;
pub use random_search::RandomSearch;

use crate::solution::{BiSolution, Budgeted, Objective};
use rpwf_core::budget::Budget;
use rpwf_core::platform::Platform;
use rpwf_core::stage::Pipeline;

/// Runs every applicable heuristic and keeps the best solution.
#[derive(Clone, Copy, Debug, Default)]
pub struct Portfolio {
    /// Seed shared by the randomized members.
    pub seed: u64,
}

impl Portfolio {
    /// Creates a portfolio with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Portfolio { seed }
    }

    /// Named results from each applicable heuristic (for comparison
    /// tables); `None` entries mean the heuristic found nothing feasible.
    #[must_use]
    pub fn run_all(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
    ) -> Vec<(&'static str, Option<BiSolution>)> {
        self.run_all_with_budget(pipeline, platform, objective, &Budget::unlimited())
            .into_inner()
    }

    /// [`run_all`](Self::run_all) under a shared budget: the randomized
    /// members (local search, annealing, random search) poll it in their
    /// step loops and contribute their best-so-far when it expires, so a
    /// tight server deadline cuts the whole portfolio off too. The cheap
    /// closed-form members (single-interval, split-DP) always run.
    /// [`Budgeted::Cutoff`] means at least one member was cut short, so
    /// the answers may be weaker than an unbudgeted rerun — callers that
    /// cache results must not cache a cutoff.
    #[must_use]
    pub fn run_all_with_budget(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Vec<(&'static str, Option<BiSolution>)>> {
        let mut complete = true;
        let mut out: Vec<(&'static str, Option<BiSolution>)> = Vec::new();
        out.push((
            "single-interval",
            single_interval::best_single_interval(pipeline, platform, objective),
        ));
        if platform.uniform_bandwidth().is_some() {
            out.push((
                "split-dp",
                split_dp::solve(pipeline, platform, objective).expect("comm-homog checked above"),
            ));
        }
        out.push((
            "local-search",
            local_search::LocalSearch {
                seed: self.seed,
                ..Default::default()
            }
            .solve_with_budget(pipeline, platform, objective, budget)
            .map_complete(&mut complete),
        ));
        out.push((
            "annealing",
            annealing::Annealing {
                seed: self.seed,
                ..Default::default()
            }
            .solve_with_budget(pipeline, platform, objective, budget)
            .map_complete(&mut complete),
        ));
        out.push((
            "random-search",
            random_search::RandomSearch {
                seed: self.seed,
                ..Default::default()
            }
            .solve_with_budget(pipeline, platform, objective, budget)
            .map_complete(&mut complete),
        ));
        if complete {
            Budgeted::Complete(out)
        } else {
            Budgeted::Cutoff(out)
        }
    }

    /// The best solution across the portfolio; `None` when every member
    /// failed.
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

    /// [`solve`](Self::solve) under a shared budget (see
    /// [`run_all_with_budget`](Self::run_all_with_budget)).
    /// [`Budgeted::Cutoff`] payloads may be weaker than an unbudgeted
    /// rerun and must not be cached.
    #[must_use]
    pub fn solve_with_budget(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        let outcome = self.run_all_with_budget(pipeline, platform, objective, budget);
        let complete = outcome.is_complete();
        let best = outcome
            .into_inner()
            .into_iter()
            .filter_map(|(_, sol)| sol)
            .fold(None, |best, sol| match best {
                Some(b) if !objective.better(&sol, &b) => Some(b),
                _ => Some(sol),
            });
        if complete {
            Budgeted::Complete(best)
        } else {
            Budgeted::Cutoff(best)
        }
    }

    /// Races the heuristic portfolio against the strongest applicable
    /// exact solver under a shared budget.
    ///
    /// On comm-homogeneous platforms the bitmask DP (which takes no
    /// seeding) runs on a second thread truly in parallel with the
    /// heuristics. On fully heterogeneous platforms the heuristics run
    /// first and their answer seeds the branch-and-bound incumbent — the
    /// portfolio is computed exactly once and the exact search starts
    /// polling the budget from its first node, so tight deadlines abort
    /// promptly. The outcome:
    ///
    /// * exact finished → the answer is proven optimal (when it proves
    ///   infeasibility, no heuristic answer can exist either),
    /// * exact cut off or inapplicable → the best of the heuristic answer
    ///   and the exact solver's partial incumbent is returned.
    #[must_use]
    pub fn race(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> RaceReport {
        let m = platform.n_procs();
        let comm_homog = platform.uniform_bandwidth().is_some();

        if comm_homog && m <= 16 {
            // Parallel race: DP on a worker thread, heuristics here. Both
            // sides share the budget, so expiry stops the whole race.
            let (exact, heuristic) = crossbeam::thread::scope(|scope| {
                let exact_handle = scope.spawn(move |_| {
                    crate::exact::solve_comm_homog_with_budget(
                        pipeline, platform, objective, budget,
                    )
                    .expect("uniform bandwidth checked above")
                });
                let heuristic = self.solve_with_budget(pipeline, platform, objective, budget);
                let exact = exact_handle.join().expect("exact solver does not panic");
                (exact, heuristic)
            })
            .expect("race threads do not panic");
            return combine(objective, Some(exact), heuristic);
        }

        if m <= 12 {
            // Heuristics first (their answer doubles as the incumbent),
            // then budgeted branch-and-bound seeded with it.
            let heuristic = self.solve_with_budget(pipeline, platform, objective, budget);
            let exact = crate::exact::BranchBound::new(pipeline, platform)
                .solve_with_budget_seeded(objective, budget, heuristic.inner().clone());
            return combine(objective, Some(exact), heuristic);
        }

        combine(
            objective,
            None,
            self.solve_with_budget(pipeline, platform, objective, budget),
        )
    }
}

fn combine(
    objective: Objective,
    exact: Option<Budgeted<Option<BiSolution>>>,
    heuristic: Budgeted<Option<BiSolution>>,
) -> RaceReport {
    let heuristic_complete = heuristic.is_complete();
    let heuristic = heuristic.into_inner();
    match exact {
        Some(Budgeted::Complete(sol)) => RaceReport {
            best: sol,
            solver: SolverKind::Exact,
            exact_attempted: true,
            exact_complete: true,
            heuristic_complete,
        },
        Some(Budgeted::Cutoff(partial)) => {
            let (best, solver) = pick_better(objective, partial, heuristic);
            RaceReport {
                best,
                solver,
                exact_attempted: true,
                exact_complete: false,
                heuristic_complete,
            }
        }
        None => RaceReport {
            best: heuristic,
            solver: SolverKind::Heuristic,
            exact_attempted: false,
            exact_complete: false,
            heuristic_complete,
        },
    }
}

/// Which side of a [`Portfolio::race`] produced the winning answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// The exact solver (optimal when `exact_complete`).
    Exact,
    /// The heuristic portfolio.
    Heuristic,
}

impl SolverKind {
    /// Stable lowercase name for logs and wire responses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Exact => "exact",
            SolverKind::Heuristic => "heuristic",
        }
    }
}

/// Outcome of [`Portfolio::race`].
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// The winning solution; `None` when nothing feasible was found (a
    /// completed exact run proves infeasibility, otherwise the budget may
    /// simply have been too tight).
    pub best: Option<BiSolution>,
    /// Which solver produced `best` (meaningful when `best` is `Some`).
    pub solver: SolverKind,
    /// Whether an exact solver was applicable to the instance at all.
    pub exact_attempted: bool,
    /// Whether the exact solver ran to completion within the budget —
    /// i.e. whether `best` is proven optimal.
    pub exact_complete: bool,
    /// Whether every heuristic portfolio member ran to completion.
    /// `false` means the budget truncated the heuristics, so `best` may
    /// be weaker than an unbudgeted rerun — such answers must not be
    /// cached.
    pub heuristic_complete: bool,
}

fn pick_better(
    objective: Objective,
    exact_partial: Option<BiSolution>,
    heuristic: Option<BiSolution>,
) -> (Option<BiSolution>, SolverKind) {
    match (exact_partial, heuristic) {
        (Some(e), Some(h)) => {
            if objective.better(&e, &h) {
                (Some(e), SolverKind::Exact)
            } else {
                (Some(h), SolverKind::Heuristic)
            }
        }
        (Some(e), None) => (Some(e), SolverKind::Exact),
        (None, h) => (h, SolverKind::Heuristic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpwf_core::assert_approx_eq;

    #[test]
    fn portfolio_reaches_figure5_optimum() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let sol = Portfolio::new(1)
            .solve(&pipe, &pf, Objective::MinFpUnderLatency(22.0))
            .expect("feasible");
        assert_approx_eq!(sol.failure_prob, 1.0 - 0.9 * (1.0 - 0.8f64.powi(10)));
    }

    #[test]
    fn run_all_reports_each_member() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let all = Portfolio::new(1).run_all(&pipe, &pf, Objective::MinFpUnderLatency(22.0));
        let names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "single-interval",
                "split-dp",
                "local-search",
                "annealing",
                "random-search"
            ]
        );
        // split-dp present because Figure 5 is comm-homogeneous; on Figure 4
        // (het links) it must be absent.
        let het = rpwf_gen::figure4_platform();
        let pipe34 = rpwf_gen::figure3_pipeline();
        let all = Portfolio::new(1).run_all(&pipe34, &het, Objective::MinFpUnderLatency(200.0));
        assert!(all.iter().all(|(n, _)| *n != "split-dp"));
    }

    #[test]
    fn race_with_unlimited_budget_is_exact_on_figure5() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let report = Portfolio::new(1).race(
            &pipe,
            &pf,
            Objective::MinFpUnderLatency(22.0),
            &Budget::unlimited(),
        );
        assert!(report.exact_attempted);
        assert!(report.exact_complete, "bitmask DP must finish unbudgeted");
        assert_eq!(report.solver, SolverKind::Exact);
        let sol = report.best.expect("feasible");
        assert_approx_eq!(sol.failure_prob, 1.0 - 0.9 * (1.0 - 0.8f64.powi(10)));
    }

    #[test]
    fn race_with_expired_budget_falls_back_to_heuristics() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let objective = Objective::MinFpUnderLatency(22.0);
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let report = Portfolio::new(1).race(&pipe, &pf, objective, &budget);
        assert!(report.exact_attempted);
        assert!(
            !report.exact_complete,
            "expired budget must cut the exact solver off"
        );
        let sol = report.best.expect("heuristics find the Figure 5 optimum");
        assert!(objective.feasible(sol.latency, sol.failure_prob));
    }

    #[test]
    fn race_without_exact_backend_uses_heuristics() {
        // 18 processors with heterogeneous links: no exact backend applies.
        let mut speeds = vec![10.0; 18];
        speeds[0] = 1.0;
        let pipe = rpwf_gen::figure5_pipeline();
        let mut builder = rpwf_core::platform::PlatformBuilder::new(18)
            .speeds(speeds)
            .unwrap()
            .failure_probs(vec![0.3; 18])
            .unwrap();
        use rpwf_core::platform::{ProcId, Vertex};
        let verts: Vec<Vertex> = (0..18)
            .map(|i| Vertex::Proc(ProcId::new(i)))
            .chain([Vertex::In, Vertex::Out])
            .collect();
        for (i, &a) in verts.iter().enumerate() {
            for &b in verts.iter().skip(i + 1) {
                let bw = 1.0 + (i % 3) as f64;
                builder = builder.bandwidth(a, b, bw);
            }
        }
        let pf = builder.build().unwrap();
        let report = Portfolio::new(7).race(
            &pipe,
            &pf,
            Objective::MinFpUnderLatency(1e9),
            &Budget::unlimited(),
        );
        assert!(!report.exact_attempted);
        assert_eq!(report.solver, SolverKind::Heuristic);
        assert!(report.best.is_some());
    }

    #[test]
    fn expired_budget_marks_the_portfolio_cutoff() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let objective = Objective::MinFpUnderLatency(22.0);
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        let outcome = Portfolio::new(1).solve_with_budget(&pipe, &pf, objective, &expired);
        assert!(
            !outcome.is_complete(),
            "truncated heuristics must be reported as a cutoff"
        );
        let complete =
            Portfolio::new(1).solve_with_budget(&pipe, &pf, objective, &Budget::unlimited());
        assert!(complete.is_complete());
        assert_eq!(
            complete.into_inner(),
            Portfolio::new(1).solve(&pipe, &pf, objective)
        );
    }

    #[test]
    fn race_reports_heuristic_cutoff_for_cache_decisions() {
        // 18 heterogeneous processors: no exact backend, so the report's
        // only quality signal is heuristic completeness.
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let objective = Objective::MinFpUnderLatency(22.0);
        let complete = Portfolio::new(1).race(&pipe, &pf, objective, &Budget::unlimited());
        assert!(complete.heuristic_complete);
        let cut = Portfolio::new(1).race(
            &pipe,
            &pf,
            objective,
            &Budget::with_deadline(std::time::Duration::ZERO),
        );
        assert!(
            !cut.heuristic_complete,
            "an expired budget must mark the heuristic side cut off"
        );
    }

    #[test]
    fn portfolio_none_when_infeasible() {
        let pipe = Pipeline::uniform(1, 100.0, 100.0).unwrap();
        let pf = Platform::fully_homogeneous(2, 1.0, 1.0, 0.9).unwrap();
        assert!(Portfolio::new(3)
            .solve(&pipe, &pf, Objective::MinFpUnderLatency(0.5))
            .is_none());
    }
}
