//! Exact bi-criteria Pareto fronts on Communication Homogeneous platforms
//! via dynamic programming over (stage boundary × used-processor mask).
//!
//! On comm-homogeneous platforms the equation-(1) latency is a sum of
//! **interval-local** terms (`k_j·δ_{d_j−1}/b + W_j/min s`), and the failure
//! probability multiplies interval-local survival terms. The only coupling
//! between intervals is processor disjointness — captured exactly by a
//! bitmask of used processors. The DP therefore computes, for every state
//! `(next stage i, used mask)`, the Pareto set of
//! `(latency so far, −ln success so far)` pairs; the union over final states
//! is the exact bi-objective front.
//!
//! This scales to `m ≈ 12–14` processors (vs `m ≈ 6` for the brute-force
//! oracle) and is the ground truth used to evaluate heuristics on the
//! problem the paper leaves open — Communication Homogeneous with
//! heterogeneous failures (§4.4, conjectured NP-hard).
//!
//! Complexity: `O(n² · 3^m)` transitions (submask enumeration), each O(1)
//! thanks to precomputed per-subset tables.

use crate::solution::{BiSolution, Budgeted, Objective};
use rpwf_core::budget::Budget;
use rpwf_core::error::{CoreError, Result};
use rpwf_core::eval::EvalContext;
use rpwf_core::mapping::{Interval, IntervalMapping};
use rpwf_core::num::LogProb;
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::{Platform, ProcId};
use rpwf_core::stage::Pipeline;

/// Sanity cap: `2^m` state axis.
const MAX_PROCS: usize = 20;

/// Point transitions between two budget polls. One DP cell can extend
/// each of its points along `n·2^m` submask transitions, so polling per
/// cell could overshoot a deadline by a whole cell.
const POLL_STRIDE: u64 = 1 << 14;

/// Compact partial solution: per interval, `(end stage, replica mask)`.
type PartialAlloc = Vec<(u8, u32)>;

/// Exact Pareto front over all interval mappings, by bitmask DP.
///
/// # Errors
/// [`CoreError::NotCommHomogeneous`] on heterogeneous links.
///
/// # Panics
/// When `m > 20` (state space `2^m` would be excessive).
pub fn pareto_front_comm_homog(
    pipeline: &Pipeline,
    platform: &Platform,
) -> Result<ParetoFront<IntervalMapping>> {
    Ok(pareto_front_comm_homog_with_budget(pipeline, platform, &Budget::unlimited())?.into_inner())
}

/// Budgeted variant of [`pareto_front_comm_homog`]. A limited budget is
/// polled before the first transition and then at a fixed stride of
/// point transitions (16,384); on exhaustion the final states
/// reached so far are collected, so a [`Budgeted::Cutoff`] front is a
/// sound under-approximation (every point is a real, complete mapping).
///
/// # Errors
/// [`CoreError::NotCommHomogeneous`] on heterogeneous links.
///
/// # Panics
/// When `m > 20` (state space `2^m` would be excessive).
pub fn pareto_front_comm_homog_with_budget(
    pipeline: &Pipeline,
    platform: &Platform,
    budget: &Budget,
) -> Result<Budgeted<ParetoFront<IntervalMapping>>> {
    let b = platform
        .uniform_bandwidth()
        .ok_or(CoreError::NotCommHomogeneous)?;
    let n = pipeline.n_stages();
    let m = platform.n_procs();
    assert!(
        m <= MAX_PROCS,
        "bitmask DP supports at most {MAX_PROCS} processors"
    );
    let full: u32 = if m == 32 { u32::MAX } else { (1u32 << m) - 1 };

    // Per-subset tables: min speed, Σ ln fp, −ln(1 − Π fp). Both fold
    // tables share the lowest-bit recurrence, so building them is O(2^m)
    // rather than O(2^m · m); the per-processor `ln fp_u` terms come
    // cached from the shared evaluation context.
    let ctx = EvalContext::new(pipeline, platform);
    let n_subsets = 1usize << m;
    let mut min_speed = vec![f64::INFINITY; n_subsets];
    let mut ln_all_fail = vec![0.0f64; n_subsets];
    let mut fp_cost = vec![0.0f64; n_subsets];
    for mask in 1u32..(n_subsets as u32) {
        let low = mask.trailing_zeros() as usize;
        let rest = mask & (mask - 1);
        let s_low = platform.speed(ProcId::new(low));
        min_speed[mask as usize] = if rest == 0 {
            s_low
        } else {
            min_speed[rest as usize].min(s_low)
        };
        ln_all_fail[mask as usize] = ln_all_fail[rest as usize] + ctx.ln_failure(ProcId::new(low));
        fp_cost[mask as usize] = -LogProb::from_ln(ln_all_fail[mask as usize])
            .one_minus()
            .ln();
    }

    // states[i][mask] = Pareto front of (lat, fp_cost) with the partial
    // allocation as payload. Laid out as a flat vector.
    let idx = |i: usize, mask: u32| -> usize { i * n_subsets + mask as usize };
    let mut states: Vec<ParetoFront<PartialAlloc>> = (0..(n + 1) * n_subsets)
        .map(|_| ParetoFront::new())
        .collect();
    states[idx(0, 0)].insert(0.0, 0.0, Vec::new());

    let limited = budget.is_limited();
    let mut aborted = false;
    // Point transitions made so far, and the count at which the next
    // poll is due; counted only under a limited budget.
    let (mut transitions, mut next_poll) = (0u64, 0u64);
    'dp: for i in 0..n {
        for mask in 0..(n_subsets as u32) {
            if states[idx(i, mask)].is_empty() {
                continue;
            }
            // Snapshot the source front (transitions write other cells).
            let source = std::mem::take(&mut states[idx(i, mask)]);
            let free = full & !mask;
            for e in i..n {
                let work: f64 = pipeline.work_sum(i, e);
                let input = pipeline.delta(i);
                // Enumerate non-empty submasks of `free`.
                let mut sub = free;
                while sub != 0 {
                    if limited {
                        if transitions >= next_poll {
                            if budget.is_exhausted() {
                                aborted = true;
                                break 'dp;
                            }
                            next_poll = transitions + POLL_STRIDE;
                        }
                        transitions += source.len() as u64;
                    }
                    let k = sub.count_ones() as f64;
                    let lat_step = k * input / b + work / min_speed[sub as usize];
                    let fp_step = fp_cost[sub as usize];
                    let target = idx(e + 1, mask | sub);
                    for pt in source.iter() {
                        states[target].insert_with(
                            pt.latency + lat_step,
                            pt.failure_prob + fp_step,
                            || {
                                let mut alloc = pt.payload.clone();
                                alloc.push((e as u8, sub));
                                alloc
                            },
                        );
                    }
                    sub = (sub - 1) & free;
                }
            }
            // Keep the source front: final states at i == n are collected
            // below, and other code may query intermediate fronts later.
            states[idx(i, mask)] = source;
        }
    }

    // Collect final states; add the closing δn/b and convert fp_cost → FP.
    let out_comm = pipeline.output_size() / b;
    let mut front: ParetoFront<IntervalMapping> = ParetoFront::new();
    for mask in 0..(n_subsets as u32) {
        for pt in states[idx(n, mask)].iter() {
            let latency = pt.latency + out_comm;
            let fp = -(-pt.failure_prob).exp_m1();
            front.insert_with(latency, fp, || decode(&pt.payload, n, m));
        }
    }
    Ok(if aborted {
        Budgeted::Cutoff(front)
    } else {
        Budgeted::Complete(front)
    })
}

/// Threshold query on the DP front.
///
/// # Errors
/// Propagates [`pareto_front_comm_homog`].
pub fn solve_comm_homog(
    pipeline: &Pipeline,
    platform: &Platform,
    objective: Objective,
) -> Result<Option<BiSolution>> {
    Ok(
        solve_comm_homog_with_budget(pipeline, platform, objective, &Budget::unlimited())?
            .into_inner(),
    )
}

/// Budgeted threshold query; a [`Budgeted::Cutoff`] answer is feasible
/// but possibly suboptimal (drawn from the partial DP front).
///
/// # Errors
/// Propagates [`pareto_front_comm_homog_with_budget`].
pub fn solve_comm_homog_with_budget(
    pipeline: &Pipeline,
    platform: &Platform,
    objective: Objective,
    budget: &Budget,
) -> Result<Budgeted<Option<BiSolution>>> {
    let outcome = pareto_front_comm_homog_with_budget(pipeline, platform, budget)?;
    let complete = outcome.is_complete();
    let front = outcome.into_inner();
    let cutoff = objective.threshold_with_slack();
    let point = match objective {
        Objective::MinFpUnderLatency(_) => front.min_fp_under_latency(cutoff),
        Objective::MinLatencyUnderFp(_) => front.min_latency_under_fp(cutoff),
    };
    let sol = point.map(|pt| BiSolution {
        mapping: pt.payload.clone(),
        latency: pt.latency,
        failure_prob: pt.failure_prob,
    });
    Ok(if complete {
        Budgeted::Complete(sol)
    } else {
        Budgeted::Cutoff(sol)
    })
}

fn decode(alloc: &PartialAlloc, n: usize, m: usize) -> IntervalMapping {
    let mut intervals = Vec::with_capacity(alloc.len());
    let mut procs = Vec::with_capacity(alloc.len());
    let mut start = 0usize;
    for &(end, mask) in alloc {
        intervals.push(Interval::new(start, end as usize).expect("ordered"));
        let mut ids = Vec::with_capacity(mask.count_ones() as usize);
        let mut mm = mask;
        while mm != 0 {
            ids.push(ProcId::new(mm.trailing_zeros() as usize));
            mm &= mm - 1;
        }
        procs.push(ids);
        start = end as usize + 1;
    }
    IntervalMapping::new(intervals, procs, n, m).expect("DP produces valid mappings")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive::Exhaustive;
    use rpwf_core::assert_approx_eq;

    #[test]
    fn dp_front_matches_exhaustive_oracle() {
        let pipe = Pipeline::new(vec![3.0, 7.0, 2.0], vec![4.0, 2.0, 5.0, 1.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![1.0, 2.5, 4.0], 2.0, vec![0.5, 0.3, 0.7]).unwrap();
        let dp = pareto_front_comm_homog(&pipe, &pf).unwrap();
        let oracle = Exhaustive::new(&pipe, &pf).pareto_front();
        assert_eq!(dp.len(), oracle.len());
        for (a, b) in dp.iter().zip(oracle.iter()) {
            assert_approx_eq!(a.latency, b.latency);
            assert_approx_eq!(a.failure_prob, b.failure_prob);
        }
    }

    #[test]
    fn dp_front_matches_oracle_failure_homogeneous() {
        let pipe = Pipeline::new(vec![1.0, 9.0], vec![3.0, 3.0, 3.0]).unwrap();
        let pf = Platform::fully_homogeneous(4, 2.0, 1.5, 0.4).unwrap();
        let dp = pareto_front_comm_homog(&pipe, &pf).unwrap();
        let oracle = Exhaustive::new(&pipe, &pf).pareto_front();
        assert_eq!(dp.len(), oracle.len());
        for (a, b) in dp.iter().zip(oracle.iter()) {
            assert_approx_eq!(a.latency, b.latency);
            assert_approx_eq!(a.failure_prob, b.failure_prob);
        }
    }

    #[test]
    fn figure5_dp_finds_paper_optimum() {
        // Full Figure 5 (m = 11): the DP handles what the brute-force oracle
        // cannot.
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let sol = solve_comm_homog(&pipe, &pf, Objective::MinFpUnderLatency(22.0))
            .unwrap()
            .expect("feasible at L = 22");
        assert_approx_eq!(sol.latency, 22.0);
        let expected_fp = 1.0 - 0.9 * (1.0 - 0.8f64.powi(10));
        assert_approx_eq!(sol.failure_prob, expected_fp);
        assert!(sol.failure_prob < 0.2, "paper: FP < 0.2");
        // And the best single interval at the same threshold is 0.64 —
        // strictly worse.
        assert_eq!(sol.mapping.n_intervals(), 2);
    }

    #[test]
    fn budgeted_complete_matches_plain() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let objective = Objective::MinFpUnderLatency(22.0);
        let plain = solve_comm_homog(&pipe, &pf, objective).unwrap();
        let budgeted = solve_comm_homog_with_budget(
            &pipe,
            &pf,
            objective,
            &rpwf_core::budget::Budget::unlimited(),
        )
        .unwrap();
        assert!(budgeted.is_complete());
        assert_eq!(budgeted.into_inner(), plain);
    }

    #[test]
    fn expired_budget_reports_cutoff_with_sound_points() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let budget = rpwf_core::budget::Budget::with_deadline(std::time::Duration::ZERO);
        let outcome = pareto_front_comm_homog_with_budget(&pipe, &pf, &budget).unwrap();
        assert!(!outcome.is_complete());
        for pt in outcome.inner().iter() {
            let re = crate::solution::BiSolution::evaluate(pt.payload.clone(), &pipe, &pf);
            assert_approx_eq!(re.latency, pt.latency);
            assert_approx_eq!(re.failure_prob, pt.failure_prob);
        }
    }

    #[test]
    fn a_budget_cancelled_before_the_call_stops_before_any_transition() {
        // CH n = 40, m = 12: the first cell alone holds 40 · 4095 submask
        // transitions.
        let inst = rpwf_gen::make_instance(
            rpwf_core::platform::PlatformClass::CommHomogeneous,
            rpwf_core::platform::FailureClass::Heterogeneous,
            40,
            12,
            5,
        );
        let (budget, cancel) = Budget::unlimited().cancellable();
        cancel.cancel();
        let outcome =
            pareto_front_comm_homog_with_budget(&inst.pipeline, &inst.platform, &budget).unwrap();
        assert!(!outcome.is_complete());
        assert!(
            outcome.inner().is_empty(),
            "{} points",
            outcome.inner().len()
        );
    }

    #[test]
    fn rejects_heterogeneous_links() {
        let pipe = Pipeline::uniform(2, 1.0, 1.0).unwrap();
        let pf = rpwf_gen::figure4_platform();
        assert_eq!(
            pareto_front_comm_homog(&pipe, &pf).unwrap_err(),
            CoreError::NotCommHomogeneous
        );
    }

    #[test]
    fn infeasible_thresholds_return_none() {
        let pipe = Pipeline::uniform(2, 100.0, 100.0).unwrap();
        let pf = Platform::fully_homogeneous(2, 1.0, 1.0, 0.9).unwrap();
        assert!(
            solve_comm_homog(&pipe, &pf, Objective::MinFpUnderLatency(1.0))
                .unwrap()
                .is_none()
        );
        assert!(
            solve_comm_homog(&pipe, &pf, Objective::MinLatencyUnderFp(0.5))
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn front_extremes_match_theorems_1_and_2() {
        let pipe = Pipeline::new(vec![2.0, 6.0], vec![1.0, 2.0, 1.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![4.0, 2.0, 1.0], 1.0, vec![0.2, 0.5, 0.6]).unwrap();
        let front = pareto_front_comm_homog(&pipe, &pf).unwrap();
        // Leftmost point = Theorem 2 optimum (fastest single processor).
        let fastest = front.points().first().unwrap();
        assert_approx_eq!(fastest.latency, 1.0 + 8.0 / 4.0 + 1.0);
        // Rightmost-FP point = Theorem 1 optimum (replicate all).
        let safest = front.points().last().unwrap();
        assert_approx_eq!(safest.failure_prob, 0.2 * 0.5 * 0.6);
    }
}
