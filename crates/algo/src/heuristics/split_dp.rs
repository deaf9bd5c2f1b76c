//! Contiguous-order DP heuristic for Communication Homogeneous platforms
//! with heterogeneous failures (the paper's open problem, §4.4).
//!
//! Fix a total order π of the processors; restrict attention to mappings
//! whose replica sets are **contiguous blocks of π**, consumed left to
//! right. Under equation (1), interval costs are local, so the restricted
//! problem is an exact Pareto DP over states `(next stage, next processor
//! index)` — `O(n²·m²)` instead of the unrestricted `O(n²·3^m)`.
//! The restriction is the heuristic: an optimal mapping may interleave
//! processors arbitrarily. Running several orders (speed, reliability, and
//! a reliability-per-cost score) and merging their fronts recovers most of
//! the gap in practice — quantified against the exact bitmask DP in
//! experiment E10.

use crate::solution::{BiSolution, Objective};
use rpwf_core::error::{CoreError, Result};
use rpwf_core::mapping::{Interval, IntervalMapping};
use rpwf_core::num::LogProb;
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::{Platform, ProcId};
use rpwf_core::stage::Pipeline;

/// Per-interval block in the compact DP payload: `(end stage, block len)`.
type Blocks = Vec<(u8, u8)>;

/// The Pareto front reachable with replica sets contiguous in `order`.
///
/// # Errors
/// [`CoreError::NotCommHomogeneous`] on heterogeneous links.
pub fn pareto_front_for_order(
    pipeline: &Pipeline,
    platform: &Platform,
    order: &[ProcId],
) -> Result<ParetoFront<IntervalMapping>> {
    let b = platform
        .uniform_bandwidth()
        .ok_or(CoreError::NotCommHomogeneous)?;
    let n = pipeline.n_stages();
    let m = order.len();

    // Prefix tables over the order: min speed and fp-cost of each block
    // order[t..t+k] are computed on the fly from per-position values.
    let speeds: Vec<f64> = order.iter().map(|&p| platform.speed(p)).collect();
    let fps: Vec<f64> = order.iter().map(|&p| platform.failure_prob(p)).collect();

    // states[(i, t)] = Pareto front of (latency, fp_cost) with payload the
    // block list so far.
    let idx = |i: usize, t: usize| i * (m + 1) + t;
    let mut states: Vec<ParetoFront<Blocks>> =
        (0..(n + 1) * (m + 1)).map(|_| ParetoFront::new()).collect();
    states[idx(0, 0)].insert(0.0, 0.0, Vec::new());

    for i in 0..n {
        for t in 0..m {
            if states[idx(i, t)].is_empty() {
                continue;
            }
            let source = std::mem::take(&mut states[idx(i, t)]);
            for e in i..n {
                let work = pipeline.work_sum(i, e);
                let input = pipeline.delta(i);
                let mut min_speed = f64::INFINITY;
                let mut all_fail = LogProb::ONE;
                for k in 1..=(m - t) {
                    min_speed = min_speed.min(speeds[t + k - 1]);
                    all_fail = all_fail * LogProb::from_prob(fps[t + k - 1]);
                    let lat_step = k as f64 * input / b + work / min_speed;
                    let fp_step = -all_fail.one_minus().ln();
                    let target = idx(e + 1, t + k);
                    for pt in source.iter() {
                        states[target].insert_with(
                            pt.latency + lat_step,
                            pt.failure_prob + fp_step,
                            || {
                                let mut blocks = pt.payload.clone();
                                blocks.push((e as u8, k as u8));
                                blocks
                            },
                        );
                    }
                }
            }
            states[idx(i, t)] = source;
        }
    }

    let out_comm = pipeline.output_size() / b;
    let mut front = ParetoFront::new();
    for t in 1..=m {
        for pt in states[idx(n, t)].iter() {
            front.insert_with(pt.latency + out_comm, -(-pt.failure_prob).exp_m1(), || {
                decode(&pt.payload, order, n, platform.n_procs())
            });
        }
    }
    Ok(front)
}

/// Merged front over the default order portfolio: speed-descending,
/// reliability-descending, and `−ln(fp)·s` score-descending.
///
/// # Errors
/// [`CoreError::NotCommHomogeneous`] on heterogeneous links.
pub fn pareto_front(
    pipeline: &Pipeline,
    platform: &Platform,
) -> Result<ParetoFront<IntervalMapping>> {
    let mut front = ParetoFront::new();
    for order in default_orders(platform) {
        front.merge(pareto_front_for_order(pipeline, platform, &order)?);
    }
    Ok(front)
}

/// Threshold query on the merged portfolio front.
///
/// # Errors
/// [`CoreError::NotCommHomogeneous`] on heterogeneous links.
pub fn solve(
    pipeline: &Pipeline,
    platform: &Platform,
    objective: Objective,
) -> Result<Option<BiSolution>> {
    let front = pareto_front(pipeline, platform)?;
    let cutoff = objective.threshold_with_slack();
    let pt = match objective {
        Objective::MinFpUnderLatency(_) => front.min_fp_under_latency(cutoff),
        Objective::MinLatencyUnderFp(_) => front.min_latency_under_fp(cutoff),
    };
    Ok(pt.map(|pt| BiSolution {
        mapping: pt.payload.clone(),
        latency: pt.latency,
        failure_prob: pt.failure_prob,
    }))
}

/// The order portfolio used by [`pareto_front`].
#[must_use]
pub fn default_orders(platform: &Platform) -> Vec<Vec<ProcId>> {
    let mut by_score: Vec<ProcId> = platform.procs().collect();
    by_score.sort_by(|a, b| {
        let score =
            |p: ProcId| -LogProb::from_prob(platform.failure_prob(p)).ln() * platform.speed(p);
        score(*b).total_cmp(&score(*a)).then(a.0.cmp(&b.0))
    });
    vec![
        platform.procs_by_speed_desc(),
        platform.procs_by_reliability_desc(),
        by_score,
    ]
}

fn decode(blocks: &Blocks, order: &[ProcId], n: usize, n_procs: usize) -> IntervalMapping {
    let mut intervals = Vec::with_capacity(blocks.len());
    let mut alloc = Vec::with_capacity(blocks.len());
    let mut start = 0usize;
    let mut t = 0usize;
    for &(end, k) in blocks {
        intervals.push(Interval::new(start, end as usize).expect("ordered"));
        alloc.push(order[t..t + k as usize].to_vec());
        start = end as usize + 1;
        t += k as usize;
    }
    IntervalMapping::new(intervals, alloc, n, n_procs).expect("DP blocks are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::bitmask_dp;
    use rpwf_core::assert_approx_eq;

    #[test]
    fn figure5_split_dp_finds_paper_optimum() {
        // In Figure 5 the optimal mapping is contiguous in the reliability
        // order (slow reliable processor first, then the fast ones), so the
        // heuristic is exact there.
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let sol = solve(&pipe, &pf, Objective::MinFpUnderLatency(22.0))
            .unwrap()
            .expect("feasible");
        assert_approx_eq!(sol.latency, 22.0);
        assert_approx_eq!(sol.failure_prob, 1.0 - 0.9 * (1.0 - 0.8f64.powi(10)));
    }

    #[test]
    fn front_is_subset_of_exact_region() {
        // Heuristic points are real mappings: every point must be weakly
        // dominated by the exact front, and all values must re-evaluate.
        let pipe = Pipeline::new(vec![3.0, 7.0, 2.0], vec![4.0, 2.0, 5.0, 1.0]).unwrap();
        let pf =
            Platform::comm_homogeneous(vec![1.0, 2.5, 4.0, 2.0], 2.0, vec![0.5, 0.3, 0.7, 0.2])
                .unwrap();
        let heur = pareto_front(&pipe, &pf).unwrap();
        let exact = bitmask_dp::pareto_front_comm_homog(&pipe, &pf).unwrap();
        for pt in heur.iter() {
            assert!(
                exact
                    .iter()
                    .any(|e| e.latency <= pt.latency + 1e-9
                        && e.failure_prob <= pt.failure_prob + 1e-9),
                "heuristic point ({}, {}) outside exact region",
                pt.latency,
                pt.failure_prob
            );
            let again = BiSolution::evaluate(pt.payload.clone(), &pipe, &pf);
            assert_approx_eq!(again.latency, pt.latency);
            assert_approx_eq!(again.failure_prob, pt.failure_prob);
        }
    }

    #[test]
    fn single_order_front_is_contained_in_portfolio_front() {
        let pipe = Pipeline::new(vec![1.0, 9.0], vec![3.0, 3.0, 3.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![4.0, 2.0, 1.0], 1.5, vec![0.2, 0.5, 0.6]).unwrap();
        let order = pf.procs_by_speed_desc();
        let single = pareto_front_for_order(&pipe, &pf, &order).unwrap();
        let portfolio = pareto_front(&pipe, &pf).unwrap();
        for pt in single.iter() {
            assert!(portfolio
                .iter()
                .any(|q| q.latency <= pt.latency + 1e-12
                    && q.failure_prob <= pt.failure_prob + 1e-12));
        }
    }

    #[test]
    fn rejects_het_links() {
        let pipe = rpwf_gen::figure3_pipeline();
        let pf = rpwf_gen::figure4_platform();
        assert!(pareto_front(&pipe, &pf).is_err());
    }

    #[test]
    fn infeasible_threshold_is_none() {
        let pipe = Pipeline::uniform(2, 100.0, 100.0).unwrap();
        let pf = Platform::fully_homogeneous(3, 1.0, 1.0, 0.5).unwrap();
        assert!(solve(&pipe, &pf, Objective::MinFpUnderLatency(1.0))
            .unwrap()
            .is_none());
    }
}
