//! Answer checks. Every failed check counts against `ok_share`.

use rpwf_algo::front::threshold_read;
use rpwf_algo::Objective;
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::metrics::{failure_probability, latency};
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::Platform;
use rpwf_core::stage::Pipeline;
use rpwf_server::protocol::SolveResult;
use rpwf_server::Response;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// A `Solve` answer that must be feasible: its mapping, re-evaluated with
/// the paper's formulas, has the reported latency and failure probability
/// and meets the bound.
pub fn feasible_solve(
    resp: &Response,
    pipeline: &Pipeline,
    platform: &Platform,
    objective: Objective,
) -> Result<SolveResult, String> {
    if resp.status != "ok" {
        return Err(format!(
            "expected ok, got {} {:?}",
            resp.status,
            resp.error.as_ref().map(|e| &e.kind)
        ));
    }
    let result: SolveResult = resp
        .result
        .as_ref()
        .and_then(crate::wire::decode)
        .ok_or("undecodable Solve result")?;
    let lat = latency(&result.mapping, pipeline, platform);
    let fp = failure_probability(&result.mapping, platform);
    if !close(lat, result.latency) || !close(fp, result.failure_prob) {
        return Err(format!(
            "reported ({}, {}) but the mapping evaluates to ({lat}, {fp})",
            result.latency, result.failure_prob
        ));
    }
    if !objective.feasible(lat, fp) {
        return Err(format!("({lat}, {fp}) violates {objective:?}"));
    }
    Ok(result)
}

/// A `Solve` answer that must be an `infeasible` verdict.
pub fn infeasible_solve(resp: &Response) -> Result<(), String> {
    match &resp.error {
        Some(e) if e.kind == "infeasible" => Ok(()),
        _ => Err(format!("expected infeasible, got {}", resp.status)),
    }
}

/// A warm answer must be the threshold read of the front fetched at
/// set-up.
pub fn matches_read(
    result: &SolveResult,
    front: &ParetoFront<IntervalMapping>,
    objective: Objective,
) -> Result<(), String> {
    let read = threshold_read(front, objective).ok_or("the set-up front has no answer")?;
    if read.latency == result.latency
        && read.failure_prob == result.failure_prob
        && read.mapping.to_string() == result.mapping_display
    {
        Ok(())
    } else {
        Err(format!(
            "answer ({}, {}) differs from the front read ({}, {})",
            result.latency, result.failure_prob, read.latency, read.failure_prob
        ))
    }
}

/// The optimum a direct backend call found equals the served one: same
/// objective value on the bounded axis' partner, or both infeasible.
pub fn same_optimum(
    served: Option<&SolveResult>,
    direct: Option<(f64, f64)>,
    objective: Objective,
) -> Result<(), String> {
    match (served, direct) {
        (None, None) => Ok(()),
        (Some(s), Some((lat, fp))) => {
            let (a, b) = match objective {
                Objective::MinFpUnderLatency(_) => (s.failure_prob, fp),
                Objective::MinLatencyUnderFp(_) => (s.latency, lat),
            };
            if close(a, b) {
                Ok(())
            } else {
                Err(format!("served optimum {a} but the backend finds {b}"))
            }
        }
        (Some(_), None) => Err("served an answer the backend calls infeasible".into()),
        (None, Some(_)) => Err("served infeasible but the backend finds an answer".into()),
    }
}
