//! E15 — incremental vs full neighbor evaluation (writes
//! `BENCH_eval.json`).
//!
//! Two measurements per instance class:
//!
//! * **steps/sec** — raw neighbor-evaluation throughput: the full path
//!   materializes every neighbor (`neighbors()` + `BiSolution::evaluate`)
//!   exactly like the pre-incremental heuristics did; the incremental
//!   path streams `Move`s through a `DeltaEval` (apply → score → revert).
//! * **end-to-end** — wall time of `LocalSearch::solve` and
//!   `Annealing::solve` (now running on the incremental engine) against
//!   frozen copies of their pre-incremental implementations, asserting
//!   the final `(latency, FP)` answers are **identical** — the engine is
//!   a pure speedup, not a behavior change.
//!
//! Smoke mode (`--smoke`, used in CI) runs tiny instances in milliseconds
//! so the harness cannot rot; full mode covers the paper's platform
//! classes up to the acceptance target n=50, m=20 fully heterogeneous.

use crate::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpwf_algo::heuristics::neighborhood::{neighbors, random_mapping, random_neighbor, MoveStream};
use rpwf_algo::heuristics::{Annealing, LocalSearch};
use rpwf_algo::{BiSolution, Objective};
use rpwf_core::eval::{DeltaEval, EvalContext};
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::platform::{FailureClass, Platform, PlatformClass};
use rpwf_core::stage::Pipeline;
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Scenario {
    name: &'static str,
    class: PlatformClass,
    n: usize,
    m: usize,
}

struct Measurement {
    name: String,
    n: usize,
    m: usize,
    full_steps_per_sec: f64,
    incr_steps_per_sec: f64,
    speedup: f64,
    ls_legacy_ms: f64,
    ls_incr_ms: f64,
    sa_legacy_ms: f64,
    sa_incr_ms: f64,
    results_match: bool,
}

/// Runs E15 and returns the result tables (also writes
/// `BENCH_eval.json` to the working directory). `smoke` shrinks the
/// instances and measurement windows to CI size.
#[must_use]
pub fn eval_incremental(smoke: bool) -> Vec<Table> {
    let scenarios: &[Scenario] = if smoke {
        &[
            Scenario {
                name: "smoke-ch-n6-m4",
                class: PlatformClass::CommHomogeneous,
                n: 6,
                m: 4,
            },
            Scenario {
                name: "smoke-het-n8-m5",
                class: PlatformClass::FullyHeterogeneous,
                n: 8,
                m: 5,
            },
        ]
    } else {
        &[
            Scenario {
                name: "ch-n20-m10",
                class: PlatformClass::CommHomogeneous,
                n: 20,
                m: 10,
            },
            Scenario {
                name: "het-n30-m12",
                class: PlatformClass::FullyHeterogeneous,
                n: 30,
                m: 12,
            },
            Scenario {
                name: "het-n50-m20",
                class: PlatformClass::FullyHeterogeneous,
                n: 50,
                m: 20,
            },
        ]
    };

    let window = if smoke {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(300)
    };

    let mut measurements = Vec::new();
    for sc in scenarios {
        measurements.push(run_scenario(sc, window, smoke));
    }

    let mut table = Table::new(
        "E15 / incremental evaluation — full vs delta neighbor scoring",
        &[
            "scenario",
            "n",
            "m",
            "full steps/s",
            "incr steps/s",
            "speedup",
            "LS full ms",
            "LS incr ms",
            "SA full ms",
            "SA incr ms",
            "same results",
        ],
    );
    for m in &measurements {
        table.row(vec![
            m.name.clone(),
            m.n.to_string(),
            m.m.to_string(),
            format!("{:.0}", m.full_steps_per_sec),
            format!("{:.0}", m.incr_steps_per_sec),
            format!("{:.1}x", m.speedup),
            format!("{:.1}", m.ls_legacy_ms),
            format!("{:.1}", m.ls_incr_ms),
            format!("{:.1}", m.sa_legacy_ms),
            format!("{:.1}", m.sa_incr_ms),
            m.results_match.to_string(),
        ]);
    }
    table.note(
        "steps/s = neighbor evaluations per second; full materializes every \
         neighbor and re-evaluates both objectives from scratch, incr \
         delta-scores moves in place (bit-identical values)",
    );
    table.note(
        "LS/SA columns: end-to-end solve wall time of the frozen full-eval \
         implementations vs the shipped incremental ones; 'same results' \
         asserts identical final (latency, FP) on every scenario",
    );

    write_json(&measurements);
    vec![table]
}

fn run_scenario(sc: &Scenario, window: Duration, smoke: bool) -> Measurement {
    let inst = rpwf_gen::make_instance(sc.class, FailureClass::Heterogeneous, sc.n, sc.m, 1);
    let (pipeline, platform) = (&inst.pipeline, &inst.platform);
    let mut rng = StdRng::seed_from_u64(42);
    let mapping = random_mapping(sc.n, sc.m, &mut rng);

    // -- Raw neighbor-evaluation throughput -------------------------------
    let full_steps_per_sec = {
        let start = Instant::now();
        let mut steps = 0u64;
        loop {
            for nb in neighbors(&mapping, sc.m) {
                black_box(BiSolution::evaluate(nb, pipeline, platform).latency);
                steps += 1;
            }
            if start.elapsed() >= window {
                break;
            }
        }
        steps as f64 / start.elapsed().as_secs_f64()
    };
    let incr_steps_per_sec = {
        let ctx = EvalContext::new(pipeline, platform);
        let mut de = DeltaEval::new(&ctx, &mapping);
        let start = Instant::now();
        let mut steps = 0u64;
        loop {
            let mut stream = MoveStream::new();
            while let Some(mv) = stream.next(&de) {
                black_box(de.apply(mv).latency);
                de.revert();
                steps += 1;
            }
            if start.elapsed() >= window {
                break;
            }
        }
        steps as f64 / start.elapsed().as_secs_f64()
    };

    // -- End-to-end heuristic wall time, legacy vs incremental ------------
    let objective = Objective::MinLatencyUnderFp(0.5);
    let ls = if smoke {
        LocalSearch {
            random_restarts: 2,
            max_steps: 30,
            ..LocalSearch::default()
        }
    } else {
        LocalSearch {
            random_restarts: 4,
            max_steps: 100,
            ..LocalSearch::default()
        }
    };
    let sa = if smoke {
        Annealing {
            epochs: 10,
            moves_per_epoch: 20,
            ..Annealing::default()
        }
    } else {
        Annealing::default()
    };

    let t = Instant::now();
    let ls_legacy = legacy_local_search(&ls, pipeline, platform, objective);
    let ls_legacy_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let ls_incr = ls.solve(pipeline, platform, objective);
    let ls_incr_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let sa_legacy = legacy_annealing(&sa, pipeline, platform, objective);
    let sa_legacy_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let sa_incr = sa.solve(pipeline, platform, objective);
    let sa_incr_ms = t.elapsed().as_secs_f64() * 1e3;

    let results_match = same_answer(&ls_legacy, &ls_incr) && same_answer(&sa_legacy, &sa_incr);
    assert!(
        results_match,
        "{}: incremental heuristics must reproduce the legacy answers \
         (LS {:?} vs {:?}; SA {:?} vs {:?})",
        sc.name,
        ls_legacy.as_ref().map(|s| (s.latency, s.failure_prob)),
        ls_incr.as_ref().map(|s| (s.latency, s.failure_prob)),
        sa_legacy.as_ref().map(|s| (s.latency, s.failure_prob)),
        sa_incr.as_ref().map(|s| (s.latency, s.failure_prob)),
    );

    Measurement {
        name: sc.name.to_string(),
        n: sc.n,
        m: sc.m,
        full_steps_per_sec,
        incr_steps_per_sec,
        speedup: incr_steps_per_sec / full_steps_per_sec.max(1e-9),
        ls_legacy_ms,
        ls_incr_ms,
        sa_legacy_ms,
        sa_incr_ms,
        results_match,
    }
}

fn same_answer(a: &Option<BiSolution>, b: &Option<BiSolution>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.mapping == b.mapping
                && a.latency.to_bits() == b.latency.to_bits()
                && a.failure_prob.to_bits() == b.failure_prob.to_bits()
        }
        _ => false,
    }
}

/// Frozen copy of the pre-incremental `LocalSearch::solve`: materializes
/// every neighbor and fully re-evaluates it. Baseline only — do not use
/// outside this experiment.
fn legacy_local_search(
    cfg: &LocalSearch,
    pipeline: &Pipeline,
    platform: &Platform,
    objective: Objective,
) -> Option<BiSolution> {
    let n = pipeline.n_stages();
    let m = platform.n_procs();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut starts: Vec<IntervalMapping> = Vec::new();
    starts.push(
        IntervalMapping::single_interval(n, platform.procs().collect(), m).expect("valid start"),
    );
    starts.push(
        IntervalMapping::single_interval(n, vec![platform.fastest_proc()], m).expect("valid start"),
    );
    let half = m.div_ceil(2);
    starts.push(
        IntervalMapping::single_interval(
            n,
            platform.procs_by_reliability_desc()[..half].to_vec(),
            m,
        )
        .expect("valid start"),
    );
    for _ in 0..cfg.random_restarts {
        starts.push(random_mapping(n, m, &mut rng));
    }

    let mut best: Option<BiSolution> = None;
    for start in starts {
        let mut current = BiSolution::evaluate(start, pipeline, platform);
        for _ in 0..cfg.max_steps {
            let mut improved = false;
            for nb in neighbors(&current.mapping, m) {
                let cand = BiSolution::evaluate(nb, pipeline, platform);
                if objective.better(&cand, &current) {
                    current = cand;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        if objective.feasible(current.latency, current.failure_prob)
            && best.as_ref().is_none_or(|b| objective.better(&current, b))
        {
            best = Some(current);
        }
    }
    best
}

/// Frozen copy of the pre-incremental `Annealing::solve`. Baseline only.
fn legacy_annealing(
    cfg: &Annealing,
    pipeline: &Pipeline,
    platform: &Platform,
    objective: Objective,
) -> Option<BiSolution> {
    fn energy(objective: Objective, sol: &BiSolution, ref_latency: f64, penalty: f64) -> f64 {
        match objective {
            Objective::MinFpUnderLatency(l) => {
                let violation = ((sol.latency - l) / l.max(1e-12)).max(0.0);
                sol.failure_prob + penalty * violation
            }
            Objective::MinLatencyUnderFp(f) => {
                let violation = ((sol.failure_prob - f) / f.max(1e-12)).max(0.0);
                sol.latency / ref_latency.max(1e-12) + penalty * violation
            }
        }
    }

    let n = pipeline.n_stages();
    let m = platform.n_procs();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let start = random_mapping(n, m, &mut rng);
    let mut current = BiSolution::evaluate(start, pipeline, platform);
    let ref_latency = current.latency.max(1e-12);
    let mut current_energy = energy(objective, &current, ref_latency, cfg.penalty);

    let mut best: Option<BiSolution> = None;
    let consider_best = |sol: &BiSolution, best: &mut Option<BiSolution>| {
        if objective.feasible(sol.latency, sol.failure_prob)
            && best.as_ref().is_none_or(|b| objective.better(sol, b))
        {
            *best = Some(sol.clone());
        }
    };
    consider_best(&current, &mut best);

    let mut temperature = cfg.t0;
    for _ in 0..cfg.epochs {
        for _ in 0..cfg.moves_per_epoch {
            let Some(nb) = random_neighbor(&current.mapping, m, &mut rng) else {
                break;
            };
            let cand = BiSolution::evaluate(nb, pipeline, platform);
            let cand_energy = energy(objective, &cand, ref_latency, cfg.penalty);
            let accept = cand_energy <= current_energy
                || rng.gen::<f64>() < ((current_energy - cand_energy) / temperature).exp();
            if accept {
                current = cand;
                current_energy = cand_energy;
                consider_best(&current, &mut best);
            }
        }
        temperature *= cfg.cooling;
    }
    best
}

fn write_json(measurements: &[Measurement]) {
    let doc = serde::Value::Seq(
        measurements
            .iter()
            .map(|m| {
                serde::Value::Map(vec![
                    ("scenario".into(), serde::Value::Str(m.name.clone())),
                    ("n".into(), serde::Value::UInt(m.n as u64)),
                    ("m".into(), serde::Value::UInt(m.m as u64)),
                    (
                        "full_steps_per_sec".into(),
                        serde::Value::Float(m.full_steps_per_sec),
                    ),
                    (
                        "incr_steps_per_sec".into(),
                        serde::Value::Float(m.incr_steps_per_sec),
                    ),
                    ("speedup".into(), serde::Value::Float(m.speedup)),
                    ("ls_legacy_ms".into(), serde::Value::Float(m.ls_legacy_ms)),
                    ("ls_incr_ms".into(), serde::Value::Float(m.ls_incr_ms)),
                    ("sa_legacy_ms".into(), serde::Value::Float(m.sa_legacy_ms)),
                    ("sa_incr_ms".into(), serde::Value::Float(m.sa_incr_ms)),
                    ("results_match".into(), serde::Value::Bool(m.results_match)),
                ])
            })
            .collect(),
    );
    let text = serde_json::to_string_pretty(&doc).expect("serializes");
    if let Err(e) = std::fs::write("BENCH_eval.json", text) {
        eprintln!("warning: could not write BENCH_eval.json: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpwf_algo::heuristics::neighborhood::move_count;

    #[test]
    fn smoke_mode_runs_and_matches_legacy_results() {
        let tables = eval_incremental(true);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2);
        let same = tables[0]
            .headers
            .iter()
            .position(|h| h == "same results")
            .expect("same-results column");
        for row in &tables[0].rows {
            // run_scenario asserts result equality internally; the table
            // must reflect it.
            assert_eq!(row[same], "true", "{row:?}");
            let speedup: f64 = row[5].trim_end_matches('x').parse().expect("speedup");
            assert!(speedup.is_finite() && speedup > 0.0, "{row:?}");
        }
        let _ = std::fs::remove_file("BENCH_eval.json");
    }

    #[test]
    fn move_stream_covers_the_whole_neighborhood_on_bench_instances() {
        let inst = rpwf_gen::make_instance(
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
            8,
            5,
            1,
        );
        let mut rng = StdRng::seed_from_u64(42);
        let mapping = random_mapping(8, 5, &mut rng);
        let ctx = EvalContext::new(&inst.pipeline, &inst.platform);
        let de = DeltaEval::new(&ctx, &mapping);
        assert_eq!(move_count(&de), neighbors(&mapping, 5).len());
    }
}
