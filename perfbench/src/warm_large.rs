//! `warm_large`: one node over TCP, open loop at a fixed rate, `Solve`
//! reads off cached heuristic fronts of large fully heterogeneous
//! instances. The engine never runs in the timed phase, so parse, hash,
//! cache and reactor costs show here and solver changes must not.

use crate::check;
use crate::load::Slot;
use crate::phase::{self, Timed};
use crate::replay;
use crate::report::Report;
use crate::spans::Tracer;
use crate::util::{repeated_setup, Rng};
use crate::wire::{decode, envelope, parse_response, WireInstance};
use crate::Args;
use rpwf_algo::{Objective, Provenance};
use rpwf_core::hash::instance_key;
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::{FailureClass, PlatformClass};
use rpwf_server::cache::{CachedEntry, CachedFront, SolutionCache};
use rpwf_server::protocol::{ParetoResult, SolveResult};
use rpwf_server::{Server, ServiceConfig, SolverService};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STAGES: usize = 60;
const PROCS: usize = 40;
const INSTANCES: usize = 2;
/// Requests per second, spread over the connections.
const RATE: f64 = 400.0;
/// One load connection per event thread: back-to-back connections land on
/// distinct threads, so the stall probe covers every thread.
const CONNS: usize = 2;
const WORKERS: usize = 2;
const EVENT_THREADS: usize = CONNS;
/// Only deadline-bound requests reuse an incomplete front.
const DEADLINE_MS: u64 = 5_000;
const WARMUP: Duration = Duration::from_secs(2);
const SETUPS: usize = 3;
const REPLAY_SAMPLE: usize = 64;

struct Warm {
    server: Server,
    addr: String,
    instances: Vec<WireInstance>,
    fronts: Vec<ParetoFront<IntervalMapping>>,
}

/// Server start, instance generation, and one heuristic `Pareto` per
/// instance (in parallel), then each front point's mapping fetched with a
/// `Solve` at that point's latency. Requests go straight to the node's
/// service: through the reactor, a lost wake-up would add a random 250 ms
/// to set-up.
fn setup(seed: u64) -> Result<Warm, String> {
    let server = Server::bind_tuned(
        "127.0.0.1:0",
        ServiceConfig {
            workers: WORKERS,
            ..ServiceConfig::default()
        },
        rpwf_server::ServingOptions {
            event_threads: EVENT_THREADS,
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let instances: Vec<WireInstance> = (0..INSTANCES)
        .map(|k| {
            let inst = rpwf_gen::make_instance(
                PlatformClass::FullyHeterogeneous,
                FailureClass::Heterogeneous,
                STAGES,
                PROCS,
                seed.wrapping_mul(1_000).wrapping_add(k as u64),
            );
            WireInstance::new(inst.pipeline, inst.platform)
        })
        .collect();
    let service = server.service().as_ref();
    let paretos: Vec<Option<ParetoResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = instances
            .iter()
            .enumerate()
            .map(|(k, inst)| {
                scope.spawn(move || {
                    let line = envelope(k as u64, None, false, &inst.pareto(None));
                    let resp = call(service, &line)?;
                    decode::<ParetoResult>(resp.result.as_ref()?)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().ok().flatten())
            .collect()
    });
    let mut fronts = Vec::new();
    for (k, (inst, pareto)) in instances.iter().zip(paretos).enumerate() {
        let pareto = pareto.ok_or_else(|| format!("instance {k}: Pareto failed"))?;
        let objectives: Vec<Objective> = pareto
            .points
            .iter()
            .map(|p| Objective::MinFpUnderLatency(p.latency))
            .collect();
        let mut front = ParetoFront::new();
        for (i, (point, objective)) in pareto.points.iter().zip(objectives).enumerate() {
            let id = 1_000 + (k * 100 + i) as u64;
            let line = envelope(id, Some(DEADLINE_MS), false, &inst.solve(objective));
            let resp = call(service, &line).ok_or("front fetch: unparsable answer")?;
            let result: SolveResult =
                check::feasible_solve(&resp, &inst.pipeline, &inst.platform, objective)?;
            if result.latency != point.latency || result.failure_prob != point.failure_prob {
                return Err(format!("instance {k}: a point read back differently"));
            }
            front.insert(result.latency, result.failure_prob, result.mapping);
        }
        if front.len() != pareto.points.len() || front.is_empty() {
            return Err(format!("instance {k}: fetched front is not a staircase"));
        }
        fronts.push(front);
    }
    Ok(Warm {
        server,
        addr,
        instances,
        fronts,
    })
}

fn call(service: &SolverService, line: &str) -> Option<rpwf_server::Response> {
    parse_response(&service.handle_line(line, Instant::now()))
}

/// A bound strictly inside the front's range on either axis, so every
/// answer is a front read.
fn objective_for(rng: &mut Rng, front: &ParetoFront<IntervalMapping>) -> Objective {
    let pts = front.points();
    let (first, last) = (&pts[0], &pts[pts.len() - 1]);
    let u = rng.unit();
    if rng.below(2) == 0 {
        Objective::MinFpUnderLatency(first.latency + u * (last.latency - first.latency))
    } else {
        Objective::MinLatencyUnderFp(
            last.failure_prob + u * (first.failure_prob - last.failure_prob),
        )
    }
}

/// The request behind one slot id, reproducible from the seed.
fn request_of(seed: u64, id: u64, fronts: &[ParetoFront<IntervalMapping>]) -> (usize, Objective) {
    let mut rng = Rng::new(seed ^ id.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let k = rng.below(fronts.len());
    (k, objective_for(&mut rng, &fronts[k]))
}

pub fn run(args: &Args, report: &mut Report) {
    let Some(warm) = repeated_setup(report, SETUPS, || setup(args.seed)) else {
        return;
    };
    let seed = args.seed;
    let render = |slot: &Slot| {
        let (k, objective) = request_of(seed, slot.id, &warm.fronts);
        envelope(
            slot.id,
            Some(DEADLINE_MS),
            false,
            &warm.instances[k].solve(objective),
        )
    };
    let nodes = vec![warm.addr.clone()];
    let mut streams = phase::connect_all(&[warm.addr.as_str(); CONNS]);
    phase::settle(&mut streams, report);
    let warmup = phase::schedule((RATE * WARMUP.as_secs_f64()) as usize, RATE, CONNS, 1 << 32);
    let start = Instant::now();
    let (_, streams) = phase::open_loop(streams, &warmup, start, &render);
    let slots = phase::schedule((RATE * args.seconds as f64) as usize, RATE, CONNS, 1 << 40);
    let mut timed = phase::timed(&nodes, streams, &slots, &render);
    timed.check_delivery(report);
    let elapsed = check_answers(report, &timed, &warm, seed);
    timed.report(report, &elapsed);
    phase::stall_probe(&mut timed.streams, report);
    report.info("rate_rps", RATE);
    report.info(
        "instances",
        format!("{INSTANCES} x het n={STAGES} m={PROCS}"),
    );
    report.info(
        "front_points",
        warm.fronts
            .iter()
            .map(|f| f.len().to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    if args.trace {
        traced_replay(args, report, &warm, &slots);
    }
}

/// Checks every timed answer; returns `meta.elapsed_us` per result, in
/// result order (NaN where missing).
fn check_answers(report: &mut Report, timed: &Timed, warm: &Warm, seed: u64) -> Vec<f64> {
    let mut elapsed = Vec::with_capacity(timed.results.len());
    let mut exact = 0usize;
    let mut solves = 0usize;
    for (slot, outcome) in &timed.results {
        report.attempted += 1;
        let Some(resp) = outcome
            .lines
            .last()
            .and_then(|l| crate::wire::parse_response(l))
        else {
            elapsed.push(f64::NAN);
            continue;
        };
        elapsed.push(resp.meta.elapsed_us as f64);
        solves += 1;
        if resp.meta.exact_complete == Some(true) {
            exact += 1;
        }
        let (k, objective) = request_of(seed, slot.id, &warm.fronts);
        let inst = &warm.instances[k];
        let verdict = check::feasible_solve(&resp, &inst.pipeline, &inst.platform, objective)
            .and_then(|r| check::matches_read(&r, &warm.fronts[k], objective))
            .and_then(|()| {
                (resp.meta.cache_hit && resp.meta.solver == Some(Provenance::Heuristic))
                    .then_some(())
                    .ok_or_else(|| "not served from the cached heuristic front".to_string())
            });
        if let Err(e) = verdict {
            report.fail(format!("request {}: {e}", slot.id));
        }
    }
    report.outcome_shares(exact, solves);
    elapsed
}

fn traced_replay(args: &Args, report: &mut Report, warm: &Warm, slots: &[Slot]) {
    let cache = SolutionCache::new(4096, 16);
    for (inst, front) in warm.instances.iter().zip(&warm.fronts) {
        cache.insert(
            instance_key(&inst.pipeline, &inst.platform),
            CachedEntry::Front(CachedFront {
                front: Arc::new(front.clone()),
                complete: false,
                solver: Provenance::Heuristic,
                exact_capable: false,
            }),
        );
    }
    let step = (slots.len() / REPLAY_SAMPLE).max(1);
    let lines: Vec<(u64, String)> = slots
        .iter()
        .step_by(step)
        .take(REPLAY_SAMPLE)
        .map(|s| {
            let (k, objective) = request_of(args.seed, s.id, &warm.fronts);
            (
                s.id,
                envelope(
                    s.id,
                    Some(DEADLINE_MS),
                    false,
                    &warm.instances[k].solve(objective),
                ),
            )
        })
        .collect();
    let tracer = Tracer::new();
    let service = warm.server.service().as_ref();
    let responses = replay::warm_solves(&tracer, &lines, &cache, &|_| service);
    replay::report_stages(&tracer, report, &lines, &responses);
    replay::finish(&tracer, report, "warm_large", args.seed);
}
