//! `cold_solves`: in-process `SolverService::handle_line`, two clients in
//! a closed loop, every request a never-seen instance. The mix covers
//! each backend's domain at tens of milliseconds per solve, so over 99%
//! of the time is in `Engine::solve` and the backends: engine and solver
//! changes show here, and serving changes must not. The reactor is out of
//! the path.

use crate::check;
use crate::replay;
use crate::report::Report;
use crate::spans::Tracer;
use crate::util::{
    median, micros, quantile, repeated_setup, sample_cpu, window_medians, Rng, Window, WINDOWS,
};
use crate::wire::{envelope, parse_response, solver_totals, Counters, WireInstance};
use crate::Args;
use rpwf_algo::engine::{Engine, SolveRequest, Want};
use rpwf_algo::front::threshold_read;
use rpwf_algo::{BiSolution, Objective, Provenance};
use rpwf_core::budget::Budget;
use rpwf_core::hash::instance_key;
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::metrics::{failure_probability, latency};
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::{FailureClass, PlatformClass};
use rpwf_server::cache::{CachedEntry, CachedFront, SolutionCache};
use rpwf_server::{Request, ServiceConfig, SolverService};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Set-up is short here, so it is repeated more often than on the TCP
/// workloads for a steady median.
const SETUPS: usize = 9;
const INFEASIBLE_SHARE: f64 = 0.25;
/// Requests generated at set-up per second of run; later ones are
/// generated by the client that needs them.
const PREBUILT_PER_SECOND: usize = 60;
/// Answers re-derived by a direct backend call (two per class), also the
/// traced replay's sample.
const SAMPLE: usize = 12;

struct Class {
    name: &'static str,
    class: PlatformClass,
    n: usize,
    m: usize,
    /// Without the cache no front is kept, so the engine races the exact
    /// point backend (branch-and-bound) against the heuristics.
    no_cache: bool,
    /// An exact backend applies: answers must carry a proof.
    exact: bool,
}

/// FH and CH go to `bitmask-dp` (FH gets no shortcut from the polynomial
/// algorithms), small het to `exhaustive`, het m=7 to `bnb-sweep` (and to
/// `branch-bound` without the cache), large het to the heuristic race.
const CLASSES: [Class; 6] = [
    Class {
        name: "fh-n12-m7",
        class: PlatformClass::FullyHomogeneous,
        n: 12,
        m: 7,
        no_cache: false,
        exact: true,
    },
    Class {
        name: "ch-n10-m7",
        class: PlatformClass::CommHomogeneous,
        n: 10,
        m: 7,
        no_cache: false,
        exact: true,
    },
    Class {
        name: "het-n8-m6",
        class: PlatformClass::FullyHeterogeneous,
        n: 8,
        m: 6,
        no_cache: false,
        exact: true,
    },
    Class {
        name: "het-n8-m7",
        class: PlatformClass::FullyHeterogeneous,
        n: 8,
        m: 7,
        no_cache: false,
        exact: true,
    },
    Class {
        name: "het-n40-m24",
        class: PlatformClass::FullyHeterogeneous,
        n: 40,
        m: 24,
        no_cache: false,
        exact: false,
    },
    Class {
        name: "het-n8-m7-nocache",
        class: PlatformClass::FullyHeterogeneous,
        n: 8,
        m: 7,
        no_cache: true,
        exact: true,
    },
];

pub struct ColdRequest {
    pub class: usize,
    pub inst: WireInstance,
    pub objective: Objective,
    pub feasible: bool,
    pub line: String,
}

/// Request `i` of the run: class `i mod 6`, a fresh instance, and a
/// [`bound`] that is infeasible for about a quarter of the requests.
pub fn cold_request(seed: u64, i: usize, first_id: u64) -> ColdRequest {
    let class = i % CLASSES.len();
    let spec = &CLASSES[class];
    let mut rng = Rng::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let generated = rpwf_gen::make_instance(
        spec.class,
        FailureClass::Heterogeneous,
        spec.n,
        spec.m,
        seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
    );
    let inst = WireInstance::new(generated.pipeline, generated.platform);
    let feasible = rng.unit() >= INFEASIBLE_SHARE;
    let objective = bound(&mut rng, &inst, feasible);
    let line = envelope(
        first_id + i as u64,
        None,
        spec.no_cache,
        &inst.solve(objective),
    );
    ColdRequest {
        class,
        inst,
        objective,
        feasible,
        line,
    }
}

/// A bound that is feasible or infeasible by construction. Feasible
/// bounds lie between two mappings known to meet them (everything on the
/// fastest processor; everything replicated on all processors, the
/// failure minimum of Theorem 1). Infeasible ones are latency bounds at
/// half of total work over the top speed, below what any mapping reaches.
/// (Failure minima are often far below the objectives' 1e-9 slack, so a
/// failure bound under the minimum would still read as feasible.)
pub fn bound(rng: &mut Rng, inst: &WireInstance, feasible: bool) -> Objective {
    let (pipeline, platform) = (&inst.pipeline, &inst.platform);
    let safe = rpwf_algo::mono::minimize_failure(pipeline, platform);
    let fast = IntervalMapping::single_interval(
        pipeline.n_stages(),
        vec![platform.fastest_proc()],
        platform.n_procs(),
    )
    .expect("single interval on one processor");
    let (fast_lat, fast_fp) = (
        latency(&fast, pipeline, platform),
        failure_probability(&fast, platform),
    );
    let u = 0.2 + 0.6 * rng.unit();
    let top_speed = platform.speeds().iter().copied().fold(0.0, f64::max);
    match (rng.below(2), feasible) {
        (_, false) => Objective::MinFpUnderLatency(0.5 * pipeline.total_work() / top_speed),
        (0, true) => Objective::MinFpUnderLatency(
            fast_lat.min(safe.latency) + u * (fast_lat - safe.latency).abs(),
        ),
        (_, true) => {
            Objective::MinLatencyUnderFp(safe.failure_prob + u * (fast_fp - safe.failure_prob))
        }
    }
}

struct Answer {
    index: usize,
    sent: Instant,
    done: Instant,
    line: String,
}

pub fn run(args: &Args, report: &mut Report) {
    let prebuilt = PREBUILT_PER_SECOND * args.seconds as usize;
    let state = repeated_setup(report, SETUPS, || {
        let service = SolverService::new(ServiceConfig {
            workers: CLIENTS,
            ..ServiceConfig::default()
        });
        let requests: Vec<ColdRequest> = (0..prebuilt)
            .map(|i| cold_request(args.seed, i, 1))
            .collect();
        Ok((service, requests))
    });
    let (service, requests) = state.expect("this set-up cannot fail");

    let call = |line: &str| parse_response(&service.handle_line(line, Instant::now()));
    let before = Counters::scrape(call).expect("in-process scrape");
    let extra: Mutex<Vec<(usize, ColdRequest)>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs(args.seconds);
    let window = Duration::from_secs(args.seconds) / WINDOWS as u32;
    let (cpu, answers) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_cpu(start, window, WINDOWS));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while Instant::now() < stop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let generated;
                        let line = match requests.get(i) {
                            Some(r) => &r.line,
                            None => {
                                generated = cold_request(args.seed, i, 1);
                                &generated.line
                            }
                        };
                        let sent = Instant::now();
                        let out = service.handle_line(line, sent);
                        let done = Instant::now();
                        mine.push(Answer {
                            index: i,
                            sent,
                            done,
                            line: out,
                        });
                        if i >= requests.len() {
                            extra
                                .lock()
                                .expect("extra requests lock")
                                .push((i, cold_request(args.seed, i, 1)));
                        }
                    }
                    mine
                })
            })
            .collect();
        let answers: Vec<Answer> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        (sampler.join().expect("cpu sampler"), answers)
    });
    let after = Counters::scrape(call).expect("in-process scrape");
    let extra = extra.into_inner().expect("extra requests lock");
    let request = |i: usize| -> &ColdRequest {
        requests
            .get(i)
            .or_else(|| extra.iter().find(|(j, _)| *j == i).map(|(_, r)| r))
            .expect("every answered request was generated")
    };

    // Closed loop: a window holds the answers completed in it, the last
    // one also the few in flight at the stop.
    let mut windows = Window::split(&cpu);
    for a in &answers {
        let done_s = a.done.duration_since(start).as_secs_f64();
        Window::record(
            &mut windows,
            window,
            done_s,
            micros(a.done.duration_since(a.sent)),
        );
    }
    window_medians(report, &windows);

    let mut exact = 0usize;
    let mut elapsed = Vec::new();
    for a in &answers {
        report.attempted += 1;
        let req = request(a.index);
        let spec = &CLASSES[req.class];
        let Some(resp) = parse_response(&a.line) else {
            report.fail(format!("request {}: unparsable answer", a.index));
            continue;
        };
        elapsed.push(resp.meta.elapsed_us as f64);
        if resp.meta.exact_complete == Some(true) {
            exact += 1;
        }
        let verdict = if req.feasible {
            check::feasible_solve(&resp, &req.inst.pipeline, &req.inst.platform, req.objective)
                .and_then(|_| {
                    let proven = resp.meta.exact_complete == Some(true);
                    (proven == spec.exact)
                        .then_some(())
                        .ok_or_else(|| format!("{}: exact_complete is {proven}", spec.name))
                })
        } else {
            check::infeasible_solve(&resp)
        };
        if let Err(e) = verdict {
            report.fail(format!("request {} ({}): {e}", a.index, spec.name));
        }
    }
    report.layer(
        "service.elapsed_us_p50",
        quantile(&elapsed, 0.5),
        "us",
        Some(elapsed.len()),
    );
    per_class_latency(report, &answers, &request);
    solver_deltas(
        report,
        std::slice::from_ref(&before),
        std::slice::from_ref(&after),
    );
    let hits = after
        .stats
        .cache
        .hits
        .saturating_sub(before.stats.cache.hits) as f64;
    let misses = after
        .stats
        .cache
        .misses
        .saturating_sub(before.stats.cache.misses) as f64;
    report.layer(
        "cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        Some((hits + misses) as usize),
    );
    report.layer(
        "cache.evictions",
        after
            .stats
            .cache
            .evictions
            .saturating_sub(before.stats.cache.evictions) as f64,
        "count",
        None,
    );

    // Answer check against direct backend calls, outside the timed window.
    let engine = service.engine();
    let mut sample: Vec<&Answer> = answers.iter().filter(|a| a.index < SAMPLE).collect();
    sample.sort_by_key(|a| a.index);
    for a in sample {
        let req = request(a.index);
        let resp = parse_response(&a.line);
        let served = resp.as_ref().and_then(|r| {
            r.result
                .as_ref()
                .and_then(crate::wire::decode::<rpwf_server::protocol::SolveResult>)
        });
        let (_, direct, _) = direct_call(engine, req);
        if let Err(e) = check::same_optimum(
            served.as_ref(),
            direct.map(|s| (s.latency, s.failure_prob)),
            req.objective,
        ) {
            report.fail(format!("request {} vs direct backend: {e}", a.index));
        }
    }
    report.outcome_shares(exact, answers.len());
    if args.trace {
        traced_replay(args, report, &requests[..SAMPLE.min(requests.len())]);
    }
}

/// Latency per class, printed so a change can be traced to one backend.
fn per_class_latency<'a>(
    report: &mut Report,
    answers: &[Answer],
    request: &dyn Fn(usize) -> &'a ColdRequest,
) {
    for (c, spec) in CLASSES.iter().enumerate() {
        let lat: Vec<f64> = answers
            .iter()
            .filter(|a| request(a.index).class == c)
            .map(|a| micros(a.done.duration_since(a.sent)))
            .collect();
        report.info(
            &format!("class.{}.latency_p50_us", spec.name),
            format!("{:.0} (n={})", quantile(&lat, 0.5), lat.len()),
        );
    }
}

/// `solver.<name>.*` from the `Stats.solvers` deltas of the timed phase,
/// summed over nodes.
pub fn solver_deltas(report: &mut Report, before: &[Counters], after: &[Counters]) {
    let b = solver_totals(before);
    let a = solver_totals(after);
    for (name, (calls, us, complete)) in &a {
        let (c0, u0, k0) = b.get(name).copied().unwrap_or((0, 0, 0));
        let calls = calls - c0;
        if calls == 0 {
            continue;
        }
        report.layer(&format!("solver.{name}.calls"), calls as f64, "count", None);
        report.layer(
            &format!("solver.{name}.ms_per_call"),
            (us - u0) as f64 / 1e3 / calls as f64,
            "ms",
            Some(calls as usize),
        );
        report.layer(
            &format!("solver.{name}.complete_ratio"),
            (complete - k0) as f64 / calls as f64,
            "ratio",
            Some(calls as usize),
        );
    }
}

/// The backend the engine chooses for a request, called directly: the
/// exact front backend (point read off its front) when the request keeps
/// fronts, else the exact point backend, else every heuristic race member
/// folded like the engine's race. Returns the backend's name, its answer
/// and the front it built, if any.
fn direct_call(
    engine: &Engine,
    req: &ColdRequest,
) -> (
    &'static str,
    Option<BiSolution>,
    Option<ParetoFront<IntervalMapping>>,
) {
    let (p, pl, objective) = (&req.inst.pipeline, &req.inst.platform, req.objective);
    let budget = Budget::unlimited();
    if !CLASSES[req.class].no_cache {
        if let Some(backend) = engine.front_backend(p, pl) {
            let front = backend.solve_front(p, pl, &budget).into_inner();
            return (
                backend.name(),
                threshold_read(&front, objective),
                Some(front),
            );
        }
    }
    if let Some(backend) = engine.point_backend(p, pl, objective) {
        let sol = backend.solve_point(p, pl, objective, &budget).into_inner();
        return (backend.name(), sol, None);
    }
    let mut best: Option<BiSolution> = None;
    for solver in engine.solvers() {
        let caps = solver.capabilities();
        if caps.race_member
            && caps.shapes.points
            && caps.objectives.contains(objective)
            && solver.applicable(p, pl)
        {
            if let Some(sol) = solver.solve_point(p, pl, objective, &budget).into_inner() {
                best = match best {
                    Some(b) if !objective.better(&sol, &b) => Some(b),
                    _ => Some(sol),
                };
            }
        }
    }
    ("heuristic-race", best, None)
}

/// Replays the sample on a fresh service: parse, hash, cache get and
/// threshold read (on the direct backend's front), encode, the whole
/// cold `handle_line`, a fresh `Engine::solve`, and the chosen backend
/// alone. `engine.plan_us` is the engine call minus the backend call
/// (the heuristics the engine races next to an exact front backend run
/// on a second thread, so on two idle cores the difference is mostly
/// planning and thread hand-off).
fn traced_replay(args: &Args, report: &mut Report, sample: &[ColdRequest]) {
    let tracer = Tracer::new();
    let service = SolverService::new(ServiceConfig {
        workers: CLIENTS,
        ..ServiceConfig::default()
    });
    let engine = service.engine();
    let cache = SolutionCache::new(4096, 16);
    let mut lines = Vec::new();
    let mut responses = Vec::new();
    let mut plan_us = Vec::new();
    let mut solve_ms = Vec::new();
    for (i, req) in sample.iter().enumerate() {
        let id = i as u64 + 1;
        let (p, pl) = (&req.inst.pipeline, &req.inst.platform);
        let keep_front = !CLASSES[req.class].no_cache && engine.front_backend(p, pl).is_some();
        let budget = Budget::unlimited();
        let solve = SolveRequest {
            pipeline: p,
            platform: pl,
            want: Want::Point {
                objective: req.objective,
                keep_front,
            },
            budget: &budget,
        };
        // An untimed first round of both calls, so neither timed call pays
        // first-touch costs the other skipped.
        drop((direct_call(engine, req), engine.solve(&solve)));
        let t = Instant::now();
        let front = tracer.span("engine.backend", id, None, || direct_call(engine, req).2);
        let backend_us = micros(t.elapsed());
        let t = Instant::now();
        tracer.span("engine.solve", id, None, || engine.solve(&solve));
        let engine_us = micros(t.elapsed());
        solve_ms.push(engine_us / 1e3);
        plan_us.push(engine_us - backend_us);
        if let Some(front) = front {
            cache.insert(
                instance_key(p, pl),
                CachedEntry::Front(CachedFront {
                    front: Arc::new(front),
                    complete: true,
                    solver: Provenance::Exact,
                    exact_capable: true,
                }),
            );
        }

        let root = tracer.begin("request", id, None);
        let request = tracer.span("protocol.parse", id, Some(root), || {
            serde_json::from_str::<Request>(&req.line).expect("replayed line parses")
        });
        let key = tracer.span("hash.instance_key", id, Some(root), || instance_key(p, pl));
        let entry = tracer.span("cache.get", id, Some(root), || cache.get(key));
        if let Some(CachedEntry::Front(front)) = entry {
            let sol = tracer.span("front.threshold_read", id, Some(root), || {
                threshold_read(&front.front, req.objective)
            });
            drop(sol);
        }
        drop(request);
        tracer.end(root);
        let out = tracer.span("service.handle_line", id, None, || {
            service.handle_line(&req.line, Instant::now())
        });
        if let Some(resp) = parse_response(&out) {
            tracer.span("protocol.encode", id, None, || resp.to_line());
        }
        lines.push((id, req.line.clone()));
        responses.push(out);
    }
    replay::report_stages(&tracer, report, &lines, &responses);
    report.layer(
        "engine.solve_ms",
        median(&solve_ms),
        "ms",
        Some(solve_ms.len()),
    );
    report.layer(
        "engine.plan_us",
        median(&plan_us),
        "us",
        Some(plan_us.len()),
    );
    replay::finish(&tracer, report, "cold_solves", args.seed);
}
