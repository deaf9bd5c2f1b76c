//! The serving layer behind every transport — a thin, cache-aware shell
//! over the unified solver [`Engine`]: every solve/pareto request becomes
//! one [`Engine::solve`] call (capability filtering, exact-first
//! selection, portfolio racing and budget-cutoff fallback all live in the
//! engine), and this module adds what only a *service* can: the sharded
//! front cache (completeness-aware, keyed by the canonical instance
//! hash), batching (one front per distinct instance), chunked
//! `front_part` streaming, per-request deadlines and the fixed worker
//! pool. Threshold queries are reads off a front — fresh fronts are
//! engine answers, cached ones replay with their original
//! [`Provenance`].
//!
//! Every front consumer — `Solve`, `Pareto`, the explanation oracle and
//! the batch warm-up — reads fronts through one lookup (the cache read
//! under a usability rule, traced as `cache.lookup kind=front`), and every
//! front the service solves lands through one completeness-aware store
//! that also fires the fleet replication hook. On a miss, `Pareto`, the
//! oracle and the warm-up build the front with one [`Want::Front`] engine
//! call; `Solve` asks the engine for its point and stores the front built
//! along the way.

use crate::admission::{Admission, ServingOptions};
use crate::cache::{CachedEntry, CachedFront, CachedResult, SolutionCache};
use crate::metrics::{CommandMetrics, ExplainMetrics, SolverMetrics};
use crate::protocol::{
    CacheFillResult, CacheStatsOut, Command, ErrorKind, ExplainResult, FrontEndResult,
    FrontPartResult, GenResult, Meta, ParetoPointOut, ParetoResult, Request, Response, RingResult,
    ServingStatsOut, SimulateResult, SolveResult, StatsResult, TraceEntryOut, TraceResult,
};
use crate::router::{LocalRouter, Router};
use crossbeam::channel::{self, Sender};
use rpwf_algo::engine::{Answer, Engine, SolveRequest, Want};
use rpwf_algo::explain::{self, FrontOracle, OracleFront};
use rpwf_algo::front::{threshold_read, threshold_read_batch};
use rpwf_algo::{BiSolution, Explanation, Objective, Provenance};
use rpwf_core::budget::{Budget, CancelHandle};
use rpwf_core::hash::instance_key;
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::{FailureClass, Platform, PlatformClass};
use rpwf_core::stage::Pipeline;
use rpwf_core::trace::{Trace, TraceId, TraceScope};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Index of the root span in every per-request trace (opened first).
const ROOT_SPAN: u32 = 0;

/// Recent-window size of the slow-query ring: the [`Command::Trace`]
/// command reports the slowest of the last this-many traced requests.
const TRACE_RING: usize = 64;

/// The per-node slow-query ring: a bounded FIFO of recently traced
/// requests, reported slowest-first by the `Trace` command. Only requests
/// that opted in with `"trace": true` enter (untraced requests pay zero
/// cost), so one short lock per *traced* request is off the common path.
#[derive(Debug, Default)]
struct TraceLog {
    entries: Mutex<VecDeque<TraceEntryOut>>,
}

impl TraceLog {
    fn push(&self, entry: TraceEntryOut) {
        let mut entries = self.entries.lock().expect("trace log lock");
        if entries.len() == TRACE_RING {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    fn snapshot(&self, limit: usize) -> TraceResult {
        let mut entries: Vec<TraceEntryOut> = self
            .entries
            .lock()
            .expect("trace log lock")
            .iter()
            .cloned()
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.elapsed_us));
        entries.truncate(limit);
        TraceResult {
            capacity: TRACE_RING,
            entries,
        }
    }

    fn len(&self) -> usize {
        self.entries.lock().expect("trace log lock").len()
    }
}

/// Fleet hook: produces the `Ring` command's payload (installed by a
/// `RingRouter`; absent on single-node services).
type RingReporter = Box<dyn Fn() -> Option<RingResult> + Send + Sync>;

/// Fleet hook: appends extra gauges to the `Metrics` text dump.
type MetricsExtension = Box<dyn Fn(&mut String) + Send + Sync>;

/// Transport hook: produces the `Stats` command's serving-plane payload
/// (installed by the reactor transport; absent on stdin/in-process
/// services, which have no serving plane to report).
type ServingReporter = Box<dyn Fn() -> ServingStatsOut + Send + Sync>;

/// Fleet hook: called after a **locally solved, complete** front lands in
/// the cache, so the fleet layer can replicate it to the key's ring
/// successor (`CacheFill`). Never called for fronts received *via*
/// `CacheFill` — that is what keeps replication loop-free even when ring
/// views disagree during a rollout.
type FrontStoredHook = Box<dyn Fn(&Pipeline, &Platform, u128, &CachedFront) + Send + Sync>;

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (0 = available parallelism).
    pub workers: usize,
    /// Cache entries across all shards (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shards.
    pub cache_shards: usize,
    /// Seed for the heuristic portfolio (fixed ⇒ deterministic answers).
    pub seed: u64,
    /// Worker threads each exact branch-and-bound search runs on
    /// (`1` = sequential, `0` = one per available core). The effective
    /// count is capped so `solver threads × pool workers` never
    /// oversubscribes the machine — see
    /// [`ServiceConfig::effective_solver_threads`]. Answers are
    /// byte-identical at every thread count.
    pub solver_threads: usize,
    /// Fleet identity of this node (the `host:port` peers know it by),
    /// stamped into every response's `meta.node`. `None` outside fleet
    /// mode.
    pub node_id: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            cache_capacity: 4096,
            cache_shards: 16,
            seed: 0xCAFE,
            solver_threads: 1,
            node_id: None,
        }
    }
}

impl ServiceConfig {
    /// The effective worker count (resolving 0 to the hardware).
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        } else {
            self.workers
        }
    }

    /// The solver-thread count the engine is actually built with:
    /// `solver_threads` (0 resolving to the core count), capped at
    /// `max(1, cores / effective_workers())` so a full worker pool of
    /// concurrent solves cannot oversubscribe the machine.
    #[must_use]
    pub fn effective_solver_threads(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let requested = if self.solver_threads == 0 {
            cores
        } else {
            self.solver_threads
        };
        requested.min((cores / self.effective_workers()).max(1))
    }
}

/// The transport-independent solver service.
pub struct SolverService {
    config: ServiceConfig,
    engine: Engine,
    cache: SolutionCache,
    requests: AtomicU64,
    metrics: CommandMetrics,
    solver_metrics: SolverMetrics,
    explain_metrics: ExplainMetrics,
    trace_log: TraceLog,
    traces: AtomicU64,
    trace_spans: AtomicU64,
    started: Instant,
    ring_reporter: OnceLock<RingReporter>,
    metrics_ext: Mutex<Vec<MetricsExtension>>,
    front_stored: OnceLock<FrontStoredHook>,
    serving_stats: OnceLock<ServingReporter>,
}

impl SolverService {
    /// Builds a service.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let cache = SolutionCache::new(config.cache_capacity, config.cache_shards);
        let engine = Engine::with_parallel_backends(config.seed, config.effective_solver_threads());
        let solver_metrics =
            SolverMetrics::new(engine.solvers().iter().map(|s| s.name()).collect());
        SolverService {
            config,
            engine,
            cache,
            requests: AtomicU64::new(0),
            metrics: CommandMetrics::new(),
            solver_metrics,
            explain_metrics: ExplainMetrics::new(),
            trace_log: TraceLog::default(),
            traces: AtomicU64::new(0),
            trace_spans: AtomicU64::new(0),
            started: Instant::now(),
            ring_reporter: OnceLock::new(),
            metrics_ext: Mutex::new(Vec::new()),
            front_stored: OnceLock::new(),
            serving_stats: OnceLock::new(),
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The solver engine answering this service's requests.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Installs the fleet hook behind the `Ring` command (first caller
    /// wins; a `RingRouter` installs it at construction).
    pub fn set_ring_reporter(&self, reporter: RingReporter) {
        let _ = self.ring_reporter.set(reporter);
    }

    /// Installs a hook appending gauges to the `Metrics` dump. Additive:
    /// every installed extension renders, in installation order (the
    /// fleet router and the reactor transport each contribute one).
    pub fn set_metrics_extension(&self, extension: MetricsExtension) {
        self.metrics_ext
            .lock()
            .expect("metrics extension lock")
            .push(extension);
    }

    /// Installs the transport hook behind the `Stats` command's `serving`
    /// payload (first caller wins; the reactor installs it at bind).
    pub fn set_serving_stats(&self, reporter: ServingReporter) {
        let _ = self.serving_stats.set(reporter);
    }

    /// Installs the fleet replication hook, called after every locally
    /// solved complete front is cached (first caller wins; a `RingRouter`
    /// with replication installs it at construction).
    pub fn set_front_stored_hook(&self, hook: FrontStoredHook) {
        let _ = self.front_stored.set(hook);
    }

    /// Snapshot of every live cache key.
    #[must_use]
    pub fn cache_keys(&self) -> Vec<u128> {
        self.cache.keys()
    }

    /// Snapshot of the live **front** cache keys — the entries keyed by
    /// the canonical instance hash ([`rpwf_core::hash::instance_key`]),
    /// i.e. the same space the fleet ring places. The fleet layer
    /// censuses these against ring ownership; per-query result entries
    /// (keyed by [`Command::cache_key`]) live in an unrelated hash space
    /// and are excluded.
    #[must_use]
    pub fn front_cache_keys(&self) -> Vec<u128> {
        self.cache
            .keys_where(|entry| matches!(entry, CachedEntry::Front(_)))
    }

    /// This node's fleet identity, stamped into response metadata.
    fn node(&self) -> Option<String> {
        self.config.node_id.clone()
    }

    /// Records a finished trace into the slow-query ring and the trace
    /// counters. Called by the request path for local traces and by the
    /// fleet router for merged entry+owner traces.
    pub(crate) fn record_trace(&self, entry: TraceEntryOut) {
        self.traces.fetch_add(1, Ordering::Relaxed);
        self.trace_spans
            .fetch_add(entry.spans.spans.len() as u64, Ordering::Relaxed);
        self.trace_log.push(entry);
    }

    /// Response metadata for solver-shaped answers.
    fn meta(
        &self,
        cache_hit: bool,
        solver: Option<Provenance>,
        exact_complete: Option<bool>,
        start: Instant,
    ) -> Meta {
        Meta {
            cache_hit,
            solver,
            exact_complete,
            elapsed_us: elapsed_us(start),
            node: self.node(),
            trace: None,
            explain: None,
        }
    }

    /// Response metadata with no solver provenance.
    fn meta_plain(&self, start: Instant) -> Meta {
        self.meta(false, None, None, start)
    }

    /// Parses and handles one request line received at `received`,
    /// producing the response line(s), newline-joined (streamed requests
    /// emit several lines; everything else emits one).
    #[must_use]
    pub fn handle_line(&self, line: &str, received: Instant) -> String {
        self.handle_line_cancellable(line, received, None)
    }

    /// [`handle_line`](Self::handle_line) with an optional cancellation
    /// handle linked into the request budget — the transport passes its
    /// per-connection handle so a dropped client aborts the solve.
    #[must_use]
    pub fn handle_line_cancellable(
        &self,
        line: &str,
        received: Instant,
        cancel: Option<&CancelHandle>,
    ) -> String {
        let mut lines: Vec<String> = Vec::with_capacity(1);
        self.handle_line_into(line, received, cancel, &mut |l| lines.push(l));
        lines.join("\n")
    }

    /// Parses and handles one request line, emitting each response line
    /// (no trailing newline) through `emit` as it is produced — the
    /// streaming entry point the transports use, so a chunked front never
    /// materializes as one string.
    pub fn handle_line_into(
        &self,
        line: &str,
        received: Instant,
        cancel: Option<&CancelHandle>,
        emit: &mut dyn FnMut(String),
    ) {
        let start = Instant::now();
        let trimmed = line.trim();
        if trimmed.is_empty() {
            emit(
                Response::error(
                    None,
                    ErrorKind::Invalid,
                    "empty request line",
                    self.meta_plain(start),
                )
                .to_line(),
            );
            return;
        }
        match serde_json::from_str::<Request>(trimmed) {
            Ok(request) => {
                self.handle_request_into(request, received, cancel, &mut |resp| {
                    emit(resp.to_line());
                });
            }
            Err(e) => emit(
                Response::error(
                    None,
                    ErrorKind::Invalid,
                    format!("malformed request: {e}"),
                    self.meta_plain(start),
                )
                .to_line(),
            ),
        }
    }

    /// Handles one parsed request, returning the **final** response (for
    /// streamed requests the preceding `part` responses are discarded —
    /// use [`handle_request_into`](Self::handle_request_into) to observe
    /// them). Instances are validated when they are decoded; panics
    /// anywhere in the handling path are still caught and reported as
    /// `internal` errors, so no request can take a worker down.
    #[must_use]
    pub fn handle(&self, request: Request, received: Instant) -> Response {
        self.handle_cancellable(request, received, None)
    }

    /// [`handle`](Self::handle) with an optional cancellation handle
    /// linked into the request budget.
    #[must_use]
    pub fn handle_cancellable(
        &self,
        request: Request,
        received: Instant,
        cancel: Option<&CancelHandle>,
    ) -> Response {
        let mut last: Option<Response> = None;
        self.handle_request_into(request, received, cancel, &mut |resp| last = Some(resp));
        last.expect("every request produces at least one response")
    }

    /// Handles one parsed request, emitting every response (parts first,
    /// the fulfilling `ok`/`error` last). Panic-isolated per request.
    ///
    /// This is where a `"trace": true` request's collector comes to life:
    /// the root span opens here, backdated to `received` (the instant the
    /// transport read the line — "decode" covers the parse-and-queue
    /// window before dispatch), every layer below appends spans through
    /// it, and the finished tree is attached to the final response's
    /// `meta.trace` and pushed into the slow-query ring.
    pub fn handle_request_into(
        &self,
        request: Request,
        received: Instant,
        cancel: Option<&CancelHandle>,
        emit: &mut dyn FnMut(Response),
    ) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let id = request.id;
        let name = request.cmd.name();
        let trace = request.trace.unwrap_or(false).then(|| {
            // A forwarded request continues the entry node's trace id so
            // the merged tree reads as one trace fleet-wide.
            let trace_id = request
                .trace_ctx
                .map_or_else(TraceId::next, |ctx| TraceId(ctx.id));
            let trace = Trace::new(trace_id, received);
            let root = trace.begin_root("request");
            trace.attr(ROOT_SPAN, "cmd", name);
            if let Some(node) = self.node() {
                trace.attr(ROOT_SPAN, "node", node);
            }
            if request.hop == Some(true) {
                trace.attr(ROOT_SPAN, "hop", "true");
            }
            trace.add("decode", Some(ROOT_SPAN), 0, trace.elapsed_us(), Vec::new());
            (trace, root)
        });
        // The command's latency is recorded as its final response leaves,
        // not after the handler returns: a transport flushes answers as
        // soon as they are pushed, so the client's next request (a `Stats`,
        // say) must already see this one counted.
        let recorded = std::cell::Cell::new(false);
        let record = || {
            if !recorded.replace(true) {
                self.metrics.record(name, elapsed_us(start));
            }
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut emit_traced = |mut resp: Response| {
                if resp.status != "part" {
                    record();
                }
                if let Some((trace, root)) = &trace {
                    if resp.status != "part" {
                        trace.end(root);
                        let tree = trace.finish();
                        self.record_trace(TraceEntryOut {
                            id: tree.id.0,
                            command: name.to_string(),
                            status: resp.status.clone(),
                            elapsed_us: tree.root().map_or(0, |r| r.elapsed_us),
                            node: self.node(),
                            spans: tree.clone(),
                        });
                        resp.meta.trace = Some(tree);
                    }
                }
                emit(resp);
            };
            let scope = trace
                .as_ref()
                .map(|(trace, _)| TraceScope::new(trace, ROOT_SPAN));
            self.handle_inner(request, received, start, cancel, scope, &mut emit_traced);
        }));
        if let Err(panic) = outcome {
            record();
            emit(Response::error(
                id,
                ErrorKind::Internal,
                format!("request handling panicked: {}", panic_message(&panic)),
                self.meta_plain(start),
            ));
        }
        record();
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_inner(
        &self,
        request: Request,
        received: Instant,
        start: Instant,
        cancel: Option<&CancelHandle>,
        trace: Option<TraceScope<'_>>,
        emit: &mut dyn FnMut(Response),
    ) {
        let id = request.id;
        let mut budget = match request.deadline_ms {
            Some(ms) => Budget::with_deadline_at(received + Duration::from_millis(ms)),
            None => Budget::unlimited(),
        };
        if let Some(handle) = cancel {
            budget = budget.linked(handle);
        }
        let use_cache = !request.no_cache.unwrap_or(false);
        let explain = request.explain.unwrap_or(false);

        // Expensive commands check the budget only *after* their cache
        // lookup (each handler does, via `doomed_solve`): a request whose
        // deadline expired while queued is still answered instantly when
        // its front or result sits in the cache.
        match request.cmd {
            Command::Solve {
                pipeline,
                platform,
                objective,
            } => emit(self.handle_solve(
                id, &pipeline, &platform, objective, &budget, use_cache, explain, start, trace,
            )),
            Command::Explain {
                pipeline,
                platform,
                objective,
            } => emit(self.handle_explain(
                id, &pipeline, &platform, objective, &budget, use_cache, start, trace,
            )),
            Command::Pareto {
                pipeline,
                platform,
                chunk,
            } => self.handle_pareto(
                id, &pipeline, &platform, chunk, &budget, use_cache, start, trace, emit,
            ),
            Command::Simulate {
                pipeline,
                platform,
                trials,
            } => emit(self.handle_simulate(
                id, &pipeline, &platform, trials, &budget, use_cache, start, trace,
            )),
            Command::CacheFill {
                pipeline,
                platform,
                front,
                complete,
                solver,
                exact_capable,
            } => emit(self.handle_cache_fill(
                id,
                &pipeline,
                &platform,
                front,
                complete,
                solver,
                exact_capable,
                start,
            )),
            cmd => emit(match self.dispatch_simple(&cmd) {
                Ok(result) => Response::ok(id, result, self.meta_plain(start)),
                Err((kind, message)) => Response::error(id, kind, message, self.meta_plain(start)),
            }),
        }
    }

    // -- Front-shaped commands --------------------------------------------

    /// Threshold solve = front read. The front comes from the cache when a
    /// usable entry exists; otherwise the request collapses onto one
    /// [`Engine::solve`] call — the engine picks the backends, races the
    /// portfolio and handles budget cutoffs — and any front built along
    /// the way goes back into the cache (completeness-aware) for every
    /// later query over the same instance.
    #[allow(clippy::too_many_arguments)]
    fn handle_solve(
        &self,
        id: Option<u64>,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
        use_cache: bool,
        explain: bool,
        start: Instant,
        trace: Option<TraceScope<'_>>,
    ) -> Response {
        let key = use_cache.then(|| instance_key(pipeline, platform));
        let infeasible = |mut meta: Meta, message: String| {
            if explain {
                let explanation =
                    self.build_explanation(pipeline, platform, objective, budget, use_cache, trace);
                meta.explain = Some(ExplainResult::from_explanation(&explanation));
            }
            Response::infeasible(id, objective, message, meta)
        };

        // 1. Answer from a cached front when one is usable.
        if let Some(hit) = self.lookup_front(key, FrontRule::Usable(budget), trace) {
            if let Some(sol) = threshold_read(&hit.front, objective) {
                return Response::ok(
                    id,
                    solve_result(sol),
                    self.meta(true, Some(hit.solver), Some(hit.complete), start),
                );
            }
            if hit.complete {
                // A complete front proves infeasibility.
                return infeasible(
                    self.meta(true, Some(hit.solver), Some(true), start),
                    format!("no mapping satisfies {objective:?}"),
                );
            }
            // Incomplete front with no satisfying point: solve fresh.
        }
        if let Some(timeout) = self.doomed_solve(id, budget, start) {
            return timeout;
        }

        // 2. The per-query result cache applies only when the engine has
        //    no front to share (no exact front backend, or caching off):
        //    fronts amortize across thresholds, point answers cannot.
        //    The capability probe repeats inside Engine::solve; the scan
        //    is a handful of class/bound checks (E18 bounds the whole
        //    dispatch at ≲1% of a solve), accepted to keep the
        //    cache-policy decision out of the engine.
        let keep_front = key.is_some() && self.engine.front_backend(pipeline, platform).is_some();
        let qkey = (use_cache && !keep_front)
            .then(|| {
                Command::Solve {
                    pipeline: pipeline.clone(),
                    platform: platform.clone(),
                    objective,
                }
                .cache_key()
            })
            .flatten();
        if let Some(hit) = self.cached_result(id, qkey, start, trace) {
            return hit;
        }

        // 3. One engine call answers the request, whatever the instance.
        let report = self.engine.solve_traced(
            &SolveRequest {
                pipeline,
                platform,
                want: Want::Point {
                    objective,
                    keep_front,
                },
                budget,
            },
            trace,
        );
        self.solver_metrics.record(&report.stats);
        if let (Some(k), Some(artifact)) = (key, report.front) {
            let entry = CachedFront {
                front: artifact.front,
                complete: artifact.complete,
                solver: artifact.provenance,
                exact_capable: artifact.exact_capable,
            };
            self.store_front(pipeline, platform, k, &entry, trace);
        }
        let completeness = report.completeness;
        let Answer::Point(answer) = report.answer else {
            unreachable!("point request yields a point answer");
        };
        match answer {
            Some(sol) => {
                let result = solve_result(sol);
                // Cutoff answers may be beaten by a rerun with more
                // budget; never let them poison the cache. (Front-backed
                // answers have no query key: their front is cached above.)
                if let (Some(k), true) = (qkey, completeness.cacheable_point()) {
                    self.store_result(
                        k,
                        result.clone(),
                        report.provenance,
                        completeness.exact_complete,
                    );
                }
                Response::ok(
                    id,
                    result,
                    self.meta(
                        false,
                        report.provenance,
                        Some(completeness.exact_complete),
                        start,
                    ),
                )
            }
            None if completeness.exact_complete => infeasible(
                self.meta_plain(start),
                format!("no mapping satisfies {objective:?}"),
            ),
            None if budget.is_exhausted() => Response::error(
                id,
                ErrorKind::Timeout,
                "deadline expired before any feasible solution was found",
                self.meta_plain(start),
            ),
            None => infeasible(
                self.meta_plain(start),
                format!(
                    "no feasible solution found for {objective:?} \
                     (heuristic search; not a proof of infeasibility)"
                ),
            ),
        }
    }

    /// The `Explain` command: MARCO-style MUS/MCS enumeration over the
    /// query's constraint universe plus the nearest-feasible what-if,
    /// with engine front solves as the sat oracle and the front cache in
    /// the loop (complete fronts only — see [`ServiceOracle`]). Routed by
    /// instance key like `Solve`, so every fleet entry node lands it on
    /// the same owner and the payload is byte-identical wherever it
    /// enters the fleet.
    #[allow(clippy::too_many_arguments)]
    fn handle_explain(
        &self,
        id: Option<u64>,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
        use_cache: bool,
        start: Instant,
        trace: Option<TraceScope<'_>>,
    ) -> Response {
        if let Some(timeout) = self.doomed_solve(id, budget, start) {
            return timeout;
        }
        let explanation =
            self.build_explanation(pipeline, platform, objective, budget, use_cache, trace);
        let solver = if explanation.proven {
            Provenance::Exact
        } else {
            Provenance::Heuristic
        };
        let meta = self.meta(
            explanation.oracle_cached > 0,
            Some(solver),
            Some(explanation.proven),
            start,
        );
        Response::ok(
            id,
            ExplainResult::from_explanation(&explanation).to_value(),
            meta,
        )
    }

    /// Runs the MARCO enumeration and the relaxation read against the
    /// service oracle, recording the `explain.marco` / `explain.relax`
    /// trace spans and the explain metrics.
    fn build_explanation(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
        use_cache: bool,
        trace: Option<TraceScope<'_>>,
    ) -> Explanation {
        let mut oracle = ServiceOracle {
            service: self,
            budget,
            use_cache,
        };
        let marco_start = trace.map(|scope| scope.trace.elapsed_us());
        let outcome = explain::marco(pipeline, platform, objective, &mut oracle);
        if let Some(scope) = trace {
            let span_start = marco_start.unwrap_or(0);
            scope.trace.add(
                "explain.marco",
                Some(scope.parent),
                span_start,
                scope.trace.elapsed_us().saturating_sub(span_start),
                vec![
                    ("feasible".to_owned(), outcome.feasible.to_string()),
                    ("oracle_calls".to_owned(), outcome.oracle_calls.to_string()),
                    (
                        "oracle_cached".to_owned(),
                        outcome.oracle_cached.to_string(),
                    ),
                ],
            );
        }
        let relax_start = trace.map(|scope| scope.trace.elapsed_us());
        let explanation = explain::assemble(objective, platform, &outcome);
        if let Some(scope) = trace {
            let span_start = relax_start.unwrap_or(0);
            let mut attrs = vec![("proven".to_owned(), explanation.proven.to_string())];
            if let Some(relaxation) = explanation.relaxation {
                attrs.push(("axis".to_owned(), relaxation.axis.to_owned()));
            }
            scope.trace.add(
                "explain.relax",
                Some(scope.parent),
                span_start,
                scope.trace.elapsed_us().saturating_sub(span_start),
                attrs,
            );
        }
        self.explain_metrics.record(&explanation);
        explanation
    }

    /// The Pareto command: produce (or fetch) the front, then render it as
    /// one `ParetoResult` line or stream it as `front_part` chunks of at
    /// most `chunk` points closed by a `front_end` line.
    #[allow(clippy::too_many_arguments)]
    fn handle_pareto(
        &self,
        id: Option<u64>,
        pipeline: &Pipeline,
        platform: &Platform,
        chunk: Option<usize>,
        budget: &Budget,
        use_cache: bool,
        start: Instant,
        trace: Option<TraceScope<'_>>,
        emit: &mut dyn FnMut(Response),
    ) {
        if chunk == Some(0) {
            emit(Response::error(
                id,
                ErrorKind::Invalid,
                "chunk must be at least 1 point",
                self.meta_plain(start),
            ));
            return;
        }
        let key = use_cache.then(|| instance_key(pipeline, platform));
        let (entry, cache_hit) = match self.lookup_front(key, FrontRule::Usable(budget), trace) {
            Some(hit) => (hit, true),
            None => {
                if let Some(timeout) = self.doomed_solve(id, budget, start) {
                    emit(timeout);
                    return;
                }
                // The exact front backend where one applies, the
                // heuristic portfolio sweep beyond — the command answers
                // on every instance, flagged by completeness.
                let built = self.build_front(pipeline, platform, key, budget, trace);
                if built.front.is_empty() && !built.complete {
                    emit(Response::error(
                        id,
                        ErrorKind::Timeout,
                        "deadline expired before any Pareto point was found",
                        self.meta_plain(start),
                    ));
                    return;
                }
                (built, false)
            }
        };

        let meta =
            |start: Instant| self.meta(cache_hit, Some(entry.solver), Some(entry.complete), start);
        match chunk {
            None => emit(Response::ok(
                id,
                ParetoResult {
                    points: entry.front.iter().map(pareto_point_out).collect(),
                    complete: entry.complete,
                }
                .to_value(),
                meta(start),
            )),
            Some(size) => {
                let mut parts = 0u64;
                for points in entry.front.chunks(size) {
                    emit(Response::part(
                        id,
                        FrontPartResult {
                            seq: parts,
                            points: points.iter().map(pareto_point_out).collect(),
                        }
                        .to_value(),
                        meta(start),
                    ));
                    parts += 1;
                }
                emit(Response::ok(
                    id,
                    FrontEndResult {
                        complete: entry.complete,
                        parts,
                        points_total: entry.front.len() as u64,
                    }
                    .to_value(),
                    meta(start),
                ));
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_simulate(
        &self,
        id: Option<u64>,
        pipeline: &Pipeline,
        platform: &Platform,
        trials: Option<usize>,
        budget: &Budget,
        use_cache: bool,
        start: Instant,
        trace: Option<TraceScope<'_>>,
    ) -> Response {
        let qkey = use_cache
            .then(|| {
                Command::Simulate {
                    pipeline: pipeline.clone(),
                    platform: platform.clone(),
                    trials,
                }
                .cache_key()
            })
            .flatten();
        if let Some(hit) = self.cached_result(id, qkey, start, trace) {
            return hit;
        }
        if let Some(timeout) = self.doomed_solve(id, budget, start) {
            return timeout;
        }
        let trials = trials.unwrap_or(10_000).clamp(1, 10_000_000);
        let safest = rpwf_algo::mono::minimize_failure(pipeline, platform);
        let mc = rpwf_sim::MonteCarlo {
            trials,
            ..Default::default()
        };
        let mc_span = trace.map(|scope| scope.trace.begin("simulate.mc", Some(scope.parent)));
        let (report, complete) = mc.run_with_budget(pipeline, platform, &safest.mapping, budget);
        if let (Some(scope), Some(handle)) = (trace, mc_span) {
            scope.trace.end(&handle);
            scope
                .trace
                .attr(handle.index(), "trials", report.trials.to_string());
            scope
                .trace
                .attr(handle.index(), "complete", complete.to_string());
        }
        if report.trials == 0 {
            return Response::error(
                id,
                ErrorKind::Timeout,
                "deadline expired before any Monte Carlo trial ran",
                self.meta_plain(start),
            );
        }
        let result = SimulateResult {
            mapping_display: safest.mapping.to_string(),
            analytic_fp: safest.failure_prob,
            mc_failure_rate: 1.0 - report.success_rate,
            wilson95: report.wilson95,
            trials: report.trials,
            latency_min: report.latency.min,
            latency_mean: report.latency.mean,
            latency_max: report.latency.max,
        }
        .to_value();
        // A cut-off sample is a valid but smaller estimate; never cache it
        // in place of the full run.
        if let (Some(k), true) = (qkey, complete) {
            self.store_result(k, result.clone(), Some(Provenance::Exact), complete);
        }
        Response::ok(
            id,
            result,
            self.meta(false, Some(Provenance::Exact), Some(complete), start),
        )
    }

    // -- Plain commands ----------------------------------------------------

    fn dispatch_simple(&self, cmd: &Command) -> Result<serde::Value, (ErrorKind, String)> {
        match cmd {
            Command::Ping => Ok(serde::Value::Str("pong".into())),
            Command::Stats => {
                let cache = self.cache.stats();
                Ok(StatsResult {
                    workers: self.config.effective_workers(),
                    requests: self.requests.load(Ordering::Relaxed),
                    cache: CacheStatsOut {
                        shards: self.cache.shard_count(),
                        capacity: self.cache.capacity(),
                        entries: cache.entries,
                        hits: cache.hits,
                        misses: cache.misses,
                        evictions: cache.evictions,
                    },
                    commands: self.metrics.summaries(),
                    solvers: self.solver_metrics.snapshot(),
                    serving: self.serving_stats.get().map(|reporter| reporter()),
                }
                .to_value())
            }
            Command::Metrics => Ok(serde::Value::Str(self.render_metrics())),
            Command::Trace { limit } => {
                // Node-local like `Ring`: each node reports its own
                // slow-query ring; a fleet-wide view is one `trace` call
                // per node.
                Ok(self.trace_log.snapshot(limit.unwrap_or(16)).to_value())
            }
            Command::Ring => {
                // Fleet mode: the RingRouter's installed reporter answers;
                // single-node services report themselves as a solo ring.
                let result = self
                    .ring_reporter
                    .get()
                    .and_then(|reporter| reporter())
                    .unwrap_or_else(|| {
                        let node = self.config.node_id.clone().unwrap_or_else(|| "solo".into());
                        RingResult {
                            nodes: vec![node.clone()],
                            node,
                            vnodes: 0,
                            replicas: 1,
                            // Front keys only — the same unit fleet mode
                            // reports, so the field compares across
                            // deployments.
                            owned_cache_keys: self.front_cache_keys().len() as u64,
                            replica_cache_keys: 0,
                            foreign_cache_keys: 0,
                            hops_received: 0,
                            failovers: 0,
                            forwards: Vec::new(),
                        }
                    });
                Ok(result.to_value())
            }
            Command::Gen {
                class,
                failure,
                n,
                m,
                seed,
            } => {
                let class = match class.as_str() {
                    "fh" => PlatformClass::FullyHomogeneous,
                    "ch" => PlatformClass::CommHomogeneous,
                    "het" => PlatformClass::FullyHeterogeneous,
                    other => {
                        return Err((
                            ErrorKind::Invalid,
                            format!("class must be fh|ch|het, got {other:?}"),
                        ))
                    }
                };
                let failure = match failure.as_str() {
                    "hom" => FailureClass::Homogeneous,
                    "het" => FailureClass::Heterogeneous,
                    other => {
                        return Err((
                            ErrorKind::Invalid,
                            format!("failure must be hom|het, got {other:?}"),
                        ))
                    }
                };
                let (n, m) = (*n, *m);
                if n == 0 || m == 0 || n > 64 || m > 64 {
                    return Err((
                        ErrorKind::Invalid,
                        format!("gen size out of range: n={n}, m={m}"),
                    ));
                }
                let inst = rpwf_gen::make_instance(class, failure, n, m, *seed);
                Ok(GenResult {
                    pipeline: inst.pipeline,
                    platform: inst.platform,
                }
                .to_value())
            }
            Command::Solve { .. }
            | Command::Pareto { .. }
            | Command::Explain { .. }
            | Command::Simulate { .. }
            | Command::CacheFill { .. } => {
                unreachable!("front-shaped commands are dispatched by handle_inner")
            }
        }
    }

    /// The Prometheus-style plain-text metrics dump served by the
    /// `Metrics` command.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cache = self.cache.stats();
        writeln!(out, "rpwf_workers {}", self.config.effective_workers()).expect("write");
        writeln!(
            out,
            "rpwf_engine_solver_threads {}",
            self.engine.solver_threads()
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_requests_total {}",
            self.requests.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(out, "rpwf_cache_hits_total {}", cache.hits).expect("write");
        writeln!(out, "rpwf_cache_misses_total {}", cache.misses).expect("write");
        writeln!(out, "rpwf_cache_evictions_total {}", cache.evictions).expect("write");
        writeln!(out, "rpwf_cache_entries {}", cache.entries).expect("write");
        writeln!(out, "rpwf_cache_capacity {}", self.cache.capacity()).expect("write");
        // Ratio gauge: 0 when no lookup happened yet (not NaN).
        let lookups = cache.hits + cache.misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        };
        writeln!(out, "rpwf_cache_hit_ratio {hit_ratio:.6}").expect("write");
        writeln!(
            out,
            "rpwf_uptime_seconds {}",
            self.started.elapsed().as_secs()
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_trace_requests_total {}",
            self.traces.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_trace_spans_total {}",
            self.trace_spans.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(out, "rpwf_trace_slowlog_entries {}", self.trace_log.len()).expect("write");
        let memo = rpwf_core::memo::counts();
        for (name, value, help) in [
            (
                "rpwf_decode_memo_hits_total",
                memo.hits,
                "reused a decoded value whose exact bytes this thread decoded before",
            ),
            (
                "rpwf_decode_memo_misses_total",
                memo.misses,
                "ran the full decoder",
            ),
        ] {
            writeln!(
                out,
                "# HELP {name} Pipeline and platform decodes that {help}; \
                 process-wide, so nodes sharing a process share it.\n\
                 # TYPE {name} counter\n{name} {value}"
            )
            .expect("write");
        }
        // Per-shard counters expose hot-shard skew the aggregate hides.
        for (i, shard) in self.cache.shard_stats().iter().enumerate() {
            writeln!(
                out,
                "rpwf_cache_shard_hits_total{{shard=\"{i}\"}} {}",
                shard.hits
            )
            .expect("write");
            writeln!(
                out,
                "rpwf_cache_shard_misses_total{{shard=\"{i}\"}} {}",
                shard.misses
            )
            .expect("write");
            writeln!(
                out,
                "rpwf_cache_shard_evictions_total{{shard=\"{i}\"}} {}",
                shard.evictions
            )
            .expect("write");
            writeln!(
                out,
                "rpwf_cache_shard_entries{{shard=\"{i}\"}} {}",
                shard.entries
            )
            .expect("write");
        }
        self.metrics.render_prometheus(&mut out);
        self.solver_metrics.render_prometheus(&mut out);
        self.explain_metrics.render_prometheus(&mut out);
        for extension in self
            .metrics_ext
            .lock()
            .expect("metrics extension lock")
            .iter()
        {
            extension(&mut out);
        }
        out
    }

    // -- Front cache -------------------------------------------------------

    /// The front lookup every front consumer starts with: the cache read
    /// under `rule`, recorded as a `cache.lookup kind=front` span. The
    /// entry's `complete` flag travels into `meta.exact_complete`, so a
    /// cutoff never masquerades as exact.
    fn lookup_front(
        &self,
        key: Option<u128>,
        rule: FrontRule<'_>,
        trace: Option<TraceScope<'_>>,
    ) -> Option<CachedFront> {
        let lookup_start = trace.map(|scope| scope.trace.elapsed_us());
        let hit = key.and_then(|k| match self.cache.get(k) {
            Some(CachedEntry::Front(hit)) => {
                let usable = match rule {
                    FrontRule::Usable(budget) => {
                        hit.complete || budget.remaining().is_some() || !hit.exact_capable
                    }
                    FrontRule::CompleteOnly => hit.complete,
                };
                usable.then_some(hit)
            }
            _ => None,
        });
        cache_span(
            trace,
            "front",
            lookup_start,
            hit.is_some(),
            hit.as_ref().map(|hit| hit.complete),
        );
        hit
    }

    /// The front build behind `Pareto`, the explanation oracle and the
    /// batch warm-up: one [`Want::Front`] engine call under `budget`, its
    /// solver metrics, and — when `key` is set — the store below.
    fn build_front(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        key: Option<u128>,
        budget: &Budget,
        trace: Option<TraceScope<'_>>,
    ) -> CachedFront {
        let report = self.engine.solve_traced(
            &SolveRequest {
                pipeline,
                platform,
                want: Want::Front,
                budget,
            },
            trace,
        );
        self.solver_metrics.record(&report.stats);
        let Answer::Front(front) = report.answer else {
            unreachable!("front request yields a front answer");
        };
        let entry = CachedFront {
            front,
            complete: report.completeness.exact_complete,
            solver: report
                .provenance
                .expect("front plans name their provenance"),
            exact_capable: report.completeness.exact_capable,
        };
        // An empty cutoff holds no answer to share (the insert would
        // refuse it, and `Pareto` reports it as a timeout): no write.
        if let Some(key) = key.filter(|_| entry.complete || !entry.front.is_empty()) {
            self.store_front(pipeline, platform, key, &entry, trace);
        }
        entry
    }

    /// Caches a **locally solved** front, fires the fleet replication hook
    /// when it landed complete (so the key's ring successor gets a
    /// `CacheFill`), and records the `cache.write` span. Fronts arriving
    /// *via* `CacheFill` go through [`store_front_raw`](Self::store_front_raw)
    /// instead — fills are terminal, never re-replicated.
    fn store_front(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        key: u128,
        entry: &CachedFront,
        trace: Option<TraceScope<'_>>,
    ) {
        let write_start = trace.map(|scope| scope.trace.elapsed_us());
        if self.store_front_raw(key, entry.clone()) && entry.complete {
            if let Some(hook) = self.front_stored.get() {
                hook(pipeline, platform, key, entry);
            }
        }
        if let Some(scope) = trace {
            let start = write_start.unwrap_or(0);
            scope.trace.add(
                "cache.write",
                Some(scope.parent),
                start,
                scope.trace.elapsed_us().saturating_sub(start),
                vec![
                    ("kind".to_owned(), "front".to_owned()),
                    ("complete".to_owned(), entry.complete.to_string()),
                ],
            );
        }
    }

    /// The per-query result read behind `Solve` (when no front is shared)
    /// and `Simulate`, recorded as a `cache.lookup kind=result` span: the
    /// cached response, on a hit.
    fn cached_result(
        &self,
        id: Option<u64>,
        qkey: Option<u128>,
        start: Instant,
        trace: Option<TraceScope<'_>>,
    ) -> Option<Response> {
        let qkey = qkey?;
        let lookup_start = trace.map(|scope| scope.trace.elapsed_us());
        let hit = match self.cache.get(qkey) {
            Some(CachedEntry::Result(hit)) => Some(hit),
            _ => None,
        };
        cache_span(trace, "result", lookup_start, hit.is_some(), None);
        hit.map(|hit| {
            Response::ok(
                id,
                hit.result,
                self.meta(true, hit.solver, hit.exact_complete, start),
            )
        })
    }

    /// Caches a per-query result. Callers store complete answers only: a
    /// cutoff may be beaten by a rerun and must never poison the cache.
    fn store_result(
        &self,
        qkey: u128,
        result: serde::Value,
        solver: Option<Provenance>,
        exact_complete: bool,
    ) {
        let entry = CachedResult {
            result,
            solver,
            exact_complete: Some(exact_complete),
        };
        self.cache.insert(qkey, CachedEntry::Result(entry));
    }

    /// Inserts a front, never letting an incomplete one replace a complete
    /// incumbent or a *richer* incomplete one (fewer points would degrade
    /// every later best-effort read), and never caching an empty cutoff
    /// (it carries no answers, only the false impression of one). Returns
    /// whether the entry actually landed.
    fn store_front_raw(&self, key: u128, entry: CachedFront) -> bool {
        if !entry.complete && entry.front.is_empty() {
            return false;
        }
        let points = entry.front.len();
        let complete = entry.complete;
        self.cache
            .insert_if(key, CachedEntry::Front(entry), |existing| match existing {
                CachedEntry::Front(old) => complete || (!old.complete && points >= old.front.len()),
                CachedEntry::Result(_) => true,
            })
    }

    /// Replica fill: a peer that just solved an instance pushes the front
    /// to this node (the key's ring successor), so the replica answers
    /// warm if the primary dies. The write goes through the same
    /// completeness-aware insert policy as a local solve — a fill never
    /// degrades a richer incumbent — and never re-fires the replication
    /// hook, which keeps replication loop-free even when two nodes' ring
    /// views disagree about who owns the key during a membership change.
    #[allow(clippy::too_many_arguments)]
    fn handle_cache_fill(
        &self,
        id: Option<u64>,
        pipeline: &Pipeline,
        platform: &Platform,
        front: ParetoFront<IntervalMapping>,
        complete: bool,
        solver: Provenance,
        exact_capable: bool,
        start: Instant,
    ) -> Response {
        if !front.invariant_holds() {
            return Response::error(
                id,
                ErrorKind::Invalid,
                "cache_fill front violates the Pareto dominance invariant",
                self.meta_plain(start),
            );
        }
        let key = instance_key(pipeline, platform);
        let points = front.len() as u64;
        let stored = self.store_front_raw(
            key,
            CachedFront {
                front: Arc::new(front),
                complete,
                solver,
                exact_capable,
            },
        );
        Response::ok(
            id,
            CacheFillResult { stored, points }.to_value(),
            self.meta_plain(start),
        )
    }

    /// A structured timeout for a request whose budget is already gone —
    /// checked *after* the cache lookup, so queued-past-deadline requests
    /// with cached answers are still served, and before any compute
    /// starts, so a doomed solve never occupies a worker.
    fn doomed_solve(&self, id: Option<u64>, budget: &Budget, start: Instant) -> Option<Response> {
        budget.is_exhausted().then(|| {
            Response::error(
                id,
                ErrorKind::Timeout,
                "deadline expired or request cancelled before solving started",
                self.meta_plain(start),
            )
        })
    }

    /// Pre-computes (and caches) the complete front for an instance, so a
    /// batch of threshold queries over it is answered by front reads. Used
    /// by batch grouping; a no-op when caching is disabled, when a usable
    /// front is already cached, or when no exact front backend applies
    /// (queried through the engine's capability surface). Panics are
    /// contained (the per-request path reports them as structured
    /// errors).
    pub fn warm_front(&self, pipeline: &Pipeline, platform: &Platform) {
        if self.cache.capacity() == 0 {
            return;
        }
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let key = Some(instance_key(pipeline, platform));
            let budget = Budget::unlimited();
            if self
                .lookup_front(key, FrontRule::Usable(&budget), None)
                .is_none()
                && self.engine.front_backend(pipeline, platform).is_some()
            {
                self.build_front(pipeline, platform, key, &budget, None);
            }
        }));
    }

    /// Answers a group of threshold queries over one instance from its
    /// cached **complete** front in a single vectorized sweep
    /// ([`threshold_read_batch`]) — `None` when no complete front is
    /// cached under `key` (callers fall back to the per-request path).
    /// Each `(slot, id, objective)` query yields `(slot, response)`; the
    /// responses are byte-identical to what the per-request cache-hit
    /// path produces (same payload rendering, same metadata, same proven
    /// infeasibility on a complete front), and the request/latency
    /// counters advance exactly as if each query had been handled alone.
    #[must_use]
    pub fn read_solves_from_front(
        &self,
        key: u128,
        queries: &[(usize, Option<u64>, Objective)],
    ) -> Option<Vec<(usize, Response)>> {
        let hit = match self.cache.get(key) {
            Some(CachedEntry::Front(hit)) if hit.complete => hit,
            _ => return None,
        };
        let objectives: Vec<Objective> = queries.iter().map(|&(_, _, o)| o).collect();
        let answers = threshold_read_batch(&hit.front, &objectives);
        let responses = queries
            .iter()
            .zip(answers)
            .map(|(&(slot, id, objective), answer)| {
                // Per-query clock: each response's elapsed_us and
                // histogram sample covers its own rendering, not the
                // whole batch so far.
                let start = Instant::now();
                self.requests.fetch_add(1, Ordering::Relaxed);
                let meta = self.meta(true, Some(hit.solver), Some(true), start);
                let response = match answer {
                    Some(sol) => Response::ok(id, solve_result(sol), meta),
                    // The front is complete, so an empty read proves
                    // infeasibility — same contract (and same structured
                    // `bound` echo) as the per-request path.
                    None => Response::infeasible(
                        id,
                        objective,
                        format!("no mapping satisfies {objective:?}"),
                        meta,
                    ),
                };
                self.metrics.record("solve", elapsed_us(start));
                (slot, response)
            })
            .collect();
        Some(responses)
    }
}

/// Which cached fronts a front consumer may read.
#[derive(Clone, Copy)]
enum FrontRule<'a> {
    /// `Solve`, `Pareto` and the batch warm-up: complete fronts always;
    /// incomplete ones only when the request itself carries a
    /// **deadline** (best-effort is the contract anyway — a mere
    /// cancellation link, which every TCP request has, does not count) or
    /// when no exact backend could do better.
    Usable(&'a Budget),
    /// Explanations: complete fronts only (see [`ServiceOracle`]).
    CompleteOnly,
}

/// The service-side sat oracle behind explanations: engine front solves
/// with the front cache in the loop. Only **complete** cached fronts are
/// served from the cache — an incomplete front's shape depends on which
/// node solved it and under what budget, and explanations must be
/// byte-identical from every fleet entry node — and every freshly solved
/// front goes back through the same completeness-aware store (and fleet
/// replication hook) as a solve, so an explanation warms the cache for
/// later queries over the same (possibly relaxed) instances.
struct ServiceOracle<'a> {
    service: &'a SolverService,
    budget: &'a Budget,
    use_cache: bool,
}

impl FrontOracle for ServiceOracle<'_> {
    fn front(&mut self, pipeline: &Pipeline, platform: &Platform, _variant: u8) -> OracleFront {
        let key = self.use_cache.then(|| instance_key(pipeline, platform));
        let (entry, cached) = match self
            .service
            .lookup_front(key, FrontRule::CompleteOnly, None)
        {
            Some(hit) => (hit, true),
            None => (
                self.service
                    .build_front(pipeline, platform, key, self.budget, None),
                false,
            ),
        };
        OracleFront {
            front: entry.front,
            complete: entry.complete,
            cached,
        }
    }
}

/// Records a `cache.lookup` span covering a finished lookup. `kind` names
/// the entry class (`front` / `result`); `complete` (when known) records
/// the completeness tier of the hit.
fn cache_span(
    trace: Option<TraceScope<'_>>,
    kind: &str,
    start_us: Option<u64>,
    hit: bool,
    complete: Option<bool>,
) {
    let Some(scope) = trace else { return };
    let start = start_us.unwrap_or(0);
    let mut attrs = vec![
        ("kind".to_owned(), kind.to_owned()),
        ("hit".to_owned(), hit.to_string()),
    ];
    if let Some(complete) = complete {
        attrs.push(("complete".to_owned(), complete.to_string()));
    }
    scope.trace.add(
        "cache.lookup",
        Some(scope.parent),
        start,
        scope.trace.elapsed_us().saturating_sub(start),
        attrs,
    );
}

/// Renders a solution as the `Solve` result payload.
fn solve_result(sol: BiSolution) -> serde::Value {
    SolveResult {
        mapping_display: sol.mapping.to_string(),
        mapping: sol.mapping,
        latency: sol.latency,
        failure_prob: sol.failure_prob,
    }
    .to_value()
}

fn pareto_point_out(pt: &rpwf_core::pareto::ParetoPoint<IntervalMapping>) -> ParetoPointOut {
    ParetoPointOut {
        latency: pt.latency,
        failure_prob: pt.failure_prob,
        mapping_display: pt.payload.to_string(),
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".into()
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// One queued request: the raw line, its receipt time (deadlines count
/// from here, including queue wait), where to deliver each response line
/// (streamed requests deliver several), and an optional cancellation
/// handle (shared per connection) linked into the request budget.
pub struct Job {
    /// Raw request line.
    pub line: String,
    /// Receipt instant.
    pub received: Instant,
    /// Response consumer, called once per response line in order.
    pub respond: Box<dyn FnMut(String) + Send>,
    /// Cancellation handle; firing it aborts the solve mid-flight.
    pub cancel: Option<CancelHandle>,
    /// Forces local handling, bypassing the router's placement: set by
    /// the reactor's forward machine when this node answers as a
    /// surviving owner or every owning peer is unreachable (the fallback
    /// solve) — re-routing would just re-enter the forward it came from.
    pub local: bool,
}

/// A fixed pool of solver workers fed by an MPMC channel. Every job goes
/// through the pool's [`Router`] — single-node pools route everything to
/// the local service ([`LocalRouter`]); fleet pools hand each request a
/// peer owns to the reactor as a forward and answer the rest.
pub struct WorkerPool {
    router: Arc<dyn Router>,
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    admission: Arc<Admission>,
}

impl WorkerPool {
    /// Spawns `service.config().effective_workers()` workers routing
    /// everything to `service` (single-node behavior).
    #[must_use]
    pub fn new(service: Arc<SolverService>) -> Self {
        Self::with_options(
            Arc::new(LocalRouter::new(service)),
            &ServingOptions::default(),
        )
    }

    /// Spawns a pool whose workers route jobs through `router`, with
    /// explicit serving-plane tuning — the queue bound and default
    /// admission deadline feed the pool's `Admission` controller
    /// (consulted by the reactor transport; direct `submit` callers are
    /// never shed).
    #[must_use]
    pub fn with_options(router: Arc<dyn Router>, options: &ServingOptions) -> Self {
        let count = router.service().config().effective_workers().max(1);
        let admission = Arc::new(Admission::new(
            options.effective_max_queue(),
            count,
            options.admission_deadline,
        ));
        let (tx, rx) = channel::unbounded::<Job>();
        let workers = (0..count)
            .map(|i| {
                let rx = rx.clone();
                let router = Arc::clone(&router);
                let admission = Arc::clone(&admission);
                std::thread::Builder::new()
                    .name(format!("rpwf-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            admission.on_dequeue();
                            let start = Instant::now();
                            // A request a peer owns becomes a nonblocking
                            // reactor continuation instead of pinning this
                            // worker for a network roundtrip.
                            let mut job = if job.local {
                                job
                            } else {
                                match router.prepare_async_forward(job) {
                                    Ok(forward) => {
                                        forward.send();
                                        admission.on_complete(start.elapsed().as_micros() as u64);
                                        continue;
                                    }
                                    Err(job) => job,
                                }
                            };
                            if job.local {
                                router.service().handle_line_into(
                                    &job.line,
                                    job.received,
                                    job.cancel.as_ref(),
                                    &mut job.respond,
                                );
                            } else {
                                router.handle_line(
                                    &job.line,
                                    job.received,
                                    job.cancel.as_ref(),
                                    &mut job.respond,
                                );
                            }
                            admission.on_complete(start.elapsed().as_micros() as u64);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            router,
            tx: Some(tx),
            workers,
            admission,
        }
    }

    /// The pool's admission controller (shared with the reactor, which
    /// consults it before enqueueing and reports its counters).
    pub(crate) fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// Enqueues a fully built [`Job`], keeping the admission queue-depth
    /// gauge exact. Every submission path funnels through here.
    pub(crate) fn submit_job(&self, job: Job) {
        self.admission.on_enqueue();
        assert!(
            self.tx
                .as_ref()
                .expect("pool alive while not dropped")
                .send(job)
                .is_ok(),
            "workers outlive the pool handle"
        );
    }

    /// The shared service.
    #[must_use]
    pub fn service(&self) -> &Arc<SolverService> {
        self.router.service()
    }

    /// The router the workers dispatch through.
    #[must_use]
    pub fn router(&self) -> &Arc<dyn Router> {
        &self.router
    }

    /// Enqueues a request line; each response line is passed to `respond`
    /// on a worker thread, in order.
    pub fn submit(&self, line: String, received: Instant, respond: Box<dyn FnMut(String) + Send>) {
        self.submit_job(Job {
            line,
            received,
            respond,
            cancel: None,
            local: false,
        });
    }

    /// Handles a batch of lines with **front grouping**: requests are
    /// grouped by the canonical instance hash and one complete Pareto
    /// front is computed per distinct `(pipeline, platform)` (in parallel
    /// across instances). Threshold queries over a grouped instance are
    /// then answered in one **vectorized sweep** over its cached front
    /// ([`rpwf_algo::front::threshold_read_batch`] — `k` sorted cutoffs in
    /// one pass instead of `k` binary searches); everything else is
    /// answered concurrently through the pool. Answers are byte-identical
    /// to per-request solving — the per-request path reads the same cached
    /// fronts, and the batch sweep is property-tested equal to independent
    /// reads. Responses come back in input order (a streamed request's
    /// lines are newline-joined into its slot).
    ///
    /// On a sharded (fleet) router the grouping pass is skipped — each
    /// request routes to its owning node, and grouping is that node's
    /// business.
    #[must_use]
    pub fn submit_batch(&self, lines: Vec<String>) -> Vec<String> {
        if self.router.is_sharded() {
            return self.submit_batch_ungrouped(lines);
        }
        // One parse pass shared by the warm and fast-read stages (the
        // worker path re-parses only the slots it actually handles).
        let parsed: Vec<Option<Request>> = lines
            .iter()
            .map(|line| serde_json::from_str::<Request>(line.trim()).ok())
            .collect();
        self.warm_batch_fronts(&parsed);
        let mut fast = self.batch_front_reads(&parsed);
        if fast.is_empty() {
            return self.submit_batch_ungrouped(lines);
        }
        let received = Instant::now();
        let n = lines.len();
        let (tx, rx) = channel::unbounded::<(usize, String)>();
        for (i, line) in lines.into_iter().enumerate() {
            if fast.contains_key(&i) {
                continue;
            }
            let tx = tx.clone();
            self.submit(
                line,
                received,
                Box::new(move |resp| {
                    let _ = tx.send((i, resp));
                }),
            );
        }
        drop(tx);
        let mut out: Vec<Vec<String>> = vec![Vec::new(); n];
        for (i, line) in fast.drain() {
            out[i].push(line);
        }
        while let Ok((i, resp)) = rx.recv() {
            out[i].push(resp);
        }
        out.into_iter().map(|lines| lines.join("\n")).collect()
    }

    /// [`submit_batch`](Self::submit_batch) without the grouping pass:
    /// every request is solved independently. The per-request baseline of
    /// the E16 batch-amortization experiment, and the right choice when a
    /// batch is known to have no shared instances.
    #[must_use]
    pub fn submit_batch_ungrouped(&self, lines: Vec<String>) -> Vec<String> {
        let received = Instant::now();
        let n = lines.len();
        let (tx, rx) = channel::unbounded::<(usize, String)>();
        for (i, line) in lines.into_iter().enumerate() {
            let tx = tx.clone();
            self.submit(
                line,
                received,
                Box::new(move |resp| {
                    let _ = tx.send((i, resp));
                }),
            );
        }
        drop(tx);
        let mut out: Vec<Vec<String>> = vec![Vec::new(); n];
        while let Ok((i, resp)) = rx.recv() {
            out[i].push(resp);
        }
        out.into_iter().map(|lines| lines.join("\n")).collect()
    }

    /// The grouping pass of [`submit_batch`](Self::submit_batch): collect
    /// the distinct instances behind the batch's front-shaped commands and
    /// warm the front cache for each, spreading the distinct solves over
    /// the configured worker parallelism. `no_cache` requests opt out of
    /// grouping (they would bypass the shared front anyway).
    fn warm_batch_fronts(&self, requests: &[Option<Request>]) {
        if self.service().config().cache_capacity == 0 {
            return; // nowhere to share fronts through
        }
        let mut distinct: HashMap<u128, (Pipeline, Platform)> = HashMap::new();
        for request in requests.iter().flatten() {
            if request.no_cache.unwrap_or(false) {
                continue;
            }
            let Some(key) = request.cmd.front_key() else {
                continue;
            };
            if let Command::Solve {
                pipeline, platform, ..
            }
            | Command::Pareto {
                pipeline, platform, ..
            } = &request.cmd
            {
                distinct
                    .entry(key)
                    .or_insert_with(|| (pipeline.clone(), platform.clone()));
            }
        }
        if distinct.is_empty() {
            return;
        }
        let instances: Vec<(Pipeline, Platform)> = distinct.into_values().collect();
        let workers = self.service().config().effective_workers().max(1);
        let per_thread = instances.len().div_ceil(workers).max(1);
        let service = self.service();
        std::thread::scope(|scope| {
            for chunk in instances.chunks(per_thread) {
                scope.spawn(move || {
                    for (pipeline, platform) in chunk {
                        service.warm_front(pipeline, platform);
                    }
                });
            }
        });
    }

    /// The vectorized read pass of [`submit_batch`](Self::submit_batch):
    /// threshold (`Solve`) queries that share a warmed instance are
    /// answered together in one sorted sweep over its cached complete
    /// front. Returns the pre-answered response line per input slot;
    /// slots not answered here go through the normal per-request path.
    fn batch_front_reads(&self, requests: &[Option<Request>]) -> HashMap<usize, String> {
        let mut answered = HashMap::new();
        let service = self.service();
        if service.config().cache_capacity == 0 {
            return answered;
        }
        // Group the batch's plain threshold queries by instance.
        let mut groups: HashMap<u128, Vec<(usize, Option<u64>, Objective)>> = HashMap::new();
        for (i, request) in requests.iter().enumerate() {
            let Some(request) = request else { continue };
            if request.no_cache.unwrap_or(false) {
                continue;
            }
            // Traced requests keep the full per-request span path — the
            // vectorized sweep has no cache/engine spans to report.
            if request.trace.unwrap_or(false) {
                continue;
            }
            // Explain-flagged requests do too: an infeasible answer must
            // attach `meta.explain`, which the sweep does not build.
            if request.explain.unwrap_or(false) {
                continue;
            }
            let Some(key) = request.cmd.front_key() else {
                continue;
            };
            if let Command::Solve { objective, .. } = &request.cmd {
                groups
                    .entry(key)
                    .or_default()
                    .push((i, request.id, *objective));
            }
        }
        for (key, group) in groups {
            // A single query gains nothing over the per-request read.
            if group.len() < 2 {
                continue;
            }
            let Some(responses) = service.read_solves_from_front(key, &group) else {
                continue;
            };
            for (slot, response) in responses {
                answered.insert(slot, response.to_line());
            }
        }
        answered
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the channel, then wait for in-flight work.
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpwf_algo::Objective;
    use serde::Deserialize as _;

    fn service() -> SolverService {
        SolverService::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        })
    }

    fn solve_request(id: u64, latency_bound: f64) -> Request {
        Request {
            id: Some(id),
            deadline_ms: None,
            no_cache: None,
            hop: None,
            trace: None,
            trace_ctx: None,
            explain: None,
            cmd: Command::Solve {
                pipeline: rpwf_gen::figure5_pipeline(),
                platform: rpwf_gen::figure5_platform(),
                objective: Objective::MinFpUnderLatency(latency_bound),
            },
        }
    }

    #[test]
    fn ping_pongs() {
        let svc = service();
        let resp = svc.handle(
            Request {
                id: Some(1),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Ping,
            },
            Instant::now(),
        );
        assert_eq!(resp.status, "ok");
        assert_eq!(resp.result, Some(serde::Value::Str("pong".into())));
    }

    #[test]
    fn solve_figure5_is_exact_and_cached_on_repeat() {
        let svc = service();
        let first = svc.handle(solve_request(1, 22.0), Instant::now());
        assert_eq!(first.status, "ok", "{:?}", first.error);
        assert!(!first.meta.cache_hit);
        assert_eq!(first.meta.solver, Some(Provenance::Exact));
        assert_eq!(first.meta.exact_complete, Some(true));

        let second = svc.handle(solve_request(2, 22.0), Instant::now());
        assert_eq!(second.status, "ok");
        assert!(
            second.meta.cache_hit,
            "identical request must hit the cache"
        );
        // Byte-identical result payload.
        assert_eq!(
            serde_json::to_string(&first.result).unwrap(),
            serde_json::to_string(&second.result).unwrap()
        );
    }

    #[test]
    fn different_thresholds_share_one_cached_front() {
        let svc = service();
        let first = svc.handle(solve_request(1, 22.0), Instant::now());
        assert!(!first.meta.cache_hit);
        // A *different* threshold over the same instance is a read off the
        // same cached front — the front, not the query, is the cache unit.
        let other = svc.handle(solve_request(2, 30.0), Instant::now());
        assert_eq!(other.status, "ok", "{:?}", other.error);
        assert!(
            other.meta.cache_hit,
            "a new threshold over a cached instance must hit the front cache"
        );
        assert_eq!(other.meta.exact_complete, Some(true));
        // And the Pareto command reads the very same entry.
        let front = svc.handle(
            Request {
                id: Some(3),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Pareto {
                    pipeline: rpwf_gen::figure5_pipeline(),
                    platform: rpwf_gen::figure5_platform(),
                    chunk: None,
                },
            },
            Instant::now(),
        );
        assert_eq!(front.status, "ok");
        assert!(front.meta.cache_hit, "pareto shares the solve's front");
    }

    #[test]
    fn traced_solve_returns_span_tree_and_feeds_the_slow_log() {
        let svc = service();
        let mut req = solve_request(1, 22.0);
        req.trace = Some(true);
        let resp = svc.handle(req, Instant::now());
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        let tree = resp.meta.trace.expect("trace requested");
        let names: Vec<&str> = tree.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names[0], "request");
        assert!(names.contains(&"decode"), "{names:?}");
        assert!(names.contains(&"cache.lookup"), "{names:?}");
        assert!(names.contains(&"engine.plan"), "{names:?}");
        assert!(names.contains(&"cache.write"), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("solver.")), "{names:?}");
        // Every non-root span fits inside the root's window.
        let root_elapsed = tree.root().unwrap().elapsed_us;
        for span in &tree.spans[1..] {
            assert!(
                span.start_us + span.elapsed_us <= root_elapsed + 1,
                "span {} [{}..{}] escapes the root window {root_elapsed}",
                span.name,
                span.start_us,
                span.start_us + span.elapsed_us,
            );
            assert!(span.parent.is_some(), "only the root is parentless");
        }

        // An untraced request carries no tree and does not enter the log.
        let plain = svc.handle(solve_request(2, 23.0), Instant::now());
        assert!(plain.meta.trace.is_none());

        // The slow-query ring lists the traced request.
        let dump = svc.handle(
            Request {
                id: Some(3),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Trace { limit: None },
            },
            Instant::now(),
        );
        assert_eq!(dump.status, "ok");
        let result = TraceResult::from_value(&dump.result.expect("result")).expect("shape");
        assert_eq!(result.entries.len(), 1);
        assert_eq!(result.entries[0].id, tree.id.0);
        assert_eq!(result.entries[0].command, "solve");
        assert_eq!(result.entries[0].spans, tree);
    }

    #[test]
    fn trace_counters_and_solver_metrics_reach_the_prometheus_dump() {
        let svc = service();
        let mut req = solve_request(1, 22.0);
        req.trace = Some(true);
        let _ = svc.handle(req, Instant::now());
        // The same line twice on this thread: a memo miss, then a hit.
        let line = serde_json::to_string(&solve_request(4, 23.0)).expect("serializes");
        let _ = svc.handle_line(&line, Instant::now());
        let _ = svc.handle_line(&line, Instant::now());
        let dump = svc.render_metrics();
        for name in [
            "rpwf_decode_memo_hits_total",
            "rpwf_decode_memo_misses_total",
        ] {
            assert!(dump.contains(&format!("# HELP {name} ")), "{dump}");
            assert!(dump.contains(&format!("# TYPE {name} counter")), "{dump}");
            let value: u64 = dump
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} has a value: {dump}"));
            assert!(value >= 2, "{name} counts both instance halves: {dump}");
        }
        assert!(dump.contains("rpwf_cache_hit_ratio "), "{dump}");
        assert!(dump.contains("rpwf_uptime_seconds "), "{dump}");
        assert!(dump.contains("rpwf_build_info{version="), "{dump}");
        assert!(dump.contains("rpwf_trace_requests_total 1"), "{dump}");
        assert!(dump.contains("rpwf_trace_slowlog_entries 1"), "{dump}");
        assert!(
            dump.contains("rpwf_engine_solver_calls_total{solver="),
            "{dump}"
        );
        // The solve above ran at least one engine backend.
        let stats = svc.handle(
            Request {
                id: Some(2),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Stats,
            },
            Instant::now(),
        );
        let result = StatsResult::from_value(&stats.result.expect("result")).expect("shape");
        assert!(
            result.solvers.iter().any(|s| s.calls > 0),
            "{:?}",
            result.solvers
        );
    }

    #[test]
    fn infeasible_threshold_from_a_cached_front_is_proven() {
        let svc = service();
        let _ = svc.handle(solve_request(1, 22.0), Instant::now());
        let impossible = svc.handle(solve_request(2, 1e-6), Instant::now());
        assert_eq!(impossible.status, "error");
        let err = impossible.error.expect("error body");
        assert_eq!(err.kind, "infeasible");
        let bound = err.bound.expect("structured bound");
        assert_eq!(bound.axis, "latency");
        assert_eq!(bound.value, 1e-6);
    }

    #[test]
    fn expired_deadline_yields_structured_timeout() {
        let svc = service();
        let mut req = solve_request(9, 22.0);
        req.deadline_ms = Some(0);
        // Received "long ago" relative to a 0 ms deadline.
        let resp = svc.handle(req, Instant::now() - Duration::from_millis(5));
        assert_eq!(resp.status, "error");
        let err = resp.error.expect("error body");
        assert_eq!(err.kind, "timeout");
    }

    #[test]
    fn cached_front_answers_even_after_the_deadline_expired() {
        // A request that sat in the queue past its deadline is still
        // served instantly when its instance's front is cached — the
        // budget check runs after the cache lookup, not before.
        let svc = service();
        let _ = svc.handle(solve_request(1, 22.0), Instant::now());
        let mut req = solve_request(2, 22.0);
        req.deadline_ms = Some(0);
        let resp = svc.handle(req, Instant::now() - Duration::from_millis(5));
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        assert!(resp.meta.cache_hit);
        assert_eq!(resp.meta.exact_complete, Some(true));
    }

    #[test]
    fn infeasible_is_reported_as_such() {
        let svc = service();
        let req = Request {
            id: None,
            deadline_ms: None,
            no_cache: None,
            hop: None,
            trace: None,
            trace_ctx: None,
            explain: None,
            cmd: Command::Solve {
                pipeline: Pipeline::uniform(2, 100.0, 100.0).unwrap(),
                platform: Platform::fully_homogeneous(3, 1.0, 1.0, 0.9).unwrap(),
                objective: Objective::MinFpUnderLatency(1.0),
            },
        };
        let resp = svc.handle(req, Instant::now());
        assert_eq!(resp.status, "error");
        let err = resp.error.expect("error body");
        assert_eq!(err.kind, "infeasible");
        let bound = err.bound.expect("structured bound");
        assert_eq!(bound.axis, "latency");
        assert_eq!(bound.value, 1.0);
    }

    fn impossible_request(id: u64, cmd: fn(Pipeline, Platform, Objective) -> Command) -> Request {
        Request {
            id: Some(id),
            deadline_ms: None,
            no_cache: None,
            hop: None,
            trace: None,
            trace_ctx: None,
            explain: None,
            cmd: cmd(
                Pipeline::uniform(2, 100.0, 100.0).unwrap(),
                Platform::fully_homogeneous(3, 1.0, 1.0, 0.9).unwrap(),
                Objective::MinFpUnderLatency(1.0),
            ),
        }
    }

    #[test]
    fn explain_command_enumerates_conflicts_and_what_ifs() {
        let svc = service();
        let resp = svc.handle(
            impossible_request(1, |pipeline, platform, objective| Command::Explain {
                pipeline,
                platform,
                objective,
            }),
            Instant::now(),
        );
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        assert_eq!(resp.meta.exact_complete, Some(true));
        let result: ExplainResult =
            serde_json::from_str(&serde_json::to_string(&resp.result).expect("serializes"))
                .expect("explain payload");
        assert!(!result.feasible);
        assert!(result.proven);
        assert_eq!(result.universe.len(), 4);
        assert!(!result.muses.is_empty());
        assert!(!result.mcses.is_empty());
        // Every conflict involves the bound (index 0): without it any
        // subset is trivially satisfiable.
        assert!(result.muses.iter().all(|mus| mus.contains(&0)));
        let relaxation = result.relaxation.expect("infeasible has a what-if");
        assert_eq!(relaxation.axis, "latency");
        assert!(relaxation.latency.expect("nearest latency") > 1.0);
    }

    #[test]
    fn explain_of_a_feasible_query_has_nothing_to_explain() {
        let svc = service();
        let resp = svc.handle(
            Request {
                id: Some(1),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Explain {
                    pipeline: rpwf_gen::figure5_pipeline(),
                    platform: rpwf_gen::figure5_platform(),
                    objective: Objective::MinFpUnderLatency(22.0),
                },
            },
            Instant::now(),
        );
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        let result: ExplainResult =
            serde_json::from_str(&serde_json::to_string(&resp.result).expect("serializes"))
                .expect("explain payload");
        assert!(result.feasible);
        assert!(result.muses.is_empty());
        assert!(result.mcses.is_empty());
        assert!(result.relaxation.is_none());
    }

    #[test]
    fn explain_flag_attaches_the_explanation_to_infeasible_solves() {
        let svc = service();
        // Feasible solves never carry `meta.explain`, flag or not.
        let mut ok = solve_request(1, 22.0);
        ok.explain = Some(true);
        let resp = svc.handle(ok, Instant::now());
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        assert!(resp.meta.explain.is_none());

        let mut req = impossible_request(2, |pipeline, platform, objective| Command::Solve {
            pipeline,
            platform,
            objective,
        });
        req.explain = Some(true);
        let resp = svc.handle(req, Instant::now());
        assert_eq!(resp.status, "error");
        assert_eq!(resp.error.expect("error body").kind, "infeasible");
        let attached = resp.meta.explain.expect("explanation attached");
        // Byte-identical with the standalone `Explain` command's payload.
        let standalone = svc.handle(
            impossible_request(3, |pipeline, platform, objective| Command::Explain {
                pipeline,
                platform,
                objective,
            }),
            Instant::now(),
        );
        let standalone: ExplainResult =
            serde_json::from_str(&serde_json::to_string(&standalone.result).expect("serializes"))
                .expect("explain payload");
        assert_eq!(attached, standalone);

        // Without the flag an infeasible solve stays lean.
        let bare = svc.handle(
            impossible_request(4, |pipeline, platform, objective| Command::Solve {
                pipeline,
                platform,
                objective,
            }),
            Instant::now(),
        );
        assert_eq!(bare.status, "error");
        assert!(bare.meta.explain.is_none());
    }

    #[test]
    fn explain_warms_the_front_cache_and_reuses_it() {
        let svc = service();
        let cold = svc.handle(
            impossible_request(1, |pipeline, platform, objective| Command::Explain {
                pipeline,
                platform,
                objective,
            }),
            Instant::now(),
        );
        assert_eq!(cold.status, "ok", "{:?}", cold.error);
        let warm = svc.handle(
            impossible_request(2, |pipeline, platform, objective| Command::Explain {
                pipeline,
                platform,
                objective,
            }),
            Instant::now(),
        );
        assert!(warm.meta.cache_hit, "warm explain reads cached fronts");
        // Identical payloads warm or cold — effort never leaks into them.
        assert_eq!(
            serde_json::to_string(&cold.result).expect("serializes"),
            serde_json::to_string(&warm.result).expect("serializes"),
        );
        let metrics = svc.render_metrics();
        assert!(metrics.contains("rpwf_explain_calls_total 2"), "{metrics}");
        assert!(
            metrics.contains("rpwf_explain_oracle_cached_total"),
            "{metrics}"
        );
    }

    /// Caches one point of the instance's exact front as an incomplete
    /// front of an exact-capable instance (what a budget-cut solve
    /// leaves behind) and returns that point's latency.
    fn seed_one_exact_point(svc: &SolverService, pipeline: &Pipeline, platform: &Platform) -> f64 {
        let exact = svc.engine().solve(&SolveRequest {
            pipeline,
            platform,
            want: Want::Front,
            budget: &Budget::unlimited(),
        });
        let point = exact.front_answer().expect("front answer").points()[0].clone();
        let mut front = ParetoFront::new();
        front.insert(point.latency, point.failure_prob, point.payload);
        let mut fill = solve_request(0, 0.0);
        fill.cmd = Command::CacheFill {
            pipeline: pipeline.clone(),
            platform: platform.clone(),
            front,
            complete: false,
            solver: Provenance::Exact,
            exact_capable: true,
        };
        let resp = svc.handle(fill, Instant::now());
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        point.latency
    }

    #[test]
    fn each_front_consumer_applies_its_cache_rule_to_an_incomplete_front() {
        let pipeline = rpwf_gen::figure5_pipeline();
        let platform = rpwf_gen::figure5_platform();
        let seeded = || {
            let svc = service();
            let latency = seed_one_exact_point(&svc, &pipeline, &platform);
            (svc, latency)
        };
        let with_deadline = |mut req: Request, deadline: Option<u64>| {
            req.deadline_ms = deadline;
            req
        };
        let pareto = |deadline| {
            let mut req = solve_request(2, 0.0);
            req.cmd = Command::Pareto {
                pipeline: pipeline.clone(),
                platform: platform.clone(),
                chunk: None,
            };
            with_deadline(req, deadline)
        };

        // Without a deadline, Solve and Pareto re-solve past the
        // incomplete front; with one, they read it as a best effort.
        for (deadline, cache_hit, exact_complete) in
            [(None, false, true), (Some(60_000), true, false)]
        {
            let (svc, latency) = seeded();
            let solve = svc.handle(
                with_deadline(solve_request(1, latency), deadline),
                Instant::now(),
            );
            assert_eq!(solve.status, "ok", "{:?}", solve.error);
            assert_eq!(
                solve.meta.cache_hit, cache_hit,
                "solve, deadline {deadline:?}"
            );
            assert_eq!(solve.meta.exact_complete, Some(exact_complete));

            let (svc, _) = seeded();
            let front = svc.handle(pareto(deadline), Instant::now());
            assert_eq!(front.status, "ok", "{:?}", front.error);
            assert_eq!(
                front.meta.cache_hit, cache_hit,
                "pareto, deadline {deadline:?}"
            );
            assert_eq!(front.meta.exact_complete, Some(exact_complete));
            if cache_hit {
                let points = front.result.as_ref().and_then(|r| r.get("points"));
                assert_eq!(
                    points.and_then(serde::Value::as_seq).map(<[_]>::len),
                    Some(1)
                );
            }
        }

        // Explanations read complete fronts only, deadline or not: the
        // payload matches an unseeded service's byte for byte.
        let explain = |id| {
            let req = impossible_request(id, |pipeline, platform, objective| Command::Explain {
                pipeline,
                platform,
                objective,
            });
            with_deadline(req, Some(60_000))
        };
        let Command::Explain {
            pipeline: impossible_pipeline,
            platform: impossible_platform,
            ..
        } = explain(0).cmd
        else {
            unreachable!("explain request")
        };
        let svc = service();
        seed_one_exact_point(&svc, &impossible_pipeline, &impossible_platform);
        let from_seeded = svc.handle(explain(1), Instant::now());
        let from_fresh = service().handle(explain(1), Instant::now());
        assert_eq!(from_seeded.status, "ok", "{:?}", from_seeded.error);
        // Relaxed variants of this homogeneous platform share its instance
        // key, so even the unseeded service reports a hit: the seeded entry
        // must add nothing to what it sees.
        assert_eq!(from_seeded.meta.cache_hit, from_fresh.meta.cache_hit);
        assert_eq!(from_seeded.meta.exact_complete, Some(true), "proven");
        assert_eq!(
            serde_json::to_string(&from_seeded.result).expect("serializes"),
            serde_json::to_string(&from_fresh.result).expect("serializes"),
        );

        // The batch warm-up replaces the incomplete front with the exact
        // one, so both grouped queries read a complete front.
        let (svc, latency) = seeded();
        let pool = WorkerPool::new(Arc::new(svc));
        let lines = [solve_request(1, latency), solve_request(2, latency * 1.5)]
            .iter()
            .map(|req| serde_json::to_string(req).expect("serializes"))
            .collect();
        for line in pool.submit_batch(lines) {
            let resp: Response = serde_json::from_str(&line).expect("parses");
            assert_eq!(resp.status, "ok", "{:?}", resp.error);
            assert!(resp.meta.cache_hit, "answered by the warmed front");
            assert_eq!(resp.meta.exact_complete, Some(true));
        }
    }

    #[test]
    fn malformed_line_is_invalid_not_a_crash() {
        let svc = service();
        let line = svc.handle_line("{not json", Instant::now());
        let resp: Response = serde_json::from_str(&line).expect("well-formed response");
        assert_eq!(resp.status, "error");
        assert_eq!(resp.error.expect("error body").kind, "invalid");
    }

    #[test]
    fn gen_stats_roundtrip() {
        let svc = service();
        let gen = svc.handle(
            Request {
                id: Some(5),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Gen {
                    class: "ch".into(),
                    failure: "het".into(),
                    n: 3,
                    m: 4,
                    seed: 11,
                },
            },
            Instant::now(),
        );
        assert_eq!(gen.status, "ok");
        let stats = svc.handle(
            Request {
                id: Some(6),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Stats,
            },
            Instant::now(),
        );
        assert_eq!(stats.status, "ok");
        let text = serde_json::to_string(&stats.result).unwrap();
        assert!(text.contains("\"workers\""), "{text}");
        assert!(text.contains("\"cache\""), "{text}");
        // The gen request above is summarized in the command histograms.
        assert!(text.contains("\"commands\""), "{text}");
        assert!(text.contains("\"command\":\"gen\""), "{text}");
    }

    #[test]
    fn metrics_dump_is_prometheus_style() {
        let svc = service();
        let _ = svc.handle(solve_request(1, 22.0), Instant::now());
        let resp = svc.handle(
            Request {
                id: Some(2),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Metrics,
            },
            Instant::now(),
        );
        assert_eq!(resp.status, "ok");
        let text = match resp.result.expect("metrics text") {
            serde::Value::Str(s) => s,
            other => panic!("metrics result must be text, got {other:?}"),
        };
        // The solve plus the metrics request itself.
        assert!(text.contains("rpwf_requests_total 2"), "{text}");
        assert!(text.contains("rpwf_cache_entries 1"), "{text}");
        assert!(
            text.contains("rpwf_command_requests_total{cmd=\"solve\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rpwf_command_latency_us_count{cmd=\"solve\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn streamed_front_reassembles_to_the_one_shot_front() {
        let svc = service();
        let pareto = |id: u64, chunk: Option<usize>| Request {
            id: Some(id),
            deadline_ms: None,
            no_cache: Some(true),
            hop: None,
            trace: None,
            trace_ctx: None,
            explain: None,
            cmd: Command::Pareto {
                pipeline: rpwf_gen::figure5_pipeline(),
                platform: rpwf_gen::figure5_platform(),
                chunk,
            },
        };
        let one_shot = svc.handle(pareto(1, None), Instant::now());
        assert_eq!(one_shot.status, "ok");
        let one_shot_points = one_shot
            .result
            .as_ref()
            .and_then(|r| r.get("points"))
            .cloned()
            .expect("points");

        let mut responses: Vec<Response> = Vec::new();
        svc.handle_request_into(pareto(2, Some(3)), Instant::now(), None, &mut |r| {
            responses.push(r);
        });
        let (end, parts) = responses.split_last().expect("at least the end line");
        assert_eq!(end.status, "ok");
        assert!(!parts.is_empty(), "figure 5 front is larger than one chunk");
        assert!(parts.iter().all(|p| p.status == "part"));
        let mut reassembled: Vec<serde::Value> = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let result = part.result.as_ref().expect("part payload");
            assert_eq!(
                result.get("seq").and_then(serde::Value::as_u64),
                Some(i as u64)
            );
            let points = result.get("points").and_then(serde::Value::as_seq).unwrap();
            assert!(points.len() <= 3, "chunk bound respected");
            reassembled.extend(points.iter().cloned());
        }
        let end_result = end.result.as_ref().expect("end payload");
        assert_eq!(
            end_result.get("parts").and_then(serde::Value::as_u64),
            Some(parts.len() as u64)
        );
        assert_eq!(
            end_result
                .get("points_total")
                .and_then(serde::Value::as_u64),
            Some(reassembled.len() as u64)
        );
        assert_eq!(end_result.get("complete"), Some(&serde::Value::Bool(true)));
        // Bit-identical to the unstreamed points.
        assert_eq!(
            serde_json::to_string(&serde::Value::Seq(reassembled)).unwrap(),
            serde_json::to_string(&one_shot_points).unwrap()
        );
    }

    #[test]
    fn zero_chunk_is_invalid() {
        let svc = service();
        let resp = svc.handle(
            Request {
                id: Some(1),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Pareto {
                    pipeline: rpwf_gen::figure5_pipeline(),
                    platform: rpwf_gen::figure5_platform(),
                    chunk: Some(0),
                },
            },
            Instant::now(),
        );
        assert_eq!(resp.status, "error");
        assert_eq!(resp.error.expect("error body").kind, "invalid");
    }

    #[test]
    fn pareto_beyond_exact_backends_returns_a_heuristic_front() {
        // m = 14 fully heterogeneous: no exact front source applies, yet
        // the command answers with a sound (incomplete) heuristic front.
        let inst = rpwf_gen::make_instance(
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
            3,
            14,
            5,
        );
        let svc = service();
        let resp = svc.handle(
            Request {
                id: Some(1),
                deadline_ms: None,
                no_cache: None,
                hop: None,
                trace: None,
                trace_ctx: None,
                explain: None,
                cmd: Command::Pareto {
                    pipeline: inst.pipeline,
                    platform: inst.platform,
                    chunk: None,
                },
            },
            Instant::now(),
        );
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        assert_eq!(resp.meta.solver, Some(Provenance::Heuristic));
        assert_eq!(resp.meta.exact_complete, Some(false));
        let result = resp.result.expect("front payload");
        assert_eq!(result.get("complete"), Some(&serde::Value::Bool(false)));
        assert!(
            !result
                .get("points")
                .and_then(serde::Value::as_seq)
                .unwrap()
                .is_empty(),
            "heuristic front is non-empty"
        );
    }

    #[test]
    fn cancelled_handle_aborts_a_solve_as_timeout() {
        let svc = service();
        let handle = rpwf_core::budget::CancelHandle::new();
        handle.cancel();
        let mut req = solve_request(3, 22.0);
        req.no_cache = Some(true);
        let resp = svc.handle_cancellable(req, Instant::now(), Some(&handle));
        assert_eq!(resp.status, "error");
        assert_eq!(resp.error.expect("error body").kind, "timeout");
    }

    #[test]
    fn uncancelled_handle_does_not_disturb_a_solve() {
        let svc = service();
        let handle = rpwf_core::budget::CancelHandle::new();
        let resp = svc.handle_cancellable(solve_request(4, 22.0), Instant::now(), Some(&handle));
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
    }

    #[test]
    fn no_cache_flag_bypasses_the_cache() {
        let svc = service();
        let mut req = solve_request(1, 22.0);
        req.no_cache = Some(true);
        let _ = svc.handle(req.clone(), Instant::now());
        let again = svc.handle(req, Instant::now());
        assert!(!again.meta.cache_hit);
    }

    #[test]
    fn warm_front_then_solve_hits_the_cache() {
        let svc = service();
        let pipeline = rpwf_gen::figure5_pipeline();
        let platform = rpwf_gen::figure5_platform();
        svc.warm_front(&pipeline, &platform);
        let resp = svc.handle(solve_request(1, 22.0), Instant::now());
        assert_eq!(resp.status, "ok", "{:?}", resp.error);
        assert!(resp.meta.cache_hit, "warmed front must answer the query");
        assert_eq!(resp.meta.exact_complete, Some(true));
    }

    #[test]
    fn grouped_batch_matches_ungrouped_byte_for_byte() {
        let make_lines = || -> Vec<String> {
            let pipeline = rpwf_gen::figure5_pipeline();
            let platform = rpwf_gen::figure5_platform();
            (0..10u64)
                .map(|i| {
                    serde_json::to_string(&Request {
                        id: Some(i),
                        deadline_ms: None,
                        no_cache: None,
                        hop: None,
                        trace: None,
                        trace_ctx: None,
                        explain: None,
                        cmd: Command::Solve {
                            pipeline: pipeline.clone(),
                            platform: platform.clone(),
                            objective: Objective::MinFpUnderLatency(22.0 + i as f64),
                        },
                    })
                    .unwrap()
                })
                .collect()
        };
        let grouped_pool = WorkerPool::new(Arc::new(service()));
        let grouped = grouped_pool.submit_batch(make_lines());
        let ungrouped_pool = WorkerPool::new(Arc::new(service()));
        let ungrouped = ungrouped_pool.submit_batch_ungrouped(make_lines());
        assert_eq!(grouped.len(), ungrouped.len());
        for (g, u) in grouped.iter().zip(&ungrouped) {
            let g: Response = serde_json::from_str(g).unwrap();
            let u: Response = serde_json::from_str(u).unwrap();
            assert_eq!(g.status, "ok", "{:?}", g.error);
            assert_eq!(
                serde_json::to_string(&g.result).unwrap(),
                serde_json::to_string(&u.result).unwrap(),
                "grouped and independent answers must be byte-identical"
            );
        }
    }

    #[test]
    fn pool_answers_batch_in_order() {
        let svc = Arc::new(service());
        let pool = WorkerPool::new(svc);
        let lines: Vec<String> = (0..16)
            .map(|i| {
                serde_json::to_string(&Request {
                    id: Some(i),
                    deadline_ms: None,
                    no_cache: None,
                    hop: None,
                    trace: None,
                    trace_ctx: None,
                    explain: None,
                    cmd: Command::Ping,
                })
                .unwrap()
            })
            .collect();
        let out = pool.submit_batch(lines);
        assert_eq!(out.len(), 16);
        for (i, line) in out.iter().enumerate() {
            let resp: Response = serde_json::from_str(line).expect("parses");
            assert_eq!(resp.id, Some(i as u64), "order preserved");
            assert_eq!(resp.status, "ok");
        }
    }
}
