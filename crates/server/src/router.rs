//! The routing layer between transports and the solver service.
//!
//! Every decoded request — whatever transport it arrived on — goes
//! through a [`Router`] that decides *which node* answers it:
//!
//! * [`LocalRouter`] — this process answers everything (the single-node
//!   deployment; zero overhead over calling the service directly),
//! * [`RingRouter`] — fleet mode: each instance-bearing request is placed
//!   on the owning node of a consistent-hash ring
//!   ([`rpwf_core::ring::HashRing`]) keyed by the canonical instance hash
//!   ([`Command::route_key`]). Non-owned requests are transparently
//!   forwarded to the owning peer over the ordinary JSON-lines protocol;
//!   node-local commands (`Ping`, `Gen`, `Stats`, `Metrics`, `Ring`) never
//!   leave the entry node.
//!
//! A request or replica fill leaves a node one way only: as an
//! [`AsyncForward`] handed to the reactor's pending-forward table, which
//! walks the owner list over nonblocking sockets with the per-peer
//! breakers and pools of [`crate::peer`]. A traced forward carries its
//! entry-side trace along, so tracing never holds a worker.
//!
//! Fleet invariants:
//!
//! * **Replicated cache** — each key has `replicas` distinct owners (the
//!   ring successor list, [`HashRing::owners`]); the primary solves and
//!   pushes complete fronts to the replicas (`CacheFill`), so any single
//!   node's death leaves every front warm somewhere. With `replicas = 1`
//!   this degenerates to the strict partitioned cache (each instance on
//!   exactly one node).
//! * **Entry-node transparency** — a forwarded response carries the
//!   owner's identity and the owner's cached answer, so a request returns
//!   the same payload whichever node the client entered through — dead
//!   primaries included: the entry node fails over down the owner list
//!   and, when every owner is gone, solves locally.
//! * **No forwarding loops** — forwarded requests carry the `hop` flag
//!   and are always answered locally by the receiver, so disagreeing ring
//!   views cost at most one extra hop. `CacheFill` pushes are likewise
//!   hop-flagged and never re-replicated by the receiver, so replication
//!   cannot loop either.
//! * **Graceful degradation** — when every owner of a key is unreachable
//!   the entry node solves locally (flagged in the `Ring`/`Metrics`
//!   counters): answers stay correct, only cache placement degrades. The
//!   per-peer circuit breaker ([`crate::peer`]) makes a dead peer cost
//!   one connect timeout, not one per request. A ring router no reactor
//!   drives (every [`crate::Server::bind_ring`] starts one) answers
//!   locally the same way.

use crate::cache::CachedFront;
use crate::peer::{Peer, PeerConfig};
use crate::protocol::{
    Command, Request, Response, RingPeerOut, RingResult, TraceContext, TraceEntryOut,
};
use crate::service::{Job, SolverService};
use rpwf_core::budget::CancelHandle;
use rpwf_core::platform::Platform;
use rpwf_core::ring::{HashRing, DEFAULT_VNODES};
use rpwf_core::stage::Pipeline;
use rpwf_core::trace::{SpanHandle, Trace, TraceId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Slack added to a forwarded request's remaining deadline before the
/// peer read times out — the owner needs a moment to serialize and ship
/// the response after finishing within its own deadline.
const FORWARD_GRACE: Duration = Duration::from_secs(2);

/// Read-timeout watchdog for forwarded requests without a deadline: long
/// enough for any realistic solve, short enough that a wedged peer
/// eventually lets the forward fail over (or answer locally).
/// Overridable per deployment via [`RingOptions::peer_read`].
const FORWARD_WATCHDOG: Duration = Duration::from_secs(600);

/// Read timeout for `CacheFill` pushes: generous for a pure cache insert,
/// bounded so a wedged replica cannot keep fills pending forever.
const CACHE_FILL_TIMEOUT: Duration = Duration::from_secs(30);

/// Default replication factor: every front lives on its primary owner
/// plus one ring successor, so one node death loses no cached work.
pub const DEFAULT_REPLICAS: usize = 2;

/// Fleet tuning knobs for [`RingRouter::with_options`] and
/// [`crate::Server::bind_ring`]. [`Default`] gives the production
/// posture: default vnodes, replication factor [`DEFAULT_REPLICAS`], and
/// the peer client's own timeout defaults.
#[derive(Clone, Debug)]
pub struct RingOptions {
    /// Virtual nodes per ring member (`None` = [`DEFAULT_VNODES`]).
    pub vnodes: Option<usize>,
    /// Distinct owners per key (clamped to at least 1). `1` disables
    /// replication entirely — no fills, no failover candidates.
    pub replicas: usize,
    /// Peer connect timeout (`None` = the [`PeerConfig`] default).
    pub peer_connect: Option<Duration>,
    /// Read timeout for forwarded requests **without a deadline**
    /// (`None` = the 600 s watchdog). Deadline-carrying requests always
    /// use their remaining deadline plus shipping grace.
    pub peer_read: Option<Duration>,
}

impl Default for RingOptions {
    fn default() -> Self {
        RingOptions {
            vnodes: None,
            replicas: DEFAULT_REPLICAS,
            peer_connect: None,
            peer_read: None,
        }
    }
}

/// The request-path abstraction: everything between "a request line
/// arrived" and "response line(s) produced" goes through here.
pub trait Router: Send + Sync {
    /// The solver service answering this node's share of the keyspace.
    fn service(&self) -> &Arc<SolverService>;

    /// `true` when requests may be answered by peer processes. Local
    /// batch-grouping shortcuts (shared front warming, vectorized batch
    /// reads) are disabled on sharded routers — grouping is the owning
    /// node's business.
    fn is_sharded(&self) -> bool {
        false
    }

    /// `true` when the transport should run this request line on its hop
    /// lane instead of queueing it on the worker pool. Fleet routers
    /// claim **hopped** (peer-forwarded) requests: they were admitted at
    /// their entry node and are always answered locally, so they skip
    /// this node's admission and solve queue.
    fn handles_inline(&self, _line: &str) -> bool {
        false
    }

    /// Routes one raw request line, emitting each response line (without
    /// trailing newline) as it becomes available.
    fn handle_line(
        &self,
        line: &str,
        received: Instant,
        cancel: Option<&CancelHandle>,
        emit: &mut dyn FnMut(String),
    );

    /// Attempts to convert a queued job into a peer forward for the
    /// reactor to drive. `Err` returns the job untouched for local
    /// handling — the default for local routers, and the fleet router's
    /// answer for hops, locally answered commands and keys, malformed
    /// lines, and every line when no reactor drives it.
    fn prepare_async_forward(&self, job: Job) -> Result<AsyncForward, Job> {
        Err(job)
    }

    /// Installs the reactor's pending-forward table as the way every
    /// forward and replica fill leaves this node (first caller wins; a
    /// no-op for routers that never forward).
    fn set_forward_sink(&self, _sink: ForwardSink) {}
}

/// The reactor's intake for [`AsyncForward`]s.
pub type ForwardSink = Box<dyn Fn(AsyncForward) + Send + Sync>;

/// One peer forward, driven by the reactor as a nonblocking continuation:
/// the hopped request line, the owner list to walk (primary first), and
/// the response consumer — everything the pending-forward table needs to
/// run the failover state machine without occupying a thread.
pub struct AsyncForward {
    /// The fleet router that prepared this forward (peer clients,
    /// failover counters, node identity).
    pub(crate) router: Arc<RingRouter>,
    /// Owner list, primary first (this node may appear as a non-primary
    /// replica — the machine answers locally at that rank).
    pub(crate) owners: Vec<String>,
    /// The request re-serialized with the `hop` loop guard set (a traced
    /// forward rewrites it per attempt, see [`ForwardTrace::attempt`]).
    pub(crate) hopped_line: String,
    /// The original line, answered locally when this node is the owner
    /// at the current rank or every owner is unreachable. `None` for a
    /// replica fill, which has no local answer and is simply dropped.
    pub(crate) original_line: Option<String>,
    /// Per-attempt response wait (remaining deadline plus shipping grace,
    /// the deployment watchdog, or a fill's [`CACHE_FILL_TIMEOUT`]).
    pub(crate) read_timeout: Duration,
    /// Receipt instant of the underlying request.
    pub(crate) received: Instant,
    /// The originating connection's cancellation handle.
    pub(crate) cancel: Option<CancelHandle>,
    /// Response consumer (one call per response line, in order).
    pub(crate) respond: Box<dyn FnMut(String) + Send>,
    /// The entry-side trace of a traced request.
    pub(crate) trace: Option<Box<ForwardTrace>>,
}

impl AsyncForward {
    /// Hands the forward to the reactor that drives its router. Forwards
    /// are only built once a reactor installed its sink; without one the
    /// dropped forward's respond closure still settles its connection.
    pub(crate) fn send(self) {
        let router = Arc::clone(&self.router);
        if let Some(sink) = router.forward_sink.get() {
            sink(self);
        }
    }
}

/// The entry node's side of a traced forward: the `request` root with
/// its `decode` and `route` spans, then per owner attempt a
/// `peer.forward` span (`from`, `to`) holding that attempt's
/// `peer.connect` and `peer.roundtrip` steps and any `peer.breaker_open`
/// or `peer.retry` marks. An abandoned attempt adds a `peer.failover`
/// span naming the owner. The answering owner collects its own spans
/// under the same trace id, parented at the attempt's forward span, and
/// [`finish`](Self::finish) grafts them there.
pub(crate) struct ForwardTrace {
    trace: Trace,
    root: SpanHandle,
    /// The hopped request; every attempt re-serializes it with a
    /// [`TraceContext`] naming its own forward span.
    hopped: Request,
    /// The current attempt's `peer.forward` span.
    forward: Option<SpanHandle>,
    /// The current attempt's open `peer.connect` or `peer.roundtrip`.
    step: Option<SpanHandle>,
}

impl ForwardTrace {
    /// Opens the entry-side trace of `hopped` (already hop-flagged),
    /// received at `received` by `node` and routed to `owner`.
    fn begin(hopped: Request, node: &str, owner: &str, received: Instant) -> Self {
        let id = hopped
            .trace_ctx
            .map_or_else(TraceId::next, |ctx| TraceId(ctx.id));
        let trace = Trace::new(id, received);
        let root = trace.begin_root("request");
        trace.attr(root.index(), "cmd", hopped.cmd.name());
        trace.attr(root.index(), "node", node);
        trace.attr(root.index(), "role", "entry");
        trace.add(
            "decode",
            Some(root.index()),
            0,
            trace.elapsed_us(),
            Vec::new(),
        );
        trace.add(
            "route",
            Some(root.index()),
            trace.elapsed_us(),
            0,
            vec![("owner".to_owned(), owner.to_owned())],
        );
        ForwardTrace {
            trace,
            root,
            hopped,
            forward: None,
            step: None,
        }
    }

    /// Opens the `peer.forward` span of an attempt on `to` and returns
    /// the hopped line whose trace context points at it.
    pub(crate) fn attempt(&mut self, from: &str, to: &str) -> String {
        let span = self.trace.begin("peer.forward", Some(self.root.index()));
        self.trace.attr(span.index(), "from", from);
        self.trace.attr(span.index(), "to", to);
        self.hopped.trace_ctx = Some(TraceContext {
            id: self.trace.id().0,
            parent: span.index(),
        });
        self.forward = Some(span);
        serde_json::to_string(&self.hopped).expect("requests always serialize")
    }

    /// Opens a step (`peer.connect`, `peer.roundtrip`) of the attempt.
    pub(crate) fn step(&mut self, name: &str) {
        let parent = self.forward.as_ref().map(SpanHandle::index);
        self.step = Some(self.trace.begin(name, parent));
    }

    /// Closes the open step, if any, with `attrs`.
    pub(crate) fn end_step(&mut self, attrs: &[(&str, String)]) {
        if let Some(step) = self.step.take() {
            self.trace.end(&step);
            for (key, value) in attrs {
                self.trace.attr(step.index(), key, value.clone());
            }
        }
    }

    /// Records an instant event (`peer.breaker_open`, `peer.retry`) in
    /// the attempt.
    pub(crate) fn mark(&self, name: &str, key: &str, value: &str) {
        self.trace.add(
            name,
            self.forward.as_ref().map(SpanHandle::index),
            self.trace.elapsed_us(),
            0,
            vec![(key.to_owned(), value.to_owned())],
        );
    }

    /// The attempt on `owner` was abandoned: closes its spans and records
    /// the `peer.failover`.
    pub(crate) fn failover(&mut self, owner: &str) {
        self.end_step(&[("ok", "false".to_owned())]);
        if let Some(forward) = self.forward.take() {
            self.trace.end(&forward);
        }
        self.trace.add(
            "peer.failover",
            Some(self.root.index()),
            self.trace.elapsed_us(),
            0,
            vec![("abandoned".to_owned(), owner.to_owned())],
        );
    }

    /// The attempt answered with `lines`: closes the trace, grafts the
    /// owner's subtree into the final line and logs the merged trace in
    /// this node's slow-query ring.
    pub(crate) fn finish(mut self, router: &RingRouter, lines: &mut [String]) {
        self.end_step(&[
            ("ok", "true".to_owned()),
            ("lines", lines.len().to_string()),
        ]);
        let Some(forward) = self.forward.take() else {
            return;
        };
        self.trace.end(&forward);
        self.trace.end(&self.root);
        router.merge_owner_trace(&self.trace, forward.index(), self.hopped.cmd.name(), lines);
    }
}

/// Single-node routing: every request is answered by the local service.
pub struct LocalRouter {
    service: Arc<SolverService>,
}

impl LocalRouter {
    /// Wraps a service.
    #[must_use]
    pub fn new(service: Arc<SolverService>) -> Self {
        LocalRouter { service }
    }
}

impl Router for LocalRouter {
    fn service(&self) -> &Arc<SolverService> {
        &self.service
    }

    fn handle_line(
        &self,
        line: &str,
        received: Instant,
        cancel: Option<&CancelHandle>,
        emit: &mut dyn FnMut(String),
    ) {
        self.service.handle_line_into(line, received, cancel, emit);
    }
}

/// Fleet routing over a consistent-hash ring.
pub struct RingRouter {
    service: Arc<SolverService>,
    node_id: String,
    ring: HashRing,
    peers: HashMap<String, Arc<Peer>>,
    /// Distinct owners per key (≥ 1).
    replicas: usize,
    /// Read-timeout override for deadline-less forwards.
    peer_read: Option<Duration>,
    /// Weak self-handle so [`Router::prepare_async_forward`] can hand the
    /// reactor an owning reference (set once at construction).
    self_ref: OnceLock<Weak<RingRouter>>,
    /// The reactor's pending-forward table, once one drives this router.
    forward_sink: OnceLock<ForwardSink>,
    /// Requests received with the `hop` flag (answered as the owner).
    hops_received: AtomicU64,
    /// Requests this node answered because it owns them (as primary, or
    /// as a surviving replica after a failover walked down to us).
    owned_served: AtomicU64,
    /// Requests answered locally because no owner was reachable (every
    /// owning peer down, or no reactor to forward through).
    fallbacks: AtomicU64,
    /// Forward attempts abandoned for the next owner in the successor
    /// list (peer dead, wedged, or breaker-open).
    failovers: AtomicU64,
}

impl RingRouter {
    /// Builds the fleet router: this node (`node_id`, the `host:port` the
    /// peers know it by) plus its `peers`, each hashed onto the ring with
    /// `options.vnodes` virtual nodes. Registers the ring introspection
    /// and metrics extensions on the service, and — when replication is
    /// on (`replicas > 1` with at least one peer) — the front-stored hook
    /// that pushes locally solved complete fronts to the key's ring
    /// successors via `CacheFill`.
    #[must_use]
    pub fn with_options(
        service: Arc<SolverService>,
        node_id: impl Into<String>,
        peers: &[String],
        options: RingOptions,
    ) -> Arc<Self> {
        let node_id = node_id.into();
        let vnodes = options.vnodes.unwrap_or(DEFAULT_VNODES);
        let replicas = options.replicas.max(1);
        let mut peer_config = PeerConfig::default();
        if let Some(timeout) = options.peer_connect {
            peer_config.connect_timeout = timeout;
        }
        let members: Vec<String> = std::iter::once(node_id.clone())
            .chain(peers.iter().cloned())
            .collect();
        let router = Arc::new(RingRouter {
            ring: HashRing::new(members, vnodes),
            peers: peers
                .iter()
                .filter(|p| **p != node_id)
                .map(|p| {
                    (
                        p.clone(),
                        Arc::new(Peer::with_config(p.clone(), peer_config.clone())),
                    )
                })
                .collect(),
            service,
            node_id,
            replicas,
            peer_read: options.peer_read,
            self_ref: OnceLock::new(),
            forward_sink: OnceLock::new(),
            hops_received: AtomicU64::new(0),
            owned_served: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        });
        let _ = router.self_ref.set(Arc::downgrade(&router));
        let ring_view = Arc::downgrade(&router);
        router.service.set_ring_reporter(Box::new(move || {
            ring_view.upgrade().map(|r| r.ring_result())
        }));
        let metrics_view = Arc::downgrade(&router);
        router.service.set_metrics_extension(Box::new(move |out| {
            if let Some(r) = metrics_view.upgrade() {
                r.render_metrics(out);
            }
        }));
        if router.replicas > 1 && !router.peers.is_empty() {
            let fill_view = Arc::downgrade(&router);
            router.service.set_front_stored_hook(Box::new(
                move |pipeline, platform, key, entry| {
                    if let Some(r) = fill_view.upgrade() {
                        r.replicate_front(pipeline, platform, key, entry);
                    }
                },
            ));
        }
        router
    }

    /// This node's ring identity.
    #[must_use]
    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    /// The ring in effect.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The replication factor in effect.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The pooled client for `owner`, if this router has one.
    pub(crate) fn peer_client(&self, owner: &str) -> Option<&Arc<Peer>> {
        self.peers.get(owner)
    }

    /// Counter hook for the reactor's forward machine: an owner attempt
    /// was abandoned for the next candidate.
    pub(crate) fn note_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter hook: every owner was unreachable and the entry node
    /// solved locally.
    pub(crate) fn note_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter hook: this node answered as an owner (primary or
    /// surviving replica).
    pub(crate) fn note_owned_served(&self) {
        self.owned_served.fetch_add(1, Ordering::Relaxed);
    }

    /// The owner list (primary first) of a request, empty when it routes
    /// locally.
    fn owners_of(&self, cmd: &Command) -> Vec<String> {
        match cmd.route_key() {
            Some(key) => self
                .ring
                .owners(key, self.replicas)
                .into_iter()
                .map(str::to_owned)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Pushes a locally solved complete front to the key's replica set,
    /// one fire-and-forget reactor forward per replica: the same breaker,
    /// counters and stale-socket retry as a client forward, but the
    /// answer is dropped, and a fill that fails is neither failed over
    /// nor answered locally. Without a reactor nothing is pushed.
    ///
    /// Only the **primary** owner propagates, and the receiving side
    /// never re-fires the stored hook for a `CacheFill` write — both
    /// guards together keep replication loop-free even when two nodes'
    /// ring views disagree during a membership change.
    fn replicate_front(
        self: &Arc<Self>,
        pipeline: &Pipeline,
        platform: &Platform,
        key: u128,
        entry: &CachedFront,
    ) {
        let owners = self.ring.owners(key, self.replicas);
        if owners.first().copied() != Some(self.node_id.as_str())
            || self.forward_sink.get().is_none()
        {
            return;
        }
        let request = Request {
            id: None,
            deadline_ms: None,
            no_cache: None,
            // Hop-flagged: the replica answers on its hop lane and never
            // re-routes (or re-replicates) the fill.
            hop: Some(true),
            trace: None,
            trace_ctx: None,
            explain: None,
            cmd: Command::CacheFill {
                pipeline: pipeline.clone(),
                platform: platform.clone(),
                front: (*entry.front).clone(),
                complete: entry.complete,
                solver: entry.solver,
                exact_capable: entry.exact_capable,
            },
        };
        let line = serde_json::to_string(&request).expect("requests always serialize");
        for target in owners.into_iter().skip(1) {
            if !self.peers.contains_key(target) {
                continue;
            }
            AsyncForward {
                router: Arc::clone(self),
                owners: vec![target.to_owned()],
                hopped_line: line.clone(),
                original_line: None,
                read_timeout: CACHE_FILL_TIMEOUT,
                received: Instant::now(),
                cancel: None,
                respond: Box::new(|_| {}),
                trace: None,
            }
            .send();
        }
    }

    /// Rewrites the final forwarded response line so its `meta.trace`
    /// becomes the merged entry+owner tree, and records the merged trace
    /// in this node's slow-query ring. A final line without a parseable
    /// trace (owner predates tracing, or the response is malformed) is
    /// passed through untouched.
    fn merge_owner_trace(&self, trace: &Trace, forward_span: u32, cmd: &str, lines: &mut [String]) {
        let Some(last) = lines.last_mut() else { return };
        let Ok(mut resp) = serde_json::from_str::<Response>(last) else {
            return;
        };
        let Some(owner_tree) = resp.meta.trace.take() else {
            return;
        };
        let mut merged = trace.finish();
        merged.graft(owner_tree, forward_span);
        resp.meta.trace = Some(merged.clone());
        *last = resp.to_line();
        self.service.record_trace(TraceEntryOut {
            id: merged.id.0,
            command: cmd.to_owned(),
            status: resp.status.clone(),
            elapsed_us: merged.root().map_or(0, |span| span.elapsed_us),
            node: Some(self.node_id.clone()),
            spans: merged,
        });
    }

    /// The `Ring` introspection payload.
    #[must_use]
    pub fn ring_result(&self) -> RingResult {
        let (owned, replica, foreign) = self.cache_census();
        let mut forwards: Vec<RingPeerOut> = self
            .peers
            .values()
            .map(|p| RingPeerOut {
                peer: p.addr().to_string(),
                forwards: p.forwards(),
                failures: p.failures(),
                timeouts: p.timeouts(),
                breaker_skips: p.breaker_skips(),
                breaker_state: p.breaker_state().to_string(),
            })
            .collect();
        forwards.sort_by(|a, b| a.peer.cmp(&b.peer));
        RingResult {
            node: self.node_id.clone(),
            nodes: self.ring.nodes().to_vec(),
            vnodes: self.ring.vnodes() as u64,
            replicas: self.replicas as u64,
            owned_cache_keys: owned,
            replica_cache_keys: replica,
            foreign_cache_keys: foreign,
            hops_received: self.hops_received.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            forwards,
        }
    }

    /// Counts this node's cached **front** keys by ring role: `(primary
    /// owner, replica owner, neither)`. Only front entries are counted —
    /// they are keyed by the instance hash the ring places; per-query
    /// result entries live in a different hash space where ring ownership
    /// is meaningless. Replica keys are `CacheFill` products (or survived
    /// a membership change); foreign keys are peer-down fallback
    /// artifacts — correct answers, duplicated capacity.
    fn cache_census(&self) -> (u64, u64, u64) {
        let mut owned = 0u64;
        let mut replica = 0u64;
        let mut foreign = 0u64;
        for key in self.service.front_cache_keys() {
            let owners = self.ring.owners(key, self.replicas);
            match owners.iter().position(|o| *o == self.node_id) {
                Some(0) => owned += 1,
                Some(_) => replica += 1,
                None => foreign += 1,
            }
        }
        (owned, replica, foreign)
    }

    /// Appends the fleet gauges to the Prometheus-style `Metrics` dump.
    pub fn render_metrics(&self, out: &mut String) {
        use std::fmt::Write as _;
        let (owned, replica, foreign) = self.cache_census();
        let node = &self.node_id;
        writeln!(out, "rpwf_ring_nodes {}", self.ring.len()).expect("write");
        writeln!(out, "rpwf_ring_vnodes {}", self.ring.vnodes()).expect("write");
        writeln!(out, "rpwf_ring_replicas {}", self.replicas).expect("write");
        writeln!(out, "rpwf_ring_owned_cache_keys{{node=\"{node}\"}} {owned}").expect("write");
        writeln!(
            out,
            "rpwf_ring_replica_cache_keys{{node=\"{node}\"}} {replica}"
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_ring_foreign_cache_keys{{node=\"{node}\"}} {foreign}"
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_ring_hops_received_total{{node=\"{node}\"}} {}",
            self.hops_received.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_ring_owned_served_total{{node=\"{node}\"}} {}",
            self.owned_served.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_ring_fallbacks_total{{node=\"{node}\"}} {}",
            self.fallbacks.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_ring_failovers_total{{node=\"{node}\"}} {}",
            self.failovers.load(Ordering::Relaxed)
        )
        .expect("write");
        let mut peers: Vec<&Peer> = self.peers.values().map(AsRef::as_ref).collect();
        peers.sort_by_key(|p| p.addr().to_string());
        for peer in peers {
            writeln!(
                out,
                "rpwf_ring_forwards_total{{peer=\"{}\"}} {}",
                peer.addr(),
                peer.forwards()
            )
            .expect("write");
            writeln!(
                out,
                "rpwf_ring_forward_failures_total{{peer=\"{}\"}} {}",
                peer.addr(),
                peer.failures()
            )
            .expect("write");
            writeln!(
                out,
                "rpwf_ring_forward_timeouts_total{{peer=\"{}\"}} {}",
                peer.addr(),
                peer.timeouts()
            )
            .expect("write");
            writeln!(
                out,
                "rpwf_ring_breaker_skips_total{{peer=\"{}\"}} {}",
                peer.addr(),
                peer.breaker_skips()
            )
            .expect("write");
            // 0 = closed, 1 = half-open, 2 = open.
            writeln!(
                out,
                "rpwf_peer_breaker_state{{peer=\"{}\"}} {}",
                peer.addr(),
                peer.breaker_gauge()
            )
            .expect("write");
        }
    }
}

impl Router for RingRouter {
    fn service(&self) -> &Arc<SolverService> {
        &self.service
    }

    fn is_sharded(&self) -> bool {
        true
    }

    fn handles_inline(&self, line: &str) -> bool {
        // Substring screen only — forwarders serialize compactly, so a
        // hopped line always contains this byte sequence, and JSON string
        // escaping means no legitimate payload can embed it. Skipping the
        // confirming parse keeps the owner's hot path at one deserialize
        // per forwarded request; a pathological false positive merely
        // runs that request on the hop lane instead of the pool
        // (handle_line still routes it by its parsed content — correct
        // either way).
        line.contains("\"hop\":true")
    }

    fn handle_line(
        &self,
        line: &str,
        received: Instant,
        cancel: Option<&CancelHandle>,
        emit: &mut dyn FnMut(String),
    ) {
        let Ok(request) = serde_json::from_str::<Request>(line.trim()) else {
            // Empty or malformed: the service renders the structured
            // `invalid` error.
            self.service.handle_line_into(line, received, cancel, emit);
            return;
        };
        if request.hop.unwrap_or(false) {
            // Forwarded by a peer: we are an owner (by its ring view);
            // never re-forward.
            self.hops_received.fetch_add(1, Ordering::Relaxed);
        } else {
            match self.owners_of(&request.cmd).first() {
                Some(primary) if *primary == self.node_id => self.note_owned_served(),
                // A peer owns the key, but no reactor carries this node's
                // forwards: answer locally, like an unreachable owner.
                Some(_) => self.note_fallback(),
                None => {}
            }
        }
        self.service
            .handle_request_into(request, received, cancel, &mut |resp| {
                emit(resp.to_line());
            });
    }

    fn prepare_async_forward(&self, job: Job) -> Result<AsyncForward, Job> {
        let Some(router) = self.self_ref.get().and_then(Weak::upgrade) else {
            return Err(job);
        };
        if self.forward_sink.get().is_none() {
            return Err(job); // no reactor: `handle_line` answers locally
        }
        let Ok(mut request) = serde_json::from_str::<Request>(job.line.trim()) else {
            return Err(job); // malformed: `handle_line` renders the error
        };
        if request.hop.unwrap_or(false) {
            return Err(job); // hops are answered locally
        }
        let owners = self.owners_of(&request.cmd);
        match owners.first() {
            Some(primary) if *primary != self.node_id => {}
            _ => return Err(job), // local command or locally owned key
        }
        // Bound the wait on each owner: the request's remaining deadline
        // (plus shipping grace) when it has one, the (configurable)
        // watchdog otherwise. On expiry the failover walks on; the local
        // fallback path reports the proper structured timeout through its
        // own budget check.
        let read_timeout = match request.deadline_ms {
            Some(ms) => {
                (job.received + Duration::from_millis(ms)).saturating_duration_since(Instant::now())
                    + FORWARD_GRACE
            }
            None => self.peer_read.unwrap_or(FORWARD_WATCHDOG),
        };
        request.hop = Some(true);
        let (hopped_line, trace) = if request.trace.unwrap_or(false) {
            let trace = ForwardTrace::begin(request, &self.node_id, &owners[0], job.received);
            (String::new(), Some(Box::new(trace)))
        } else {
            let line = serde_json::to_string(&request).expect("requests always serialize");
            (line, None)
        };
        Ok(AsyncForward {
            router,
            owners,
            hopped_line,
            original_line: Some(job.line),
            read_timeout,
            received: job.received,
            cancel: job.cancel,
            respond: job.respond,
            trace,
        })
    }

    fn set_forward_sink(&self, sink: ForwardSink) {
        let _ = self.forward_sink.set(sink);
    }
}
