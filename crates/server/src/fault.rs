//! Deterministic fault injection for the transport layer.
//!
//! A [`FaultPlan`] scripts failures against a running [`crate::Server`]:
//! every request line the server receives (across all of its
//! connections) advances one global counter, and a plan pins a
//! [`FaultAction`] to specific counter values — *"drop the connection on
//! request 3, kill the node on request 7"*. The plan is built once,
//! up front, from a seed: a given `(seed, plan)` always injects the
//! identical faults at the identical requests, so chaos tests are
//! reproducible bit-for-bit and a failing schedule can be replayed.
//!
//! The four primitives cover the distinct ways a fleet peer can hurt
//! you:
//!
//! * [`drop_connection_at`](FaultPlan::drop_connection_at) — the socket
//!   dies mid-conversation (process crash, network partition): the
//!   caller sees an I/O error and must fail over.
//! * [`delay_response_at`](FaultPlan::delay_response_at) — the node is
//!   alive but slow (GC pause, overload): the caller's read timeout, not
//!   its connect timeout, is what saves it.
//! * [`corrupt_line_at`](FaultPlan::corrupt_line_at) — the node answers
//!   garbage (truncated write, buggy proxy): the caller must treat an
//!   unparseable response as a failure, never relay it.
//! * [`kill_node_at`](FaultPlan::kill_node_at) — the whole node goes
//!   dark (stops accepting, severs every live connection) and stays
//!   dark: the failover path and the circuit breaker take over.
//!
//! Plans are injected at bind time ([`crate::Server::bind_ring_faulted`]
//! / [`crate::Server::bind_with_router_tuned`]); a server bound
//! without a plan pays nothing — the hook is an `Option` checked once
//! per request line.

use rpwf_core::backoff::JitteredBackoff;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// One scripted failure, pinned to a request index by a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Sever this request's connection instead of answering.
    DropConnection,
    /// Answer, but only after sleeping this long.
    DelayResponse(Duration),
    /// Answer with a corrupted (unparseable) response line.
    CorruptLine,
    /// Stop accepting and sever every live connection — the node is dead
    /// until its owner rebinds it.
    KillNode,
}

/// A seed-deterministic schedule of transport faults.
///
/// ```
/// use rpwf_server::fault::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new(0xBAD5EED)
///     .corrupt_line_at(2)
///     .delay_response_at(4, Duration::from_millis(50))
///     .kill_node_at(9);
/// assert_eq!(plan.seed(), 0xBAD5EED);
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    actions: HashMap<u64, FaultAction>,
    counter: AtomicU64,
    killed: AtomicBool,
}

impl FaultPlan {
    /// An empty plan. The seed fixes every randomized quantity (today:
    /// the jitter on injected delays), so equal seeds build equal plans.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            actions: HashMap::new(),
            counter: AtomicU64::new(0),
            killed: AtomicBool::new(false),
        }
    }

    /// The seed this plan was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Severs the connection carrying request number `k` (0-based, over
    /// all connections) instead of answering it.
    #[must_use]
    pub fn drop_connection_at(mut self, k: u64) -> Self {
        self.actions.insert(k, FaultAction::DropConnection);
        self
    }

    /// Delays the answer to request number `k` by a jittered duration in
    /// `[base, 2·base]`, drawn **now** from the plan seed (mixed with
    /// `k`) — the injected delay is fixed at build time, not at fire
    /// time, so concurrent chaos runs stay reproducible.
    ///
    /// The delay is applied as a **reactor timer**: the delayed line
    /// parks in the event thread's timer heap and flushes when due. No
    /// worker or event thread sleeps, so a delayed node keeps serving
    /// its other connections at full speed — exactly how a GC pause on
    /// one response stream behaves.
    #[must_use]
    pub fn delay_response_at(mut self, k: u64, base: Duration) -> Self {
        let mut backoff = JitteredBackoff::new(base, base.saturating_mul(2), self.seed ^ k);
        // Attempt 0's window is [base, base]; attempt 1 spans the full
        // [base, 2·base] range.
        let _ = backoff.next_delay();
        let delay = backoff.next_delay();
        self.actions.insert(k, FaultAction::DelayResponse(delay));
        self
    }

    /// Answers request number `k` with an unparseable response line.
    #[must_use]
    pub fn corrupt_line_at(mut self, k: u64) -> Self {
        self.actions.insert(k, FaultAction::CorruptLine);
        self
    }

    /// Kills the whole node when request number `k` arrives: the
    /// listener stops accepting and every live connection is severed,
    /// exactly like `kill -9` as seen from the peers.
    #[must_use]
    pub fn kill_node_at(mut self, k: u64) -> Self {
        self.actions.insert(k, FaultAction::KillNode);
        self
    }

    /// Advances the request counter and returns the fault scripted for
    /// this request, if any. Called by the transport once per received
    /// request line.
    pub fn on_request(&self) -> Option<FaultAction> {
        let k = self.counter.fetch_add(1, Ordering::Relaxed);
        self.actions.get(&k).copied()
    }

    /// Request lines observed so far.
    #[must_use]
    pub fn requests_seen(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Whether a [`KillNode`](FaultAction::KillNode) fault has fired.
    #[must_use]
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::Relaxed)
    }

    /// Records that the kill fired (set by the transport).
    pub(crate) fn mark_killed(&self) {
        self.killed.store(true, Ordering::Relaxed);
    }

    /// Mangles a response line into guaranteed-unparseable bytes of the
    /// same rough size (stays a single line — the framing survives, the
    /// payload does not, which is exactly how real truncation bugs
    /// present).
    #[must_use]
    pub(crate) fn corrupt(line: &str) -> String {
        let keep = line.len() / 2;
        format!("%CORRUPT%{}", &line[..keep.min(line.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        let a = FaultPlan::new(7)
            .delay_response_at(3, Duration::from_millis(100))
            .delay_response_at(9, Duration::from_millis(100));
        let b = FaultPlan::new(7)
            .delay_response_at(3, Duration::from_millis(100))
            .delay_response_at(9, Duration::from_millis(100));
        assert_eq!(a.actions, b.actions);
        // Different request indices draw different jitter from the same
        // seed (they mix `k` into the stream).
        assert_ne!(
            a.actions.get(&3),
            a.actions.get(&9),
            "per-request jitter streams are independent"
        );
    }

    #[test]
    fn delays_stay_within_the_jitter_window() {
        let base = Duration::from_millis(80);
        for seed in 0..32u64 {
            let plan = FaultPlan::new(seed).delay_response_at(0, base);
            match plan.actions[&0] {
                FaultAction::DelayResponse(d) => {
                    assert!(d >= base && d <= base * 2, "delay {d:?} out of window");
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn counter_fires_each_action_exactly_once() {
        let plan = FaultPlan::new(1).corrupt_line_at(1).kill_node_at(3);
        assert_eq!(plan.on_request(), None);
        assert_eq!(plan.on_request(), Some(FaultAction::CorruptLine));
        assert_eq!(plan.on_request(), None);
        assert_eq!(plan.on_request(), Some(FaultAction::KillNode));
        assert_eq!(plan.on_request(), None);
        assert_eq!(plan.requests_seen(), 5);
    }

    #[test]
    fn corrupted_lines_never_parse() {
        let line = r#"{"id":1,"status":"ok"}"#;
        let garbled = FaultPlan::corrupt(line);
        assert!(serde_json::from_str::<crate::protocol::Response>(&garbled).is_err());
        assert!(!garbled.contains('\n'), "framing must survive");
    }
}
