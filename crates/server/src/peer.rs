//! Per-peer client state for fleet forwarding: an idle-connection pool
//! and a circuit breaker.
//!
//! A [`Peer`] stands for one remote `rpwf serve` instance. It does no
//! request I/O itself: the reactor's pending-forward table drives every
//! exchange with a peer — client forwards, traced or not, and `CacheFill`
//! pushes alike — and consults the peer for breaker admission, a pooled
//! (or freshly connected) nonblocking socket, and outcome bookkeeping.
//! A socket is parked again only after a clean exchange; one that
//! errored is dropped, and a forward that failed on a *pooled* socket
//! before any answer arrived is retried once on a fresh one — a parked
//! socket may have died with the peer and come back.
//!
//! ## Circuit breaker
//!
//! Every peer carries a three-state breaker so a dead node costs the
//! connect timeout **once**, not on every forwarded request:
//!
//! * **closed** — forwards flow normally. [`BreakerConfig::threshold`]
//!   *consecutive* failed forwards (connect/IO errors and read timeouts
//!   alike) trip it open.
//! * **open** — forwards are rejected instantly (no connect attempt) until
//!   a seeded jittered-exponential delay
//!   ([`rpwf_core::backoff::JitteredBackoff`]) expires. Rejections are
//!   counted in [`Peer::breaker_skips`] and spanned as
//!   `peer.breaker_open`; the forward machine treats them like any peer
//!   failure (failover/fallback), so after the first trip a dead primary
//!   adds ~0 latency.
//! * **half-open** — the first forward after the delay goes through as a
//!   lone probe (concurrent forwards are still rejected). Success closes
//!   the breaker and resets the backoff; failure re-opens it with the
//!   next (longer) delay.

use rpwf_core::backoff::JitteredBackoff;
use rpwf_core::hash::CanonicalHasher;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Idle connections parked per peer (excess sockets are dropped).
const MAX_IDLE: usize = 8;

/// A read-timeout error (platform-dependent kind).
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Circuit-breaker tuning.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive failed forwards that trip the breaker open.
    pub threshold: u32,
    /// First open-state delay (the jittered-backoff base).
    pub backoff_base: Duration,
    /// Largest open-state delay (the jittered-backoff cap).
    pub backoff_cap: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(15),
        }
    }
}

/// Peer-client tuning. [`Default`] preserves the pre-configurable
/// behavior (500 ms connect timeout).
#[derive(Clone, Debug)]
pub struct PeerConfig {
    /// How long a dry-pool connect may take before the peer counts as
    /// down.
    pub connect_timeout: Duration,
    /// Circuit-breaker thresholds and backoff window.
    pub breaker: BreakerConfig,
    /// Seed for the breaker's jittered backoff (mixed with the peer
    /// address so peers never share a jitter stream).
    pub seed: u64,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            connect_timeout: Duration::from_millis(500),
            breaker: BreakerConfig::default(),
            seed: 0xCAFE,
        }
    }
}

/// Breaker state machine (behind the peer's mutex).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerPhase {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

struct BreakerInner {
    phase: BreakerPhase,
    consecutive_failures: u32,
    backoff: JitteredBackoff,
}

/// A pooled client for one fleet peer.
pub struct Peer {
    addr: String,
    config: PeerConfig,
    /// Idle nonblocking connections, most recently parked last.
    idle: Mutex<Vec<TcpStream>>,
    breaker: Mutex<BreakerInner>,
    forwards: AtomicU64,
    failures: AtomicU64,
    timeouts: AtomicU64,
    breaker_skips: AtomicU64,
}

impl Peer {
    /// A client for the peer at `addr` (`host:port`). No connection is
    /// opened until the first forward.
    #[must_use]
    pub fn with_config(addr: impl Into<String>, config: PeerConfig) -> Self {
        let addr = addr.into();
        // Decorrelate jitter across peers sharing one configured seed.
        let mut hasher = CanonicalHasher::new();
        hasher.write_str("peer-backoff");
        hasher.write_str(&addr);
        let seed = config.seed ^ (hasher.finish() as u64);
        let backoff = JitteredBackoff::new(
            config.breaker.backoff_base,
            config.breaker.backoff_cap,
            seed,
        );
        Peer {
            addr,
            config,
            idle: Mutex::new(Vec::new()),
            breaker: Mutex::new(BreakerInner {
                phase: BreakerPhase::Closed,
                consecutive_failures: 0,
                backoff,
            }),
            forwards: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            breaker_skips: AtomicU64::new(0),
        }
    }

    /// The peer's address (also its ring identity).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The tuning in effect.
    #[must_use]
    pub fn config(&self) -> &PeerConfig {
        &self.config
    }

    /// Requests successfully answered by this peer.
    #[must_use]
    pub fn forwards(&self) -> u64 {
        self.forwards.load(Ordering::Relaxed)
    }

    /// Forwards that failed with a connect or I/O error (after the one
    /// pooled-connection retry) or an unparseable answer. Read
    /// timeouts are counted separately in [`timeouts`](Self::timeouts) —
    /// a refused connect means the peer is *down*, a timeout means it is
    /// up but not answering, and the two call for different operator
    /// responses.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Forwards that timed out waiting for a response line.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Forwards rejected instantly because the breaker was open (no connect
    /// was attempted).
    #[must_use]
    pub fn breaker_skips(&self) -> u64 {
        self.breaker_skips.load(Ordering::Relaxed)
    }

    /// The breaker's current state: `"closed"`, `"open"`, or
    /// `"half-open"`. An expired open delay still reads `"open"` until
    /// the next forward promotes it to the half-open probe.
    #[must_use]
    pub fn breaker_state(&self) -> &'static str {
        match self.breaker.lock().expect("peer breaker lock").phase {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open { .. } => "open",
            BreakerPhase::HalfOpen => "half-open",
        }
    }

    /// [`breaker_state`](Self::breaker_state) as a metrics gauge:
    /// 0 = closed, 1 = half-open, 2 = open.
    #[must_use]
    pub fn breaker_gauge(&self) -> u8 {
        match self.breaker.lock().expect("peer breaker lock").phase {
            BreakerPhase::Closed => 0,
            BreakerPhase::HalfOpen => 1,
            BreakerPhase::Open { .. } => 2,
        }
    }

    /// Breaker admission for one forward: `true` when it may proceed
    /// (possibly as the half-open probe). A rejection is counted in
    /// [`breaker_skips`](Self::breaker_skips).
    pub(crate) fn try_admit(&self) -> bool {
        let mut breaker = self.breaker.lock().expect("peer breaker lock");
        let admitted = match breaker.phase {
            BreakerPhase::Closed => true,
            BreakerPhase::Open { until } if Instant::now() >= until => {
                // This forward is the probe; concurrent forwards keep
                // seeing a non-closed phase and are rejected.
                breaker.phase = BreakerPhase::HalfOpen;
                true
            }
            BreakerPhase::Open { .. } | BreakerPhase::HalfOpen => false,
        };
        if !admitted {
            self.breaker_skips.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// An idle pooled connection, or `None` when the pool is dry (the
    /// reactor then connects on a helper thread).
    pub(crate) fn take_idle(&self) -> Option<TcpStream> {
        self.idle.lock().expect("peer pool lock").pop()
    }

    /// A fresh nonblocking connection. The connect itself blocks, bounded
    /// by the configured connect timeout — the reactor runs it on a
    /// helper thread.
    ///
    /// # Errors
    /// Propagates resolution and connect failures.
    pub(crate) fn connect(&self) -> std::io::Result<TcpStream> {
        let resolved = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                format!("peer address {:?} resolves to nothing", self.addr),
            )
        })?;
        let stream = TcpStream::connect_timeout(&resolved, self.config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Returns a connection whose exchange completed cleanly to the idle
    /// pool (excess sockets are dropped).
    pub(crate) fn park(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("peer pool lock");
        if idle.len() < MAX_IDLE {
            idle.push(stream);
        }
    }

    /// Outcome recording: the peer answered.
    pub(crate) fn record_async_success(&self) {
        self.forwards.fetch_add(1, Ordering::Relaxed);
        self.record_outcome(true);
    }

    /// Outcome recording: the forward failed, counted in
    /// [`timeouts`](Self::timeouts) or [`failures`](Self::failures).
    pub(crate) fn record_async_failure(&self, timeout: bool) {
        if timeout {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        self.record_outcome(false);
    }

    /// Feeds a forward's outcome into the breaker state machine.
    fn record_outcome(&self, ok: bool) {
        let mut breaker = self.breaker.lock().expect("peer breaker lock");
        if ok {
            breaker.phase = BreakerPhase::Closed;
            breaker.consecutive_failures = 0;
            breaker.backoff.reset();
            return;
        }
        breaker.consecutive_failures = breaker.consecutive_failures.saturating_add(1);
        let trip = match breaker.phase {
            // A failed probe re-opens immediately with a longer delay.
            BreakerPhase::HalfOpen => true,
            BreakerPhase::Closed => breaker.consecutive_failures >= self.config.breaker.threshold,
            BreakerPhase::Open { .. } => false,
        };
        if trip {
            let delay = breaker.backoff.next_delay();
            breaker.phase = BreakerPhase::Open {
                until: Instant::now() + delay,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer whose breaker trips after `threshold` failures and stays
    /// open for `backoff` (zero: the next admission is the probe).
    fn peer(threshold: u32, backoff: Duration) -> Peer {
        Peer::with_config(
            "127.0.0.1:1",
            PeerConfig {
                breaker: BreakerConfig {
                    threshold,
                    backoff_base: backoff,
                    backoff_cap: backoff,
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn breaker_trips_at_the_threshold() {
        let peer = peer(3, Duration::from_secs(60));
        for failed in 1..=2 {
            assert!(peer.try_admit());
            peer.record_async_failure(false);
            assert_eq!(peer.breaker_state(), "closed", "{failed} failures");
        }
        assert!(peer.try_admit());
        peer.record_async_failure(false);
        assert_eq!(peer.breaker_state(), "open");
        assert_eq!(peer.breaker_gauge(), 2);
        assert_eq!(peer.failures(), 3);
    }

    #[test]
    fn open_rejections_count_as_skips_not_failures() {
        let peer = peer(1, Duration::from_secs(60));
        peer.record_async_failure(false);
        for _ in 0..5 {
            assert!(!peer.try_admit(), "an open breaker admits nothing");
        }
        assert_eq!(peer.breaker_skips(), 5);
        assert_eq!(peer.failures(), 1, "skipped forwards are not failures");
        assert_eq!(peer.timeouts(), 0);
    }

    #[test]
    fn only_one_half_open_probe_passes() {
        let peer = peer(1, Duration::ZERO);
        peer.record_async_failure(false);
        assert_eq!(peer.breaker_state(), "open");
        assert!(peer.try_admit(), "the expired delay admits the probe");
        assert_eq!(peer.breaker_state(), "half-open");
        assert_eq!(peer.breaker_gauge(), 1);
        assert!(!peer.try_admit(), "a second forward waits for the probe");
        assert_eq!(peer.breaker_skips(), 1);
        // A failed probe re-opens at once, whatever the threshold.
        peer.record_async_failure(true);
        assert_eq!(peer.breaker_state(), "open");
    }

    #[test]
    fn a_successful_probe_recloses_the_breaker() {
        let peer = peer(1, Duration::ZERO);
        peer.record_async_failure(false);
        assert!(peer.try_admit());
        peer.record_async_success();
        assert_eq!(peer.breaker_state(), "closed");
        assert_eq!(peer.breaker_gauge(), 0);
        assert_eq!(peer.forwards(), 1);
        for _ in 0..3 {
            assert!(peer.try_admit(), "a closed breaker admits everything");
        }
    }

    #[test]
    fn failures_and_timeouts_are_counted_apart() {
        let peer = peer(3, Duration::from_secs(60));
        peer.record_async_failure(true);
        assert_eq!((peer.failures(), peer.timeouts()), (0, 1));
        peer.record_async_failure(false);
        assert_eq!((peer.failures(), peer.timeouts()), (1, 1));
        assert_eq!(peer.breaker_state(), "closed", "two failures must not trip");
        // Both kinds feed one streak: the third trips the breaker.
        peer.record_async_failure(true);
        assert_eq!(peer.breaker_state(), "open");
        assert_eq!(peer.forwards(), 0);
    }
}
