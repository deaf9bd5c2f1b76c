//! The poll-based serving reactor: the server's entire I/O plane.
//!
//! A small, fixed set of **event threads** multiplexes every client
//! connection and every in-flight peer forward over nonblocking sockets
//! with a raw `poll(2)` readiness loop (no async runtime — the shim in
//! [`sys`] is ~30 lines over the libc the binary already links). The
//! division of labor:
//!
//! * **Event threads** own the sockets. They decode request lines, run
//!   the admission controller ([`crate::admission`]) on solve-shaped
//!   requests, dispatch admitted work to the shared [`WorkerPool`], and
//!   drain per-connection write buffers with backpressure (a client that
//!   stops reading accumulates output up to [`OUTBOX_CAP`] and is then
//!   disconnected — it cannot stall the loop or other clients).
//! * **Workers** solve. A worker that picks up a request owned by a peer
//!   converts it into an [`AsyncForward`] and hands it straight back to
//!   the reactor (the sink installed with
//!   [`Router::set_forward_sink`](crate::router::Router::set_forward_sink))
//!   — the forward then lives in the event thread's **pending-forward
//!   table** as a nonblocking continuation (connect → write → read →
//!   failover walk) instead of occupying a thread for its round trip.
//!   The table is the node's only way out: traced forwards record their
//!   entry-side spans from it, and replica `CacheFill` pushes ride it as
//!   fire-and-forget forwards.
//! * **Hop executors** answer peer-forwarded (`hop`) requests on their
//!   own small thread set. Hopped work is always local and never blocks
//!   on another node, but it must not share the solve pool: two
//!   saturated nodes forwarding to each other could otherwise deadlock,
//!   every worker of each waiting behind the other's queue.
//!
//! Responses are produced on whatever thread computes them and pushed
//! into the connection's outbox ([`ConnShared::push_line`]); the event
//! thread is woken through a self-pipe and flushes opportunistically.
//! Scripted fault injection ([`crate::fault`]) is applied at decode
//! (drop/kill) and at response delivery (corrupt), and an injected
//! response delay is a **reactor timer**, not a sleeping thread — the
//! worker that produced the response is freed immediately.

use crate::admission::{Admission, ServingOptions, Verdict};
use crate::fault::{FaultAction, FaultPlan};
use crate::metrics::LatencyHistogram;
use crate::peer::Peer;
use crate::protocol::{Meta, Request, Response, ServingStatsOut};
use crate::router::AsyncForward;
use crate::service::{Job, WorkerPool};
use crossbeam::channel::{self, Sender};
use rpwf_core::budget::CancelHandle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection write-buffer cap. A connection whose client reads too
/// slowly to keep its pending output under this bound is severed (and
/// counted in `slow_client_disconnects`) — bounded memory per client,
/// and a slow consumer can never wedge an event thread.
const OUTBOX_CAP: usize = 4 << 20;

/// Hard cap on buffered, not-yet-terminated request-line bytes per
/// connection — a line longer than this is a protocol violation (or an
/// attack) and closes the connection.
const MAX_LINE_BYTES: usize = 16 << 20;

/// Accept bound: beyond this many open connections new sockets are
/// dropped at accept (counted in `connections_rejected_total`).
const MAX_OPEN_CONNS: u64 = 4096;

/// Read/write chunk size on the event loop.
const CHUNK: usize = 16 * 1024;

/// Most bytes one readable event takes from a client socket. poll(2) is
/// level-triggered, so the rest is read on a later pass: a client that
/// keeps its socket readable cannot hold the event thread, and the lines
/// one pass returns stay bounded however short they are.
const READ_BUDGET: usize = 4 * CHUNK;

/// Idle poll timeout: an upper bound on how stale a shutdown check can
/// get even if every wake-up is missed.
const IDLE_POLL_MS: i32 = 250;

/// Raw, dependency-free `poll(2)` shim. `std` already links the
/// platform C library; declaring the one symbol we need avoids both an
/// async runtime and a libc crate.
#[cfg(unix)]
mod sys {
    /// One fd's interest/readiness record, ABI-matching `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        #[link_name = "poll"]
        fn c_poll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: std::os::raw::c_int,
        ) -> std::os::raw::c_int;
    }

    /// Blocks until readiness or `timeout_ms`, retrying on `EINTR`.
    /// Fills `revents` in place; a negative return is a hard error the
    /// caller treats as "nothing ready".
    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        loop {
            let rc = unsafe {
                c_poll(
                    fds.as_mut_ptr(),
                    fds.len() as std::os::raw::c_ulong,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return rc;
            }
            if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                return -1;
            }
        }
    }
}

/// Cross-thread wake-up for one event thread: a nonblocking self-pipe
/// (socketpair) with a pending-flag dedupe so a burst of wakes costs one
/// write. On non-unix targets the loop falls back to short timed polls
/// and the handle only sets the flag.
#[derive(Clone)]
pub(crate) struct WakeHandle {
    pending: Arc<AtomicBool>,
    #[cfg(unix)]
    writer: Arc<std::os::unix::net::UnixStream>,
}

impl WakeHandle {
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            #[cfg(unix)]
            {
                let _ = (&*self.writer).write(&[1u8]);
            }
        }
    }
}

/// The read half of an event thread's self-pipe.
struct WakeReader {
    pending: Arc<AtomicBool>,
    #[cfg(unix)]
    reader: std::os::unix::net::UnixStream,
}

impl WakeReader {
    /// Empties the pipe, then clears the pending flag, both before the
    /// caller drains its inbox. In that order a wake can never be lost: one
    /// landing before the clear finds the flag still set and writes
    /// nothing (its message is in the inbox the caller is about to drain),
    /// one landing after it writes a fresh byte, so the next poll returns
    /// at once. The other order loses the byte of a wake landing between
    /// the two steps while its flag stays set, muting every later wake.
    fn drain(&mut self) {
        self.drain_with(|| {});
    }

    /// [`drain`](Self::drain) running `between` after the pipe is emptied
    /// and before the flag clears — the window a concurrent wake can land
    /// in, driven by hand in the tests.
    fn drain_with(&mut self, between: impl FnOnce()) {
        #[cfg(unix)]
        {
            let mut buf = [0u8; 64];
            while matches!(self.reader.read(&mut buf), Ok(n) if n > 0) {}
        }
        between();
        self.pending.store(false, Ordering::SeqCst);
    }
}

fn wake_pair() -> std::io::Result<(WakeReader, WakeHandle)> {
    let pending = Arc::new(AtomicBool::new(false));
    #[cfg(unix)]
    {
        let (reader, writer) = std::os::unix::net::UnixStream::pair()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        Ok((
            WakeReader {
                pending: Arc::clone(&pending),
                reader,
            },
            WakeHandle {
                pending,
                writer: Arc::new(writer),
            },
        ))
    }
    #[cfg(not(unix))]
    {
        Ok((
            WakeReader {
                pending: Arc::clone(&pending),
            },
            WakeHandle { pending },
        ))
    }
}

/// Messages delivered to one event thread (always paired with a wake).
enum Msg {
    /// A freshly accepted client connection to adopt.
    NewConn(TcpStream),
    /// A worker-prepared peer forward to drive.
    Forward(Box<AsyncForward>),
    /// A helper thread finished a blocking peer connect for forward
    /// `fwd`'s attempt number `attempt` (stale attempts are dropped).
    Checkout {
        fwd: u64,
        attempt: u64,
        result: std::io::Result<TcpStream>,
    },
    /// A fault-injected response delay matured into a timer: deliver
    /// `line` to connection `conn` at `due`.
    DelayLine {
        conn: u64,
        line: String,
        due: Instant,
    },
    /// A producer appended to connection `conn`'s outbox (or completed a
    /// request): flush and run the GC check.
    Flush(u64),
}

/// One event thread's mailbox.
struct Inbox {
    msgs: Mutex<Vec<Msg>>,
}

impl Inbox {
    fn push(&self, msg: Msg) {
        self.msgs.lock().expect("reactor inbox lock").push(msg);
    }

    fn drain(&self) -> Vec<Msg> {
        std::mem::take(&mut *self.msgs.lock().expect("reactor inbox lock"))
    }
}

/// Reactor-plane counters behind `Stats.serving` and the
/// `rpwf_reactor_*` Prometheus series.
pub(crate) struct ReactorMetrics {
    event_threads: AtomicU64,
    open_connections: AtomicU64,
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    pending_forwards: AtomicU64,
    slow_client_disconnects: AtomicU64,
    wakeups: AtomicU64,
    /// Work-phase duration of each loop iteration (poll wait excluded):
    /// the latency a ready event waits behind the loop's other work.
    loop_latency: LatencyHistogram,
}

impl ReactorMetrics {
    fn new() -> Self {
        ReactorMetrics {
            event_threads: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            pending_forwards: AtomicU64::new(0),
            slow_client_disconnects: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            loop_latency: LatencyHistogram::default(),
        }
    }

    pub(crate) fn fill_stats(&self, out: &mut ServingStatsOut) {
        out.event_threads = self.event_threads.load(Ordering::Relaxed);
        out.open_connections = self.open_connections.load(Ordering::Relaxed);
        out.reactor_loop_p99_us = self.loop_latency.quantile_us(0.99);
        out.pending_forwards = self.pending_forwards.load(Ordering::Relaxed);
        out.slow_client_disconnects = self.slow_client_disconnects.load(Ordering::Relaxed);
    }

    pub(crate) fn render_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        writeln!(
            out,
            "rpwf_reactor_event_threads {}",
            self.event_threads.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_reactor_open_connections {}",
            self.open_connections.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_reactor_connections_accepted_total {}",
            self.connections_accepted.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_reactor_connections_rejected_total {}",
            self.connections_rejected.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_reactor_pending_forwards {}",
            self.pending_forwards.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_reactor_slow_client_disconnects_total {}",
            self.slow_client_disconnects.load(Ordering::Relaxed)
        )
        .expect("write");
        writeln!(
            out,
            "rpwf_reactor_wakeups_total {}",
            self.wakeups.load(Ordering::Relaxed)
        )
        .expect("write");
        self.loop_latency
            .render_prometheus_series("rpwf_reactor_loop_us", out);
    }
}

/// The address of one event thread: its mailbox plus its wake handle.
struct ThreadHandle {
    inbox: Arc<Inbox>,
    wake: WakeHandle,
}

/// Shared reactor state: what accept threads, worker threads, response
/// producers, and fault hooks need to reach the event threads.
pub(crate) struct ReactorCtx {
    shutdown: AtomicBool,
    pool: Arc<WorkerPool>,
    admission: Arc<Admission>,
    pub(crate) metrics: Arc<ReactorMetrics>,
    faults: Option<Arc<FaultPlan>>,
    threads: Vec<ThreadHandle>,
    /// Wakes the accept thread out of its poll (shutdown, injected kill).
    accept_wake: WakeHandle,
    /// Hop-lane sender; taken (closing the lane) at shutdown.
    hop_tx: Mutex<Option<Sender<Job>>>,
    /// This node's identity for shed-response metadata.
    node_id: Option<String>,
    next_thread: AtomicUsize,
    next_conn: AtomicU64,
}

impl ReactorCtx {
    /// Round-robins a message across the event threads.
    fn dispatch(&self, msg: Msg) {
        let i = self.next_thread.fetch_add(1, Ordering::Relaxed) % self.threads.len();
        self.threads[i].inbox.push(msg);
        self.threads[i].wake.wake();
    }

    fn submit_hop(&self, job: Job) {
        if let Some(tx) = &*self.hop_tx.lock().expect("hop lane lock") {
            let _ = tx.send(job);
        }
    }

    /// Flips the shutdown flag and wakes everyone: event threads exit
    /// their loops (severing their connections on the way out), the hop
    /// lane disconnects, the accept loop leaves its poll and stops.
    fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        *self.hop_tx.lock().expect("hop lane lock") = None;
        for t in &self.threads {
            t.wake.wake();
        }
        self.accept_wake.wake();
    }

    /// Executes an injected `KillNode`: mark the plan, then go dark
    /// exactly like [`crate::Server::shutdown`] — stop accepting, sever
    /// every connection.
    fn kill(&self) {
        if let Some(plan) = &self.faults {
            plan.mark_killed();
        }
        self.signal_shutdown();
    }
}

/// The running reactor: accept thread + event threads + hop lane.
pub(crate) struct Reactor {
    ctx: Arc<ReactorCtx>,
    accept: Option<JoinHandle<()>>,
    events: Vec<JoinHandle<()>>,
    hops: Vec<JoinHandle<()>>,
}

impl Reactor {
    /// Spawns the full serving plane over an already-bound nonblocking
    /// listener and installs the reactor's service hooks (serving stats,
    /// Prometheus extension, async-forward sink).
    pub(crate) fn start(
        listener: TcpListener,
        pool: Arc<WorkerPool>,
        faults: Option<Arc<FaultPlan>>,
        options: &ServingOptions,
    ) -> std::io::Result<Reactor> {
        let event_threads = options.effective_event_threads();
        let metrics = Arc::new(ReactorMetrics::new());
        metrics
            .event_threads
            .store(event_threads as u64, Ordering::Relaxed);

        let mut handles = Vec::with_capacity(event_threads);
        let mut readers = Vec::with_capacity(event_threads);
        for _ in 0..event_threads {
            let (reader, wake) = wake_pair()?;
            let inbox = Arc::new(Inbox {
                msgs: Mutex::new(Vec::new()),
            });
            handles.push(ThreadHandle { inbox, wake });
            readers.push(reader);
        }

        let (accept_wake_reader, accept_wake) = wake_pair()?;

        // Hop executors: sized like the solve pool, but a separate lane
        // (see the module docs for the cross-node deadlock argument).
        let hop_count = pool.service().config().effective_workers().max(1);
        let (hop_tx, hop_rx) = channel::unbounded::<Job>();

        let ctx = Arc::new(ReactorCtx {
            shutdown: AtomicBool::new(false),
            admission: Arc::clone(pool.admission()),
            metrics: Arc::clone(&metrics),
            faults,
            threads: handles,
            accept_wake,
            hop_tx: Mutex::new(Some(hop_tx)),
            node_id: pool.service().config().node_id.clone(),
            next_thread: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            pool: Arc::clone(&pool),
        });

        // Service hooks. All captures are leaf state (admission gauges,
        // reactor counters, a weak ctx) — never anything that owns the
        // service, so no Arc cycle can form.
        let admission = Arc::clone(pool.admission());
        let stats_metrics = Arc::clone(&metrics);
        pool.service().set_serving_stats(Box::new(move || {
            let mut out = ServingStatsOut {
                event_threads: 0,
                open_connections: 0,
                queue_depth: 0,
                queue_limit: 0,
                busy_workers: 0,
                admitted: 0,
                shed_queue_full: 0,
                shed_deadline: 0,
                shed_latency_p99_us: 0,
                reactor_loop_p99_us: 0,
                pending_forwards: 0,
                slow_client_disconnects: 0,
            };
            admission.fill_stats(&mut out);
            stats_metrics.fill_stats(&mut out);
            out
        }));
        let prom_admission = Arc::clone(pool.admission());
        let prom_metrics = Arc::clone(&metrics);
        pool.service().set_metrics_extension(Box::new(move |out| {
            prom_admission.render_prometheus(out);
            prom_metrics.render_prometheus(out);
        }));
        let sink_ctx = Arc::downgrade(&ctx);
        pool.router().set_forward_sink(Box::new(move |forward| {
            if let Some(ctx) = sink_ctx.upgrade() {
                ctx.dispatch(Msg::Forward(Box::new(forward)));
            }
            // Reactor gone: dropping the forward drops its respond
            // closure, whose completion guard settles the connection.
        }));

        let mut events = Vec::with_capacity(event_threads);
        for (index, wake_reader) in readers.into_iter().enumerate() {
            let thread = EventThread {
                ctx: Arc::clone(&ctx),
                inbox: Arc::clone(&ctx.threads[index].inbox),
                wake: ctx.threads[index].wake.clone(),
                wake_reader,
                conns: HashMap::new(),
                forwards: HashMap::new(),
                timers: BinaryHeap::new(),
                next_forward: 0,
                timer_seq: 0,
            };
            events.push(
                std::thread::Builder::new()
                    .name(format!("rpwf-reactor-{index}"))
                    .spawn(move || thread.run())
                    .expect("spawn reactor event thread"),
            );
        }

        let mut hops = Vec::with_capacity(hop_count);
        for index in 0..hop_count {
            let rx = hop_rx.clone();
            let router = Arc::clone(pool.router());
            hops.push(
                std::thread::Builder::new()
                    .name(format!("rpwf-hop-{index}"))
                    .spawn(move || {
                        while let Ok(mut job) = rx.recv() {
                            router.handle_line(
                                &job.line,
                                job.received,
                                job.cancel.as_ref(),
                                &mut job.respond,
                            );
                        }
                    })
                    .expect("spawn hop executor"),
            );
        }
        drop(hop_rx);

        let accept_ctx = Arc::clone(&ctx);
        let accept = std::thread::Builder::new()
            .name("rpwf-accept".into())
            .spawn(move || accept_loop(&listener, &accept_ctx, accept_wake_reader))
            .expect("spawn accept thread");

        Ok(Reactor {
            ctx,
            accept: Some(accept),
            events,
            hops,
        })
    }

    /// Full stop: signal, then join every thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.ctx.signal_shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.events.drain(..) {
            let _ = handle.join();
        }
        for handle in self.hops.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<ReactorCtx>, mut wake: WakeReader) {
    while !ctx.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Re-check after the accept: a shutdown — operator or
                // injected KillNode — must not hand out connections to a
                // node that is supposed to be dark.
                if ctx.shutdown.load(Ordering::Relaxed) {
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                if ctx.metrics.open_connections.load(Ordering::Relaxed) >= MAX_OPEN_CONNS {
                    ctx.metrics
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                ctx.metrics
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                ctx.dispatch(Msg::NewConn(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_acceptable(listener, &mut wake);
            }
            Err(e) => {
                // Transient accept errors (EMFILE, ECONNABORTED, EINTR,
                // …) must not kill the listener: back off and keep
                // accepting. Shutdown still exits via the loop condition.
                eprintln!("rpwf-server: accept error (retrying): {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Blocks until the listener has a connection to accept or the accept
/// wake fires (shutdown, injected kill) — bounded by the idle tick, like
/// the event loops.
#[cfg(unix)]
fn wait_acceptable(listener: &TcpListener, wake: &mut WakeReader) {
    use std::os::unix::io::AsRawFd;
    let mut fds = [
        sys::PollFd {
            fd: listener.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        },
        sys::PollFd {
            fd: wake.reader.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        },
    ];
    if sys::poll(&mut fds, IDLE_POLL_MS) < 0 {
        std::thread::sleep(Duration::from_millis(5));
    } else if fds[1].revents != 0 {
        wake.drain();
    }
}

#[cfg(not(unix))]
fn wait_acceptable(_listener: &TcpListener, wake: &mut WakeReader) {
    std::thread::sleep(Duration::from_millis(5));
    wake.drain();
}

/// The response-side state of one connection, shared with every respond
/// closure its requests spawned (and thus with worker / hop / forward
/// threads).
struct ConnShared {
    id: u64,
    inbox: Arc<Inbox>,
    wake: WakeHandle,
    outbox: Mutex<Outbox>,
    /// Requests decoded from this connection whose respond closure has
    /// not been dropped yet (a dropped closure means the request fully
    /// answered — or was abandoned, which counts the same for GC).
    outstanding: AtomicU64,
    /// Fault-delayed response lines parked on the timer heap.
    pending_delayed: AtomicU64,
    /// Set when the reactor severed the connection: late producers drop
    /// their lines instead of growing a dead buffer.
    dead: AtomicBool,
}

struct Outbox {
    buf: Vec<u8>,
    pos: usize,
    /// The client fell further behind than [`OUTBOX_CAP`]; the event
    /// thread severs the connection at the next flush.
    overflow: bool,
}

impl ConnShared {
    /// Appends one response line (newline added here) and nudges the
    /// owning event thread to flush.
    fn push_line(&self, line: &str) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        {
            let mut out = self.outbox.lock().expect("conn outbox lock");
            if out.buf.len() - out.pos + line.len() + 1 > OUTBOX_CAP {
                out.overflow = true;
            } else {
                out.buf.extend_from_slice(line.as_bytes());
                out.buf.push(b'\n');
            }
        }
        self.notify();
    }

    /// Parks one response line on the reactor's timer heap for `delay`
    /// (the fault-injected response delay, without blocking a thread).
    fn push_line_delayed(&self, line: String, delay: Duration) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        self.pending_delayed.fetch_add(1, Ordering::Relaxed);
        self.inbox.push(Msg::DelayLine {
            conn: self.id,
            line,
            due: Instant::now() + delay,
        });
        self.wake.wake();
    }

    fn notify(&self) {
        self.inbox.push(Msg::Flush(self.id));
        self.wake.wake();
    }
}

/// Drop guard inside every respond closure: when the closure is dropped
/// — request fully answered, job abandoned, forward cancelled — the
/// connection's outstanding count settles and the event thread gets a
/// GC nudge.
struct Completion(Arc<ConnShared>);

impl Drop for Completion {
    fn drop(&mut self) {
        self.0.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.0.notify();
    }
}

/// One live client connection, owned by its event thread.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    cancel: CancelHandle,
    inbuf: LineBuf,
    read_closed: bool,
}

/// Bytes read from a socket but not yet returned as lines. Every byte is
/// scanned for a newline once, however many reads a long line spans, and
/// every line is copied once, into a `String` of its exact size.
#[derive(Default)]
struct LineBuf {
    buf: Vec<u8>,
    /// Start of the first line not yet returned.
    start: usize,
    /// `buf[start..scanned]` holds no newline.
    scanned: usize,
}

impl LineBuf {
    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line, without its newline and a trailing CR;
    /// invalid UTF-8 is replaced lossily.
    fn next_line(&mut self) -> Option<String> {
        let Some(offset) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.buf.len();
            return None;
        };
        let end = self.scanned + offset;
        let mut line = &self.buf[self.start..end];
        if let [head @ .., b'\r'] = line {
            line = head;
        }
        let text = match std::str::from_utf8(line) {
            Ok(text) => text.to_owned(),
            Err(_) => String::from_utf8_lossy(line).into_owned(),
        };
        self.start = end + 1;
        self.scanned = self.start;
        Some(text)
    }

    /// Bytes of the unterminated tail.
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Forgets the returned lines (one move of the unterminated tail).
    fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
    }

    fn clear(&mut self) {
        *self = LineBuf::default();
    }
}

/// How a [`read_lines`] pass ended.
#[derive(Debug, PartialEq, Eq)]
enum ReadEnd {
    /// The socket would block or the pass spent its budget.
    Open,
    /// EOF or a read error.
    Closed,
    /// The unterminated tail grew past [`MAX_LINE_BYTES`].
    Overlong,
}

/// One read pass over a client socket: at most [`READ_BUDGET`] bytes
/// into `inbuf`, every line they complete appended to `lines`.
fn read_lines(stream: &mut impl Read, inbuf: &mut LineBuf, lines: &mut Vec<String>) -> ReadEnd {
    let mut buf = [0u8; CHUNK];
    let mut budget = READ_BUDGET;
    let end = loop {
        if budget == 0 {
            break ReadEnd::Open;
        }
        match stream.read(&mut buf[..budget.min(CHUNK)]) {
            Ok(0) => break ReadEnd::Closed,
            Ok(n) => {
                budget -= n;
                inbuf.extend(&buf[..n]);
                while let Some(line) = inbuf.next_line() {
                    lines.push(line);
                }
                if inbuf.pending() > MAX_LINE_BYTES {
                    break ReadEnd::Overlong;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break ReadEnd::Open,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break ReadEnd::Closed,
        }
    };
    inbuf.compact();
    end
}

/// A pending peer forward: the nonblocking continuation of one
/// [`AsyncForward`] as it walks the owner list.
struct ForwardState {
    fwd: AsyncForward,
    /// Index into `fwd.owners` currently being tried.
    rank: usize,
    /// Attempt generation: bumped on every (re)connect and failover, so
    /// stale `Checkout` results and expired deadline timers for an
    /// abandoned attempt fall on the floor.
    attempt: u64,
    phase: FwdPhase,
    /// Response lines received so far in this attempt (streamed `part`
    /// lines buffer here until the terminal line arrives, so a failover
    /// restarts cleanly and the client never sees a half answer).
    lines: Vec<String>,
    got_bytes: bool,
    pooled: bool,
    retried_stale: bool,
}

enum FwdPhase {
    /// A helper thread is connecting; the socket arrives via
    /// [`Msg::Checkout`].
    Connecting,
    /// Writing the hopped line / reading the response.
    Active {
        stream: TcpStream,
        out: Vec<u8>,
        pos: usize,
        inbuf: LineBuf,
    },
}

impl ForwardState {
    fn cancelled(&self) -> bool {
        self.fwd
            .cancel
            .as_ref()
            .is_some_and(CancelHandle::is_cancelled)
    }

    /// Gives up on the owner at `rank` and moves on to the next one.
    fn abandon_owner(&mut self) {
        let owner = &self.fwd.owners[self.rank];
        if let Some(trace) = &mut self.fwd.trace {
            trace.failover(owner);
        }
        if self.rank + 1 < self.fwd.owners.len() {
            self.fwd.router.note_failover();
        }
        self.rank += 1;
    }
}

enum FwdIo {
    Pending { progressed: bool },
    Done,
    Failed(std::io::Error),
}

/// Timer heap entry, ordered by `(due, seq)` so the heap is stable.
struct TimerEntry {
    due: Instant,
    seq: u64,
    kind: TimerKind,
}

enum TimerKind {
    /// Deliver a fault-delayed response line.
    DeliverLine { conn: u64, line: String },
    /// Per-attempt response deadline of a pending forward.
    ForwardDeadline { fwd: u64, gen: u64 },
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// What one poll round reported for a registered fd.
struct Ready {
    tag: Tag,
    readable: bool,
    writable: bool,
}

#[derive(Clone, Copy)]
enum Tag {
    Conn(u64),
    Fwd(u64),
}

/// One event thread: the poll loop plus all state it owns.
struct EventThread {
    ctx: Arc<ReactorCtx>,
    inbox: Arc<Inbox>,
    wake: WakeHandle,
    wake_reader: WakeReader,
    conns: HashMap<u64, Conn>,
    forwards: HashMap<u64, ForwardState>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    next_forward: u64,
    timer_seq: u64,
}

impl EventThread {
    fn run(mut self) {
        while !self.ctx.shutdown.load(Ordering::Relaxed) {
            let timeout = self.poll_timeout_ms();
            let ready = self.wait_ready(timeout);
            let work_start = Instant::now();
            self.ctx.metrics.wakeups.fetch_add(1, Ordering::Relaxed);
            for msg in self.inbox.drain() {
                self.handle_msg(msg);
            }
            self.fire_due_timers();
            for item in ready {
                match item.tag {
                    Tag::Conn(id) => {
                        if item.readable {
                            for line in self.read_conn(id) {
                                self.handle_decoded(id, line);
                            }
                        }
                        if item.readable || item.writable {
                            self.flush_conn(id);
                        }
                        self.gc_conn(id);
                    }
                    Tag::Fwd(id) => self.advance_forward(id),
                }
            }
            self.ctx
                .metrics
                .loop_latency
                .record(work_start.elapsed().as_micros() as u64);
        }
        // Going dark: sever every connection this thread owns, exactly
        // like a killed process as observed from the network.
        for (_, conn) in self.conns.drain() {
            conn.shared.dead.store(true, Ordering::Relaxed);
            conn.cancel.cancel();
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.ctx
                .metrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
        for (_, st) in self.forwards.drain() {
            drop(st);
            self.ctx
                .metrics
                .pending_forwards
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Milliseconds until the nearest timer (capped at the idle tick).
    fn poll_timeout_ms(&self) -> i32 {
        match self.timers.peek() {
            Some(Reverse(entry)) => {
                let now = Instant::now();
                if entry.due <= now {
                    0
                } else {
                    let ms = entry.due.duration_since(now).as_millis();
                    // +1: round up so we don't busy-spin just short of due.
                    (ms.min(i32::MAX as u128 - 1) as i32 + 1).min(IDLE_POLL_MS)
                }
            }
            None => IDLE_POLL_MS,
        }
    }

    /// Polls every registered fd (wake pipe, client sockets with
    /// read/write interest, active forward sockets) and returns the
    /// ready set. On non-unix targets: a short sleep, then every fd is
    /// reported ready and the nonblocking ops sort out reality.
    #[cfg(unix)]
    fn wait_ready(&mut self, timeout_ms: i32) -> Vec<Ready> {
        use std::os::unix::io::AsRawFd;
        let mut fds: Vec<sys::PollFd> = Vec::with_capacity(1 + self.conns.len());
        let mut tags: Vec<Option<Tag>> = Vec::with_capacity(fds.capacity());
        fds.push(sys::PollFd {
            fd: self.wake_reader.reader.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        tags.push(None);
        for (&id, conn) in &self.conns {
            let mut events = 0i16;
            if !conn.read_closed {
                events |= sys::POLLIN;
            }
            let wants_write = {
                let out = conn.shared.outbox.lock().expect("conn outbox lock");
                out.pos < out.buf.len() || out.overflow
            };
            if wants_write {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                fds.push(sys::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                tags.push(Some(Tag::Conn(id)));
            }
        }
        for (&id, st) in &self.forwards {
            if let FwdPhase::Active {
                stream, out, pos, ..
            } = &st.phase
            {
                let events = if *pos < out.len() {
                    sys::POLLIN | sys::POLLOUT
                } else {
                    sys::POLLIN
                };
                fds.push(sys::PollFd {
                    fd: stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                tags.push(Some(Tag::Fwd(id)));
            }
        }
        let rc = sys::poll(&mut fds, timeout_ms);
        let mut ready = Vec::new();
        if rc > 0 {
            for (fd, tag) in fds.iter().zip(&tags) {
                if fd.revents == 0 {
                    continue;
                }
                let readable = fd.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0;
                let writable = fd.revents & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP) != 0;
                match tag {
                    None => self.wake_reader.drain(),
                    Some(tag) => ready.push(Ready {
                        tag: *tag,
                        readable,
                        writable,
                    }),
                }
            }
        }
        ready
    }

    #[cfg(not(unix))]
    fn wait_ready(&mut self, timeout_ms: i32) -> Vec<Ready> {
        std::thread::sleep(Duration::from_millis(timeout_ms.clamp(1, 5) as u64));
        self.wake_reader.drain();
        let mut ready = Vec::new();
        for &id in self.conns.keys() {
            ready.push(Ready {
                tag: Tag::Conn(id),
                readable: true,
                writable: true,
            });
        }
        for (&id, st) in &self.forwards {
            if matches!(st.phase, FwdPhase::Active { .. }) {
                ready.push(Ready {
                    tag: Tag::Fwd(id),
                    readable: true,
                    writable: true,
                });
            }
        }
        ready
    }

    fn handle_msg(&mut self, msg: Msg) {
        match msg {
            Msg::NewConn(stream) => self.install_conn(stream),
            Msg::Forward(forward) => self.register_forward(*forward),
            Msg::Checkout {
                fwd,
                attempt,
                result,
            } => self.on_checkout(fwd, attempt, result),
            Msg::DelayLine { conn, line, due } => {
                self.timer_seq += 1;
                self.timers.push(Reverse(TimerEntry {
                    due,
                    seq: self.timer_seq,
                    kind: TimerKind::DeliverLine { conn, line },
                }));
            }
            Msg::Flush(id) => {
                self.flush_conn(id);
                self.gc_conn(id);
            }
        }
    }

    fn install_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let id = self.ctx.next_conn.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(ConnShared {
            id,
            inbox: Arc::clone(&self.inbox),
            wake: self.wake.clone(),
            outbox: Mutex::new(Outbox {
                buf: Vec::new(),
                pos: 0,
                overflow: false,
            }),
            outstanding: AtomicU64::new(0),
            pending_delayed: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        });
        self.conns.insert(
            id,
            Conn {
                stream,
                shared,
                cancel: CancelHandle::new(),
                inbuf: LineBuf::default(),
                read_closed: false,
            },
        );
        self.ctx
            .metrics
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Reads up to [`READ_BUDGET`] bytes and returns every complete line
    /// (CR stripped). EOF or a read error half-closes the connection and
    /// fires its cancel handle — queued responses still flush before GC.
    fn read_conn(&mut self, id: u64) -> Vec<String> {
        let mut lines = Vec::new();
        let Some(conn) = self.conns.get_mut(&id) else {
            return lines;
        };
        match read_lines(&mut conn.stream, &mut conn.inbuf, &mut lines) {
            ReadEnd::Open => {}
            ReadEnd::Closed => {
                conn.read_closed = true;
                conn.cancel.cancel();
            }
            ReadEnd::Overlong => {
                // A single unterminated line this large is not a client
                // we serve.
                conn.read_closed = true;
                conn.cancel.cancel();
                conn.shared.dead.store(true, Ordering::Relaxed);
                conn.inbuf.clear();
                lines.clear();
            }
        }
        lines
    }

    /// One decoded request line: fault hooks, hop lane, admission,
    /// worker dispatch.
    fn handle_decoded(&mut self, conn_id: u64, line: String) {
        if line.trim().is_empty() {
            // Blank keep-alives never advance the fault script.
            return;
        }
        if self.ctx.shutdown.load(Ordering::Relaxed) {
            // A KillNode earlier in this batch took the node dark:
            // later buffered lines are never processed (matching a real
            // process kill mid-read).
            return;
        }
        let Some(conn) = self.conns.get(&conn_id) else {
            return;
        };
        let (shared, cancel) = (Arc::clone(&conn.shared), conn.cancel.clone());
        let received = Instant::now();
        let fault = self.ctx.faults.as_ref().and_then(|p| p.on_request());
        match fault {
            Some(FaultAction::DropConnection) => {
                self.sever_conn(conn_id);
                return;
            }
            Some(FaultAction::KillNode) => {
                self.ctx.kill();
                return;
            }
            _ => {}
        }
        if self.ctx.pool.router().handles_inline(&line) {
            // Peer-forwarded (hopped) work: already admitted at its entry
            // node; runs on the dedicated hop lane (module docs).
            let respond = make_respond(&shared, fault);
            self.ctx.submit_hop(Job {
                line,
                received,
                respond,
                cancel: Some(cancel),
                local: false,
            });
            return;
        }
        if is_solve_shaped(&line) {
            let remaining = sniff_u64(&line, "\"deadline_ms\":").map(Duration::from_millis);
            if let Verdict::Shed {
                retry_after_ms,
                reason,
            } = self.ctx.admission.decide(remaining)
            {
                // Slow path is fine here: sheds are the rare outcome of
                // the fast gauge check, and only they pay a full parse
                // (for the exact request id).
                let id = serde_json::from_str::<Request>(line.trim())
                    .ok()
                    .and_then(|r| r.id);
                let message = match reason {
                    crate::admission::ShedReason::QueueFull => {
                        "solve queue full; retry after the hinted delay"
                    }
                    crate::admission::ShedReason::DeadlineUnmeetable => {
                        "predicted queue wait exceeds the deadline; retry after the hinted delay"
                    }
                };
                let response = Response::overloaded(
                    id,
                    retry_after_ms,
                    message,
                    Meta {
                        cache_hit: false,
                        solver: None,
                        exact_complete: None,
                        elapsed_us: received.elapsed().as_micros() as u64,
                        node: self.ctx.node_id.clone(),
                        trace: None,
                        explain: None,
                    },
                );
                let mut respond = make_respond(&shared, fault);
                respond(response.to_line());
                drop(respond);
                self.ctx
                    .admission
                    .record_shed_latency(received.elapsed().as_micros() as u64);
                self.flush_conn(conn_id);
                return;
            }
        }
        let respond = make_respond(&shared, fault);
        self.ctx.pool.submit_job(Job {
            line,
            received,
            respond,
            cancel: Some(cancel),
            local: false,
        });
    }

    fn flush_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let sever = {
            let mut out = conn.shared.outbox.lock().expect("conn outbox lock");
            if out.overflow {
                Some(true)
            } else {
                let mut failed = false;
                while out.pos < out.buf.len() {
                    match conn.stream.write(&out.buf[out.pos..]) {
                        Ok(0) => {
                            failed = true;
                            break;
                        }
                        Ok(n) => out.pos += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                if out.pos == out.buf.len() {
                    out.buf.clear();
                    out.pos = 0;
                } else if out.pos > CHUNK {
                    // Compact occasionally so a long-lived streaming
                    // connection doesn't hold its high-water mark.
                    let pos = out.pos;
                    out.buf.drain(..pos);
                    out.pos = 0;
                }
                failed.then_some(false)
            }
        };
        match sever {
            Some(true) => {
                self.ctx
                    .metrics
                    .slow_client_disconnects
                    .fetch_add(1, Ordering::Relaxed);
                self.sever_conn(id);
            }
            Some(false) => self.sever_conn(id),
            None => {}
        }
    }

    /// Removes a connection whose client is gone and whose pipeline has
    /// fully drained — half-closed clients keep receiving queued
    /// responses until then.
    fn gc_conn(&mut self, id: u64) {
        let done = match self.conns.get(&id) {
            Some(conn) => {
                conn.read_closed
                    && conn.shared.outstanding.load(Ordering::Relaxed) == 0
                    && conn.shared.pending_delayed.load(Ordering::Relaxed) == 0
                    && {
                        let out = conn.shared.outbox.lock().expect("conn outbox lock");
                        out.pos >= out.buf.len()
                    }
            }
            None => false,
        };
        if done {
            self.sever_conn(id);
        }
    }

    fn sever_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            conn.shared.dead.store(true, Ordering::Relaxed);
            conn.cancel.cancel();
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.ctx
                .metrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn fire_due_timers(&mut self) {
        let now = Instant::now();
        while matches!(self.timers.peek(), Some(Reverse(e)) if e.due <= now) {
            let Some(Reverse(entry)) = self.timers.pop() else {
                break;
            };
            match entry.kind {
                TimerKind::DeliverLine { conn, line } => {
                    if let Some(c) = self.conns.get(&conn) {
                        let shared = Arc::clone(&c.shared);
                        shared.pending_delayed.fetch_sub(1, Ordering::Relaxed);
                        shared.push_line(&line);
                        self.flush_conn(conn);
                        self.gc_conn(conn);
                    }
                }
                TimerKind::ForwardDeadline { fwd, gen } => {
                    let Some(st) = self.forwards.remove(&fwd) else {
                        continue;
                    };
                    if st.attempt != gen {
                        self.forwards.insert(fwd, st);
                        continue;
                    }
                    let err = std::io::Error::new(std::io::ErrorKind::TimedOut, "forward deadline");
                    self.forward_attempt_failed(fwd, st, &err);
                }
            }
        }
    }

    // ---- pending-forward state machine -------------------------------

    fn register_forward(&mut self, fwd: AsyncForward) {
        self.next_forward += 1;
        let id = self.next_forward;
        self.ctx
            .metrics
            .pending_forwards
            .fetch_add(1, Ordering::Relaxed);
        let st = ForwardState {
            fwd,
            rank: 0,
            attempt: 0,
            phase: FwdPhase::Connecting,
            lines: Vec::new(),
            got_bytes: false,
            pooled: false,
            retried_stale: false,
        };
        self.start_attempt(id, st);
    }

    /// Walks the owner list from `st.rank`: a self-entry answers
    /// locally, a missing client is skipped, a breaker-open peer counts
    /// a failover, a live peer gets a pooled or fresh socket. Exhausting
    /// the list degrades to the local fallback solve (a fill is dropped).
    fn start_attempt(&mut self, id: u64, mut st: ForwardState) {
        if st.cancelled() {
            self.finish_forward(st);
            return;
        }
        loop {
            let Some(owner) = st.fwd.owners.get(st.rank).cloned() else {
                // Every owner unreachable: degrade to local solving. The
                // answer is byte-identical (same solver, same determinism
                // seed) — only cache placement degrades.
                if st.fwd.original_line.is_some() {
                    st.fwd.router.note_fallback();
                }
                self.submit_local(st);
                return;
            };
            if owner == st.fwd.router.node_id() {
                // We are the surviving replica for this key: answer
                // locally (warm when the primary's fills landed).
                st.fwd.router.note_owned_served();
                self.submit_local(st);
                return;
            }
            let Some(peer) = st.fwd.router.peer_client(&owner).cloned() else {
                // The ring names a node this router has no client for — a
                // configuration mismatch; try the next owner.
                st.rank += 1;
                continue;
            };
            if let Some(trace) = &mut st.fwd.trace {
                st.fwd.hopped_line = trace.attempt(st.fwd.router.node_id(), &owner);
            }
            if !peer.try_admit() {
                // Breaker open: abandon this owner like a failed call.
                if let Some(trace) = &st.fwd.trace {
                    trace.mark("peer.breaker_open", "peer", &owner);
                }
                st.abandon_owner();
                continue;
            }
            st.lines.clear();
            st.got_bytes = false;
            st.attempt += 1;
            st.retried_stale = false;
            if let Some(trace) = &mut st.fwd.trace {
                trace.step("peer.connect");
            }
            self.arm_forward_deadline(id, &st);
            if let Some(stream) = peer.take_idle() {
                st.pooled = true;
                self.begin_exchange(id, st, stream);
            } else {
                st.pooled = false;
                self.spawn_checkout(id, st.attempt, peer);
                self.forwards.insert(id, st);
            }
            return;
        }
    }

    /// The attempt has its socket: closes the `peer.connect` step and
    /// starts writing the hopped line.
    fn begin_exchange(&mut self, id: u64, mut st: ForwardState, stream: TcpStream) {
        if let Some(trace) = &mut st.fwd.trace {
            trace.end_step(&[("pooled", st.pooled.to_string()), ("ok", "true".to_owned())]);
            trace.step("peer.roundtrip");
        }
        st.phase = FwdPhase::Active {
            stream,
            out: hopped_bytes(&st.fwd.hopped_line),
            pos: 0,
            inbuf: LineBuf::default(),
        };
        self.forwards.insert(id, st);
        // The socket is almost certainly writable right now.
        self.advance_forward(id);
    }

    /// Fresh connects block (bounded by the peer's connect timeout), so
    /// they run on a short-lived helper thread that posts the result
    /// back as a [`Msg::Checkout`].
    fn spawn_checkout(&self, id: u64, attempt: u64, peer: Arc<Peer>) {
        let inbox = Arc::clone(&self.inbox);
        let wake = self.wake.clone();
        std::thread::Builder::new()
            .name("rpwf-fwd-connect".into())
            .spawn(move || {
                let result = peer.connect();
                inbox.push(Msg::Checkout {
                    fwd: id,
                    attempt,
                    result,
                });
                wake.wake();
            })
            .expect("spawn forward connect helper");
    }

    fn on_checkout(&mut self, fwd: u64, attempt: u64, result: std::io::Result<TcpStream>) {
        let Some(st) = self.forwards.remove(&fwd) else {
            return; // Forward already settled; drop the late socket.
        };
        if st.attempt != attempt || !matches!(st.phase, FwdPhase::Connecting) {
            self.forwards.insert(fwd, st);
            return;
        }
        if st.cancelled() {
            self.finish_forward(st);
            return;
        }
        match result {
            Ok(stream) => self.begin_exchange(fwd, st, stream),
            Err(e) => self.forward_attempt_failed(fwd, st, &e),
        }
    }

    fn advance_forward(&mut self, id: u64) {
        let Some(mut st) = self.forwards.remove(&id) else {
            return;
        };
        if st.cancelled() {
            self.finish_forward(st);
            return;
        }
        match drive_forward_io(&mut st) {
            FwdIo::Pending { progressed } => {
                if progressed {
                    // A `part` line arrived: the peer is alive, so the
                    // response clock restarts (the read bound is per
                    // line, not per answer).
                    st.attempt += 1;
                    self.arm_forward_deadline(id, &st);
                }
                self.forwards.insert(id, st);
            }
            FwdIo::Done => self.forward_success(st),
            FwdIo::Failed(e) => self.forward_attempt_failed(id, st, &e),
        }
    }

    fn forward_success(&mut self, mut st: ForwardState) {
        let owner = st.fwd.owners[st.rank].clone();
        if let Some(peer) = st.fwd.router.peer_client(&owner).cloned() {
            peer.record_async_success();
            if let FwdPhase::Active { stream, inbuf, .. } =
                std::mem::replace(&mut st.phase, FwdPhase::Connecting)
            {
                if inbuf.pending() == 0 {
                    peer.park(stream);
                }
                // Trailing bytes past the terminal line would poison the
                // pool; drop the socket instead.
            }
        }
        if let Some(trace) = st.fwd.trace.take() {
            trace.finish(&st.fwd.router, &mut st.lines);
        }
        for line in std::mem::take(&mut st.lines) {
            (st.fwd.respond)(line);
        }
        self.finish_forward(st);
    }

    fn forward_attempt_failed(&mut self, id: u64, mut st: ForwardState, err: &std::io::Error) {
        let timeout = crate::peer::is_timeout(err);
        let owner = st.fwd.owners[st.rank].clone();
        let peer = st.fwd.router.peer_client(&owner).cloned();
        if st.pooled && !st.got_bytes && !timeout && !st.retried_stale {
            // A parked connection the peer closed while it idled: not a
            // peer failure. Retry once on a fresh socket before judging.
            if let Some(peer) = peer {
                if let Some(trace) = &mut st.fwd.trace {
                    trace.end_step(&[("ok", "false".to_owned())]);
                    trace.mark("peer.retry", "reason", "stale-pooled-connection");
                    trace.step("peer.connect");
                }
                st.retried_stale = true;
                st.pooled = false;
                st.lines.clear();
                st.attempt += 1;
                st.phase = FwdPhase::Connecting;
                self.spawn_checkout(id, st.attempt, peer);
                self.arm_forward_deadline(id, &st);
                self.forwards.insert(id, st);
                return;
            }
        }
        if let Some(peer) = peer {
            peer.record_async_failure(timeout);
        }
        st.abandon_owner();
        st.phase = FwdPhase::Connecting;
        self.start_attempt(id, st);
    }

    /// Hands the request to the solve pool for local handling (the
    /// replica and fallback exits of the owner walk). `local: true`
    /// pins it against re-entering the forward path. A fill has no local
    /// answer and just ends.
    fn submit_local(&mut self, mut st: ForwardState) {
        if let Some(line) = st.fwd.original_line.take() {
            self.ctx.pool.submit_job(Job {
                line,
                received: st.fwd.received,
                respond: std::mem::replace(&mut st.fwd.respond, Box::new(|_| {})),
                cancel: st.fwd.cancel.take(),
                local: true,
            });
        }
        self.finish_forward(st);
    }

    fn finish_forward(&mut self, st: ForwardState) {
        drop(st);
        self.ctx
            .metrics
            .pending_forwards
            .fetch_sub(1, Ordering::Relaxed);
    }

    fn arm_forward_deadline(&mut self, id: u64, st: &ForwardState) {
        self.timer_seq += 1;
        self.timers.push(Reverse(TimerEntry {
            due: Instant::now() + st.fwd.read_timeout,
            seq: self.timer_seq,
            kind: TimerKind::ForwardDeadline {
                fwd: id,
                gen: st.attempt,
            },
        }));
    }
}

/// Builds a respond closure for one request: fault wrapping (corrupt /
/// delayed delivery) around the connection outbox, with a [`Completion`]
/// guard so dropping the closure settles the connection's outstanding
/// count whatever happened to the request. The count is incremented
/// here, paired with the guard's decrement.
fn make_respond(
    shared: &Arc<ConnShared>,
    fault: Option<FaultAction>,
) -> Box<dyn FnMut(String) + Send> {
    shared.outstanding.fetch_add(1, Ordering::Relaxed);
    let guard = Completion(Arc::clone(shared));
    match fault {
        Some(FaultAction::DelayResponse(delay)) => Box::new(move |line: String| {
            guard.0.push_line_delayed(line, delay);
        }),
        Some(FaultAction::CorruptLine) => Box::new(move |line: String| {
            guard.0.push_line(&FaultPlan::corrupt(&line));
        }),
        _ => Box::new(move |line: String| {
            guard.0.push_line(&line);
        }),
    }
}

/// Nonblocking write/read pump for one active forward attempt. Returns
/// `Done` when the terminal response line (status ≠ `part`) arrived,
/// `Pending` (with a progress flag when new complete lines landed) on
/// `WouldBlock`, `Failed` on socket errors, EOF, or an unparseable
/// response line.
fn drive_forward_io(st: &mut ForwardState) -> FwdIo {
    let ForwardState {
        phase,
        lines,
        got_bytes,
        ..
    } = st;
    let FwdPhase::Active {
        stream,
        out,
        pos,
        inbuf,
    } = phase
    else {
        return FwdIo::Pending { progressed: false };
    };
    while *pos < out.len() {
        match stream.write(&out[*pos..]) {
            Ok(0) => {
                return FwdIo::Failed(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "peer closed while writing",
                ))
            }
            Ok(n) => *pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return FwdIo::Failed(e),
        }
    }
    let before = lines.len();
    let mut buf = [0u8; CHUNK];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                return FwdIo::Failed(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-response",
                ))
            }
            Ok(n) => {
                *got_bytes = true;
                inbuf.extend(&buf[..n]);
                while let Some(text) = inbuf.next_line() {
                    let Ok(parsed) = serde_json::from_str::<Response>(text.trim()) else {
                        return FwdIo::Failed(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "peer sent an unparseable response",
                        ));
                    };
                    let terminal = parsed.status != "part";
                    lines.push(text);
                    if terminal {
                        inbuf.compact();
                        return FwdIo::Done;
                    }
                }
                inbuf.compact();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return FwdIo::Pending {
                    progressed: lines.len() > before,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return FwdIo::Failed(e),
        }
    }
}

fn hopped_bytes(line: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    out
}

/// Envelope sniff: is this line plausibly one of the expensive,
/// sheddable solve commands (`Solve` / `Pareto` / `Simulate` /
/// `Explain`, which can cost several front solves)? Cheap commands
/// (`Ping`, `Stats`, `Metrics`, `Ring`, …) are always admitted so
/// monitoring keeps working under overload; a false positive merely runs
/// one cheap request through the admission gauges.
fn is_solve_shaped(line: &str) -> bool {
    ["\"Solve\"", "\"Pareto\"", "\"Simulate\"", "\"Explain\""]
        .iter()
        .any(|cmd| line.contains(cmd))
}

/// Extracts the non-negative integer following `key` in a JSON line
/// without a full parse (`None` when absent, null, or malformed).
fn sniff_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_sniff_matches_full_parse() {
        let line = r#"{"id":7,"deadline_ms":2500,"cmd":{"Solve":{}}}"#;
        assert_eq!(sniff_u64(line, "\"deadline_ms\":"), Some(2500));
        assert_eq!(
            sniff_u64(r#"{"deadline_ms":null}"#, "\"deadline_ms\":"),
            None
        );
        assert_eq!(sniff_u64(r#"{"id":1}"#, "\"deadline_ms\":"), None);
        assert_eq!(
            sniff_u64(r#"{"deadline_ms": 40}"#, "\"deadline_ms\":"),
            Some(40),
            "whitespace after the colon is legal JSON"
        );
    }

    #[test]
    fn solve_shape_sniff_screens_cheap_commands() {
        assert!(is_solve_shaped(r#"{"cmd":{"Solve":{"pipeline":{}}}}"#));
        assert!(is_solve_shaped(r#"{"cmd":{"Pareto":{"chunk":10}}}"#));
        assert!(is_solve_shaped(r#"{"cmd":{"Simulate":{}}}"#));
        assert!(!is_solve_shaped(r#"{"cmd":"Ping"}"#));
        assert!(!is_solve_shaped(r#"{"cmd":"Stats"}"#));
        assert!(!is_solve_shaped(r#"{"cmd":"Metrics"}"#));
    }

    /// Whether the wake pipe holds a byte, i.e. whether the event
    /// thread's next poll would return at once.
    #[cfg(unix)]
    fn pipe_is_readable(reader: &WakeReader) -> bool {
        use std::os::unix::io::AsRawFd;
        let mut fds = [sys::PollFd {
            fd: reader.reader.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        }];
        sys::poll(&mut fds, 0) > 0
    }

    #[cfg(unix)]
    #[test]
    fn a_wake_landing_mid_drain_is_never_lost() {
        let (mut reader, wake) = wake_pair().expect("wake pair");
        wake.wake();
        // The producer's wake lands inside the drain, between its two
        // steps. Emptying the pipe before clearing the flag means it
        // either finds the flag still set (its message is already queued
        // for the drain that follows) or writes a byte the next poll sees;
        // the reverse order swallows its byte while the flag stays set.
        reader.drain_with(|| wake.wake());
        assert!(
            !reader.pending.load(Ordering::SeqCst),
            "a drained pipe leaves no wake pending"
        );
        wake.wake();
        assert!(
            pipe_is_readable(&reader),
            "the next wake after a drain must reach the poll"
        );
        reader.drain();
        assert!(!pipe_is_readable(&reader));
    }

    #[test]
    fn line_buf_scans_each_byte_once_and_copies_exact_lines() {
        let mut buf = LineBuf::default();
        buf.extend(b"{\"id\":1}\r\n{\"id\"");
        assert_eq!(buf.next_line().as_deref(), Some("{\"id\":1}"));
        assert_eq!(buf.next_line(), None);
        assert_eq!(buf.scanned, buf.buf.len(), "the tail is scanned once");
        buf.compact();
        assert_eq!(buf.pending(), 5);
        buf.extend(b":2}\n\n\xffok\n");
        let line = buf.next_line().expect("completed line");
        assert_eq!(line, "{\"id\":2}");
        assert_eq!(line.capacity(), line.len(), "exact-size copy");
        assert_eq!(buf.next_line().as_deref(), Some(""), "blank keep-alive");
        assert_eq!(
            buf.next_line().as_deref(),
            Some("\u{fffd}ok"),
            "invalid UTF-8 is replaced, not dropped"
        );
        assert_eq!(buf.next_line(), None);
        buf.compact();
        assert_eq!(buf.pending(), 0);
        assert!(buf.buf.is_empty());
    }

    /// A socket whose peer has written `supply` copies of `byte`, and
    /// would block once they are read.
    struct Flood {
        byte: u8,
        supply: usize,
    }

    impl Read for Flood {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.supply == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.supply);
            buf[..n].fill(self.byte);
            self.supply -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_read_pass_takes_one_budget_of_a_flood_of_lines() {
        let passes = 16;
        let mut flood = Flood {
            byte: b'\n',
            supply: passes * READ_BUDGET,
        };
        let mut inbuf = LineBuf::default();
        for pass in 1..=passes {
            let mut lines = Vec::new();
            assert_eq!(
                read_lines(&mut flood, &mut inbuf, &mut lines),
                ReadEnd::Open
            );
            assert_eq!(lines.len(), READ_BUDGET, "pass {pass} reads one budget");
            assert_eq!(flood.supply, (passes - pass) * READ_BUDGET);
            assert!(inbuf.buf.capacity() <= READ_BUDGET, "pass {pass}");
        }
        let mut lines = Vec::new();
        assert_eq!(
            read_lines(&mut flood, &mut inbuf, &mut lines),
            ReadEnd::Open
        );
        assert!(lines.is_empty());
    }

    #[test]
    fn an_unterminated_line_past_the_cap_is_overlong() {
        let mut flood = Flood {
            byte: b'x',
            supply: MAX_LINE_BYTES + 1,
        };
        let mut inbuf = LineBuf::default();
        let mut lines = Vec::new();
        let mut passes = 0;
        let end = loop {
            passes += 1;
            match read_lines(&mut flood, &mut inbuf, &mut lines) {
                ReadEnd::Open => assert!(flood.supply > 0, "the cap is reached first"),
                end => break end,
            }
        };
        assert_eq!(end, ReadEnd::Overlong);
        assert_eq!(passes, MAX_LINE_BYTES / READ_BUDGET + 1);
        assert!(lines.is_empty());
    }

    #[test]
    fn timer_heap_orders_by_due_then_seq() {
        let now = Instant::now();
        let mut heap: BinaryHeap<Reverse<TimerEntry>> = BinaryHeap::new();
        heap.push(Reverse(TimerEntry {
            due: now + Duration::from_millis(20),
            seq: 1,
            kind: TimerKind::ForwardDeadline { fwd: 1, gen: 0 },
        }));
        heap.push(Reverse(TimerEntry {
            due: now + Duration::from_millis(5),
            seq: 2,
            kind: TimerKind::ForwardDeadline { fwd: 2, gen: 0 },
        }));
        heap.push(Reverse(TimerEntry {
            due: now + Duration::from_millis(5),
            seq: 3,
            kind: TimerKind::ForwardDeadline { fwd: 3, gen: 0 },
        }));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| match e.kind {
                TimerKind::ForwardDeadline { fwd, .. } => fwd,
                TimerKind::DeliverLine { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn outbox_overflow_flags_instead_of_growing() {
        let inbox = Arc::new(Inbox {
            msgs: Mutex::new(Vec::new()),
        });
        let (_reader, wake) = wake_pair().expect("wake pair");
        let shared = ConnShared {
            id: 0,
            inbox,
            wake,
            outbox: Mutex::new(Outbox {
                buf: Vec::new(),
                pos: 0,
                overflow: false,
            }),
            outstanding: AtomicU64::new(0),
            pending_delayed: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        };
        let big = "x".repeat(OUTBOX_CAP / 2);
        shared.push_line(&big);
        shared.push_line(&big);
        // The second line crosses the cap: flagged, not buffered.
        let out = shared.outbox.lock().expect("outbox");
        assert!(out.overflow, "crossing the cap must flag overflow");
        assert!(out.buf.len() <= OUTBOX_CAP);
    }
}
