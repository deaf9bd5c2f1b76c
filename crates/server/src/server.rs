//! Transports: the reactor-backed TCP JSON-lines listener and a
//! stdin/stdout loop.
//!
//! The TCP plane is the poll-based reactor in `crate::reactor`: a few
//! event threads multiplex **all** client and peer connections over
//! nonblocking sockets — no per-connection reader/writer threads.
//! Decoded requests pass the deadline-aware admission controller
//! ([`crate::admission`]; overload is answered immediately with a
//! structured `overloaded` + `retry_after_ms` error instead of queueing
//! into a late timeout), then dispatch to the shared worker pool.
//! Responses flow back through per-connection write buffers with
//! backpressure: a client that stops reading is eventually disconnected,
//! never allowed to wedge an event thread. Requests are dispatched
//! through the server's [`Router`]: [`Server::bind`] routes everything
//! locally, [`Server::bind_ring`] places each request on the fleet's
//! consistent-hash ring — and a request owned by a peer becomes an
//! asynchronous continuation in the reactor's pending-forward table
//! rather than a blocked thread. Responses may interleave across
//! requests of one connection — clients correlate by `id`; a streamed
//! request (chunked `Pareto`) emits its `part` lines in order.
//!
//! Every connection owns a [`CancelHandle`](rpwf_core::budget::CancelHandle)
//! linked into each of its request budgets. When the read half of the
//! socket closes — the client disconnected (or half-closed, which the
//! protocol treats the same way: a client that stops reading has
//! abandoned its answers) — the handle fires and every in-flight solve
//! of that connection unwinds at its next budget poll, freeing the
//! worker for live clients.

use crate::admission::ServingOptions;
use crate::fault::FaultPlan;
use crate::reactor::Reactor;
use crate::router::{RingOptions, RingRouter, Router};
use crate::service::{ServiceConfig, SolverService, WorkerPool};
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

/// A running TCP solver server.
pub struct Server {
    local_addr: SocketAddr,
    reactor: Reactor,
    pool: Arc<WorkerPool>,
}

impl Server {
    /// Binds `addr` (`port 0` picks a free port) and starts accepting.
    /// Single-node routing: every request is answered by this process.
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    pub fn bind(addr: &str, config: ServiceConfig) -> std::io::Result<Server> {
        Self::bind_tuned(addr, config, ServingOptions::default())
    }

    /// [`bind`](Self::bind) with explicit serving-plane tuning (event
    /// threads, queue bound, admission deadline).
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    pub fn bind_tuned(
        addr: &str,
        config: ServiceConfig,
        serving: ServingOptions,
    ) -> std::io::Result<Server> {
        let service = Arc::new(SolverService::new(config));
        Self::bind_with_router_tuned(
            addr,
            Arc::new(crate::router::LocalRouter::new(service)),
            None,
            serving,
        )
    }

    /// Binds `addr` in **fleet mode**: requests are placed on the
    /// consistent-hash ring over this node (`config.node_id`, which peers
    /// must know it by) and `peers`, non-owned requests are forwarded
    /// transparently, and (per `options.replicas`) complete fronts are
    /// replicated to ring successors.
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    ///
    /// # Panics
    /// When `config.node_id` is `None` — a fleet member needs an identity.
    pub fn bind_ring(
        addr: &str,
        config: ServiceConfig,
        peers: &[String],
        options: RingOptions,
    ) -> std::io::Result<Server> {
        Self::bind_ring_faulted(addr, config, peers, options, None)
    }

    /// [`bind_ring`](Self::bind_ring) with explicit serving-plane tuning.
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    ///
    /// # Panics
    /// When `config.node_id` is `None` — a fleet member needs an identity.
    pub fn bind_ring_tuned(
        addr: &str,
        config: ServiceConfig,
        peers: &[String],
        options: RingOptions,
        serving: ServingOptions,
    ) -> std::io::Result<Server> {
        let node_id = config
            .node_id
            .clone()
            .expect("fleet mode requires a node id");
        let service = Arc::new(SolverService::new(config));
        let router = RingRouter::with_options(service, node_id, peers, options);
        Self::bind_with_router_tuned(addr, router, None, serving)
    }

    /// [`bind_ring`](Self::bind_ring) with a scripted [`FaultPlan`] —
    /// the chaos-test entry point. A `None` plan behaves exactly like
    /// `bind_ring`.
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    ///
    /// # Panics
    /// When `config.node_id` is `None` — a fleet member needs an identity.
    pub fn bind_ring_faulted(
        addr: &str,
        config: ServiceConfig,
        peers: &[String],
        options: RingOptions,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<Server> {
        let node_id = config
            .node_id
            .clone()
            .expect("fleet mode requires a node id");
        let service = Arc::new(SolverService::new(config));
        let router = RingRouter::with_options(service, node_id, peers, options);
        Self::bind_with_router_tuned(addr, router, faults, ServingOptions::default())
    }

    /// The fully explicit bind: router, fault plan, serving tuning.
    /// Everything else delegates here.
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    pub fn bind_with_router_tuned(
        addr: &str,
        router: Arc<dyn Router>,
        faults: Option<Arc<FaultPlan>>,
        serving: ServingOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let pool = Arc::new(WorkerPool::with_options(router, &serving));
        let reactor = Reactor::start(listener, Arc::clone(&pool), faults, &serving)?;
        Ok(Server {
            local_addr,
            reactor,
            pool,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service (e.g. for in-process inspection in tests).
    #[must_use]
    pub fn service(&self) -> &Arc<SolverService> {
        self.pool.service()
    }

    /// The router dispatching this server's requests.
    #[must_use]
    pub fn router(&self) -> &Arc<dyn Router> {
        self.pool.router()
    }

    /// Stops accepting new connections, joins the reactor threads, and
    /// severs every live connection — after this the server is fully
    /// dark, exactly like a killed process (fleet peers observe
    /// connection failures and fall back to local solving).
    pub fn shutdown(&mut self) {
        self.reactor.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves requests from stdin to stdout, one response line per request
/// line, in input order. Returns when stdin closes.
pub fn serve_stdin(config: ServiceConfig) {
    let service = SolverService::new(config);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = service.handle_line(&line, Instant::now());
        if writeln!(out, "{response}").is_err() {
            break;
        }
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Command, Request, Response};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn request_line(id: u64, cmd: Command) -> String {
        serde_json::to_string(&Request {
            id: Some(id),
            deadline_ms: None,
            no_cache: None,
            hop: None,
            trace: None,
            trace_ctx: None,
            explain: None,
            cmd,
        })
        .expect("serializes")
    }

    #[test]
    fn tcp_roundtrip_ping() {
        let mut server = Server::bind(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{}", request_line(1, Command::Ping)).expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let resp: Response = serde_json::from_str(line.trim()).expect("parses");
        assert_eq!(resp.status, "ok");
        assert_eq!(resp.id, Some(1));
        server.shutdown();
    }

    #[test]
    fn multiple_requests_one_connection() {
        let mut server = Server::bind(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 4,
                ..Default::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        for id in 0..8 {
            writeln!(stream, "{}", request_line(id, Command::Ping)).expect("send");
        }
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            let resp: Response = serde_json::from_str(line.trim()).expect("parses");
            assert_eq!(resp.status, "ok");
            seen.insert(resp.id.expect("id echoed"));
        }
        assert_eq!(seen.len(), 8, "every request answered exactly once");
        server.shutdown();
    }
}
