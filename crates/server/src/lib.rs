//! # rpwf-server — the solver service
//!
//! A long-lived, concurrent serving layer over the `rpwf` solvers: a
//! JSON-lines request/response protocol served over TCP (`std::net`) or
//! stdin, a fixed worker pool fed by an MPMC channel, per-request
//! deadlines with cooperative cancellation threaded into the exponential
//! solvers, and a **front-first** data path over the unified solver
//! engine: every solve/pareto request collapses onto one
//! [`rpwf_algo::engine::Engine::solve`] call (capability filtering,
//! exact-first selection, portfolio racing, budget-cutoff fallback),
//! while the service owns what only a service can — the Pareto front as
//! the unit of caching, batching and streaming. Threshold queries are
//! reads off a front; the sharded LRU cache stores fronts keyed by the
//! canonical `(pipeline, platform)` hash (completeness-aware, so budget
//! cutoffs are reusable but never masquerade as exact); batches group
//! requests by instance and solve one front per distinct instance; large
//! fronts stream as bounded `front_part` chunks.
//!
//! Requests may opt into **end-to-end tracing** (`"trace": true`): every
//! layer — decode, routing, peer forwards, engine planning, per-solver
//! execution, cache access — records spans into one
//! [`rpwf_core::trace::SpanTree`] returned on `meta.trace`, a fleet hop
//! returns a single merged entry+owner tree, and each node keeps a
//! slow-query ring of its recent traced requests behind the `Trace`
//! command.
//!
//! The TCP transport is a poll-based **reactor**: a few event threads
//! multiplex every client and peer connection over nonblocking sockets,
//! per-connection write buffers apply backpressure, peer forwards run as
//! nonblocking continuations in a pending-forward table, and a
//! deadline-aware **admission controller** sheds overload immediately
//! with structured `overloaded` + `retry_after_ms` errors instead of
//! queueing requests into late timeouts.
//!
//! ## Layers
//!
//! * [`protocol`] — wire types: [`Request`]/[`Response`], commands,
//!   `front_part`/`front_end` streaming, structured errors
//!   (`timeout`/`infeasible`/`invalid`/`overloaded`/`internal`),
//! * [`cache`] — the sharded LRU [`cache::SolutionCache`] over
//!   [`cache::CachedEntry`] (fronts + per-query results),
//! * [`metrics`] — per-command latency histograms and the Prometheus-style
//!   text dump behind the `Metrics` command,
//! * [`router`] — the request-path routing layer: [`router::LocalRouter`]
//!   (single node) and [`router::RingRouter`] (consistent-hash fleet
//!   sharding with transparent forwarding),
//! * [`peer`] — per-peer connection pools and circuit breakers (seeded
//!   jittered backoff) consulted by the reactor's forwards,
//! * [`fault`] — deterministic, seed-scripted transport fault injection
//!   (dropped connections, delays, corrupt lines, node kills) for chaos
//!   tests,
//! * [`service`] — transport-independent dispatch
//!   ([`service::SolverService`]) and the [`service::WorkerPool`],
//! * [`admission`] — the deadline-aware admission controller and the
//!   serving-plane tuning knobs ([`admission::ServingOptions`]),
//! * [`server`] — the reactor-backed TCP listener ([`Server`]) and
//!   [`server::serve_stdin`].
//!
//! ## Quick example (in-process)
//!
//! ```
//! use rpwf_server::protocol::{Command, Request};
//! use rpwf_server::service::{ServiceConfig, SolverService};
//! use rpwf_algo::{Objective, Provenance};
//!
//! let service = SolverService::new(ServiceConfig::default());
//! let response = service.handle(
//!     Request {
//!         id: Some(1),
//!         deadline_ms: Some(1_000),
//!         no_cache: None,
//!         hop: None,
//!         trace: None,
//!         trace_ctx: None,
//!         explain: None,
//!         cmd: Command::Solve {
//!             pipeline: rpwf_gen::figure5_pipeline(),
//!             platform: rpwf_gen::figure5_platform(),
//!             objective: Objective::MinFpUnderLatency(22.0),
//!         },
//!     },
//!     std::time::Instant::now(),
//! );
//! assert_eq!(response.status, "ok");
//! assert_eq!(response.meta.solver, Some(Provenance::Exact));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod cache;
pub mod fault;
pub mod metrics;
pub mod peer;
pub mod protocol;
mod reactor;
pub mod router;
pub mod server;
pub mod service;

pub use admission::ServingOptions;
pub use fault::{FaultAction, FaultPlan};
pub use protocol::{Command, Request, Response};
pub use router::{LocalRouter, RingOptions, RingRouter, Router};
pub use server::{serve_stdin, Server};
pub use service::{ServiceConfig, SolverService, WorkerPool};
