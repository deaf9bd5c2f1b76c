//! # rpwf-algo — solvers for bi-criteria pipeline mapping
//!
//! Every algorithmic result of *Optimizing Latency and Reliability of
//! Pipeline Workflow Applications* (Benoit, Rehn-Sonigo, Robert 2008), as
//! runnable code:
//!
//! | paper result | module |
//! |---|---|
//! | Theorem 1 (min FP, poly) | [`mono::minimize_failure`] |
//! | Theorem 2 (min latency, comm-homog, poly) | [`mono::minimize_latency_comm_homog`] |
//! | Theorem 3 (one-to-one latency, NP-hard) | gadget [`reductions::tsp`], exact [`exact::held_karp`] |
//! | Theorem 4 (general mapping latency, poly) | [`mono::general_mapping_shortest_path`] |
//! | Theorem 5 / Algorithms 1–2 | [`bicriteria::fully_homog`] |
//! | Theorem 6 / Algorithms 3–4 | [`bicriteria::comm_homog`] |
//! | Theorem 7 (bi-criteria, fully-het, NP-hard) | gadget [`reductions::two_partition`] |
//! | open problems (§4.1, §4.4) | [`exact::interval_dp`], [`exact::bitmask_dp`], [`heuristics`] |
//!
//! The [`exact`] solvers are exponential oracles used to validate the
//! polynomial algorithms and to ground-truth the [`heuristics`]; the
//! [`Exhaustive`](exact::Exhaustive) sweep is parallelized with crossbeam
//! ([`par`]).
//!
//! The unified entry point over all of them is the [`engine`]: every
//! backend registers as an [`engine::Solver`] declaring
//! [`engine::Capabilities`], and [`Engine::solve`] plans each request
//! (capability filtering, exact-first selection, portfolio racing,
//! budget-cutoff fallback) in one audited place. The serving layer, CLI
//! and experiments all go through it.
//!
//! When a threshold query is infeasible, the [`explain`] module says
//! *why*: MARCO-style MUS/MCS enumeration over the query's constraint
//! universe plus a nearest-feasible what-if, reusing engine front solves
//! as its sat oracle ([`EngineOracle`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bicriteria;
pub mod engine;
pub mod exact;
pub mod explain;
pub mod front;
pub mod heuristics;
pub mod mono;
pub mod par;
pub mod reductions;
pub mod solution;

pub use engine::{Engine, Provenance, SolveReport, SolveRequest, Solver, Want};
pub use explain::{EngineOracle, Explanation, FrontOracle};
pub use front::{threshold_read, FrontSource};
pub use solution::{BiSolution, Budgeted, Objective};
