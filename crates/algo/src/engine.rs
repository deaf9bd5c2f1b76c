//! The unified solver engine: one capability-driven API over every exact,
//! heuristic, and front backend.
//!
//! The paper's algorithmic landscape is a matrix — {min-latency-under-FP,
//! min-FP-under-latency, full bi-criteria front} × {fully homogeneous,
//! communication-homogeneous, fully heterogeneous} — and before this
//! module every cell was wired up ad hoc: per-heuristic `solve` methods,
//! [`Portfolio::race`](crate::heuristics::Portfolio::race),
//! `best_front_source`, and duplicated
//! selection/fallback logic in the serving layer. The engine makes
//! "objective × platform class × exactness" a first-class, queryable
//! surface:
//!
//! * every backend is a [`Solver`] declaring [`Capabilities`] (platform
//!   classes, objective kinds, stage/processor bounds, exactness tier,
//!   budget support),
//! * a request is a [`SolveRequest`] (`pipeline`, `platform`, a [`Want`]
//!   describing the answer shape, and a [`Budget`]),
//! * an answer is a [`SolveReport`] (the [`Answer`], a [`Completeness`]
//!   record, the winning [`Provenance`], any Pareto-front by-product, and
//!   per-solver [`SolverStat`]s),
//! * [`Engine::solve`] plans each request — capability filtering,
//!   exact-first selection, portfolio racing, and budget-cutoff fallback —
//!   in one audited place.
//!
//! A plan is one value, computed once per request: its shape
//! (`front-exact`, `front-heuristic` or `front-none` for [`Want::Front`];
//! `point-via-front`, `point-race` or `point-heuristic` for
//! [`Want::Point`]), the backend it runs and the heuristic race members.
//! [`Engine::solve_traced`] records that value on the `engine.plan` span
//! and then executes the same value, so a trace always names the plan
//! that ran.
//!
//! The planning reproduces the legacy entry points **byte for byte** (the
//! `engine_equivalence` proptest suite asserts it): the serving layer, the
//! CLI, and the bench experiments all collapse onto [`Engine::solve`].
//!
//! ```
//! use rpwf_algo::engine::{Engine, SolveRequest, Want};
//! use rpwf_algo::Objective;
//! use rpwf_core::budget::Budget;
//!
//! let engine = Engine::with_default_backends(0xCAFE);
//! let pipeline = rpwf_gen::figure5_pipeline();
//! let platform = rpwf_gen::figure5_platform();
//! let report = engine.solve(&SolveRequest {
//!     pipeline: &pipeline,
//!     platform: &platform,
//!     want: Want::Point {
//!         objective: Objective::MinFpUnderLatency(22.0),
//!         keep_front: false,
//!     },
//!     budget: &Budget::unlimited(),
//! });
//! let sol = report.point().expect("feasible at L = 22");
//! assert!(report.completeness.exact_complete, "answer proven optimal");
//! assert!((sol.latency - 22.0).abs() < 1e-6);
//! ```
#![deny(missing_docs)]

use crate::exact::{
    pareto_front_comm_homog_with_budget, solve_comm_homog_with_budget, BranchBound, SearchStats,
};
use crate::front::{
    threshold_read, BranchBoundSweep, FrontSource, IntervalDpFront, PortfolioFront,
};
use crate::heuristics::{annealing, local_search, one_to_one, random_search, single_interval};
use crate::heuristics::{split_dp, Annealing, LocalSearch, RandomSearch};
use crate::solution::{BiSolution, Budgeted, Objective};
use rpwf_core::budget::Budget;
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::{Platform, PlatformClass};
use rpwf_core::stage::Pipeline;
use rpwf_core::trace::TraceScope;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

/// Which side of the engine produced an answer. This is the **single**
/// provenance vocabulary: the wire protocol's `meta.solver`, the solution
/// cache, fleet forwards, and the CLI all serialize this enum (as the
/// stable lowercase strings `"exact"` / `"heuristic"`), so provenance
/// reads identically whether an answer was computed locally, replayed
/// from a cache, or forwarded across the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// An exact backend (proof-capable tier) produced the answer. The
    /// answer is *proven* only when the accompanying completeness record
    /// says the backend ran to completion.
    Exact,
    /// The heuristic portfolio produced the answer.
    Heuristic,
}

impl Provenance {
    /// The stable wire string (`"exact"` / `"heuristic"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Provenance::Exact => "exact",
            Provenance::Heuristic => "heuristic",
        }
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Provenance {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl<'de> Deserialize<'de> for Provenance {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        match value.as_str() {
            Some("exact") => Ok(Provenance::Exact),
            Some("heuristic") => Ok(Provenance::Heuristic),
            other => Err(serde::Error::msg(format!(
                "provenance must be \"exact\" or \"heuristic\", got {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Capabilities
// ---------------------------------------------------------------------------

/// Exactness tier of a [`Solver`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Exactness {
    /// Completion certifies optimality (point answers) or front
    /// exactness; cutoffs may still yield sound partial answers.
    Exact,
    /// Exact *and* designed to improve monotonically under a budget: a
    /// cutoff keeps a useful, proven prefix (yield-ordered sweeps,
    /// point-by-point front enumeration).
    Anytime,
    /// Never certifies: every answer is a sound best effort.
    Heuristic,
}

impl Exactness {
    /// Whether a completed run of this tier proves its answer.
    #[must_use]
    pub fn proof_capable(self) -> bool {
        !matches!(self, Exactness::Heuristic)
    }
}

/// The set of platform classes a solver supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassSet {
    /// Supports Fully Homogeneous platforms.
    pub fully_homogeneous: bool,
    /// Supports Communication Homogeneous platforms.
    pub comm_homogeneous: bool,
    /// Supports Fully Heterogeneous platforms.
    pub fully_heterogeneous: bool,
}

impl ClassSet {
    /// Every platform class.
    pub const ALL: ClassSet = ClassSet {
        fully_homogeneous: true,
        comm_homogeneous: true,
        fully_heterogeneous: true,
    };

    /// Platforms with uniform link bandwidths (Fully Homogeneous and
    /// Communication Homogeneous).
    pub const UNIFORM_LINKS: ClassSet = ClassSet {
        fully_homogeneous: true,
        comm_homogeneous: true,
        fully_heterogeneous: false,
    };

    /// Whether `class` is in the set.
    #[must_use]
    pub fn contains(self, class: PlatformClass) -> bool {
        match class {
            PlatformClass::FullyHomogeneous => self.fully_homogeneous,
            PlatformClass::CommHomogeneous => self.comm_homogeneous,
            PlatformClass::FullyHeterogeneous => self.fully_heterogeneous,
        }
    }
}

/// The threshold-objective kinds a solver answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectiveSet {
    /// Answers `MinFpUnderLatency` (minimize FP under a latency bound).
    pub min_fp_under_latency: bool,
    /// Answers `MinLatencyUnderFp` (minimize latency under an FP bound).
    pub min_latency_under_fp: bool,
}

impl ObjectiveSet {
    /// Both threshold objectives.
    pub const BOTH: ObjectiveSet = ObjectiveSet {
        min_fp_under_latency: true,
        min_latency_under_fp: true,
    };

    /// Latency minimization only (`MinLatencyUnderFp`).
    pub const LATENCY_ONLY: ObjectiveSet = ObjectiveSet {
        min_fp_under_latency: false,
        min_latency_under_fp: true,
    };

    /// Whether the set covers `objective`'s kind.
    #[must_use]
    pub fn contains(self, objective: Objective) -> bool {
        match objective {
            Objective::MinFpUnderLatency(_) => self.min_fp_under_latency,
            Objective::MinLatencyUnderFp(_) => self.min_latency_under_fp,
        }
    }
}

/// The answer shapes a solver produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnswerShapes {
    /// Produces threshold (point) answers via [`Solver::solve_point`].
    pub points: bool,
    /// Produces Pareto fronts via [`Solver::solve_front`].
    pub fronts: bool,
}

/// What a [`Solver`] declares about itself. The engine consults only this
/// record (plus [`Solver::applicable`]) when planning — registering a new
/// backend with honest capabilities is all it takes to put it on every
/// request path it can serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Platform classes the solver accepts.
    pub classes: ClassSet,
    /// Threshold-objective kinds it answers.
    pub objectives: ObjectiveSet,
    /// Answer shapes it produces.
    pub shapes: AnswerShapes,
    /// Inclusive stage-count bound (`None` = unbounded).
    pub max_stages: Option<usize>,
    /// Inclusive processor-count bound (`None` = unbounded).
    pub max_procs: Option<usize>,
    /// Exactness tier.
    pub exactness: Exactness,
    /// Polls the request [`Budget`] cooperatively (solvers that do not
    /// are bounded polynomial work and always run to completion).
    pub budget_aware: bool,
    /// Accepts an externally-computed incumbent to prune with
    /// ([`Solver::solve_point_seeded`]). The engine runs the heuristic
    /// side *first* for seedable exact backends (sequential, seeded)
    /// instead of racing them in parallel.
    pub seedable: bool,
    /// Member of the engine's default heuristic portfolio: raced (in
    /// registration order) whenever a point request needs a heuristic
    /// side. Non-members remain individually invocable.
    pub race_member: bool,
    /// A [`Budgeted::Complete`] front from this solver is the **exact**
    /// Pareto front. `false` for partial-front producers (the interval-DP
    /// latency anchor) and every heuristic sweep.
    pub front_exact: bool,
    /// Worker threads the backend runs its search on (`1` = sequential).
    /// Parallel backends report their *resolved* count, so the serving
    /// layer can budget `solver threads × pool workers` against the
    /// machine's cores.
    pub threads: usize,
}

impl Capabilities {
    /// Whether the static capability record admits the instance (class
    /// and size bounds). [`Solver::applicable`] may tighten this with
    /// instance-specific checks.
    #[must_use]
    pub fn admits(&self, pipeline: &Pipeline, platform: &Platform) -> bool {
        self.classes.contains(platform.class())
            && self.max_stages.is_none_or(|b| pipeline.n_stages() <= b)
            && self.max_procs.is_none_or(|b| platform.n_procs() <= b)
    }
}

// ---------------------------------------------------------------------------
// Request / report
// ---------------------------------------------------------------------------

/// The answer shape a [`SolveRequest`] wants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Want {
    /// One threshold answer.
    Point {
        /// The threshold objective.
        objective: Objective,
        /// Also build (and report) the instance's whole Pareto front when
        /// an exact front backend applies — the point is then a read off
        /// that front, and the front travels back in
        /// [`SolveReport::front`] so callers with a cache can amortize it
        /// across later queries. With `keep_front: false` the engine runs
        /// the cheaper per-threshold race instead (identical answers on
        /// complete runs — both read the same exact solution).
        keep_front: bool,
    },
    /// The whole bi-objective Pareto front.
    Front,
}

/// One solve request: the instance, the wanted answer shape, and the
/// budget every cooperative backend polls.
///
/// ```
/// use rpwf_algo::engine::{Engine, SolveRequest, Want};
/// use rpwf_core::budget::Budget;
///
/// let engine = Engine::with_default_backends(7);
/// let pipeline = rpwf_gen::figure5_pipeline();
/// let platform = rpwf_gen::figure5_platform();
/// let report = engine.solve(&SolveRequest {
///     pipeline: &pipeline,
///     platform: &platform,
///     want: Want::Front,
///     budget: &Budget::unlimited(),
/// });
/// let front = report.front_answer().expect("front request yields a front");
/// assert!(report.completeness.exact_complete && front.len() >= 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SolveRequest<'a> {
    /// The application.
    pub pipeline: &'a Pipeline,
    /// The platform.
    pub platform: &'a Platform,
    /// The wanted answer shape.
    pub want: Want,
    /// Deadline/cancellation budget shared by every backend the plan
    /// runs.
    pub budget: &'a Budget,
}

/// The answer inside a [`SolveReport`].
#[derive(Clone, Debug)]
pub enum Answer {
    /// A threshold answer; `None` when nothing feasible was found (the
    /// completeness record says whether that *proves* infeasibility).
    Point(Option<BiSolution>),
    /// A Pareto front (possibly a partial, sound under-approximation —
    /// check the completeness record).
    Front(Arc<ParetoFront<IntervalMapping>>),
}

/// How complete a [`SolveReport`] is — the record cache layers and
/// response shaping key off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completeness {
    /// An exact (proof-capable) backend applied to the instance at all.
    pub exact_capable: bool,
    /// That backend ran to completion: point answers are proven optimal
    /// (or proven infeasible when absent), fronts are the exact front.
    pub exact_complete: bool,
    /// A rerun with more budget could not strengthen the heuristic side:
    /// every heuristic the plan ran finished (no budget truncation), or
    /// the plan read its answer off a complete exact front, which stops
    /// the heuristic hedge early because nothing it finds can change that
    /// answer.
    pub heuristic_complete: bool,
}

impl Completeness {
    /// Whether a *point* answer may be cached: either proven, or produced
    /// by untruncated heuristics on an instance no exact backend could
    /// improve. Budget-cutoff answers may be beaten by a rerun and must
    /// never poison a cache.
    #[must_use]
    pub fn cacheable_point(&self) -> bool {
        self.exact_complete || (!self.exact_capable && self.heuristic_complete)
    }
}

/// Aggregate telemetry from one cooperative parallel search: how many
/// workers ran, how the frontier work units were distributed, and how
/// often the shared incumbent improved. `None` on a [`SolverStat`] means
/// the backend is not a parallel search (or did not report).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelSummary {
    /// Worker threads the search ran.
    pub threads: usize,
    /// Frontier work units executed across all workers.
    pub units_executed: u64,
    /// Units a worker claimed outside its round-robin home share
    /// (work-stealing activity).
    pub units_stolen: u64,
    /// Successful publications of a strictly better shared incumbent.
    pub improvements: u64,
}

impl ParallelSummary {
    fn from_search(stats: &SearchStats) -> Self {
        ParallelSummary {
            threads: stats.threads,
            units_executed: stats.units_executed(),
            units_stolen: stats.units_stolen(),
            improvements: stats.improvements(),
        }
    }
}

/// One backend's contribution to a plan, for observability and the E18
/// overhead experiment.
#[derive(Clone, Copy, Debug)]
pub struct SolverStat {
    /// Registered solver name.
    pub solver: &'static str,
    /// Wall-clock time this backend ran, in microseconds.
    pub elapsed_us: u64,
    /// Whether it ran to completion (never true for heuristics' *proof*
    /// sense — this is the budget sense: not truncated).
    pub complete: bool,
    /// Whether it produced a feasible point / non-empty front.
    pub produced: bool,
    /// Parallel-search telemetry, when the backend ran one.
    pub parallel: Option<ParallelSummary>,
}

/// The engine's reply to a [`SolveRequest`].
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The answer, shaped per the request's [`Want`].
    pub answer: Answer,
    /// Completeness of the plan's exact and heuristic sides.
    pub completeness: Completeness,
    /// Provenance of the winning answer (`None` when nothing was found).
    pub provenance: Option<Provenance>,
    /// Whole-front by-product of a `Point { keep_front: true }` request:
    /// the front the answer was read from, plus whether it is complete.
    /// Callers with a front cache store it so later queries over the
    /// instance become front reads.
    pub front: Option<FrontArtifact>,
    /// Per-backend contributions, in execution order.
    pub stats: Vec<SolverStat>,
    /// Per-worker search telemetry from every parallel backend the plan
    /// ran, keyed by solver name. [`Engine::solve_traced`] renders these
    /// as `solver.bnb.worker` child spans; the serving layer folds them
    /// into its metrics.
    pub parallel: Vec<(&'static str, SearchStats)>,
}

/// A Pareto front built along the way to a point answer, with the
/// provenance a cache must replay on later hits (carried here so callers
/// copy instead of guessing which backend produced it).
#[derive(Clone, Debug)]
pub struct FrontArtifact {
    /// The front (mappings included, so later reads replay exactly).
    pub front: Arc<ParetoFront<IntervalMapping>>,
    /// Whether the front is proven exact.
    pub complete: bool,
    /// Who produced the front.
    pub provenance: Provenance,
    /// Whether an exact front backend applies to the instance (when
    /// `false`, an incomplete front is the best any rerun could do).
    pub exact_capable: bool,
}

impl SolveReport {
    /// The point answer, when the request wanted one and a feasible
    /// solution was found.
    #[must_use]
    pub fn point(&self) -> Option<&BiSolution> {
        match &self.answer {
            Answer::Point(sol) => sol.as_ref(),
            Answer::Front(_) => None,
        }
    }

    /// The front answer, when the request wanted a front.
    #[must_use]
    pub fn front_answer(&self) -> Option<&Arc<ParetoFront<IntervalMapping>>> {
        match &self.answer {
            Answer::Front(front) => Some(front),
            Answer::Point(_) => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The Solver trait
// ---------------------------------------------------------------------------

/// A solver backend as the engine sees it: a capability record plus the
/// answer-shape entry points its capabilities advertise.
///
/// Implementations must only be called for shapes their
/// [`Capabilities::shapes`] declare — the engine guarantees this; direct
/// callers should check [`Solver::applicable`] first. The default method
/// bodies panic, so an incapable call is loud, not silently wrong.
///
/// ```
/// use rpwf_algo::engine::{
///     AnswerShapes, Capabilities, ClassSet, Exactness, ObjectiveSet, Solver,
/// };
/// use rpwf_algo::{BiSolution, Budgeted, Objective};
/// use rpwf_core::budget::Budget;
/// use rpwf_core::platform::Platform;
/// use rpwf_core::stage::Pipeline;
///
/// /// A toy backend: Theorem 1's polynomial reliability extreme, offered
/// /// as a (feasibility-filtered) point answer.
/// struct SafestOnly;
///
/// impl Solver for SafestOnly {
///     fn name(&self) -> &'static str {
///         "safest-only"
///     }
///     fn capabilities(&self) -> Capabilities {
///         Capabilities {
///             classes: ClassSet::ALL,
///             objectives: ObjectiveSet::BOTH,
///             shapes: AnswerShapes { points: true, fronts: false },
///             max_stages: None,
///             max_procs: None,
///             exactness: Exactness::Heuristic,
///             budget_aware: false,
///             seedable: false,
///             race_member: false,
///             front_exact: false,
///             threads: 1,
///         }
///     }
///     fn solve_point(
///         &self,
///         pipeline: &Pipeline,
///         platform: &Platform,
///         objective: Objective,
///         _budget: &Budget,
///     ) -> Budgeted<Option<BiSolution>> {
///         let safest = rpwf_algo::mono::minimize_failure(pipeline, platform);
///         let feasible = objective.feasible(safest.latency, safest.failure_prob);
///         Budgeted::Complete(feasible.then_some(safest))
///     }
/// }
///
/// let mut engine = rpwf_algo::engine::Engine::new(0);
/// engine.register(std::sync::Arc::new(SafestOnly));
/// assert!(engine.solver("safest-only").is_some());
/// ```
pub trait Solver: Send + Sync {
    /// Stable registry name (logs, stats, experiment tables).
    fn name(&self) -> &'static str;

    /// The capability record the engine plans with.
    fn capabilities(&self) -> Capabilities;

    /// Whether this solver can run on the instance. The default defers to
    /// [`Capabilities::admits`]; override to add instance-specific checks
    /// the static record cannot express (e.g. `n ≤ m` for one-to-one
    /// mappings).
    fn applicable(&self, pipeline: &Pipeline, platform: &Platform) -> bool {
        self.capabilities().admits(pipeline, platform)
    }

    /// Answers a threshold objective. Only called when
    /// [`Capabilities::shapes`]`.points` holds.
    ///
    /// # Panics
    /// The default body panics — point-incapable solvers must never be
    /// asked for points.
    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        let _ = (pipeline, platform, objective, budget);
        unreachable!("{} does not produce point answers", self.name())
    }

    /// [`solve_point`](Self::solve_point) seeded with an
    /// externally-computed incumbent. Only meaningfully overridden when
    /// [`Capabilities::seedable`] holds; the default ignores the seed.
    fn solve_point_seeded(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
        incumbent: Option<BiSolution>,
    ) -> Budgeted<Option<BiSolution>> {
        let _ = incumbent;
        self.solve_point(pipeline, platform, objective, budget)
    }

    /// [`solve_point_seeded`](Self::solve_point_seeded) that additionally
    /// reports per-worker [`SearchStats`] when the backend runs a
    /// cooperative parallel search. The default delegates and reports
    /// none.
    fn solve_point_seeded_stats(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
        incumbent: Option<BiSolution>,
    ) -> (Budgeted<Option<BiSolution>>, Option<SearchStats>) {
        (
            self.solve_point_seeded(pipeline, platform, objective, budget, incumbent),
            None,
        )
    }

    /// Produces the best Pareto front achievable within the budget. Only
    /// called when [`Capabilities::shapes`]`.fronts` holds.
    ///
    /// # Panics
    /// The default body panics — front-incapable solvers must never be
    /// asked for fronts.
    fn solve_front(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        budget: &Budget,
    ) -> Budgeted<ParetoFront<IntervalMapping>> {
        let _ = (pipeline, platform, budget);
        unreachable!("{} does not produce fronts", self.name())
    }

    /// [`solve_front`](Self::solve_front) that additionally reports
    /// per-worker [`SearchStats`] when the backend runs a cooperative
    /// parallel search. The default delegates and reports none.
    fn solve_front_stats(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        budget: &Budget,
    ) -> (Budgeted<ParetoFront<IntervalMapping>>, Option<SearchStats>) {
        (self.solve_front(pipeline, platform, budget), None)
    }
}

// ---------------------------------------------------------------------------
// The Engine
// ---------------------------------------------------------------------------

/// The solver registry and planner. Registration order is the preference
/// order: for each answer shape, the *first* applicable proof-capable
/// solver is the exact backend, and race members run in registration
/// order (which is what makes the engine's heuristic side bit-identical
/// to the legacy [`Portfolio`](crate::heuristics::Portfolio)).
///
/// ```
/// use rpwf_algo::engine::Engine;
///
/// let engine = Engine::with_default_backends(0xCAFE);
/// // The capability surface is queryable: which backend would answer a
/// // front request for Figure 5's comm-homogeneous platform?
/// let pipeline = rpwf_gen::figure5_pipeline();
/// let platform = rpwf_gen::figure5_platform();
/// let backend = engine.front_backend(&pipeline, &platform).expect("m = 11 ≤ 16");
/// assert_eq!(backend.name(), "bitmask-dp");
/// ```
pub struct Engine {
    solvers: Vec<Arc<dyn Solver>>,
    seed: u64,
    threads: usize,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .field(
                "solvers",
                &self.solvers.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Engine {
    /// An empty engine (no backends registered).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Engine {
            solvers: Vec::new(),
            seed,
            threads: 1,
        }
    }

    /// An engine with every stock backend registered, in the canonical
    /// preference order: bitmask-dp, branch-bound, exhaustive, bnb-sweep,
    /// interval-dp, one-to-one, single-interval, split-dp, local-search,
    /// annealing, random-search, portfolio-front. `seed` drives every
    /// randomized member (a fixed seed makes answers deterministic).
    #[must_use]
    pub fn with_default_backends(seed: u64) -> Self {
        Engine::with_parallel_backends(seed, 1)
    }

    /// [`Engine::with_default_backends`] with the exact searches
    /// (branch-and-bound and its ε-constraint sweep) running `threads`
    /// cooperative workers (`0` = one per available core, `1` =
    /// sequential, byte-identical to the default engine). Parallel and
    /// sequential engines return byte-identical answers; more threads
    /// only move the instance-size frontier (`m ≤ 14` instead of `12`
    /// for the branch-and-bound backends) and wall-clock time.
    #[must_use]
    pub fn with_parallel_backends(seed: u64, threads: usize) -> Self {
        let mut engine = Engine::new(seed);
        engine.threads = crate::par::resolve_threads(threads);
        engine.register(Arc::new(BitmaskDpSolver));
        engine.register(Arc::new(BranchBoundSolver { threads }));
        engine.register(Arc::new(ExhaustiveSolver));
        engine.register(Arc::new(BnbSweepSolver {
            threads,
            seed: BranchBoundSweep::default().seed,
        }));
        engine.register(Arc::new(IntervalDpSolver));
        engine.register(Arc::new(OneToOneSolver));
        engine.register(Arc::new(SingleIntervalSolver));
        engine.register(Arc::new(SplitDpSolver));
        engine.register(Arc::new(LocalSearchSolver { seed }));
        engine.register(Arc::new(AnnealingSolver { seed }));
        engine.register(Arc::new(RandomSearchSolver { seed }));
        engine.register(Arc::new(PortfolioFrontSolver {
            front: PortfolioFront { seed, steps: 9 },
        }));
        engine
    }

    /// Appends a backend to the registry (lowest preference so far).
    pub fn register(&mut self, solver: Arc<dyn Solver>) {
        self.solvers.push(solver);
    }

    /// The registered backends, in preference order.
    #[must_use]
    pub fn solvers(&self) -> &[Arc<dyn Solver>] {
        &self.solvers
    }

    /// Looks a backend up by its registry name.
    #[must_use]
    pub fn solver(&self, name: &str) -> Option<&Arc<dyn Solver>> {
        self.solvers.iter().find(|s| s.name() == name)
    }

    /// The seed driving randomized members.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The resolved worker-thread count the parallel exact backends run
    /// with (`1` for [`Engine::with_default_backends`] and hand-built
    /// engines). The serving layer exports this as the
    /// `rpwf_engine_solver_threads` gauge.
    #[must_use]
    pub fn solver_threads(&self) -> usize {
        self.threads
    }

    /// The exact front backend the engine would use for the instance: the
    /// first applicable proof-capable solver whose `Complete` fronts are
    /// exact. `None` means only heuristic fronts are available (the
    /// portfolio fallback still answers).
    #[must_use]
    pub fn front_backend(&self, pipeline: &Pipeline, platform: &Platform) -> Option<&dyn Solver> {
        self.solvers.iter().map(AsRef::as_ref).find(|s| {
            let caps = s.capabilities();
            caps.shapes.fronts
                && caps.front_exact
                && caps.exactness.proof_capable()
                && s.applicable(pipeline, platform)
        })
    }

    /// The exact point backend the engine would race for the instance and
    /// objective: the first applicable proof-capable point solver.
    #[must_use]
    pub fn point_backend(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
    ) -> Option<&dyn Solver> {
        self.solvers.iter().map(AsRef::as_ref).find(|s| {
            let caps = s.capabilities();
            caps.shapes.points
                && caps.exactness.proof_capable()
                && caps.objectives.contains(objective)
                && s.applicable(pipeline, platform)
        })
    }

    /// The heuristic front fallback (first applicable heuristic-tier
    /// front producer — the portfolio sweep in the stock registry).
    fn front_fallback(&self, pipeline: &Pipeline, platform: &Platform) -> Option<&dyn Solver> {
        self.solvers.iter().map(AsRef::as_ref).find(|s| {
            let caps = s.capabilities();
            caps.shapes.fronts
                && caps.exactness == Exactness::Heuristic
                && s.applicable(pipeline, platform)
        })
    }

    /// Plans and executes one request. See the module docs for the plan
    /// shapes; every solve/pareto call site of the serving layer, CLI and
    /// experiments goes through here.
    #[must_use]
    pub fn solve(&self, req: &SolveRequest<'_>) -> SolveReport {
        self.solve_traced(req, None)
    }

    /// [`Engine::solve`] with an optional trace scope. When `scope` is
    /// set, the engine opens an `engine.plan` span recording the planning
    /// decision (answer shape, capability filter result, chosen backend,
    /// race membership) and the budget outcome, plus one `solver.<name>`
    /// child span per backend execution, synthesized from the report's
    /// [`SolverStat`]s. Race members run in parallel, so sibling solver
    /// spans may overlap: each records its own duration inside the plan
    /// window rather than a disjoint slice of it. With `scope == None`
    /// this is exactly [`Engine::solve`] — no span is allocated.
    #[must_use]
    pub fn solve_traced(
        &self,
        req: &SolveRequest<'_>,
        scope: Option<TraceScope<'_>>,
    ) -> SolveReport {
        let Some(scope) = scope else {
            return self.execute(&self.plan(req), req);
        };
        let trace = scope.trace;
        let plan_start_us = trace.elapsed_us();
        let span = trace.begin("engine.plan", Some(scope.parent));
        let plan = self.plan(req);
        let applicable = self
            .solvers
            .iter()
            .filter(|s| s.applicable(req.pipeline, req.platform))
            .count();
        trace.attr(
            span.index(),
            "applicable",
            format!("{applicable}/{}", self.solvers.len()),
        );
        match plan.race() {
            None => trace.attr(span.index(), "want", "front"),
            Some(race) => {
                trace.attr(span.index(), "want", "point");
                trace.attr(
                    span.index(),
                    "objective",
                    match race.objective {
                        Objective::MinFpUnderLatency(_) => "min-fp-under-latency",
                        Objective::MinLatencyUnderFp(_) => "min-latency-under-fp",
                    },
                );
                let members: Vec<&str> = race.members.iter().map(|s| s.name()).collect();
                trace.attr(span.index(), "race", members.join(","));
            }
        }
        trace.attr(span.index(), "plan", plan.name());
        if let Some(backend) = plan.backend() {
            trace.attr(span.index(), "backend", backend.name());
        }
        let report = self.execute(&plan, req);
        for stat in &report.stats {
            let solver_span = trace.add(
                &format!("solver.{}", stat.solver),
                Some(span.index()),
                plan_start_us,
                stat.elapsed_us,
                vec![
                    ("complete".to_owned(), stat.complete.to_string()),
                    ("produced".to_owned(), stat.produced.to_string()),
                ],
            );
            // One child span per cooperative search worker — only for
            // genuinely parallel runs, so sequential plans trace exactly
            // as they always have (one span per solver stat).
            let search = report
                .parallel
                .iter()
                .find(|(name, s)| *name == stat.solver && s.threads > 1);
            if let Some((_, search)) = search {
                for w in &search.workers {
                    trace.add(
                        "solver.bnb.worker",
                        Some(solver_span),
                        plan_start_us,
                        w.elapsed_us,
                        vec![
                            ("worker".to_owned(), w.worker.to_string()),
                            ("nodes".to_owned(), w.nodes.to_string()),
                            ("units_executed".to_owned(), w.units_executed.to_string()),
                            ("units_stolen".to_owned(), w.units_stolen.to_string()),
                            ("improvements".to_owned(), w.improvements.to_string()),
                        ],
                    );
                }
            }
        }
        trace.attr(
            span.index(),
            "exact_complete",
            report.completeness.exact_complete.to_string(),
        );
        trace.attr(
            span.index(),
            "budget_exhausted",
            req.budget.is_exhausted().to_string(),
        );
        if let Some(provenance) = report.provenance {
            trace.attr(span.index(), "provenance", provenance.as_str());
        }
        trace.end(&span);
        report
    }

    /// Decides how to answer `req`: the plan shape, the backend and the
    /// race members. The one place that decision is made —
    /// [`Engine::solve_traced`] both records and executes its result.
    fn plan(&self, req: &SolveRequest<'_>) -> Plan<'_> {
        let (pipeline, platform) = (req.pipeline, req.platform);
        let Want::Point {
            objective,
            keep_front,
        } = req.want
        else {
            return match self.front_backend(pipeline, platform) {
                Some(backend) => Plan::FrontExact(backend),
                None => self
                    .front_fallback(pipeline, platform)
                    .map_or(Plan::FrontNone, Plan::FrontHeuristic),
            };
        };
        let race = Race {
            objective,
            members: self
                .solvers
                .iter()
                .map(AsRef::as_ref)
                .filter(|s| {
                    let caps = s.capabilities();
                    caps.race_member
                        && caps.shapes.points
                        && caps.objectives.contains(objective)
                        && s.applicable(pipeline, platform)
                })
                .collect(),
        };
        if keep_front {
            if let Some(backend) = self.front_backend(pipeline, platform) {
                return Plan::PointViaFront(backend, race);
            }
        }
        match self.point_backend(pipeline, platform, objective) {
            Some(backend) => Plan::PointRace(backend, race),
            None => Plan::PointHeuristic(race),
        }
    }

    /// Runs a plan: the untraced core of [`Engine::solve_traced`].
    fn execute(&self, plan: &Plan<'_>, req: &SolveRequest<'_>) -> SolveReport {
        match *plan {
            Plan::FrontExact(backend) => self.plan_front(req, Some(backend), true),
            Plan::FrontHeuristic(backend) => self.plan_front(req, Some(backend), false),
            Plan::FrontNone => self.plan_front(req, None, false),
            Plan::PointViaFront(backend, ref race) => self.plan_point_via_front(req, backend, race),
            Plan::PointRace(backend, ref race) => self.plan_point_race(req, Some(backend), race),
            Plan::PointHeuristic(ref race) => self.plan_point_race(req, None, race),
        }
    }

    /// Front plan: the exact front backend where one applies, the
    /// heuristic portfolio sweep beyond.
    fn plan_front(
        &self,
        req: &SolveRequest<'_>,
        backend: Option<&dyn Solver>,
        exact_capable: bool,
    ) -> SolveReport {
        let mut stats = Vec::new();
        let mut parallel = Vec::new();
        let outcome = match backend {
            Some(backend) => timed_front(backend, req, &mut stats, &mut parallel),
            None => Budgeted::Cutoff(ParetoFront::new()),
        };
        let complete = outcome.is_complete();
        let front = Arc::new(outcome.into_inner());
        // Field semantics: `exact_complete` may only be claimed by a
        // proof-capable backend (a heuristic sweep that happens to finish
        // its budget proves nothing), and `heuristic_complete` covers the
        // heuristics the plan actually ran (vacuously true on the exact
        // path, where none do).
        let completeness = if exact_capable {
            Completeness {
                exact_capable: true,
                exact_complete: complete,
                heuristic_complete: true,
            }
        } else {
            Completeness {
                exact_capable: false,
                exact_complete: false,
                heuristic_complete: complete,
            }
        };
        SolveReport {
            provenance: Some(if exact_capable {
                Provenance::Exact
            } else {
                Provenance::Heuristic
            }),
            completeness,
            answer: Answer::Front(front),
            front: None,
            stats,
            parallel,
        }
    }

    /// Point-via-front plan: build the whole front with the exact backend
    /// while the heuristic portfolio hedges on a second thread; answer
    /// from the front when it completes, otherwise take the best of the
    /// partial front and the heuristics. The front travels back as a
    /// by-product for callers that cache it.
    ///
    /// The hedge runs under a cancellable copy of the request budget and
    /// is stopped as soon as the front completes: a complete front's read
    /// is the answer whatever the heuristics find, so their remaining work
    /// could only be thrown away. Stopped members report
    /// [`SolverStat::complete`] `false`, while the report claims
    /// `heuristic_complete` (nothing a rerun could strengthen). A cutoff
    /// front leaves the hedge running to the request's own budget.
    fn plan_point_via_front(
        &self,
        req: &SolveRequest<'_>,
        backend: &dyn Solver,
        race: &Race<'_>,
    ) -> SolveReport {
        let objective = race.objective;
        let mut stats = Vec::new();
        let mut parallel = Vec::new();
        let (hedge_budget, stop_hedge) = req.budget.clone().cancellable();
        let hedge_req = SolveRequest {
            budget: &hedge_budget,
            ..*req
        };
        let (front_outcome, heuristic, mut heuristic_stats) = crossbeam::thread::scope(|scope| {
            let heuristic = scope.spawn(|_| {
                let mut hstats = Vec::new();
                let outcome = race.run(&hedge_req, &mut hstats);
                (outcome, hstats)
            });
            let front = timed_front(backend, req, &mut stats, &mut parallel);
            if front.is_complete() {
                stop_hedge.cancel();
            }
            let (heuristic, hstats) = heuristic.join().expect("heuristics do not panic");
            (front, heuristic, hstats)
        })
        .expect("race threads do not panic");
        stats.append(&mut heuristic_stats);

        let complete = front_outcome.is_complete();
        let heuristic_complete = complete || heuristic.is_complete();
        let front = Arc::new(front_outcome.into_inner());
        let exact_point = threshold_read(&front, objective);
        let (answer, provenance) = if complete {
            let provenance = exact_point.is_some().then_some(Provenance::Exact);
            (exact_point, provenance)
        } else {
            pick_better(objective, exact_point, heuristic.into_inner())
        };
        SolveReport {
            answer: Answer::Point(answer),
            completeness: Completeness {
                exact_capable: true,
                exact_complete: complete,
                heuristic_complete,
            },
            provenance,
            front: Some(FrontArtifact {
                front,
                complete,
                provenance: Provenance::Exact,
                exact_capable: true,
            }),
            stats,
            parallel,
        }
    }

    /// Per-threshold race plan: the exact point backend (if any) against
    /// the heuristic race members under the shared budget. Non-seedable
    /// exact backends run truly in parallel on a second thread; seedable
    /// ones (branch-and-bound) run after the heuristics, seeded with
    /// their answer, so the exact search polls the budget from its first
    /// node.
    fn plan_point_race(
        &self,
        req: &SolveRequest<'_>,
        backend: Option<&dyn Solver>,
        race: &Race<'_>,
    ) -> SolveReport {
        let objective = race.objective;
        let mut stats = Vec::new();
        let mut parallel = Vec::new();
        let (exact_outcome, heuristic) = match backend {
            Some(s) if s.capabilities().seedable => {
                let heuristic = race.run(req, &mut stats);
                let start = Instant::now();
                let (outcome, search) = s.solve_point_seeded_stats(
                    req.pipeline,
                    req.platform,
                    objective,
                    req.budget,
                    heuristic.inner().clone(),
                );
                push_point_stat(&mut stats, s.name(), start, &outcome, search.as_ref());
                if let Some(search) = search {
                    parallel.push((s.name(), search));
                }
                (Some(outcome), heuristic)
            }
            Some(s) => {
                let (exact, heuristic) = crossbeam::thread::scope(|scope| {
                    let exact = scope.spawn(|_| {
                        let start = Instant::now();
                        let outcome =
                            s.solve_point(req.pipeline, req.platform, objective, req.budget);
                        (outcome, start)
                    });
                    let heuristic = race.run(req, &mut stats);
                    let (outcome, start) = exact.join().expect("exact solver does not panic");
                    push_point_stat(&mut stats, s.name(), start, &outcome, None);
                    (outcome, heuristic)
                })
                .expect("race threads do not panic");
                (Some(exact), heuristic)
            }
            None => (None, race.run(req, &mut stats)),
        };

        let heuristic_complete = heuristic.is_complete();
        let heuristic = heuristic.into_inner();
        let (answer, provenance, completeness) = match exact_outcome {
            Some(Budgeted::Complete(sol)) => {
                let provenance = sol.is_some().then_some(Provenance::Exact);
                (
                    sol,
                    provenance,
                    Completeness {
                        exact_capable: true,
                        exact_complete: true,
                        heuristic_complete,
                    },
                )
            }
            Some(Budgeted::Cutoff(partial)) => {
                let (answer, provenance) = pick_better(objective, partial, heuristic);
                (
                    answer,
                    provenance,
                    Completeness {
                        exact_capable: true,
                        exact_complete: false,
                        heuristic_complete,
                    },
                )
            }
            None => {
                let provenance = heuristic.is_some().then_some(Provenance::Heuristic);
                (
                    heuristic,
                    provenance,
                    Completeness {
                        exact_capable: false,
                        exact_complete: false,
                        heuristic_complete,
                    },
                )
            }
        };
        SolveReport {
            answer: Answer::Point(answer),
            completeness,
            provenance,
            front: None,
            stats,
            parallel,
        }
    }
}

/// The decision [`Engine::solve`] makes for one request, computed once by
/// `Engine::plan`: [`Engine::solve_traced`] records this value on the
/// `engine.plan` span and executes the same value, so a trace cannot
/// report a plan other than the one that ran.
enum Plan<'e> {
    /// The exact front backend builds the front.
    FrontExact(&'e dyn Solver),
    /// No exact front backend applies: the heuristic front fallback
    /// (flagged incomplete).
    FrontHeuristic(&'e dyn Solver),
    /// No front producer applies at all: an empty cutoff front.
    FrontNone,
    /// The exact front backend builds the whole front beside the race;
    /// the answer is a read off that front.
    PointViaFront(&'e dyn Solver, Race<'e>),
    /// The exact point backend against the race.
    PointRace(&'e dyn Solver, Race<'e>),
    /// No exact point backend applies: the race alone.
    PointHeuristic(Race<'e>),
}

impl<'e> Plan<'e> {
    /// The `plan` attribute of the `engine.plan` span.
    fn name(&self) -> &'static str {
        match self {
            Plan::FrontExact(_) => "front-exact",
            Plan::FrontHeuristic(_) => "front-heuristic",
            Plan::FrontNone => "front-none",
            Plan::PointViaFront(..) => "point-via-front",
            Plan::PointRace(..) => "point-race",
            Plan::PointHeuristic(_) => "point-heuristic",
        }
    }

    /// The backend the plan runs besides any race.
    fn backend(&self) -> Option<&'e dyn Solver> {
        match *self {
            Plan::FrontExact(backend)
            | Plan::FrontHeuristic(backend)
            | Plan::PointViaFront(backend, _)
            | Plan::PointRace(backend, _) => Some(backend),
            Plan::FrontNone | Plan::PointHeuristic(_) => None,
        }
    }

    /// The heuristic race of a point plan (`None` for front plans).
    fn race(&self) -> Option<&Race<'e>> {
        match self {
            Plan::PointViaFront(_, race)
            | Plan::PointRace(_, race)
            | Plan::PointHeuristic(race) => Some(race),
            Plan::FrontExact(_) | Plan::FrontHeuristic(_) | Plan::FrontNone => None,
        }
    }
}

/// The heuristic side of a point plan: its objective and every
/// applicable race member, in registration order.
struct Race<'e> {
    objective: Objective,
    members: Vec<&'e dyn Solver>,
}

impl Race<'_> {
    /// Runs every member in registration order under the shared budget
    /// and keeps the best answer — the engine's heuristic portfolio,
    /// bit-identical to the legacy
    /// [`Portfolio`](crate::heuristics::Portfolio) fold.
    fn run(
        &self,
        req: &SolveRequest<'_>,
        stats: &mut Vec<SolverStat>,
    ) -> Budgeted<Option<BiSolution>> {
        let objective = self.objective;
        let mut complete = true;
        let mut best: Option<BiSolution> = None;
        for &solver in &self.members {
            let start = Instant::now();
            let outcome = solver.solve_point(req.pipeline, req.platform, objective, req.budget);
            let member_complete = outcome.is_complete();
            if !member_complete {
                complete = false;
            }
            let sol = outcome.into_inner();
            stats.push(SolverStat {
                solver: solver.name(),
                elapsed_us: elapsed_us(start),
                complete: member_complete,
                produced: sol.is_some(),
                parallel: None,
            });
            if let Some(sol) = sol {
                best = match best {
                    Some(b) if !objective.better(&sol, &b) => Some(b),
                    _ => Some(sol),
                };
            }
        }
        if complete {
            Budgeted::Complete(best)
        } else {
            Budgeted::Cutoff(best)
        }
    }
}

/// The cutoff tie-break shared by every race shape: a partial exact
/// answer against the heuristic answer, feasibility-then-objective order
/// (exact wins ties). One copy — this comparison is what the
/// engine-equivalence contract pins, so it must not fork.
fn pick_better(
    objective: Objective,
    exact_partial: Option<BiSolution>,
    heuristic: Option<BiSolution>,
) -> (Option<BiSolution>, Option<Provenance>) {
    match (exact_partial, heuristic) {
        (Some(e), Some(h)) => {
            if objective.better(&e, &h) {
                (Some(e), Some(Provenance::Exact))
            } else {
                (Some(h), Some(Provenance::Heuristic))
            }
        }
        (Some(e), None) => (Some(e), Some(Provenance::Exact)),
        (None, Some(h)) => (Some(h), Some(Provenance::Heuristic)),
        (None, None) => (None, None),
    }
}

/// Runs a front backend and records its stat (plus per-worker search
/// telemetry when the backend runs a parallel search).
fn timed_front(
    backend: &dyn Solver,
    req: &SolveRequest<'_>,
    stats: &mut Vec<SolverStat>,
    parallel: &mut Vec<(&'static str, SearchStats)>,
) -> Budgeted<ParetoFront<IntervalMapping>> {
    let start = Instant::now();
    let (outcome, search) = backend.solve_front_stats(req.pipeline, req.platform, req.budget);
    stats.push(SolverStat {
        solver: backend.name(),
        elapsed_us: elapsed_us(start),
        complete: outcome.is_complete(),
        produced: !outcome.inner().is_empty(),
        parallel: search.as_ref().map(ParallelSummary::from_search),
    });
    if let Some(search) = search {
        parallel.push((backend.name(), search));
    }
    outcome
}

/// Records a point backend's stat.
fn push_point_stat(
    stats: &mut Vec<SolverStat>,
    solver: &'static str,
    start: Instant,
    outcome: &Budgeted<Option<BiSolution>>,
    search: Option<&SearchStats>,
) {
    stats.push(SolverStat {
        solver,
        elapsed_us: elapsed_us(start),
        complete: outcome.is_complete(),
        produced: outcome.inner().is_some(),
        parallel: search.map(ParallelSummary::from_search),
    });
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Stock backend registrations
// ---------------------------------------------------------------------------

/// The bitmask DP on uniform-link platforms (`m ≤ 16`): the whole exact
/// front in one `O(n²·3^m)` pass; threshold answers are reads off it.
#[derive(Clone, Copy, Debug, Default)]
pub struct BitmaskDpSolver;

impl Solver for BitmaskDpSolver {
    fn name(&self) -> &'static str {
        "bitmask-dp"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::UNIFORM_LINKS,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: true,
                fronts: true,
            },
            max_stages: None,
            max_procs: Some(16),
            exactness: Exactness::Exact,
            budget_aware: true,
            seedable: false,
            race_member: false,
            front_exact: true,
            threads: 1,
        }
    }

    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        solve_comm_homog_with_budget(pipeline, platform, objective, budget)
            .expect("applicability checked: uniform bandwidth")
    }

    fn solve_front(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        budget: &Budget,
    ) -> Budgeted<ParetoFront<IntervalMapping>> {
        pareto_front_comm_homog_with_budget(pipeline, platform, budget)
            .expect("applicability checked: uniform bandwidth")
    }
}

/// The branch-and-bound threshold solver (any class, `m ≤ 12`
/// sequential, `m ≤ 14` with a multi-thread worker pool): exact point
/// answers with heuristic-seeded pruning. Answers are byte-identical at
/// every thread count.
#[derive(Clone, Copy, Debug)]
pub struct BranchBoundSolver {
    /// Worker threads for the cooperative search (`0` = one per
    /// available core, `1` = sequential).
    pub threads: usize,
}

impl Default for BranchBoundSolver {
    fn default() -> Self {
        BranchBoundSolver { threads: 1 }
    }
}

impl Solver for BranchBoundSolver {
    fn name(&self) -> &'static str {
        "branch-bound"
    }

    fn capabilities(&self) -> Capabilities {
        let threads = crate::par::resolve_threads(self.threads);
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: true,
                fronts: false,
            },
            max_stages: None,
            max_procs: Some(if threads > 1 { 14 } else { 12 }),
            exactness: Exactness::Exact,
            budget_aware: true,
            seedable: true,
            race_member: false,
            front_exact: false,
            threads,
        }
    }

    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        BranchBound::new(pipeline, platform)
            .with_threads(self.threads)
            .solve_with_budget(objective, budget)
    }

    fn solve_point_seeded(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
        incumbent: Option<BiSolution>,
    ) -> Budgeted<Option<BiSolution>> {
        self.solve_point_seeded_stats(pipeline, platform, objective, budget, incumbent)
            .0
    }

    fn solve_point_seeded_stats(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
        incumbent: Option<BiSolution>,
    ) -> (Budgeted<Option<BiSolution>>, Option<SearchStats>) {
        let (outcome, stats) = BranchBound::new(pipeline, platform)
            .with_threads(self.threads)
            .solve_with_budget_seeded_stats(objective, budget, incumbent);
        (outcome, Some(stats))
    }
}

/// The exhaustive oracle (any class, `n ≤ 12`, `m ≤ 6`): full enumeration
/// with replication, yield-ordered so cutoff fronts cover the extremes
/// first. The stage cap bounds the `2^(n−1)` partitions it lists before
/// its first budget check at 2,048; `bnb-sweep` serves longer pipelines.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExhaustiveSolver;

impl Solver for ExhaustiveSolver {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: true,
                fronts: true,
            },
            max_stages: Some(12),
            max_procs: Some(6),
            exactness: Exactness::Anytime,
            budget_aware: true,
            seedable: false,
            race_member: false,
            front_exact: true,
            threads: 1,
        }
    }

    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        crate::exact::Exhaustive::new(pipeline, platform).solve_with_budget(objective, budget)
    }

    fn solve_front(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        budget: &Budget,
    ) -> Budgeted<ParetoFront<IntervalMapping>> {
        crate::exact::Exhaustive::new(pipeline, platform).pareto_front_with_budget(budget)
    }
}

/// The branch-and-bound ε-constraint sweep (any class, `m ≤ 12`
/// sequential, `m ≤ 14` with a multi-thread worker pool): enumerates the
/// exact front point by point — anytime by construction. Fronts are
/// byte-identical at every thread count.
#[derive(Clone, Copy, Debug)]
pub struct BnbSweepSolver {
    /// Worker threads for the cooperative search within each ε-step
    /// (`0` = one per available core, `1` = sequential).
    pub threads: usize,
    /// Seed for the first ε-step's heuristic incumbent.
    pub seed: u64,
}

impl Default for BnbSweepSolver {
    fn default() -> Self {
        let sweep = BranchBoundSweep::default();
        BnbSweepSolver {
            threads: sweep.threads,
            seed: sweep.seed,
        }
    }
}

impl Solver for BnbSweepSolver {
    fn name(&self) -> &'static str {
        "bnb-sweep"
    }

    fn capabilities(&self) -> Capabilities {
        let threads = crate::par::resolve_threads(self.threads);
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: false,
                fronts: true,
            },
            max_stages: None,
            max_procs: Some(if threads > 1 { 14 } else { 12 }),
            exactness: Exactness::Anytime,
            budget_aware: true,
            seedable: false,
            race_member: false,
            front_exact: true,
            threads,
        }
    }

    fn solve_front(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        budget: &Budget,
    ) -> Budgeted<ParetoFront<IntervalMapping>> {
        self.solve_front_stats(pipeline, platform, budget).0
    }

    fn solve_front_stats(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        budget: &Budget,
    ) -> (Budgeted<ParetoFront<IntervalMapping>>, Option<SearchStats>) {
        let sweep = BranchBoundSweep {
            threads: self.threads,
            seed: self.seed,
        };
        let (outcome, stats) = sweep.front_with_budget_stats(pipeline, platform, budget);
        (outcome, Some(stats))
    }
}

/// The exact interval DP (any class, `m ≤ 16`, no replication): produces
/// the latency extreme of the front as a one-point *partial* front (its
/// point is exact — replication never reduces latency — but a one-point
/// front is never the whole front, hence `front_exact: false`).
#[derive(Clone, Copy, Debug, Default)]
pub struct IntervalDpSolver;

impl Solver for IntervalDpSolver {
    fn name(&self) -> &'static str {
        "interval-dp"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::LATENCY_ONLY,
            shapes: AnswerShapes {
                points: false,
                fronts: true,
            },
            max_stages: None,
            max_procs: Some(16),
            exactness: Exactness::Exact,
            budget_aware: true,
            seedable: false,
            race_member: false,
            front_exact: false,
            threads: 1,
        }
    }

    fn solve_front(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        budget: &Budget,
    ) -> Budgeted<ParetoFront<IntervalMapping>> {
        IntervalDpFront.front_with_budget(pipeline, platform, budget)
    }
}

/// The one-to-one mapping heuristic (greedy + 2-opt over Theorem 3's
/// TSP-shaped problem): latency-oriented answers from the
/// no-replication, one-stage-per-processor family. Requires `n ≤ m`;
/// not a default race member (its family is too restrictive to improve
/// the portfolio, but it remains individually invocable).
#[derive(Clone, Copy, Debug, Default)]
pub struct OneToOneSolver;

impl Solver for OneToOneSolver {
    fn name(&self) -> &'static str {
        "one-to-one"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::LATENCY_ONLY,
            shapes: AnswerShapes {
                points: true,
                fronts: false,
            },
            max_stages: None,
            max_procs: None,
            exactness: Exactness::Heuristic,
            budget_aware: false,
            seedable: false,
            race_member: false,
            front_exact: false,
            threads: 1,
        }
    }

    fn applicable(&self, pipeline: &Pipeline, platform: &Platform) -> bool {
        self.capabilities().admits(pipeline, platform) && pipeline.n_stages() <= platform.n_procs()
    }

    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        _budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        let answer = one_to_one::solve_one_to_one(pipeline, platform).and_then(|(mapping, _)| {
            let mapping = mapping.to_interval_mapping(platform.n_procs());
            let sol = BiSolution::evaluate(mapping, pipeline, platform);
            objective
                .feasible(sol.latency, sol.failure_prob)
                .then_some(sol)
        });
        Budgeted::Complete(answer)
    }
}

/// The single-interval family search (any class): exact within its family
/// on uniform links, greedy orders beyond — a heuristic overall. First
/// member of the default race.
#[derive(Clone, Copy, Debug, Default)]
pub struct SingleIntervalSolver;

impl Solver for SingleIntervalSolver {
    fn name(&self) -> &'static str {
        "single-interval"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: true,
                fronts: false,
            },
            max_stages: None,
            max_procs: None,
            exactness: Exactness::Heuristic,
            budget_aware: false,
            seedable: false,
            race_member: true,
            front_exact: false,
            threads: 1,
        }
    }

    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        _budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        Budgeted::Complete(single_interval::best_single_interval(
            pipeline, platform, objective,
        ))
    }
}

/// The split DP (uniform links): exact Pareto DP restricted to processor
/// orders, a portfolio of three orders — a heuristic overall.
#[derive(Clone, Copy, Debug, Default)]
pub struct SplitDpSolver;

impl Solver for SplitDpSolver {
    fn name(&self) -> &'static str {
        "split-dp"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::UNIFORM_LINKS,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: true,
                fronts: false,
            },
            max_stages: None,
            max_procs: None,
            exactness: Exactness::Heuristic,
            budget_aware: false,
            seedable: false,
            race_member: true,
            front_exact: false,
            threads: 1,
        }
    }

    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        _budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        Budgeted::Complete(
            split_dp::solve(pipeline, platform, objective)
                .expect("applicability checked: uniform bandwidth"),
        )
    }
}

/// Multi-start steepest descent over the 7-move neighborhood (any class),
/// budget-aware.
#[derive(Clone, Copy, Debug)]
pub struct LocalSearchSolver {
    /// Seed for the random restarts.
    pub seed: u64,
}

impl Solver for LocalSearchSolver {
    fn name(&self) -> &'static str {
        "local-search"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: true,
                fronts: false,
            },
            max_stages: None,
            max_procs: None,
            exactness: Exactness::Heuristic,
            budget_aware: true,
            seedable: false,
            race_member: true,
            front_exact: false,
            threads: 1,
        }
    }

    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        local_search::LocalSearch {
            seed: self.seed,
            ..LocalSearch::default()
        }
        .solve_with_budget(pipeline, platform, objective, budget)
    }
}

/// Penalty-based simulated annealing (any class), budget-aware.
#[derive(Clone, Copy, Debug)]
pub struct AnnealingSolver {
    /// Seed for the annealing schedule.
    pub seed: u64,
}

impl Solver for AnnealingSolver {
    fn name(&self) -> &'static str {
        "annealing"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: true,
                fronts: false,
            },
            max_stages: None,
            max_procs: None,
            exactness: Exactness::Heuristic,
            budget_aware: true,
            seedable: false,
            race_member: true,
            front_exact: false,
            threads: 1,
        }
    }

    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        annealing::Annealing {
            seed: self.seed,
            ..Annealing::default()
        }
        .solve_with_budget(pipeline, platform, objective, budget)
    }
}

/// Uniform random sampling baseline (any class), budget-aware.
#[derive(Clone, Copy, Debug)]
pub struct RandomSearchSolver {
    /// Seed for the sampler.
    pub seed: u64,
}

impl Solver for RandomSearchSolver {
    fn name(&self) -> &'static str {
        "random-search"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: true,
                fronts: false,
            },
            max_stages: None,
            max_procs: None,
            exactness: Exactness::Heuristic,
            budget_aware: true,
            seedable: false,
            race_member: true,
            front_exact: false,
            threads: 1,
        }
    }

    fn solve_point(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        random_search::RandomSearch {
            seed: self.seed,
            ..RandomSearch::default()
        }
        .solve_with_budget(pipeline, platform, objective, budget)
    }
}

/// The heuristic portfolio as a front producer (any class): a grid of
/// threshold solves between the Theorem 1 reliability extreme and the
/// least reliable useful point, plus the interval-DP latency anchor where
/// it applies. The universal front fallback; never claims exactness.
#[derive(Clone, Copy, Debug)]
pub struct PortfolioFrontSolver {
    /// The underlying grid-sweep configuration.
    pub front: PortfolioFront,
}

impl Solver for PortfolioFrontSolver {
    fn name(&self) -> &'static str {
        "portfolio-front"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            classes: ClassSet::ALL,
            objectives: ObjectiveSet::BOTH,
            shapes: AnswerShapes {
                points: false,
                fronts: true,
            },
            max_stages: None,
            max_procs: None,
            exactness: Exactness::Heuristic,
            budget_aware: true,
            seedable: false,
            race_member: false,
            front_exact: false,
            threads: 1,
        }
    }

    fn solve_front(
        &self,
        pipeline: &Pipeline,
        platform: &Platform,
        budget: &Budget,
    ) -> Budgeted<ParetoFront<IntervalMapping>> {
        self.front.front_with_budget(pipeline, platform, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::Portfolio;
    use rpwf_core::assert_approx_eq;
    use rpwf_core::platform::FailureClass;

    fn engine() -> Engine {
        Engine::with_default_backends(0xCAFE)
    }

    fn instance(class: PlatformClass, n: usize, m: usize, seed: u64) -> (Pipeline, Platform) {
        let inst = rpwf_gen::make_instance(class, FailureClass::Heterogeneous, n, m, seed);
        (inst.pipeline, inst.platform)
    }

    #[test]
    fn traced_solve_records_plan_and_solver_spans() {
        use rpwf_core::trace::{Trace, TraceId, TraceScope};

        let engine = engine();
        let (pipe, pf) = instance(PlatformClass::CommHomogeneous, 3, 4, 7);
        let safest = crate::mono::minimize_failure(&pipe, &pf);
        let trace = Trace::new(TraceId::next(), Instant::now());
        let root = trace.begin_root("request");
        let req = SolveRequest {
            pipeline: &pipe,
            platform: &pf,
            want: Want::Point {
                objective: Objective::MinFpUnderLatency(safest.latency * 1.5),
                keep_front: false,
            },
            budget: &Budget::unlimited(),
        };
        let traced = engine.solve_traced(&req, Some(TraceScope::new(&trace, root.index())));
        trace.end(&root);
        let untraced = engine.solve(&req);
        assert_eq!(
            traced.point(),
            untraced.point(),
            "tracing must not change answers"
        );

        let tree = trace.finish();
        let plan = tree
            .spans
            .iter()
            .find(|s| s.name == "engine.plan")
            .expect("plan span");
        assert_eq!(plan.parent, Some(0));
        let attr = |key: &str| {
            plan.attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(attr("want"), Some("point"));
        assert_eq!(attr("plan"), Some("point-race"));
        assert_eq!(attr("backend"), Some("bitmask-dp"));
        assert_eq!(attr("budget_exhausted"), Some("false"));
        assert!(attr("race").expect("race attr").contains("local-search"));
        let solver_spans: Vec<_> = tree
            .spans
            .iter()
            .filter(|s| s.name.starts_with("solver."))
            .collect();
        assert_eq!(
            solver_spans.len(),
            traced.stats.len(),
            "one span per solver stat"
        );
        for span in solver_spans {
            assert!(span.name.len() > "solver.".len());
        }
    }

    #[test]
    fn traced_plan_names_exactly_the_solvers_that_ran() {
        use rpwf_core::trace::{Trace, TraceId, TraceScope};

        let ch = instance(PlatformClass::CommHomogeneous, 3, 4, 7);
        let het = instance(PlatformClass::FullyHeterogeneous, 3, 5, 7);
        let big = instance(PlatformClass::FullyHeterogeneous, 3, 14, 7);
        let point = |(pipe, pf): &(Pipeline, Platform), keep_front| Want::Point {
            objective: Objective::MinFpUnderLatency(
                crate::mono::minimize_failure(pipe, pf).latency * 1.5,
            ),
            keep_front,
        };
        let (stock, empty) = (engine(), Engine::new(0));
        let cases = [
            (&stock, &ch, Want::Front, "front-exact", Some("bitmask-dp")),
            (
                &stock,
                &big,
                Want::Front,
                "front-heuristic",
                Some("portfolio-front"),
            ),
            (&empty, &ch, Want::Front, "front-none", None),
            (
                &stock,
                &ch,
                point(&ch, true),
                "point-via-front",
                Some("bitmask-dp"),
            ),
            (
                &stock,
                &het,
                point(&het, false),
                "point-race",
                Some("branch-bound"),
            ),
            (&stock, &big, point(&big, false), "point-heuristic", None),
        ];
        for (engine, (pipe, pf), want, shape, backend) in cases {
            let trace = Trace::new(TraceId::next(), Instant::now());
            let root = trace.begin_root("request");
            let req = SolveRequest {
                pipeline: pipe,
                platform: pf,
                want,
                budget: &Budget::unlimited(),
            };
            let _ = engine.solve_traced(&req, Some(TraceScope::new(&trace, root.index())));
            trace.end(&root);
            let tree = trace.finish();
            let plan_index = tree
                .spans
                .iter()
                .position(|s| s.name == "engine.plan")
                .expect("plan span");
            let plan = &tree.spans[plan_index];
            let attr = |key: &str| {
                plan.attrs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.as_str())
            };

            let mut keys = vec!["applicable", "want"];
            if matches!(want, Want::Point { .. }) {
                keys.extend(["objective", "race"]);
            }
            keys.push("plan");
            keys.extend(backend.map(|_| "backend"));
            keys.extend(["exact_complete", "budget_exhausted", "provenance"]);
            let recorded: Vec<&str> = plan.attrs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(recorded, keys, "{shape}: attribute keys in order");
            assert_eq!(attr("plan"), Some(shape));
            assert_eq!(attr("backend"), backend, "{shape}");

            let mut ran: Vec<&str> = tree
                .spans
                .iter()
                .filter(|s| s.parent == Some(plan_index as u32))
                .filter_map(|s| s.name.strip_prefix("solver."))
                .collect();
            let mut planned: Vec<&str> = attr("race")
                .unwrap_or("")
                .split(',')
                .filter(|name| !name.is_empty())
                .chain(backend)
                .collect();
            ran.sort_unstable();
            planned.sort_unstable();
            assert_eq!(
                ran, planned,
                "{shape}: solver spans are the race plus the backend"
            );
        }
    }

    #[test]
    fn traced_parallel_solve_records_worker_spans() {
        use rpwf_core::trace::{Trace, TraceId, TraceScope};

        let parallel = Engine::with_parallel_backends(0xCAFE, 4);
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 4, 8, 7);
        let safest = crate::mono::minimize_failure(&pipe, &pf);
        let trace = Trace::new(TraceId::next(), Instant::now());
        let root = trace.begin_root("request");
        let req = SolveRequest {
            pipeline: &pipe,
            platform: &pf,
            want: Want::Point {
                objective: Objective::MinFpUnderLatency(safest.latency * 1.5),
                keep_front: false,
            },
            budget: &Budget::unlimited(),
        };
        let traced = parallel.solve_traced(&req, Some(TraceScope::new(&trace, root.index())));
        trace.end(&root);
        assert_eq!(
            traced.point(),
            engine().solve(&req).point(),
            "parallel engine must answer identically to sequential"
        );

        let tree = trace.finish();
        let bnb = tree
            .spans
            .iter()
            .position(|s| s.name == "solver.branch-bound")
            .expect("branch-bound solver span");
        let workers: Vec<_> = tree
            .spans
            .iter()
            .filter(|s| s.name == "solver.bnb.worker")
            .collect();
        assert_eq!(workers.len(), 4, "one span per worker thread");
        for span in &workers {
            assert_eq!(span.parent, Some(bnb as u32), "nested under the solver");
            for key in ["worker", "nodes", "units_executed", "units_stolen"] {
                assert!(
                    span.attrs.iter().any(|(k, _)| k == key),
                    "worker span carries {key}"
                );
            }
        }
        let executed: u64 = workers
            .iter()
            .map(|s| {
                s.attrs
                    .iter()
                    .find(|(k, _)| k == "units_executed")
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .expect("units_executed parses")
            })
            .sum();
        let (_, search) = traced
            .parallel
            .iter()
            .find(|(name, _)| *name == "branch-bound")
            .expect("parallel search stats");
        assert_eq!(executed, search.units_executed());
    }

    #[test]
    fn backend_selection_mirrors_the_legacy_policy() {
        let engine = engine();
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 3, 4, 1);
        assert_eq!(
            engine.front_backend(&pipe, &pf).expect("m=4").name(),
            "exhaustive"
        );
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 3, 10, 1);
        assert_eq!(
            engine.front_backend(&pipe, &pf).expect("m=10").name(),
            "bnb-sweep"
        );
        let (pipe, pf) = instance(PlatformClass::CommHomogeneous, 3, 10, 1);
        assert_eq!(
            engine.front_backend(&pipe, &pf).expect("comm-homog").name(),
            "bitmask-dp"
        );
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 3, 14, 1);
        assert!(
            engine.front_backend(&pipe, &pf).is_none(),
            "m=14 het: heuristics only"
        );
        // The exhaustive oracle stops at 12 stages; longer het fronts sweep.
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 12, 4, 3);
        assert_eq!(
            engine.front_backend(&pipe, &pf).expect("n=12").name(),
            "exhaustive"
        );
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 40, 4, 3);
        assert_eq!(
            engine.front_backend(&pipe, &pf).expect("n=40").name(),
            "bnb-sweep"
        );

        // Point backends: the DP on uniform links, branch-and-bound beyond
        // (shadowing the exhaustive oracle, exactly like the legacy race).
        let objective = Objective::MinFpUnderLatency(10.0);
        let (pipe, pf) = instance(PlatformClass::CommHomogeneous, 3, 10, 1);
        assert_eq!(
            engine
                .point_backend(&pipe, &pf, objective)
                .expect("ch")
                .name(),
            "bitmask-dp"
        );
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 3, 5, 1);
        assert_eq!(
            engine
                .point_backend(&pipe, &pf, objective)
                .expect("het m=5")
                .name(),
            "branch-bound"
        );
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 3, 14, 1);
        assert!(engine.point_backend(&pipe, &pf, objective).is_none());
    }

    #[test]
    fn point_race_equals_legacy_portfolio_race() {
        let engine = engine();
        for (class, m) in [
            (PlatformClass::CommHomogeneous, 5),
            (PlatformClass::FullyHeterogeneous, 5),
            (PlatformClass::FullyHeterogeneous, 14),
        ] {
            let (pipe, pf) = instance(class, 3, m, 11);
            let objective =
                Objective::MinFpUnderLatency(crate::mono::minimize_failure(&pipe, &pf).latency);
            let report = engine.solve(&SolveRequest {
                pipeline: &pipe,
                platform: &pf,
                want: Want::Point {
                    objective,
                    keep_front: false,
                },
                budget: &Budget::unlimited(),
            });
            let legacy = Portfolio::new(0xCAFE).race(&pipe, &pf, objective, &Budget::unlimited());
            assert_eq!(
                serde_json::to_string(&report.point().cloned()).unwrap(),
                serde_json::to_string(&legacy.best).unwrap(),
                "class {class:?} m={m}"
            );
            assert_eq!(report.completeness.exact_capable, legacy.exact_attempted);
            assert_eq!(report.completeness.exact_complete, legacy.exact_complete);
            assert_eq!(
                report.completeness.heuristic_complete,
                legacy.heuristic_complete
            );
            assert!(!report.stats.is_empty(), "per-solver stats recorded");
        }
    }

    #[test]
    fn point_via_front_reports_the_front_byproduct() {
        let engine = engine();
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let report = engine.solve(&SolveRequest {
            pipeline: &pipe,
            platform: &pf,
            want: Want::Point {
                objective: Objective::MinFpUnderLatency(22.0),
                keep_front: true,
            },
            budget: &Budget::unlimited(),
        });
        let sol = report.point().expect("feasible");
        assert_approx_eq!(sol.failure_prob, 1.0 - 0.9 * (1.0 - 0.8f64.powi(10)));
        assert_eq!(report.provenance, Some(Provenance::Exact));
        let artifact = report.front.as_ref().expect("front by-product");
        assert!(artifact.complete);
        // The by-product answers later queries directly.
        assert!(threshold_read(&artifact.front, Objective::MinLatencyUnderFp(0.9)).is_some());
    }

    /// A race member that does nothing but poll its budget, for up to
    /// 2^31 polls: a heuristic whose work outlasts the front it hedges.
    struct Spinner;

    impl Solver for Spinner {
        fn name(&self) -> &'static str {
            "spinner"
        }

        fn capabilities(&self) -> Capabilities {
            Capabilities {
                classes: ClassSet::ALL,
                objectives: ObjectiveSet::BOTH,
                shapes: AnswerShapes {
                    points: true,
                    fronts: false,
                },
                max_stages: None,
                max_procs: None,
                exactness: Exactness::Heuristic,
                budget_aware: true,
                seedable: false,
                race_member: true,
                front_exact: false,
                threads: 1,
            }
        }

        fn solve_point(
            &self,
            _pipeline: &Pipeline,
            _platform: &Platform,
            _objective: Objective,
            budget: &Budget,
        ) -> Budgeted<Option<BiSolution>> {
            for _ in 0..1u64 << 31 {
                if budget.is_exhausted() {
                    return Budgeted::Cutoff(None);
                }
            }
            Budgeted::Complete(None)
        }
    }

    #[test]
    fn complete_front_stops_the_hedge() {
        let mut engine = Engine::new(0);
        engine.register(Arc::new(BitmaskDpSolver));
        engine.register(Arc::new(Spinner));
        let (pipe, pf) = instance(PlatformClass::CommHomogeneous, 3, 4, 7);
        let objective =
            Objective::MinFpUnderLatency(crate::mono::minimize_failure(&pipe, &pf).latency * 1.5);
        let report = engine.solve(&SolveRequest {
            pipeline: &pipe,
            platform: &pf,
            want: Want::Point {
                objective,
                keep_front: true,
            },
            budget: &Budget::unlimited(),
        });
        let front = crate::exact::pareto_front_comm_homog(&pipe, &pf).expect("uniform links");
        let exact = threshold_read(&front, objective);
        assert!(exact.is_some(), "the bound is feasible");
        assert_eq!(report.point(), exact.as_ref());
        assert_eq!(report.provenance, Some(Provenance::Exact));
        assert!(report.completeness.exact_complete);
        assert!(
            report.completeness.heuristic_complete,
            "a proven front leaves nothing for a rerun to strengthen"
        );
        let spinner = report
            .stats
            .iter()
            .find(|stat| stat.solver == "spinner")
            .expect("the hedge ran");
        assert!(
            !spinner.complete,
            "the hedge stops once the front is proven"
        );
    }

    #[test]
    fn forty_stage_het_front_is_exact() {
        let engine = engine();
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 40, 4, 3);
        // Guard before the solve: at 40 stages the exhaustive oracle would
        // list 2^39 partitions before its first budget check.
        assert_ne!(
            engine
                .front_backend(&pipe, &pf)
                .map(|backend| backend.name()),
            Some("exhaustive")
        );
        let report = engine.solve(&SolveRequest {
            pipeline: &pipe,
            platform: &pf,
            want: Want::Front,
            budget: &Budget::unlimited(),
        });
        assert!(report.completeness.exact_complete);
    }

    #[test]
    fn front_request_beyond_exact_backends_falls_back_to_the_portfolio() {
        let engine = engine();
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 4, 14, 2);
        let report = engine.solve(&SolveRequest {
            pipeline: &pipe,
            platform: &pf,
            want: Want::Front,
            budget: &Budget::unlimited(),
        });
        assert_eq!(report.provenance, Some(Provenance::Heuristic));
        assert!(!report.completeness.exact_capable);
        assert!(!report.completeness.exact_complete);
        let front = report.front_answer().expect("front");
        assert!(!front.is_empty() && front.invariant_holds());
        assert_eq!(report.stats.len(), 1);
        assert_eq!(report.stats[0].solver, "portfolio-front");
    }

    #[test]
    fn expired_budget_yields_a_cutoff_not_a_proof() {
        let engine = engine();
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        let report = engine.solve(&SolveRequest {
            pipeline: &pipe,
            platform: &pf,
            want: Want::Point {
                objective: Objective::MinFpUnderLatency(22.0),
                keep_front: false,
            },
            budget: &expired,
        });
        assert!(report.completeness.exact_capable);
        assert!(!report.completeness.exact_complete);
        assert!(!report.completeness.cacheable_point());
    }

    #[test]
    fn provenance_serializes_to_the_stable_wire_strings() {
        assert_eq!(
            serde_json::to_string(&Provenance::Exact).unwrap(),
            "\"exact\""
        );
        assert_eq!(
            serde_json::to_string(&Provenance::Heuristic).unwrap(),
            "\"heuristic\""
        );
        let parsed: Provenance = serde_json::from_str("\"heuristic\"").unwrap();
        assert_eq!(parsed, Provenance::Heuristic);
        assert!(serde_json::from_str::<Provenance>("\"bogus\"").is_err());
        assert_eq!(Provenance::Exact.to_string(), "exact");
    }

    #[test]
    fn one_to_one_is_registered_but_outside_the_race() {
        let engine = engine();
        let solver = engine.solver("one-to-one").expect("registered");
        let caps = solver.capabilities();
        assert!(!caps.race_member);
        assert!(!caps.objectives.min_fp_under_latency);
        // n > m: the family does not apply.
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 6, 4, 3);
        assert!(!solver.applicable(&pipe, &pf));
        // n ≤ m: it answers with a valid evaluated mapping.
        let (pipe, pf) = instance(PlatformClass::FullyHeterogeneous, 3, 5, 3);
        assert!(solver.applicable(&pipe, &pf));
        let sol = solver
            .solve_point(
                &pipe,
                &pf,
                Objective::MinLatencyUnderFp(1.0),
                &Budget::unlimited(),
            )
            .into_inner()
            .expect("FP ≤ 1 always feasible");
        let re = BiSolution::evaluate(sol.mapping.clone(), &pipe, &pf);
        assert_approx_eq!(re.latency, sol.latency);
    }

    #[test]
    fn registry_is_extensible_and_queryable() {
        let engine = engine();
        assert_eq!(engine.solvers().len(), 12);
        let names: Vec<&str> = engine.solvers().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "bitmask-dp",
                "branch-bound",
                "exhaustive",
                "bnb-sweep",
                "interval-dp",
                "one-to-one",
                "single-interval",
                "split-dp",
                "local-search",
                "annealing",
                "random-search",
                "portfolio-front",
            ]
        );
        assert!(engine.solver("bitmask-dp").is_some());
        assert!(engine.solver("bogus").is_none());
    }
}
