//! Infeasibility explanations: MUS/MCS enumeration and nearest-feasible
//! what-if answers.
//!
//! An infeasible threshold query (no mapping meets the latency or
//! reliability bound) has a *reason* and a *nearest escape*. This module
//! extracts both over a small **constraint universe** describing the
//! query:
//!
//! | bit | constraint | relaxation semantics |
//! |---|---|---|
//! | 0 | [`Constraint::Bound`] — the objective's threshold | dropped: any mapping qualifies |
//! | 1 | [`Constraint::SpeedLimit`] — processor speeds as given | relaxed: every processor runs at the platform's maximum speed |
//! | 2 | [`Constraint::LinkLimit`] — link bandwidths as given | relaxed: every link runs at the platform's maximum bandwidth |
//! | 3 | [`Constraint::PlatformSize`] — `m` processors | relaxed: the processor set is doubled (each original gains a mirror) |
//!
//! A subset of the universe (a bitmask) is *satisfiable* when the
//! platform relaxed on the **cleared** bits admits a mapping that meets
//! the bound (or the bound bit itself is cleared — some mapping always
//! exists, so bound-free subsets are trivially satisfiable with zero
//! solver work). Relaxations are **monotone**: they only ever add
//! mappings, so satisfiability is monotone over subsets and the
//! MUS/MCS machinery below applies.
//!
//! [`marco`] runs a MARCO-style enumeration (Liffiton et al.; the
//! pattern aries uses for its MUS/MCS streams) over the 16-element
//! powerset: a map solver picks an unexplored seed, one satisfiability
//! probe decides its fate, and the seed is then *shrunk* to a **minimal
//! unsatisfiable subset** (MUS — drop any member and it becomes
//! satisfiable) or *grown* to a maximal satisfiable subset whose
//! complement is a **minimal correction set** (MCS — relax all of its
//! members and the query becomes feasible). The sat oracle is a Pareto
//! front read — [`Engine`] front solves via
//! [`EngineOracle`], or a caller-provided [`FrontOracle`] that can serve
//! cached fronts — so no new solver is written. Fronts are memoized per
//! platform variant and bound-free subsets short-circuit, so a full
//! enumeration costs at most 8 oracle calls, strictly below the
//! 16-subset powerset.
//!
//! [`relaxation`] answers the what-if: the adjacent staircase point just
//! past the infeasible bound on the front the failed solve already built
//! ("feasible at latency ≥ X" / "feasible at failure ≤ Y") — one
//! [`nearest_above`](ParetoFront::nearest_above) /
//! [`nearest_below`](ParetoFront::nearest_below) read per axis.
//!
//! **Completeness contract:** a satisfiable verdict is always proven (the
//! front holds a real mapping), but an *unsatisfiable* verdict read off a
//! budget-cutoff or heuristic front is best-effort. Any such verdict
//! clears [`Explanation::proven`]; consumers must then present MUSes as
//! candidates, never as proven-minimal conflicts.

use crate::engine::{Engine, SolveRequest, Want};
use crate::front::threshold_read;
use crate::solution::Objective;
use rpwf_core::budget::Budget;
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::pareto::ParetoFront;
use rpwf_core::platform::{Platform, PlatformBuilder, ProcId, Vertex};
use rpwf_core::stage::Pipeline;
use std::sync::Arc;

/// The full constraint universe as a bitmask.
pub const FULL_MASK: u8 = 0b1111;

/// Number of constraints in the universe.
pub const UNIVERSE_SIZE: usize = 4;

// ---------------------------------------------------------------------------
// Constraint universe
// ---------------------------------------------------------------------------

/// One constraint in the explanation universe. The enum discriminant is
/// the constraint's bit position in subset masks and its index in
/// [`universe`] — both stable, so wire payloads can reference
/// constraints by index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Constraint {
    /// The objective's threshold (latency bound or reliability bound).
    Bound = 0,
    /// Processor speeds as given (relaxed: all run at the maximum speed).
    SpeedLimit = 1,
    /// Link bandwidths as given (relaxed: all links at the maximum
    /// bandwidth, which also makes the platform comm-homogeneous).
    LinkLimit = 2,
    /// The processor count `m` (relaxed: the processor set is doubled).
    PlatformSize = 3,
}

impl Constraint {
    /// Every constraint, in bit order.
    pub const ALL: [Constraint; UNIVERSE_SIZE] = [
        Constraint::Bound,
        Constraint::SpeedLimit,
        Constraint::LinkLimit,
        Constraint::PlatformSize,
    ];

    /// The constraint's bit in subset masks.
    #[must_use]
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Stable lowercase label (wire payloads and CLI rendering).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Constraint::Bound => "bound",
            Constraint::SpeedLimit => "speed-limit",
            Constraint::LinkLimit => "link-limit",
            Constraint::PlatformSize => "platform-size",
        }
    }
}

/// A constraint of the universe rendered against one concrete query:
/// the stable label plus a human-readable instantiation.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstraintInfo {
    /// Which constraint.
    pub constraint: Constraint,
    /// Stable lowercase label ([`Constraint::label`]).
    pub label: &'static str,
    /// The constraint instantiated on this query, e.g. `latency <= 1`.
    pub detail: String,
}

/// The constraint universe for one query, indexed by constraint bit.
#[must_use]
pub fn universe(objective: Objective, platform: &Platform) -> Vec<ConstraintInfo> {
    let bound = match objective {
        Objective::MinFpUnderLatency(l) => format!("latency <= {l}"),
        Objective::MinLatencyUnderFp(f) => format!("failure probability <= {f}"),
    };
    let max_speed = max_speed(platform);
    let max_bw = max_finite_bandwidth(platform);
    let m = platform.n_procs();
    Constraint::ALL
        .iter()
        .map(|&constraint| {
            let detail = match constraint {
                Constraint::Bound => bound.clone(),
                Constraint::SpeedLimit => {
                    format!("processor speeds as given (max {max_speed})")
                }
                Constraint::LinkLimit => {
                    format!("link bandwidths as given (max {max_bw})")
                }
                Constraint::PlatformSize => format!("{m} processors"),
            };
            ConstraintInfo {
                constraint,
                label: constraint.label(),
                detail,
            }
        })
        .collect()
}

fn max_speed(platform: &Platform) -> f64 {
    platform
        .speeds()
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
}

/// The largest finite bandwidth anywhere in the communication graph
/// (diagonal entries are +∞ and excluded). Falls back to 1 on the
/// degenerate all-infinite platform.
fn max_finite_bandwidth(platform: &Platform) -> f64 {
    let verts = all_vertices(platform.n_procs());
    let mut best = f64::NEG_INFINITY;
    for (i, &a) in verts.iter().enumerate() {
        for &b in &verts[i + 1..] {
            let bw = platform.bandwidth(a, b);
            if bw.is_finite() {
                best = best.max(bw);
            }
        }
    }
    if best.is_finite() {
        best
    } else {
        1.0
    }
}

fn all_vertices(m: usize) -> Vec<Vertex> {
    let mut verts = Vec::with_capacity(m + 2);
    verts.push(Vertex::In);
    verts.push(Vertex::Out);
    verts.extend((0..m).map(|i| Vertex::Proc(ProcId::new(i))));
    verts
}

/// `platform` with every platform constraint whose bit is **cleared** in
/// `mask` relaxed (the bound bit is ignored — it lives in the threshold
/// read, not the platform). Relaxations are monotone: every mapping
/// valid on the base platform stays valid, with no worse latency or
/// reliability, on the relaxed one.
///
/// - [`Constraint::SpeedLimit`] cleared: all speeds become the
///   platform's maximum speed.
/// - [`Constraint::LinkLimit`] cleared: all links get the platform's
///   maximum finite bandwidth (making it comm-homogeneous, which also
///   widens the set of applicable exact backends).
/// - [`Constraint::PlatformSize`] cleared: the processor set is doubled;
///   mirror processor `m + i` copies processor `i`'s speed, failure
///   probability and links (mirror↔original links get the maximum
///   bandwidth). Original mappings use only processors `0 … m−1` and are
///   untouched.
#[must_use]
pub fn relaxed_platform(base: &Platform, mask: u8) -> Platform {
    let keep_speed = mask & Constraint::SpeedLimit.bit() != 0;
    let keep_link = mask & Constraint::LinkLimit.bit() != 0;
    let keep_size = mask & Constraint::PlatformSize.bit() != 0;
    if keep_speed && keep_link && keep_size {
        return base.clone();
    }
    let m = base.n_procs();
    let procs = if keep_size { m } else { m * 2 };
    let top_speed = max_speed(base);
    let speeds: Vec<f64> = (0..procs)
        .map(|i| {
            if keep_speed {
                base.speed(ProcId::new(i % m))
            } else {
                top_speed
            }
        })
        .collect();
    let fps: Vec<f64> = (0..procs)
        .map(|i| base.failure_prob(ProcId::new(i % m)))
        .collect();
    let mut builder = PlatformBuilder::new(procs)
        .speeds(speeds)
        .expect("length matches processor count")
        .failure_probs(fps)
        .expect("length matches processor count");
    let max_bw = max_finite_bandwidth(base);
    if keep_link {
        let verts = all_vertices(procs);
        for (i, &a) in verts.iter().enumerate() {
            for &b in &verts[i + 1..] {
                let (oa, ob) = (original_vertex(a, m), original_vertex(b, m));
                // A mirror and its original collapse onto the (infinite)
                // diagonal; give that link the best real bandwidth instead.
                let bw = if oa == ob {
                    max_bw
                } else {
                    base.bandwidth(oa, ob)
                };
                builder = builder.bandwidth(a, b, bw);
            }
        }
    } else {
        builder = builder.bandwidth_uniform(max_bw);
    }
    builder.build().expect("relaxed platform stays valid")
}

fn original_vertex(v: Vertex, m: usize) -> Vertex {
    match v {
        Vertex::Proc(p) if p.index() >= m => Vertex::Proc(ProcId::new(p.index() - m)),
        other => other,
    }
}

// ---------------------------------------------------------------------------
// The sat oracle
// ---------------------------------------------------------------------------

/// A Pareto front produced by a [`FrontOracle`], with the provenance the
/// completeness contract needs.
#[derive(Clone, Debug)]
pub struct OracleFront {
    /// The front (a sound under-approximation when incomplete).
    pub front: Arc<ParetoFront<IntervalMapping>>,
    /// Whether the front is proven exact — only then does a missing
    /// point prove infeasibility.
    pub complete: bool,
    /// Whether the front was served from a cache rather than solved
    /// (metrics only; never part of the explanation payload, which must
    /// be byte-identical warm or cold).
    pub cached: bool,
}

/// The satisfiability oracle behind [`marco`]: a whole Pareto front per
/// `(pipeline, platform)` pair, so one build answers every subset that
/// shares the platform variant. `variant` is the mask's platform bits
/// (`mask >> 1`, `0 … 7`) — a stable tag implementations may use for
/// labeling; the platform passed in is already relaxed.
pub trait FrontOracle {
    /// The (possibly cached, possibly incomplete) front for the pair.
    fn front(&mut self, pipeline: &Pipeline, platform: &Platform, variant: u8) -> OracleFront;
}

/// The cache-less oracle behind `rpwf explain`: every front is an
/// [`Engine`] front solve under the caller's budget.
pub struct EngineOracle<'a> {
    engine: &'a Engine,
    budget: &'a Budget,
}

impl<'a> EngineOracle<'a> {
    /// An oracle solving through `engine` under `budget`.
    #[must_use]
    pub fn new(engine: &'a Engine, budget: &'a Budget) -> Self {
        EngineOracle { engine, budget }
    }
}

impl FrontOracle for EngineOracle<'_> {
    fn front(&mut self, pipeline: &Pipeline, platform: &Platform, _variant: u8) -> OracleFront {
        let report = self.engine.solve(&SolveRequest {
            pipeline,
            platform,
            want: Want::Front,
            budget: self.budget,
        });
        let complete = report.completeness.exact_complete;
        let front = report
            .front_answer()
            .cloned()
            .unwrap_or_else(|| Arc::new(ParetoFront::new()));
        OracleFront {
            front,
            complete,
            cached: false,
        }
    }
}

// ---------------------------------------------------------------------------
// MARCO enumeration
// ---------------------------------------------------------------------------

/// Everything [`marco`] found: full MUS/MCS enumerations, the base
/// (unrelaxed) front for the relaxation read, and the proof/effort
/// record.
#[derive(Clone, Debug)]
pub struct MarcoOutcome {
    /// Whether the full universe is satisfiable (the query is feasible).
    /// When `true` the MUS/MCS lists are empty.
    pub feasible: bool,
    /// Every minimal unsatisfiable subset, as sorted masks. Each one
    /// always contains [`Constraint::Bound`] (bound-free subsets are
    /// trivially satisfiable).
    pub muses: Vec<u8>,
    /// Every minimal correction set, as sorted masks: relax all members
    /// of any one and the query becomes feasible.
    pub mcses: Vec<u8>,
    /// The base platform's front (always materialized — the full mask is
    /// probed first), for the nearest-feasible relaxation read.
    pub base: OracleFront,
    /// Whether every unsatisfiable verdict was read off a proven-exact
    /// front. When `false` the enumeration is best-effort: MUSes are
    /// candidates, not proven-minimal conflicts.
    pub proven: bool,
    /// Oracle invocations (always < 16, the powerset size).
    pub oracle_calls: u64,
    /// Oracle invocations served from a cache.
    pub oracle_cached: u64,
}

struct SatCache<'a> {
    pipeline: &'a Pipeline,
    platform: &'a Platform,
    objective: Objective,
    oracle: &'a mut dyn FrontOracle,
    memo: [Option<OracleFront>; 8],
    proven: bool,
    calls: u64,
    cached: u64,
}

impl SatCache<'_> {
    fn ensure(&mut self, variant: u8) {
        if self.memo[variant as usize].is_some() {
            return;
        }
        let mask = (variant << 1) | Constraint::Bound.bit();
        let of = if variant == FULL_MASK >> 1 {
            self.oracle.front(self.pipeline, self.platform, variant)
        } else {
            let relaxed = relaxed_platform(self.platform, mask);
            self.oracle.front(self.pipeline, &relaxed, variant)
        };
        self.calls += 1;
        if of.cached {
            self.cached += 1;
        }
        self.memo[variant as usize] = Some(of);
    }

    fn sat(&mut self, mask: u8) -> bool {
        if mask & Constraint::Bound.bit() == 0 {
            // No bound to violate: the reliability extreme (or any
            // mapping at all) satisfies a bound-free subset.
            return true;
        }
        let variant = mask >> 1;
        self.ensure(variant);
        let of = self.memo[variant as usize].as_ref().expect("ensured");
        let found = threshold_read(&of.front, self.objective).is_some();
        let complete = of.complete;
        if !found && !complete {
            // Absence of a point on a cutoff/heuristic front does not
            // prove infeasibility — the verdict (and everything built on
            // it) is best-effort.
            self.proven = false;
        }
        found
    }
}

/// Deterministic map solver: the unexplored subset with the most members
/// (ties to the larger mask). A subset is explored once it is a superset
/// of a known MUS or a subset of a known MSS.
fn next_seed(muses: &[u8], msses: &[u8]) -> Option<u8> {
    let mut order: Vec<u8> = (0..=FULL_MASK).collect();
    order.sort_by_key(|m| (std::cmp::Reverse(m.count_ones()), std::cmp::Reverse(*m)));
    order.into_iter().find(|&m| {
        !muses.iter().any(|&mus| mus & !m == 0) && !msses.iter().any(|&mss| m & !mss == 0)
    })
}

/// Grows a satisfiable seed to a maximal satisfiable subset, trying
/// missing members in ascending bit order (deterministic).
fn grow(seed: u8, sat: &mut SatCache<'_>) -> u8 {
    let mut cur = seed;
    for bit in 0..UNIVERSE_SIZE as u8 {
        let b = 1u8 << bit;
        if cur & b == 0 && sat.sat(cur | b) {
            cur |= b;
        }
    }
    cur
}

/// Shrinks an unsatisfiable seed to a minimal unsatisfiable subset,
/// trying members in ascending bit order (deterministic).
fn shrink(seed: u8, sat: &mut SatCache<'_>) -> u8 {
    let mut cur = seed;
    for bit in 0..UNIVERSE_SIZE as u8 {
        let b = 1u8 << bit;
        if cur & b != 0 && !sat.sat(cur & !b) {
            cur &= !b;
        }
    }
    cur
}

/// MARCO-style enumeration of every MUS and MCS of the query's
/// constraint universe. Deterministic for a deterministic oracle: the
/// map solver, grow and shrink orders are all fixed, so two nodes with
/// byte-identical fronts produce byte-identical outcomes.
pub fn marco(
    pipeline: &Pipeline,
    platform: &Platform,
    objective: Objective,
    oracle: &mut dyn FrontOracle,
) -> MarcoOutcome {
    let mut sat = SatCache {
        pipeline,
        platform,
        objective,
        oracle,
        memo: Default::default(),
        proven: true,
        calls: 0,
        cached: 0,
    };
    // The full universe first: its front is the base platform's (the
    // relaxation read needs it), and its verdict is overall feasibility.
    let feasible = sat.sat(FULL_MASK);
    let mut muses: Vec<u8> = Vec::new();
    let mut mcses: Vec<u8> = Vec::new();
    let mut msses: Vec<u8> = Vec::new();
    if feasible {
        // Every subset of a satisfiable universe is satisfiable: the
        // whole powerset is explored, no conflicts exist.
        msses.push(FULL_MASK);
    } else {
        while let Some(seed) = next_seed(&muses, &msses) {
            if sat.sat(seed) {
                let mss = grow(seed, &mut sat);
                mcses.push(FULL_MASK ^ mss);
                msses.push(mss);
            } else {
                muses.push(shrink(seed, &mut sat));
            }
        }
        muses.sort_unstable();
        mcses.sort_unstable();
    }
    let base = sat.memo[(FULL_MASK >> 1) as usize]
        .clone()
        .expect("full-mask probe materializes the base front");
    MarcoOutcome {
        feasible,
        muses,
        mcses,
        base,
        proven: sat.proven,
        oracle_calls: sat.calls,
        oracle_cached: sat.cached,
    }
}

// ---------------------------------------------------------------------------
// Nearest-feasible relaxation
// ---------------------------------------------------------------------------

/// The nearest feasible point past an infeasible bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NearestPoint {
    /// The point's latency.
    pub latency: f64,
    /// The point's failure probability.
    pub failure_prob: f64,
}

/// The what-if answer for an infeasible bound: which axis to relax and
/// the adjacent staircase point that becomes reachable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Relaxation {
    /// The bounded axis: `"latency"` for a latency bound,
    /// `"failure_prob"` for a reliability bound.
    pub axis: &'static str,
    /// The adjacent feasible point just past the bound (`None` when the
    /// front is empty — nothing to suggest).
    pub nearest: Option<NearestPoint>,
    /// Whether the front read was proven exact. On a best-effort front
    /// the suggestion is an upper bound on the true nearest point.
    pub proven: bool,
}

/// One threshold read per axis on the front the failed solve already
/// built: the adjacent staircase point past the infeasible bound.
#[must_use]
pub fn relaxation(
    front: &ParetoFront<IntervalMapping>,
    complete: bool,
    objective: Objective,
) -> Relaxation {
    let threshold = objective.threshold_with_slack();
    let to_point = |p: &rpwf_core::pareto::ParetoPoint<IntervalMapping>| NearestPoint {
        latency: p.latency,
        failure_prob: p.failure_prob,
    };
    let (axis, nearest) = match objective {
        Objective::MinFpUnderLatency(_) => {
            ("latency", front.nearest_above(threshold).map(to_point))
        }
        Objective::MinLatencyUnderFp(_) => {
            ("failure_prob", front.nearest_below(threshold).map(to_point))
        }
    };
    Relaxation {
        axis,
        nearest,
        proven: complete,
    }
}

// ---------------------------------------------------------------------------
// The assembled explanation
// ---------------------------------------------------------------------------

/// A complete infeasibility explanation: why the query failed (MUSes),
/// what to relax (MCSes), and the nearest feasible what-if.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The explained objective.
    pub objective: Objective,
    /// The constraint universe, indexed by the MUS/MCS member indices.
    pub universe: Vec<ConstraintInfo>,
    /// Whether the query is feasible as posed (then the MUS/MCS lists
    /// are empty and there is nothing to explain).
    pub feasible: bool,
    /// Minimal unsatisfiable subsets, as sorted indices into
    /// [`Explanation::universe`].
    pub muses: Vec<Vec<usize>>,
    /// Minimal correction sets, as sorted indices into
    /// [`Explanation::universe`].
    pub mcses: Vec<Vec<usize>>,
    /// The nearest-feasible what-if (`None` when feasible).
    pub relaxation: Option<Relaxation>,
    /// Whether every infeasibility verdict was proven (see
    /// [`MarcoOutcome::proven`]). Best-effort explanations must never be
    /// presented as minimal-proven.
    pub proven: bool,
    /// Oracle invocations the enumeration spent (metrics only — not part
    /// of the wire explanation, which is identical warm or cold).
    pub oracle_calls: u64,
    /// Oracle invocations served from a cache (metrics only).
    pub oracle_cached: u64,
}

/// The member indices of a subset mask, ascending.
#[must_use]
pub fn mask_indices(mask: u8) -> Vec<usize> {
    (0..UNIVERSE_SIZE)
        .filter(|&i| mask & (1 << i) != 0)
        .collect()
}

/// Shapes a [`MarcoOutcome`] into the [`Explanation`] every consumer
/// (wire payload, CLI rendering) shares.
#[must_use]
pub fn assemble(objective: Objective, platform: &Platform, outcome: &MarcoOutcome) -> Explanation {
    let relaxation = (!outcome.feasible)
        .then(|| relaxation(&outcome.base.front, outcome.base.complete, objective));
    Explanation {
        objective,
        universe: universe(objective, platform),
        feasible: outcome.feasible,
        muses: outcome.muses.iter().map(|&m| mask_indices(m)).collect(),
        mcses: outcome.mcses.iter().map(|&m| mask_indices(m)).collect(),
        relaxation,
        proven: outcome.proven,
        oracle_calls: outcome.oracle_calls,
        oracle_cached: outcome.oracle_cached,
    }
}

/// Runs the full pipeline — MARCO enumeration, relaxation read,
/// assembly — against a caller-provided oracle.
#[must_use]
pub fn explain(
    pipeline: &Pipeline,
    platform: &Platform,
    objective: Objective,
    oracle: &mut dyn FrontOracle,
) -> Explanation {
    let outcome = marco(pipeline, platform, objective, oracle);
    assemble(objective, platform, &outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::with_default_backends(1)
    }

    fn sat_of(pipeline: &Pipeline, platform: &Platform, objective: Objective, mask: u8) -> bool {
        let engine = engine();
        let budget = Budget::unlimited();
        let mut oracle = EngineOracle::new(&engine, &budget);
        let mut sat = SatCache {
            pipeline,
            platform,
            objective,
            oracle: &mut oracle,
            memo: Default::default(),
            proven: true,
            calls: 0,
            cached: 0,
        };
        sat.sat(mask)
    }

    #[test]
    fn feasible_query_explains_as_feasible() {
        let pipeline = rpwf_gen::figure5_pipeline();
        let platform = rpwf_gen::figure5_platform();
        let engine = engine();
        let budget = Budget::unlimited();
        let mut oracle = EngineOracle::new(&engine, &budget);
        let explanation = explain(
            &pipeline,
            &platform,
            Objective::MinFpUnderLatency(22.0),
            &mut oracle,
        );
        assert!(explanation.feasible);
        assert!(explanation.muses.is_empty() && explanation.mcses.is_empty());
        assert!(explanation.relaxation.is_none());
        assert!(explanation.proven);
        assert_eq!(
            explanation.oracle_calls, 1,
            "one probe settles a sat universe"
        );
    }

    #[test]
    fn impossible_bound_yields_the_singleton_relaxations() {
        // A latency bound below even the doubled/uncapped platform's reach:
        // the bound conflicts with everything, so {bound} alone... is
        // satisfiable only bound-free; every MUS must contain the bound.
        let pipeline = Pipeline::uniform(2, 100.0, 100.0).unwrap();
        let platform = Platform::fully_homogeneous(3, 1.0, 1.0, 0.9).unwrap();
        let objective = Objective::MinFpUnderLatency(1.0);
        let engine = engine();
        let budget = Budget::unlimited();
        let mut oracle = EngineOracle::new(&engine, &budget);
        let explanation = explain(&pipeline, &platform, objective, &mut oracle);
        assert!(!explanation.feasible);
        assert!(
            explanation.proven,
            "small exact instance proves its verdicts"
        );
        assert!(!explanation.muses.is_empty());
        for mus in &explanation.muses {
            assert!(mus.contains(&0), "every MUS contains the bound: {mus:?}");
        }
        // The relaxation names the latency axis and a real nearest point.
        let relaxation = explanation.relaxation.expect("infeasible → what-if");
        assert_eq!(relaxation.axis, "latency");
        let nearest = relaxation.nearest.expect("non-empty base front");
        assert!(nearest.latency > 1.0);
        assert!(
            explanation.oracle_calls < 16,
            "enumeration beats the powerset: {}",
            explanation.oracle_calls
        );
    }

    #[test]
    fn muses_are_unsat_and_minimal_mcses_correct() {
        let pipeline = Pipeline::uniform(3, 10.0, 5.0).unwrap();
        let platform = Platform::comm_homogeneous(vec![1.0, 2.0], 2.0, vec![0.1, 0.2]).unwrap();
        let objective = Objective::MinFpUnderLatency(4.0);
        let engine = engine();
        let budget = Budget::unlimited();
        let mut oracle = EngineOracle::new(&engine, &budget);
        let explanation = explain(&pipeline, &platform, objective, &mut oracle);
        if explanation.feasible {
            return; // nothing to check on this instance
        }
        for mus in &explanation.muses {
            let mask = mus.iter().fold(0u8, |m, &i| m | (1 << i));
            assert!(!sat_of(&pipeline, &platform, objective, mask));
            for &i in mus {
                assert!(
                    sat_of(&pipeline, &platform, objective, mask & !(1 << i)),
                    "dropping member {i} must make the MUS satisfiable"
                );
            }
        }
        for mcs in &explanation.mcses {
            let mask = mcs.iter().fold(0u8, |m, &i| m | (1 << i));
            assert!(
                sat_of(&pipeline, &platform, objective, FULL_MASK & !mask),
                "relaxing an MCS must make the query feasible"
            );
        }
    }

    #[test]
    fn relaxed_platforms_are_monotone_supersets() {
        let platform = rpwf_gen::figure5_platform();
        let m = platform.n_procs();
        // Speed relaxation: every processor at the max speed.
        let fast = relaxed_platform(&platform, FULL_MASK & !Constraint::SpeedLimit.bit());
        assert_eq!(fast.n_procs(), m);
        let top = platform
            .speeds()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(fast.speeds().iter().all(|&s| s == top));
        // Size relaxation: doubled, mirrors copy their originals.
        let wide = relaxed_platform(&platform, FULL_MASK & !Constraint::PlatformSize.bit());
        assert_eq!(wide.n_procs(), 2 * m);
        for i in 0..m {
            assert_eq!(
                wide.speed(ProcId::new(m + i)),
                platform.speed(ProcId::new(i))
            );
            assert_eq!(
                wide.failure_prob(ProcId::new(m + i)),
                platform.failure_prob(ProcId::new(i))
            );
        }
        // Link relaxation: comm-homogeneous at the max bandwidth.
        let linked = relaxed_platform(&platform, FULL_MASK & !Constraint::LinkLimit.bit());
        assert!(linked.uniform_bandwidth().is_some());
        // Full mask: byte-identical platform.
        assert_eq!(
            serde_json::to_string(&relaxed_platform(&platform, FULL_MASK)).unwrap(),
            serde_json::to_string(&platform).unwrap()
        );
    }

    #[test]
    fn mask_indices_are_ascending_bit_positions() {
        assert_eq!(mask_indices(0b1011), vec![0, 1, 3]);
        assert_eq!(mask_indices(0), Vec::<usize>::new());
        assert_eq!(mask_indices(FULL_MASK), vec![0, 1, 2, 3]);
    }
}
