//! Incremental evaluation of interval mappings: O(touched-terms) delta
//! scoring for neighborhood moves instead of full O(n·p·k²) re-evaluation.
//!
//! Both objectives decompose per interval:
//!
//! * equation-(2) latency is `input_comm + Σ_j t_j` with
//!   `t_j = max_{u∈alloc(j)} [W_j/s_u + Σ_{v∈next(j)} δ_{e_j}/b_{u,v}]`,
//! * log-success-probability is `Σ_j ln(1 − Π_{u∈alloc(j)} fp_u)`.
//!
//! A structural move (merge, split, boundary shift, grow/shrink/swap
//! replica, migrate replica) touches at most four latency terms and two
//! log terms, so [`DeltaEval`] recomputes only those and re-runs the O(p)
//! final summation — orders of magnitude cheaper than re-evaluating a
//! materialized neighbor when `n·m` is large.
//!
//! **Exactness contract:** the per-interval terms are computed by the same
//! shared functions the full formulas use ([`crate::metrics::interval_cost`],
//! [`crate::metrics::input_comm_cost`], and the log-space survival fold), and the
//! final summations replay the exact same floating-point operation
//! sequence as [`crate::metrics::latency_eq2_breakdown`] /
//! [`crate::metrics::log_success_probability`]. Delta-evaluated scores are
//! therefore **bit-identical** to full recomputation — property-tested in
//! `rpwf-algo`'s proptest suite after every apply/revert — which is what
//! lets the heuristics adopt the fast path without changing any result.
//!
//! [`EvalContext`] additionally caches per-processor `ln fp_u` terms and
//! platform-wide bound ingredients (max speed, cheapest I/O links) reused
//! by the branch-and-bound lower bounds and the DP solvers.

use crate::mapping::{Interval, IntervalMapping};
use crate::metrics::{input_comm_cost, interval_cost};
use crate::num::{kahan_sum, LogProb};
use crate::platform::{Platform, ProcId, Vertex};
use crate::stage::Pipeline;

/// Both objective values of one mapping state, as maintained by
/// [`DeltaEval`]. Failure probability is derived from the log-space
/// success probability exactly like
/// [`metrics::failure_probability`](crate::metrics::failure_probability).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scores {
    /// Worst-case latency (equation (2)).
    pub latency: f64,
    /// `ln Π_j (1 − Π_{u∈alloc(j)} fp_u)`.
    pub ln_success: f64,
}

impl Scores {
    /// Global failure probability `1 − e^{ln_success}`, stably.
    #[inline]
    #[must_use]
    pub fn failure_prob(self) -> f64 {
        -(self.ln_success.exp_m1())
    }
}

/// Immutable per-instance context: the pipeline's prefix sums (borrowed),
/// cached per-processor failure terms, and platform-wide bound
/// ingredients.
#[derive(Clone, Debug)]
pub struct EvalContext<'a> {
    pipeline: &'a Pipeline,
    platform: &'a Platform,
    /// `ln fp_u` per processor (log-space failure probability).
    ln_fp: Vec<f64>,
    /// Fastest speed on the platform.
    s_max: f64,
    /// `min_u δ_0/b_{in,u}` — cheapest possible input communication.
    min_input_comm: f64,
    /// `min_u δ_n/b_{u,out}` — cheapest possible output communication.
    min_output_comm: f64,
}

impl<'a> EvalContext<'a> {
    /// Builds the context (O(m)).
    #[must_use]
    pub fn new(pipeline: &'a Pipeline, platform: &'a Platform) -> Self {
        let ln_fp: Vec<f64> = platform
            .procs()
            .map(|u| LogProb::from_prob(platform.failure_prob(u)).ln())
            .collect();
        let s_max = platform
            .speeds()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let min_input_comm = platform
            .procs()
            .map(|u| platform.comm_time(Vertex::In, Vertex::Proc(u), pipeline.input_size()))
            .fold(f64::INFINITY, f64::min);
        let min_output_comm = platform
            .procs()
            .map(|u| platform.comm_time(Vertex::Proc(u), Vertex::Out, pipeline.output_size()))
            .fold(f64::INFINITY, f64::min);
        EvalContext {
            pipeline,
            platform,
            ln_fp,
            s_max,
            min_input_comm,
            min_output_comm,
        }
    }

    /// The pipeline.
    #[inline]
    #[must_use]
    pub fn pipeline(&self) -> &'a Pipeline {
        self.pipeline
    }

    /// The platform.
    #[inline]
    #[must_use]
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// Cached `ln fp_u`.
    #[inline]
    #[must_use]
    pub fn ln_failure(&self, u: ProcId) -> f64 {
        self.ln_fp[u.index()]
    }

    /// `Σ_{k∈[start,end]} w_k` via the pipeline prefix sums, O(1).
    #[inline]
    #[must_use]
    pub fn work(&self, start: usize, end: usize) -> f64 {
        self.pipeline.work_sum(start, end)
    }

    /// Total work of stages `stage..n`, O(1); zero when `stage == n`.
    #[inline]
    #[must_use]
    pub fn suffix_work(&self, stage: usize) -> f64 {
        let n = self.pipeline.n_stages();
        if stage >= n {
            0.0
        } else {
            self.pipeline.work_sum(stage, n - 1)
        }
    }

    /// Fastest processor speed on the platform.
    #[inline]
    #[must_use]
    pub fn max_speed(&self) -> f64 {
        self.s_max
    }

    /// Cheapest `P_in → P_u` transfer of the pipeline input — a sound
    /// lower bound on any mapping's input communication.
    #[inline]
    #[must_use]
    pub fn min_input_comm(&self) -> f64 {
        self.min_input_comm
    }

    /// Cheapest `P_u → P_out` transfer of the pipeline output — a sound
    /// lower bound on any mapping's final communication.
    #[inline]
    #[must_use]
    pub fn min_output_comm(&self) -> f64 {
        self.min_output_comm
    }

    /// Log-space survival term of one interval,
    /// `ln(1 − Π_{u∈procs} fp_u)`, using the cached `ln fp_u`. Replays the
    /// exact operation sequence of
    /// [`metrics::log_success_probability`](crate::metrics::log_success_probability).
    #[must_use]
    pub fn ln_survival(&self, procs: &[ProcId]) -> f64 {
        let mut ln_all_fail = 0.0f64;
        for &u in procs {
            ln_all_fail += self.ln_fp[u.index()];
        }
        LogProb::from_ln(ln_all_fail).one_minus().ln()
    }

    /// One-pass full evaluation of a mapping — bit-identical to
    /// [`metrics::latency`](crate::metrics::latency) +
    /// [`metrics::log_success_probability`](crate::metrics::log_success_probability),
    /// but computes both objectives in a single traversal with the cached
    /// per-processor terms.
    #[must_use]
    pub fn evaluate(&self, mapping: &IntervalMapping) -> Scores {
        let p = mapping.n_intervals();
        let input = input_comm_cost(mapping.alloc(0), self.pipeline.input_size(), self.platform);
        let latency = input
            + kahan_sum((0..p).map(|j| {
                let iv = mapping.interval(j);
                let next = if j + 1 < p {
                    Some(mapping.alloc(j + 1))
                } else {
                    None
                };
                let c = interval_cost(
                    self.pipeline.interval_work(iv),
                    self.pipeline.interval_output(iv),
                    mapping.alloc(j),
                    next,
                    self.platform,
                );
                c.compute + c.out_comm
            }));
        let mut ln_success = 0.0f64;
        for j in 0..p {
            ln_success += self.ln_survival(mapping.alloc(j));
        }
        Scores {
            latency,
            ln_success,
        }
    }
}

/// A neighborhood move on an interval mapping, identified positionally
/// against the current [`DeltaEval`] state. The set mirrors the classic
/// 7-move neighborhood: boundary shifts, merge, split, replica
/// grow/shrink/swap, and replica migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Move {
    /// Move the first stage of interval `j+1` into interval `j`
    /// (requires `j+1` to have ≥ 2 stages).
    ShiftRight {
        /// Left interval of the shifted boundary.
        j: usize,
    },
    /// Move the last stage of interval `j` into interval `j+1`
    /// (requires `j` to have ≥ 2 stages).
    ShiftLeft {
        /// Left interval of the shifted boundary.
        j: usize,
    },
    /// Merge intervals `j` and `j+1`, pooling their replica sets.
    Merge {
        /// Left interval of the merged pair.
        j: usize,
    },
    /// Split interval `j` after stage `cut`, dealing the first
    /// `⌊k/2⌋` replicas to the left half (requires ≥ 2 stages and ≥ 2
    /// replicas).
    Split {
        /// The split interval.
        j: usize,
        /// Last stage (inclusive) of the left half; `start ≤ cut < end`.
        cut: usize,
    },
    /// Add the unused processor `proc` to interval `j`'s replica set.
    Grow {
        /// Target interval.
        j: usize,
        /// A currently free processor.
        proc: ProcId,
    },
    /// Drop replica at position `r` of interval `j` (requires ≥ 2
    /// replicas).
    Shrink {
        /// Target interval.
        j: usize,
        /// Index into the sorted replica list.
        r: usize,
    },
    /// Replace replica `r` of interval `j` with the unused processor
    /// `proc`.
    Swap {
        /// Target interval.
        j: usize,
        /// Index into the sorted replica list.
        r: usize,
        /// A currently free processor.
        proc: ProcId,
    },
    /// Move replica `r` of interval `j` into interval `to` (requires
    /// interval `j` to keep ≥ 1 replica).
    Migrate {
        /// Source interval (must have ≥ 2 replicas).
        j: usize,
        /// Index into the source's sorted replica list.
        r: usize,
        /// Destination interval (`≠ j`).
        to: usize,
    },
}

/// What [`DeltaEval::revert`] must do to undo the last structural change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum UndoKind {
    /// No move pending.
    #[default]
    None,
    /// Allocation lists changed in place; restore the saved one(s).
    Plain,
    /// A merge removed the allocation at `b_idx`; re-insert it.
    Merged,
    /// A split inserted an allocation after `a_idx`; remove it.
    Split,
}

/// Scratch buffers capturing the pre-move state. All vectors keep their
/// capacity across moves, so a warm [`DeltaEval`] applies and reverts
/// without heap allocation.
#[derive(Clone, Debug, Default)]
struct UndoState {
    kind: UndoKind,
    intervals: Vec<Interval>,
    cost_terms: Vec<f64>,
    ln_terms: Vec<f64>,
    free: Vec<ProcId>,
    input_comm: f64,
    latency: f64,
    ln_success: f64,
    /// First saved allocation (`usize::MAX` = unused).
    a_idx: usize,
    a: Vec<ProcId>,
    /// Second saved allocation (`usize::MAX` = unused).
    b_idx: usize,
    b: Vec<ProcId>,
}

/// Incremental evaluator: a mutable mapping state with cached
/// per-interval objective terms, supporting in-place [`apply`](Self::apply) /
/// [`revert`](Self::revert) of any [`Move`] with exact (bit-identical) scores.
///
/// Protocol: after [`apply`](Self::apply), call either
/// [`revert`](Self::revert) (restore the pre-move state) or
/// [`accept`](Self::accept) (keep the move) before applying the next
/// move.
#[derive(Clone, Debug)]
pub struct DeltaEval<'a> {
    ctx: &'a EvalContext<'a>,
    intervals: Vec<Interval>,
    alloc: Vec<Vec<ProcId>>,
    /// Unused processors, sorted by id.
    free: Vec<ProcId>,
    /// Per-interval latency terms `t_j = compute + out_comm` of the
    /// bottleneck replica.
    cost_terms: Vec<f64>,
    /// Per-interval log-survival terms.
    ln_terms: Vec<f64>,
    input_comm: f64,
    latency: f64,
    ln_success: f64,
    undo: UndoState,
    /// Recycled allocation vectors (avoids allocation on merge/split).
    spare: Vec<Vec<ProcId>>,
}

impl<'a> DeltaEval<'a> {
    /// Builds the evaluator positioned on `mapping` (full evaluation).
    #[must_use]
    pub fn new(ctx: &'a EvalContext<'a>, mapping: &IntervalMapping) -> Self {
        let mut de = DeltaEval {
            ctx,
            intervals: Vec::new(),
            alloc: Vec::new(),
            free: Vec::new(),
            cost_terms: Vec::new(),
            ln_terms: Vec::new(),
            input_comm: 0.0,
            latency: 0.0,
            ln_success: 0.0,
            undo: UndoState {
                a_idx: usize::MAX,
                b_idx: usize::MAX,
                ..UndoState::default()
            },
            spare: Vec::new(),
        };
        de.reset(mapping);
        de
    }

    /// Repositions the evaluator on a new mapping, reusing buffers.
    pub fn reset(&mut self, mapping: &IntervalMapping) {
        let m = self.ctx.platform.n_procs();
        self.intervals.clear();
        self.intervals.extend_from_slice(mapping.intervals());
        // Reuse allocation vectors where possible.
        while self.alloc.len() > mapping.n_intervals() {
            let mut v = self.alloc.pop().expect("len checked");
            v.clear();
            self.spare.push(v);
        }
        while self.alloc.len() < mapping.n_intervals() {
            self.alloc.push(self.spare.pop().unwrap_or_default());
        }
        let mut used = vec![false; m];
        for (j, dst) in self.alloc.iter_mut().enumerate() {
            dst.clear();
            dst.extend_from_slice(mapping.alloc(j));
            for &u in dst.iter() {
                used[u.index()] = true;
            }
        }
        self.free.clear();
        self.free
            .extend((0..m).filter(|&i| !used[i]).map(ProcId::new));
        self.undo.kind = UndoKind::None;
        self.recompute_all();
    }

    /// Full recomputation of every cached term and both totals.
    fn recompute_all(&mut self) {
        let p = self.intervals.len();
        self.cost_terms.clear();
        self.ln_terms.clear();
        for j in 0..p {
            let t = self.cost_term(j);
            self.cost_terms.push(t);
            self.ln_terms.push(self.ctx.ln_survival(&self.alloc[j]));
        }
        self.input_comm = input_comm_cost(
            &self.alloc[0],
            self.ctx.pipeline.input_size(),
            self.ctx.platform,
        );
        self.resum();
    }

    /// The latency term of interval `j` in the current state.
    fn cost_term(&self, j: usize) -> f64 {
        let iv = self.intervals[j];
        let next = if j + 1 < self.intervals.len() {
            Some(self.alloc[j + 1].as_slice())
        } else {
            None
        };
        let c = interval_cost(
            self.ctx.pipeline.interval_work(iv),
            self.ctx.pipeline.interval_output(iv),
            &self.alloc[j],
            next,
            self.ctx.platform,
        );
        c.compute + c.out_comm
    }

    /// Recomputes the totals from the cached terms — the same operation
    /// sequence as the full formulas (Kahan over latency terms, plain
    /// left-to-right sum over log terms), so totals stay bit-identical.
    fn resum(&mut self) {
        self.latency = self.input_comm + kahan_sum(self.cost_terms.iter().copied());
        let mut ln = 0.0f64;
        for &t in &self.ln_terms {
            ln += t;
        }
        self.ln_success = ln;
    }

    /// Current scores.
    #[inline]
    #[must_use]
    pub fn scores(&self) -> Scores {
        Scores {
            latency: self.latency,
            ln_success: self.ln_success,
        }
    }

    /// Current worst-case latency.
    #[inline]
    #[must_use]
    pub fn latency(&self) -> f64 {
        self.latency
    }

    /// Current log-success probability.
    #[inline]
    #[must_use]
    pub fn ln_success(&self) -> f64 {
        self.ln_success
    }

    /// Current failure probability.
    #[inline]
    #[must_use]
    pub fn failure_prob(&self) -> f64 {
        self.scores().failure_prob()
    }

    /// Number of intervals `p`.
    #[inline]
    #[must_use]
    pub fn n_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Number of stages `n`.
    #[inline]
    #[must_use]
    pub fn n_stages(&self) -> usize {
        self.intervals.last().map_or(0, |iv| iv.end() + 1)
    }

    /// The `j`-th interval.
    #[inline]
    #[must_use]
    pub fn interval(&self, j: usize) -> Interval {
        self.intervals[j]
    }

    /// Replica set of interval `j` (sorted by id).
    #[inline]
    #[must_use]
    pub fn alloc(&self, j: usize) -> &[ProcId] {
        &self.alloc[j]
    }

    /// Unused processors, sorted by id.
    #[inline]
    #[must_use]
    pub fn free(&self) -> &[ProcId] {
        &self.free
    }

    /// Clones the current state out as a validated [`IntervalMapping`].
    #[must_use]
    pub fn mapping(&self) -> IntervalMapping {
        IntervalMapping::new(
            self.intervals.clone(),
            self.alloc.clone(),
            self.n_stages(),
            self.ctx.platform.n_procs(),
        )
        .expect("DeltaEval maintains mapping validity")
    }

    /// Applies `mv` in place and returns the new scores. Only the touched
    /// intervals' terms are recomputed; the totals are re-summed in O(p).
    ///
    /// # Panics
    /// When a previous move is still pending (neither reverted nor
    /// accepted), or when `mv` is invalid for the current state.
    pub fn apply(&mut self, mv: Move) -> Scores {
        assert!(
            self.undo.kind == UndoKind::None,
            "apply: previous move neither reverted nor accepted"
        );
        // Snapshot the cheap state wholesale (≤ p or m copies each).
        self.undo.intervals.clear();
        self.undo.intervals.extend_from_slice(&self.intervals);
        self.undo.cost_terms.clear();
        self.undo.cost_terms.extend_from_slice(&self.cost_terms);
        self.undo.ln_terms.clear();
        self.undo.ln_terms.extend_from_slice(&self.ln_terms);
        self.undo.free.clear();
        self.undo.free.extend_from_slice(&self.free);
        self.undo.input_comm = self.input_comm;
        self.undo.latency = self.latency;
        self.undo.ln_success = self.ln_success;
        self.undo.a_idx = usize::MAX;
        self.undo.b_idx = usize::MAX;

        // Dirty latency-term indices (post-mutation numbering).
        let mut dirty = [usize::MAX; 4];
        let mut n_dirty = 0usize;
        fn mark(idx: usize, dirty: &mut [usize; 4], n_dirty: &mut usize) {
            if !dirty[..*n_dirty].contains(&idx) {
                dirty[*n_dirty] = idx;
                *n_dirty += 1;
            }
        }
        let mut input_dirty = false;

        match mv {
            Move::ShiftRight { j } => {
                let (a, b) = (self.intervals[j], self.intervals[j + 1]);
                debug_assert!(b.len() >= 2, "shift right needs a donor stage");
                self.intervals[j] = Interval::new(a.start(), a.end() + 1).expect("grows right");
                self.intervals[j + 1] =
                    Interval::new(b.start() + 1, b.end()).expect("shrinks left");
                self.undo.kind = UndoKind::Plain;
                mark(j, &mut dirty, &mut n_dirty);
                mark(j + 1, &mut dirty, &mut n_dirty);
            }
            Move::ShiftLeft { j } => {
                let (a, b) = (self.intervals[j], self.intervals[j + 1]);
                debug_assert!(a.len() >= 2, "shift left needs a donor stage");
                self.intervals[j] = Interval::new(a.start(), a.end() - 1).expect("shrinks right");
                self.intervals[j + 1] = Interval::new(b.start() - 1, b.end()).expect("grows left");
                self.undo.kind = UndoKind::Plain;
                mark(j, &mut dirty, &mut n_dirty);
                mark(j + 1, &mut dirty, &mut n_dirty);
            }
            Move::Merge { j } => {
                self.save_alloc_a(j);
                self.save_alloc_b(j + 1);
                let (a, b) = (self.intervals[j], self.intervals[j + 1]);
                self.intervals[j] = Interval::new(a.start(), b.end()).expect("adjacent merge");
                self.intervals.remove(j + 1);
                let mut removed = self.alloc.remove(j + 1);
                self.alloc[j].extend_from_slice(&removed);
                self.alloc[j].sort_unstable();
                removed.clear();
                self.spare.push(removed);
                self.cost_terms.remove(j + 1);
                self.ln_terms.remove(j + 1);
                self.undo.kind = UndoKind::Merged;
                mark(j, &mut dirty, &mut n_dirty);
                if j > 0 {
                    mark(j - 1, &mut dirty, &mut n_dirty);
                }
                self.ln_terms[j] = self.ctx.ln_survival(&self.alloc[j]);
                input_dirty = j == 0;
            }
            Move::Split { j, cut } => {
                self.save_alloc_a(j);
                let iv = self.intervals[j];
                debug_assert!(iv.start() <= cut && cut < iv.end(), "cut inside interval");
                debug_assert!(self.alloc[j].len() >= 2, "split needs ≥ 2 replicas");
                self.intervals[j] = Interval::new(iv.start(), cut).expect("cut in range");
                self.intervals.insert(
                    j + 1,
                    Interval::new(cut + 1, iv.end()).expect("cut in range"),
                );
                let half = self.alloc[j].len() / 2;
                let mut second = self.spare.pop().unwrap_or_default();
                second.extend_from_slice(&self.alloc[j][half..]);
                self.alloc[j].truncate(half);
                self.alloc.insert(j + 1, second);
                self.cost_terms.insert(j + 1, 0.0);
                self.ln_terms.insert(j + 1, 0.0);
                self.undo.kind = UndoKind::Split;
                mark(j, &mut dirty, &mut n_dirty);
                mark(j + 1, &mut dirty, &mut n_dirty);
                if j > 0 {
                    mark(j - 1, &mut dirty, &mut n_dirty);
                }
                self.ln_terms[j] = self.ctx.ln_survival(&self.alloc[j]);
                self.ln_terms[j + 1] = self.ctx.ln_survival(&self.alloc[j + 1]);
                input_dirty = j == 0;
            }
            Move::Grow { j, proc } => {
                self.save_alloc_a(j);
                self.take_free(proc);
                Self::insert_sorted(&mut self.alloc[j], proc);
                self.undo.kind = UndoKind::Plain;
                mark(j, &mut dirty, &mut n_dirty);
                if j > 0 {
                    mark(j - 1, &mut dirty, &mut n_dirty);
                }
                self.ln_terms[j] = self.ctx.ln_survival(&self.alloc[j]);
                input_dirty = j == 0;
            }
            Move::Shrink { j, r } => {
                debug_assert!(self.alloc[j].len() >= 2, "shrink keeps ≥ 1 replica");
                self.save_alloc_a(j);
                let dropped = self.alloc[j].remove(r);
                Self::insert_sorted(&mut self.free, dropped);
                self.undo.kind = UndoKind::Plain;
                mark(j, &mut dirty, &mut n_dirty);
                if j > 0 {
                    mark(j - 1, &mut dirty, &mut n_dirty);
                }
                self.ln_terms[j] = self.ctx.ln_survival(&self.alloc[j]);
                input_dirty = j == 0;
            }
            Move::Swap { j, r, proc } => {
                self.save_alloc_a(j);
                self.take_free(proc);
                let out = self.alloc[j].remove(r);
                Self::insert_sorted(&mut self.alloc[j], proc);
                Self::insert_sorted(&mut self.free, out);
                self.undo.kind = UndoKind::Plain;
                mark(j, &mut dirty, &mut n_dirty);
                if j > 0 {
                    mark(j - 1, &mut dirty, &mut n_dirty);
                }
                self.ln_terms[j] = self.ctx.ln_survival(&self.alloc[j]);
                input_dirty = j == 0;
            }
            Move::Migrate { j, r, to } => {
                debug_assert!(j != to, "migrate needs distinct intervals");
                debug_assert!(self.alloc[j].len() >= 2, "migrate keeps ≥ 1 replica");
                self.save_alloc_a(j);
                self.save_alloc_b(to);
                let moved = self.alloc[j].remove(r);
                Self::insert_sorted(&mut self.alloc[to], moved);
                self.undo.kind = UndoKind::Plain;
                mark(j, &mut dirty, &mut n_dirty);
                if j > 0 {
                    mark(j - 1, &mut dirty, &mut n_dirty);
                }
                mark(to, &mut dirty, &mut n_dirty);
                if to > 0 {
                    mark(to - 1, &mut dirty, &mut n_dirty);
                }
                self.ln_terms[j] = self.ctx.ln_survival(&self.alloc[j]);
                self.ln_terms[to] = self.ctx.ln_survival(&self.alloc[to]);
                input_dirty = j == 0 || to == 0;
            }
        }

        for &j in &dirty[..n_dirty] {
            self.cost_terms[j] = self.cost_term(j);
        }
        if input_dirty {
            self.input_comm = input_comm_cost(
                &self.alloc[0],
                self.ctx.pipeline.input_size(),
                self.ctx.platform,
            );
        }
        self.resum();
        self.scores()
    }

    /// Restores the state from before the last [`apply`](Self::apply),
    /// bit-for-bit.
    ///
    /// # Panics
    /// When no move is pending.
    pub fn revert(&mut self) {
        let kind = self.undo.kind;
        assert!(kind != UndoKind::None, "revert: no move pending");
        match kind {
            UndoKind::None => unreachable!(),
            UndoKind::Plain => {
                if self.undo.a_idx != usize::MAX {
                    let j = self.undo.a_idx;
                    self.alloc[j].clear();
                    self.alloc[j].extend_from_slice(&self.undo.a);
                }
                if self.undo.b_idx != usize::MAX {
                    let j = self.undo.b_idx;
                    self.alloc[j].clear();
                    self.alloc[j].extend_from_slice(&self.undo.b);
                }
            }
            UndoKind::Merged => {
                let j = self.undo.a_idx;
                self.alloc[j].clear();
                self.alloc[j].extend_from_slice(&self.undo.a);
                let mut second = self.spare.pop().unwrap_or_default();
                second.extend_from_slice(&self.undo.b);
                self.alloc.insert(j + 1, second);
            }
            UndoKind::Split => {
                let j = self.undo.a_idx;
                self.alloc[j].clear();
                self.alloc[j].extend_from_slice(&self.undo.a);
                let mut removed = self.alloc.remove(j + 1);
                removed.clear();
                self.spare.push(removed);
            }
        }
        self.intervals.clear();
        self.intervals.extend_from_slice(&self.undo.intervals);
        self.cost_terms.clear();
        self.cost_terms.extend_from_slice(&self.undo.cost_terms);
        self.ln_terms.clear();
        self.ln_terms.extend_from_slice(&self.undo.ln_terms);
        self.free.clear();
        self.free.extend_from_slice(&self.undo.free);
        self.input_comm = self.undo.input_comm;
        self.latency = self.undo.latency;
        self.ln_success = self.undo.ln_success;
        self.undo.kind = UndoKind::None;
    }

    /// Keeps the last applied move (drops the undo state).
    ///
    /// # Panics
    /// When no move is pending.
    pub fn accept(&mut self) {
        assert!(self.undo.kind != UndoKind::None, "accept: no move pending");
        self.undo.kind = UndoKind::None;
    }

    fn save_alloc_a(&mut self, j: usize) {
        self.undo.a_idx = j;
        self.undo.a.clear();
        self.undo.a.extend_from_slice(&self.alloc[j]);
    }

    fn save_alloc_b(&mut self, j: usize) {
        self.undo.b_idx = j;
        self.undo.b.clear();
        self.undo.b.extend_from_slice(&self.alloc[j]);
    }

    /// Removes `proc` from the free list.
    fn take_free(&mut self, proc: ProcId) {
        let pos = self
            .free
            .binary_search(&proc)
            .expect("grow/swap processor must be free");
        self.free.remove(pos);
    }

    /// Sorted insertion (keeps replica lists and the free list ordered,
    /// matching the canonical order of `IntervalMapping::new`).
    fn insert_sorted(list: &mut Vec<ProcId>, proc: ProcId) {
        let pos = list.binary_search(&proc).unwrap_err();
        list.insert(pos, proc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{failure_probability, latency, log_success_probability};
    use crate::platform::PlatformBuilder;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    /// Figure-5-like instance: 1 slow reliable + fast unreliable procs.
    fn fig5() -> (Pipeline, Platform) {
        let pipe = Pipeline::new(vec![1.0, 100.0], vec![10.0, 1.0, 0.0]).unwrap();
        let mut speeds = vec![100.0; 6];
        speeds[0] = 1.0;
        let mut fps = vec![0.8; 6];
        fps[0] = 0.1;
        let pf = Platform::comm_homogeneous(speeds, 1.0, fps).unwrap();
        (pipe, pf)
    }

    fn het() -> (Pipeline, Platform) {
        let pipe = Pipeline::new(vec![3.0, 1.0, 4.0, 1.0], vec![5.0, 9.0, 2.0, 6.0, 5.0]).unwrap();
        let pf = PlatformBuilder::new(5)
            .speeds(vec![2.0, 1.0, 3.0, 1.5, 2.5])
            .unwrap()
            .failure_probs(vec![0.1, 0.3, 0.5, 0.2, 0.4])
            .unwrap()
            .bandwidth(Vertex::Proc(p(0)), Vertex::Proc(p(1)), 2.0)
            .bandwidth(Vertex::Proc(p(2)), Vertex::Proc(p(4)), 0.5)
            .input_bandwidth(p(0), 4.0)
            .output_bandwidth(p(1), 8.0)
            .build()
            .unwrap();
        (pipe, pf)
    }

    fn sample_mapping() -> IntervalMapping {
        IntervalMapping::new(
            vec![Interval::new(0, 1).unwrap(), Interval::new(2, 3).unwrap()],
            vec![vec![p(0), p(3)], vec![p(1), p(2), p(4)]],
            4,
            5,
        )
        .unwrap()
    }

    fn assert_state_exact(de: &DeltaEval, pipe: &Pipeline, pf: &Platform) {
        let mapping = de.mapping();
        assert_eq!(
            de.latency().to_bits(),
            latency(&mapping, pipe, pf).to_bits(),
            "latency must be bit-identical to the full formula"
        );
        assert_eq!(
            de.ln_success().to_bits(),
            log_success_probability(&mapping, pf).to_bits(),
            "ln success must be bit-identical to the full formula"
        );
        assert_eq!(
            de.failure_prob().to_bits(),
            failure_probability(&mapping, pf).to_bits()
        );
    }

    #[test]
    fn evaluate_matches_metrics_bitwise() {
        let (pipe, pf) = het();
        let ctx = EvalContext::new(&pipe, &pf);
        let m = sample_mapping();
        let s = ctx.evaluate(&m);
        assert_eq!(s.latency.to_bits(), latency(&m, &pipe, &pf).to_bits());
        assert_eq!(
            s.ln_success.to_bits(),
            log_success_probability(&m, &pf).to_bits()
        );
        assert_eq!(
            s.failure_prob().to_bits(),
            failure_probability(&m, &pf).to_bits()
        );
    }

    #[test]
    fn every_move_kind_applies_and_reverts_exactly() {
        let (pipe, pf) = het();
        let ctx = EvalContext::new(&pipe, &pf);
        let base = sample_mapping();
        let moves = [
            Move::ShiftRight { j: 0 },
            Move::ShiftLeft { j: 0 },
            Move::Merge { j: 0 },
            Move::Split { j: 1, cut: 2 },
            Move::Shrink { j: 1, r: 1 },
            Move::Migrate { j: 1, r: 0, to: 0 },
        ];
        for mv in moves {
            let mut de = DeltaEval::new(&ctx, &base);
            let before = de.scores();
            let s = de.apply(mv);
            assert_state_exact(&de, &pipe, &pf);
            assert_eq!(s, de.scores());
            de.revert();
            assert_eq!(de.scores(), before, "revert must restore scores for {mv:?}");
            assert_eq!(de.mapping(), base, "revert must restore the mapping");
            assert_state_exact(&de, &pipe, &pf);
        }
    }

    #[test]
    fn grow_and_swap_track_the_free_list() {
        let (pipe, pf) = fig5();
        let ctx = EvalContext::new(&pipe, &pf);
        let base = IntervalMapping::new(
            vec![Interval::singleton(0), Interval::singleton(1)],
            vec![vec![p(0)], vec![p(1), p(2)]],
            2,
            6,
        )
        .unwrap();
        let mut de = DeltaEval::new(&ctx, &base);
        assert_eq!(de.free(), &[p(3), p(4), p(5)]);
        de.apply(Move::Grow { j: 1, proc: p(4) });
        assert_state_exact(&de, &pipe, &pf);
        assert_eq!(de.free(), &[p(3), p(5)]);
        de.accept();
        de.apply(Move::Swap {
            j: 1,
            r: 0,
            proc: p(3),
        });
        assert_state_exact(&de, &pipe, &pf);
        assert_eq!(de.free(), &[p(1), p(5)]);
        de.revert();
        assert_eq!(de.free(), &[p(3), p(5)]);
        assert_state_exact(&de, &pipe, &pf);
    }

    #[test]
    fn accepted_chains_stay_exact() {
        let (pipe, pf) = het();
        let ctx = EvalContext::new(&pipe, &pf);
        let mut de = DeltaEval::new(&ctx, &sample_mapping());
        for mv in [
            Move::ShiftRight { j: 0 },
            Move::Migrate { j: 1, r: 2, to: 0 },
            Move::Merge { j: 0 },
            Move::Split { j: 0, cut: 1 },
        ] {
            de.apply(mv);
            de.accept();
            assert_state_exact(&de, &pipe, &pf);
        }
    }

    #[test]
    fn reset_reuses_buffers() {
        let (pipe, pf) = fig5();
        let ctx = EvalContext::new(&pipe, &pf);
        let a = IntervalMapping::single_interval(2, vec![p(0), p(1)], 6).unwrap();
        let b = IntervalMapping::new(
            vec![Interval::singleton(0), Interval::singleton(1)],
            vec![vec![p(0)], vec![p(2), p(3), p(4)]],
            2,
            6,
        )
        .unwrap();
        let mut de = DeltaEval::new(&ctx, &a);
        assert_state_exact(&de, &pipe, &pf);
        de.reset(&b);
        assert_eq!(de.mapping(), b);
        assert_state_exact(&de, &pipe, &pf);
    }

    #[test]
    #[should_panic(expected = "previous move neither reverted nor accepted")]
    fn double_apply_panics() {
        let (pipe, pf) = het();
        let ctx = EvalContext::new(&pipe, &pf);
        let mut de = DeltaEval::new(&ctx, &sample_mapping());
        de.apply(Move::Merge { j: 0 });
        de.apply(Move::ShiftLeft { j: 0 });
    }

    #[test]
    fn context_bound_helpers() {
        let (pipe, pf) = het();
        let ctx = EvalContext::new(&pipe, &pf);
        assert_eq!(ctx.max_speed(), 3.0);
        assert_eq!(ctx.suffix_work(0), pipe.work_sum(0, 3));
        assert_eq!(ctx.suffix_work(4), 0.0);
        // min input comm: δ0 = 5, best input bandwidth is 4.0 on P0.
        assert_eq!(ctx.min_input_comm(), 5.0 / 4.0);
        // min output comm: δ4 = 5, best output bandwidth is 8.0 on P1.
        assert_eq!(ctx.min_output_comm(), 5.0 / 8.0);
        let lnf = ctx.ln_failure(p(2));
        assert_eq!(lnf, 0.5f64.ln());
    }
}
