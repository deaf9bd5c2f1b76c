//! Neighborhood moves on interval mappings, shared by the local-search and
//! annealing heuristics.
//!
//! A neighbor differs from the current mapping by exactly one structural
//! move. The move set is closed over the validity constraints (contiguous
//! cover, non-empty disjoint allocations), so every produced mapping is
//! valid by construction:
//!
//! 1. **shift** an interval boundary left/right by one stage,
//! 2. **merge** two adjacent intervals (pooling their replicas),
//! 3. **split** an interval between two stages, dividing its replica set,
//! 4. **grow** an interval's replica set with an unused processor,
//! 5. **shrink** a replica set (drop one replica, if ≥ 2 remain),
//! 6. **swap** a replica for an unused processor,
//! 7. **migrate** a replica from one interval to another.
//!
//! Two enumeration forms exist:
//!
//! * [`MoveStream`] — the fast path: a lazy, allocation-free cursor over
//!   [`Move`] descriptors evaluated in place against a
//!   [`DeltaEval`] (apply → score → revert), used by the heuristics;
//! * [`neighbors`] — the materializing reference: every neighbor cloned
//!   out as a full `IntervalMapping`. Kept as the ground truth the stream
//!   is property-tested against, and as the baseline the E15 experiment
//!   measures the incremental engine's speedup over.
//!
//! The stream yields moves in **exactly** the order `neighbors` produces
//! them (and [`move_count`] equals `neighbors(..).len()`), so porting a
//! solver from one form to the other cannot change its search trajectory.

use rand::seq::SliceRandom;
use rand::Rng;
use rpwf_core::eval::{DeltaEval, Move};
use rpwf_core::mapping::{Interval, IntervalMapping};
use rpwf_core::platform::ProcId;

/// Lazy cursor over the neighborhood of a [`DeltaEval`] state. Holds no
/// borrow and allocates nothing: call [`next`](Self::next) with the
/// evaluator between applications. The evaluator must be back in the
/// cursor's base state (apply followed by revert, or no move at all)
/// whenever `next` is called.
#[derive(Clone, Copy, Debug, Default)]
pub struct MoveStream {
    phase: u8,
    j: usize,
    r: usize,
    sub: usize,
}

impl MoveStream {
    /// A cursor positioned before the first move.
    #[must_use]
    pub fn new() -> Self {
        MoveStream::default()
    }

    /// The next move, in the canonical neighborhood order.
    pub fn next(&mut self, de: &DeltaEval) -> Option<Move> {
        let p = de.n_intervals();
        let nf = de.free().len();
        loop {
            match self.phase {
                // 1. Boundary shifts: per boundary, right shift then left.
                0 => {
                    while self.j + 1 < p {
                        if self.sub == 0 {
                            self.sub = 1;
                            if de.interval(self.j + 1).len() >= 2 {
                                return Some(Move::ShiftRight { j: self.j });
                            }
                        }
                        if self.sub == 1 {
                            self.sub = 2;
                            if de.interval(self.j).len() >= 2 {
                                return Some(Move::ShiftLeft { j: self.j });
                            }
                        }
                        self.j += 1;
                        self.sub = 0;
                    }
                    self.advance_phase();
                }
                // 2. Merges.
                1 => {
                    if self.j + 1 < p {
                        let j = self.j;
                        self.j += 1;
                        return Some(Move::Merge { j });
                    }
                    self.advance_phase();
                }
                // 3. Splits (≥ 2 stages and ≥ 2 replicas).
                2 => {
                    while self.j < p {
                        let iv = de.interval(self.j);
                        if iv.len() >= 2 && de.alloc(self.j).len() >= 2 {
                            let cut = iv.start() + self.sub;
                            if cut < iv.end() {
                                self.sub += 1;
                                return Some(Move::Split { j: self.j, cut });
                            }
                        }
                        self.j += 1;
                        self.sub = 0;
                    }
                    self.advance_phase();
                }
                // 4. Grow with a free processor.
                3 => {
                    while self.j < p {
                        if self.sub < nf {
                            let proc = de.free()[self.sub];
                            self.sub += 1;
                            return Some(Move::Grow { j: self.j, proc });
                        }
                        self.j += 1;
                        self.sub = 0;
                    }
                    self.advance_phase();
                }
                // 5. Shrink (≥ 2 replicas).
                4 => {
                    while self.j < p {
                        let k = de.alloc(self.j).len();
                        if k >= 2 && self.sub < k {
                            let r = self.sub;
                            self.sub += 1;
                            return Some(Move::Shrink { j: self.j, r });
                        }
                        self.j += 1;
                        self.sub = 0;
                    }
                    self.advance_phase();
                }
                // 6. Swap used ↔ free.
                5 => {
                    while self.j < p {
                        if self.r < de.alloc(self.j).len() {
                            if self.sub < nf {
                                let proc = de.free()[self.sub];
                                self.sub += 1;
                                return Some(Move::Swap {
                                    j: self.j,
                                    r: self.r,
                                    proc,
                                });
                            }
                            self.r += 1;
                            self.sub = 0;
                            continue;
                        }
                        self.j += 1;
                        self.r = 0;
                        self.sub = 0;
                    }
                    self.advance_phase();
                }
                // 7. Migrate a replica between intervals.
                6 => {
                    while self.j < p {
                        let k = de.alloc(self.j).len();
                        if k >= 2 && self.r < k {
                            while self.sub < p {
                                let to = self.sub;
                                self.sub += 1;
                                if to != self.j {
                                    return Some(Move::Migrate {
                                        j: self.j,
                                        r: self.r,
                                        to,
                                    });
                                }
                            }
                            self.r += 1;
                            self.sub = 0;
                            continue;
                        }
                        self.j += 1;
                        self.r = 0;
                        self.sub = 0;
                    }
                    self.advance_phase();
                }
                _ => return None,
            }
        }
    }

    fn advance_phase(&mut self) {
        self.phase += 1;
        self.j = 0;
        self.r = 0;
        self.sub = 0;
    }
}

/// Boundary shifts at boundary `j` (right, then left).
fn shifts_at(de: &DeltaEval, j: usize) -> usize {
    if j + 1 < de.n_intervals() {
        usize::from(de.interval(j + 1).len() >= 2) + usize::from(de.interval(j).len() >= 2)
    } else {
        0
    }
}

/// Replicas of interval `j` that may leave it (it keeps at least one).
fn movable_at(de: &DeltaEval, j: usize) -> usize {
    match de.alloc(j).len() {
        k if k >= 2 => k,
        _ => 0,
    }
}

/// Splits of interval `j` (≥ 2 stages and ≥ 2 replicas).
fn splits_at(de: &DeltaEval, j: usize) -> usize {
    if movable_at(de, j) > 0 {
        de.interval(j).len() - 1
    } else {
        0
    }
}

/// Moves [`MoveStream`] yields in each of its seven phases (shift, merge,
/// split, grow, shrink, swap, migrate), in O(p) arithmetic.
fn phase_counts(de: &DeltaEval) -> [usize; 7] {
    let p = de.n_intervals();
    let nf = de.free().len();
    let mut counts = [0, p.saturating_sub(1), 0, p * nf, 0, 0, 0];
    for j in 0..p {
        counts[0] += shifts_at(de, j);
        counts[2] += splits_at(de, j);
        counts[4] += movable_at(de, j);
        counts[5] += de.alloc(j).len() * nf;
    }
    counts[6] = counts[4] * (p - 1);
    counts
}

/// Of `p` consecutive blocks, block `j` holding `size(j)` moves: the
/// block holding move `rest`, and the offset into it.
fn locate(p: usize, mut rest: usize, size: impl Fn(usize) -> usize) -> (usize, usize) {
    for j in 0..p {
        let block = size(j);
        if rest < block {
            return (j, rest);
        }
        rest -= block;
    }
    unreachable!("the counts cover the index")
}

/// Number of moves [`MoveStream`] will yield from this state — equals
/// `neighbors(&de.mapping(), m).len()`, in O(p) arithmetic.
#[must_use]
pub fn move_count(de: &DeltaEval) -> usize {
    phase_counts(de).iter().sum()
}

/// The `idx`-th move of the stream (`idx < move_count`), in O(p): the
/// per-phase counts give the phase, the same per-interval counts the
/// move within it.
///
/// # Panics
/// When `idx` is out of range.
#[must_use]
pub fn nth_move(de: &DeltaEval, idx: usize) -> Move {
    let counts = phase_counts(de);
    let total: usize = counts.iter().sum();
    assert!(
        idx < total,
        "nth_move: index {idx} out of range ({total} moves)"
    );
    let (phase, rest) = locate(counts.len(), idx, |phase| counts[phase]);
    let p = de.n_intervals();
    let free = de.free();
    let nf = free.len();
    match phase {
        0 => {
            let (j, at) = locate(p, rest, |j| shifts_at(de, j));
            if at == 0 && de.interval(j + 1).len() >= 2 {
                Move::ShiftRight { j }
            } else {
                Move::ShiftLeft { j }
            }
        }
        1 => Move::Merge { j: rest },
        2 => {
            let (j, at) = locate(p, rest, |j| splits_at(de, j));
            Move::Split {
                j,
                cut: de.interval(j).start() + at,
            }
        }
        3 => Move::Grow {
            j: rest / nf,
            proc: free[rest % nf],
        },
        4 => {
            let (j, r) = locate(p, rest, |j| movable_at(de, j));
            Move::Shrink { j, r }
        }
        5 => {
            let (j, at) = locate(p, rest, |j| de.alloc(j).len() * nf);
            Move::Swap {
                j,
                r: at / nf,
                proc: free[at % nf],
            }
        }
        _ => {
            let (j, at) = locate(p, rest, |j| movable_at(de, j) * (p - 1));
            let (r, to) = (at / (p - 1), at % (p - 1));
            Move::Migrate {
                j,
                r,
                // Every interval but `j` itself, in order.
                to: if to < j { to } else { to + 1 },
            }
        }
    }
}

/// One uniformly chosen move (the streaming equivalent of
/// [`random_neighbor`]) in O(p); `None` when the state has no neighbor.
/// Consumes the same RNG draws as `random_neighbor` — one `gen_range`
/// when moves exist, nothing otherwise — so seeded solvers keep their
/// trajectories when ported between the two forms.
#[must_use]
pub fn random_move<R: Rng + ?Sized>(de: &DeltaEval, rng: &mut R) -> Option<Move> {
    let count = move_count(de);
    if count == 0 {
        return None;
    }
    Some(nth_move(de, rng.gen_range(0..count)))
}

/// All single-move neighbors of `mapping` on an `n_procs` platform.
///
/// Materializing reference enumeration: O(n·m) cloned mappings per call.
/// Solvers use [`MoveStream`] + [`DeltaEval`] instead; this form remains
/// the property-test oracle and the E15 baseline.
#[must_use]
pub fn neighbors(mapping: &IntervalMapping, n_procs: usize) -> Vec<IntervalMapping> {
    let mut out = Vec::new();
    let n = mapping.n_stages();
    let p = mapping.n_intervals();
    let used = mapping.used_processors();
    let free: Vec<ProcId> = (0..n_procs)
        .map(ProcId::new)
        .filter(|pid| used.binary_search(pid).is_err())
        .collect();

    let intervals = mapping.intervals().to_vec();
    let alloc: Vec<Vec<ProcId>> = (0..p).map(|j| mapping.alloc(j).to_vec()).collect();

    let rebuild = |ivs: Vec<Interval>, al: Vec<Vec<ProcId>>| -> Option<IntervalMapping> {
        IntervalMapping::new(ivs, al, n, n_procs).ok()
    };

    // 1. Boundary shifts.
    for j in 0..p.saturating_sub(1) {
        let (a, b) = (intervals[j], intervals[j + 1]);
        // Shift right: move first stage of b into a.
        if b.len() >= 2 {
            let mut ivs = intervals.clone();
            ivs[j] = Interval::new(a.start(), a.end() + 1).expect("grows right");
            ivs[j + 1] = Interval::new(b.start() + 1, b.end()).expect("shrinks left");
            out.extend(rebuild(ivs, alloc.clone()));
        }
        // Shift left: move last stage of a into b.
        if a.len() >= 2 {
            let mut ivs = intervals.clone();
            ivs[j] = Interval::new(a.start(), a.end() - 1).expect("shrinks right");
            ivs[j + 1] = Interval::new(b.start() - 1, b.end()).expect("grows left");
            out.extend(rebuild(ivs, alloc.clone()));
        }
    }

    // 2. Merges.
    for j in 0..p.saturating_sub(1) {
        let mut ivs = Vec::with_capacity(p - 1);
        let mut al = Vec::with_capacity(p - 1);
        for i in 0..p {
            if i == j {
                ivs.push(
                    Interval::new(intervals[j].start(), intervals[j + 1].end())
                        .expect("adjacent merge"),
                );
                al.push([alloc[j].as_slice(), alloc[j + 1].as_slice()].concat());
            } else if i != j + 1 {
                ivs.push(intervals[i]);
                al.push(alloc[i].clone());
            }
        }
        out.extend(rebuild(ivs, al));
    }

    // 3. Splits (replica set divided; needs ≥ 2 replicas and ≥ 2 stages).
    for j in 0..p {
        let iv = intervals[j];
        if iv.len() < 2 || alloc[j].len() < 2 {
            continue;
        }
        for cut in iv.start()..iv.end() {
            let mut ivs = Vec::with_capacity(p + 1);
            let mut al = Vec::with_capacity(p + 1);
            for i in 0..p {
                if i == j {
                    ivs.push(Interval::new(iv.start(), cut).expect("cut in range"));
                    ivs.push(Interval::new(cut + 1, iv.end()).expect("cut in range"));
                    let half = alloc[j].len() / 2;
                    al.push(alloc[j][..half].to_vec());
                    al.push(alloc[j][half..].to_vec());
                } else {
                    ivs.push(intervals[i]);
                    al.push(alloc[i].clone());
                }
            }
            out.extend(rebuild(ivs, al));
        }
    }

    // 4. Grow with a free processor.
    for j in 0..p {
        for &f in &free {
            let mut al = alloc.clone();
            al[j].push(f);
            out.extend(rebuild(intervals.clone(), al));
        }
    }

    // 5. Shrink.
    for j in 0..p {
        if alloc[j].len() < 2 {
            continue;
        }
        for r in 0..alloc[j].len() {
            let mut al = alloc.clone();
            al[j].remove(r);
            out.extend(rebuild(intervals.clone(), al));
        }
    }

    // 6. Swap used ↔ free.
    for j in 0..p {
        for r in 0..alloc[j].len() {
            for &f in &free {
                let mut al = alloc.clone();
                al[j][r] = f;
                out.extend(rebuild(intervals.clone(), al));
            }
        }
    }

    // 7. Migrate a replica between intervals.
    for j in 0..p {
        if alloc[j].len() < 2 {
            continue;
        }
        for r in 0..alloc[j].len() {
            for j2 in 0..p {
                if j2 == j {
                    continue;
                }
                let mut al = alloc.clone();
                let moved = al[j].remove(r);
                al[j2].push(moved);
                out.extend(rebuild(intervals.clone(), al));
            }
        }
    }

    out
}

/// One uniformly chosen neighbor (for annealing); `None` when the mapping
/// has no neighbor (single stage, single processor platform).
#[must_use]
pub fn random_neighbor<R: Rng + ?Sized>(
    mapping: &IntervalMapping,
    n_procs: usize,
    rng: &mut R,
) -> Option<IntervalMapping> {
    let all = neighbors(mapping, n_procs);
    all.choose(rng).cloned()
}

/// A uniformly random valid interval mapping: random boundary mask (capped
/// at `m` parts), random processor subset and deal.
#[must_use]
pub fn random_mapping<R: Rng + ?Sized>(
    n_stages: usize,
    n_procs: usize,
    rng: &mut R,
) -> IntervalMapping {
    // Random partition.
    let mut intervals = Vec::new();
    let mut start = 0usize;
    for i in 0..n_stages - 1 {
        // Bias toward few intervals: boundary probability 1/3.
        if intervals.len() + 1 < n_procs && rng.gen_bool(1.0 / 3.0) {
            intervals.push(Interval::new(start, i).expect("ordered"));
            start = i + 1;
        }
    }
    intervals.push(Interval::new(start, n_stages - 1).expect("ordered"));
    let p = intervals.len();

    // Random processor deal: shuffle, take a random count ≥ p, round-robin.
    let mut procs: Vec<ProcId> = (0..n_procs).map(ProcId::new).collect();
    procs.shuffle(rng);
    let used = rng.gen_range(p..=n_procs);
    let mut alloc: Vec<Vec<ProcId>> = vec![Vec::new(); p];
    for (i, &pid) in procs[..used].iter().enumerate() {
        alloc[i % p].push(pid);
    }
    IntervalMapping::new(intervals, alloc, n_stages, n_procs)
        .expect("constructed to satisfy all constraints")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    fn sample_mapping() -> IntervalMapping {
        IntervalMapping::new(
            vec![Interval::new(0, 1).unwrap(), Interval::new(2, 3).unwrap()],
            vec![vec![p(0), p(1)], vec![p(2)]],
            4,
            5,
        )
        .unwrap()
    }

    #[test]
    fn all_neighbors_are_valid_and_distinct_from_origin() {
        let m = sample_mapping();
        let ns = neighbors(&m, 5);
        assert!(!ns.is_empty());
        for nb in &ns {
            assert_eq!(nb.n_stages(), 4);
            assert_ne!(nb, &m);
        }
    }

    #[test]
    fn move_types_are_represented() {
        let m = sample_mapping();
        let ns = neighbors(&m, 5);
        // merge present: 1 interval
        assert!(ns.iter().any(|nb| nb.n_intervals() == 1));
        // split present: 3 intervals (interval 0 has 2 stages + 2 replicas)
        assert!(ns.iter().any(|nb| nb.n_intervals() == 3));
        // grow: some neighbor uses 4 processors
        assert!(ns.iter().any(|nb| nb.total_replicas() == 4));
        // shrink: some neighbor uses 2 processors
        assert!(ns.iter().any(|nb| nb.total_replicas() == 2));
        // swap: P3 or P4 appear
        assert!(
            ns.iter()
                .any(|nb| nb.used_processors().contains(&p(3))
                    || nb.used_processors().contains(&p(4)))
        );
        // boundary shift: some 2-interval neighbor with different boundary
        assert!(ns
            .iter()
            .any(|nb| nb.n_intervals() == 2 && nb.interval(0).end() != 1));
    }

    #[test]
    fn single_stage_single_proc_has_no_neighbors() {
        let m = IntervalMapping::single_interval(1, vec![p(0)], 1).unwrap();
        assert!(neighbors(&m, 1).is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_neighbor(&m, 1, &mut rng).is_none());
    }

    #[test]
    fn random_mappings_are_valid_and_diverse() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut interval_counts = std::collections::HashSet::new();
        for _ in 0..100 {
            let m = random_mapping(5, 6, &mut rng);
            assert_eq!(m.n_stages(), 5);
            interval_counts.insert(m.n_intervals());
        }
        assert!(interval_counts.len() > 1, "partitions should vary");
    }

    #[test]
    fn random_mapping_single_proc_platform() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = random_mapping(4, 1, &mut rng);
        assert_eq!(m.n_intervals(), 1);
        assert_eq!(m.total_replicas(), 1);
    }

    #[test]
    fn stream_matches_materialized_neighbors() {
        let pipe = rpwf_core::stage::Pipeline::uniform(4, 1.0, 1.0).unwrap();
        let pf = rpwf_core::platform::Platform::fully_homogeneous(5, 1.0, 1.0, 0.3).unwrap();
        let ctx = rpwf_core::eval::EvalContext::new(&pipe, &pf);
        let m = sample_mapping();
        let mut de = rpwf_core::eval::DeltaEval::new(&ctx, &m);
        let materialized = neighbors(&m, 5);
        assert_eq!(move_count(&de), materialized.len());
        let mut stream = MoveStream::new();
        let mut i = 0usize;
        while let Some(mv) = stream.next(&de) {
            de.apply(mv);
            assert_eq!(
                de.mapping(),
                materialized[i],
                "move {i} ({mv:?}) must produce neighbors()[{i}]"
            );
            de.revert();
            i += 1;
        }
        assert_eq!(i, materialized.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `nth_move` indexes the stream directly: over random mappings
        /// on FH, CH and het platforms, its `i`-th move is the stream
        /// walk's, for every `i`.
        #[test]
        fn nth_move_is_the_stream_walks_move(
            seed in 0u64..u64::MAX,
            class in 0usize..3,
            n in 1usize..9,
            m in 1usize..8,
        ) {
            use rpwf_core::platform::{FailureClass, PlatformClass};
            // One processor is homogeneous whatever the class.
            let (class, failure) = if m == 1 {
                (PlatformClass::FullyHomogeneous, FailureClass::Homogeneous)
            } else {
                let classes = [
                    PlatformClass::FullyHomogeneous,
                    PlatformClass::CommHomogeneous,
                    PlatformClass::FullyHeterogeneous,
                ];
                (classes[class], FailureClass::Heterogeneous)
            };
            let inst = rpwf_gen::make_instance(class, failure, n, m, seed);
            let ctx = rpwf_core::eval::EvalContext::new(&inst.pipeline, &inst.platform);
            let mut rng = StdRng::seed_from_u64(seed);
            let mapping = random_mapping(n, m, &mut rng);
            let de = rpwf_core::eval::DeltaEval::new(&ctx, &mapping);
            let mut stream = MoveStream::new();
            let mut i = 0usize;
            while let Some(mv) = stream.next(&de) {
                proptest::prop_assert_eq!(nth_move(&de, i), mv, "move {}", i);
                i += 1;
            }
            proptest::prop_assert_eq!(move_count(&de), i);
        }
    }

    #[test]
    fn random_move_matches_random_neighbor_stream() {
        let pipe = rpwf_core::stage::Pipeline::uniform(4, 1.0, 1.0).unwrap();
        let pf = rpwf_core::platform::Platform::fully_homogeneous(5, 1.0, 1.0, 0.3).unwrap();
        let ctx = rpwf_core::eval::EvalContext::new(&pipe, &pf);
        let m = sample_mapping();
        let mut de = rpwf_core::eval::DeltaEval::new(&ctx, &m);
        for seed in 0..20u64 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let nb = random_neighbor(&m, 5, &mut rng_a).expect("has neighbors");
            let mv = random_move(&de, &mut rng_b).expect("has moves");
            de.apply(mv);
            assert_eq!(de.mapping(), nb, "same seed must pick the same neighbor");
            de.revert();
        }
    }

    #[test]
    fn neighbor_closure_reaches_multi_interval_shapes() {
        // From the single-interval mapping, two moves suffice to reach a
        // split mapping — the search space is connected enough.
        let m = IntervalMapping::single_interval(3, vec![p(0), p(1)], 3).unwrap();
        let first = neighbors(&m, 3);
        assert!(first.iter().any(|nb| nb.n_intervals() == 2));
    }
}
