//! Bi-objective (latency × failure probability) Pareto fronts.
//!
//! Both bi-criteria problems of the paper — "minimize FP subject to
//! latency ≤ L" and "minimize latency subject to FP ≤ F" — are answered by
//! the same object: the set of non-dominated `(latency, FP)` pairs. The
//! exact solvers build fronts and the threshold queries
//! ([`ParetoFront::min_fp_under_latency`],
//! [`ParetoFront::min_latency_under_fp`]) read the answers off them.
//!
//! Dominance is weak-minimization in both coordinates: `a` dominates `b`
//! when `a.latency ≤ b.latency` and `a.failure_prob ≤ b.failure_prob` and
//! `a ≠ b` in at least one coordinate. Duplicates keep the incumbent.

use serde::{Deserialize, Serialize};

/// A candidate solution with both objectives and an arbitrary payload
/// (typically the mapping that achieves it).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint<T> {
    /// Worst-case latency of the solution.
    pub latency: f64,
    /// Global failure probability of the solution.
    pub failure_prob: f64,
    /// The solution itself.
    pub payload: T,
}

impl<T> ParetoPoint<T> {
    /// `true` when `self` weakly dominates `other` (and differs somewhere).
    #[must_use]
    pub fn dominates<U>(&self, other: &ParetoPoint<U>) -> bool {
        self.latency <= other.latency
            && self.failure_prob <= other.failure_prob
            && (self.latency < other.latency || self.failure_prob < other.failure_prob)
    }
}

/// A set of mutually non-dominated points, kept sorted by increasing
/// latency (hence strictly decreasing failure probability).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoFront<T> {
    points: Vec<ParetoPoint<T>>,
}

impl<T> Default for ParetoFront<T> {
    fn default() -> Self {
        ParetoFront { points: Vec::new() }
    }
}

impl<T> ParetoFront<T> {
    /// An empty front.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of points on the front.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no point has been accepted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, sorted by increasing latency.
    #[must_use]
    pub fn points(&self) -> &[ParetoPoint<T>] {
        &self.points
    }

    /// Iterator over the points in latency order.
    pub fn iter(&self) -> impl Iterator<Item = &ParetoPoint<T>> {
        self.points.iter()
    }

    /// Offers a candidate. Returns `true` when it joins the front (possibly
    /// evicting dominated incumbents), `false` when an incumbent dominates
    /// or duplicates it.
    ///
    /// Coordinates must not be NaN. Model values never are: instances are
    /// validated when they are decoded or built.
    pub fn insert(&mut self, latency: f64, failure_prob: f64, payload: T) -> bool {
        self.insert_with(latency, failure_prob, || payload)
    }

    /// [`insert`](Self::insert) that builds the payload only when the
    /// candidate joins the front, so callers offering many candidates pay
    /// for the few that survive. A rejection costs one binary search.
    /// Returns `true` exactly when `payload` was called.
    ///
    /// Coordinates must not be NaN (see [`insert`](Self::insert)).
    pub fn insert_with(
        &mut self,
        latency: f64,
        failure_prob: f64,
        payload: impl FnOnce() -> T,
    ) -> bool {
        // FP strictly decreases along the latency-sorted points, so of
        // the points with latency ≤ the candidate's the last has the
        // lowest FP: the candidate is dominated or duplicated exactly
        // when that FP is ≤ its own.
        let at_most = self.points.partition_point(|q| q.latency <= latency);
        if at_most > 0 && self.points[at_most - 1].failure_prob <= failure_prob {
            return false;
        }
        let candidate = ParetoPoint {
            latency,
            failure_prob,
            payload: payload(),
        };
        self.points
            .retain(|existing| !candidate.dominates(existing));
        let pos = self
            .points
            .partition_point(|q| q.latency.total_cmp(&candidate.latency).is_lt());
        self.points.insert(pos, candidate);
        true
    }

    /// Absorbs every point of `other`.
    pub fn merge(&mut self, other: ParetoFront<T>) {
        for pt in other.points {
            self.insert(pt.latency, pt.failure_prob, pt.payload);
        }
    }

    /// Best (lowest) failure probability achievable with latency ≤ `l`.
    #[must_use]
    pub fn min_fp_under_latency(&self, l: f64) -> Option<&ParetoPoint<T>> {
        // Sorted by latency asc and fp strictly desc: the *last* point with
        // latency ≤ l has the smallest fp.
        let idx = self.points.partition_point(|q| q.latency <= l);
        idx.checked_sub(1).map(|i| &self.points[i])
    }

    /// Best (lowest) latency achievable with failure probability ≤ `fp`.
    #[must_use]
    pub fn min_latency_under_fp(&self, fp: f64) -> Option<&ParetoPoint<T>> {
        // fp decreases along the vector: the first point with fp ≤ bound has
        // the smallest latency.
        self.points.iter().find(|q| q.failure_prob <= fp)
    }

    /// The adjacent staircase point just past an infeasible latency
    /// bound: among points with latency **strictly greater** than `l`,
    /// the one with the smallest latency. This is the nearest feasible
    /// relaxation when [`min_fp_under_latency`](Self::min_fp_under_latency)
    /// returns `None`. `None` when no point lies above the bound (or the
    /// bound is NaN).
    #[must_use]
    pub fn nearest_above(&self, l: f64) -> Option<&ParetoPoint<T>> {
        if l.is_nan() {
            return None;
        }
        // Sorted by latency asc: the first point past the `≤ l` prefix.
        let idx = self.points.partition_point(|q| q.latency <= l);
        self.points.get(idx)
    }

    /// The adjacent staircase point just past an infeasible
    /// failure-probability bound: among points with failure probability
    /// **strictly greater** than `fp`, the one with the smallest failure
    /// probability. This is the nearest feasible relaxation when
    /// [`min_latency_under_fp`](Self::min_latency_under_fp) returns
    /// `None`. `None` when no point lies above the bound (or the bound
    /// is NaN).
    #[must_use]
    pub fn nearest_below(&self, fp: f64) -> Option<&ParetoPoint<T>> {
        if fp.is_nan() {
            return None;
        }
        // fp strictly decreases along the latency-sorted points, so the
        // `> fp` points form a prefix; its last element has the smallest
        // failure probability among them.
        let idx = self.points.partition_point(|q| q.failure_prob > fp);
        idx.checked_sub(1).map(|i| &self.points[i])
    }

    /// Vectorized [`min_fp_under_latency`](Self::min_fp_under_latency):
    /// answers every bound of the **ascending-sorted** `bounds` in one
    /// sweep over the front — O(k + len) instead of k binary searches.
    /// Each answer is identical to the corresponding point query.
    ///
    /// # Panics
    /// When `bounds` is not sorted ascending (NaN-tolerant total order).
    #[must_use]
    pub fn min_fp_under_latency_batch(&self, bounds: &[f64]) -> Vec<Option<&ParetoPoint<T>>> {
        assert!(
            bounds.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "latency bounds must be sorted ascending"
        );
        let mut out = Vec::with_capacity(bounds.len());
        // `idx` = number of points with latency ≤ bound; monotone in the
        // bound, so the cursor only ever advances.
        let mut idx = 0usize;
        for &l in bounds {
            if l.is_nan() {
                // Nothing satisfies a NaN bound — same as the point query.
                out.push(None);
                continue;
            }
            while idx < self.points.len() && self.points[idx].latency <= l {
                idx += 1;
            }
            out.push(idx.checked_sub(1).map(|i| &self.points[i]));
        }
        out
    }

    /// Vectorized [`min_latency_under_fp`](Self::min_latency_under_fp):
    /// answers every bound of the **descending-sorted** `bounds` in one
    /// sweep over the front (failure probability decreases along the
    /// latency-sorted points, so descending FP bounds advance the same
    /// forward cursor). Each answer is identical to the point query.
    ///
    /// # Panics
    /// When `bounds` is not sorted descending.
    #[must_use]
    pub fn min_latency_under_fp_batch(&self, bounds: &[f64]) -> Vec<Option<&ParetoPoint<T>>> {
        assert!(
            bounds.windows(2).all(|w| w[0].total_cmp(&w[1]).is_ge()),
            "failure-probability bounds must be sorted descending"
        );
        let mut out = Vec::with_capacity(bounds.len());
        // First point with fp ≤ bound; tighter (smaller) bounds only move
        // the cursor forward.
        let mut idx = 0usize;
        for &fp in bounds {
            if fp.is_nan() {
                // Nothing satisfies a NaN bound — same as the point query.
                out.push(None);
                continue;
            }
            while idx < self.points.len() && self.points[idx].failure_prob > fp {
                idx += 1;
            }
            out.push(self.points.get(idx));
        }
        out
    }

    /// Consumes the front, returning the sorted points.
    #[must_use]
    pub fn into_points(self) -> Vec<ParetoPoint<T>> {
        self.points
    }

    /// The points in latency order, split into chunks of at most `size`
    /// points — the unit of the serving layer's `front_part` streaming,
    /// which bounds per-response memory by the chunk size instead of the
    /// front size. An empty front yields no chunks.
    ///
    /// # Panics
    /// When `size` is zero.
    pub fn chunks(&self, size: usize) -> std::slice::Chunks<'_, ParetoPoint<T>> {
        assert!(size > 0, "chunk size must be positive");
        self.points.chunks(size)
    }

    /// Verifies the structural invariant (sorted, mutually non-dominated);
    /// used by property tests.
    #[must_use]
    pub fn invariant_holds(&self) -> bool {
        for w in self.points.windows(2) {
            if !(w[0].latency < w[1].latency && w[0].failure_prob > w[1].failure_prob) {
                return false;
            }
        }
        true
    }
}

impl<T> IntoIterator for ParetoFront<T> {
    type Item = ParetoPoint<T>;
    type IntoIter = std::vec::IntoIter<ParetoPoint<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_non_dominated() {
        let mut f = ParetoFront::new();
        assert!(f.insert(10.0, 0.5, "a"));
        assert!(f.insert(20.0, 0.2, "b")); // tradeoff: kept
        assert!(!f.insert(25.0, 0.3, "c")); // dominated by b
        assert!(f.insert(5.0, 0.9, "d")); // cheaper, kept
        assert_eq!(f.len(), 3);
        assert!(f.invariant_holds());
    }

    #[test]
    fn insert_evicts_dominated() {
        let mut f = ParetoFront::new();
        f.insert(10.0, 0.5, "a");
        f.insert(20.0, 0.2, "b");
        assert!(f.insert(9.0, 0.1, "killer")); // dominates both
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].payload, "killer");
    }

    #[test]
    fn duplicates_keep_incumbent() {
        let mut f = ParetoFront::new();
        assert!(f.insert(10.0, 0.5, "first"));
        assert!(!f.insert(10.0, 0.5, "second"));
        assert_eq!(f.points()[0].payload, "first");
    }

    #[test]
    fn equal_latency_better_fp_replaces() {
        let mut f = ParetoFront::new();
        f.insert(10.0, 0.5, "worse");
        assert!(f.insert(10.0, 0.4, "better"));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].payload, "better");
    }

    #[test]
    fn threshold_queries() {
        let mut f = ParetoFront::new();
        f.insert(10.0, 0.5, "a");
        f.insert(20.0, 0.2, "b");
        f.insert(30.0, 0.05, "c");

        assert_eq!(f.min_fp_under_latency(25.0).unwrap().payload, "b");
        assert_eq!(f.min_fp_under_latency(30.0).unwrap().payload, "c");
        assert!(f.min_fp_under_latency(9.0).is_none());

        assert_eq!(f.min_latency_under_fp(0.3).unwrap().payload, "b");
        assert_eq!(f.min_latency_under_fp(0.5).unwrap().payload, "a");
        assert!(f.min_latency_under_fp(0.01).is_none());
    }

    #[test]
    fn nearest_accessors_return_the_adjacent_point() {
        let mut f = ParetoFront::new();
        f.insert(10.0, 0.5, "a");
        f.insert(20.0, 0.2, "b");
        f.insert(30.0, 0.05, "c");

        // Infeasible latency bound: the adjacent point just above it.
        assert_eq!(f.nearest_above(5.0).unwrap().payload, "a");
        assert_eq!(f.nearest_above(10.0).unwrap().payload, "b"); // strict
        assert_eq!(f.nearest_above(25.0).unwrap().payload, "c");
        assert!(f.nearest_above(30.0).is_none());
        assert!(f.nearest_above(f64::NAN).is_none());

        // Infeasible FP bound: the adjacent point just above it.
        assert_eq!(f.nearest_below(0.01).unwrap().payload, "c");
        assert_eq!(f.nearest_below(0.05).unwrap().payload, "b"); // strict
        assert_eq!(f.nearest_below(0.3).unwrap().payload, "a");
        assert!(f.nearest_below(0.5).is_none());
        assert!(f.nearest_below(f64::NAN).is_none());

        let empty = ParetoFront::<()>::new();
        assert!(empty.nearest_above(0.0).is_none());
        assert!(empty.nearest_below(0.0).is_none());
    }

    #[test]
    fn batch_reads_equal_point_reads() {
        let mut f = ParetoFront::new();
        f.insert(10.0, 0.5, "a");
        f.insert(20.0, 0.2, "b");
        f.insert(30.0, 0.05, "c");
        let lat_bounds = [5.0, 10.0, 15.0, 20.0, 29.9, 30.0, 99.0];
        let swept = f.min_fp_under_latency_batch(&lat_bounds);
        for (i, &l) in lat_bounds.iter().enumerate() {
            assert_eq!(
                swept[i].map(|p| p.payload),
                f.min_fp_under_latency(l).map(|p| p.payload),
                "latency bound {l}"
            );
        }
        let fp_bounds = [0.9, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01];
        let swept = f.min_latency_under_fp_batch(&fp_bounds);
        for (i, &fp) in fp_bounds.iter().enumerate() {
            assert_eq!(
                swept[i].map(|p| p.payload),
                f.min_latency_under_fp(fp).map(|p| p.payload),
                "fp bound {fp}"
            );
        }
        assert!(f.min_fp_under_latency_batch(&[]).is_empty());
    }

    #[test]
    fn batch_reads_treat_nan_bounds_like_point_reads() {
        let mut f = ParetoFront::new();
        f.insert(5.0, 0.5, "a");
        // NaN sorts last ascending / first descending under total_cmp.
        let swept = f.min_fp_under_latency_batch(&[10.0, f64::NAN]);
        assert_eq!(swept[0].map(|p| p.payload), Some("a"));
        assert_eq!(swept[1].map(|p| p.payload), None);
        assert_eq!(f.min_fp_under_latency(f64::NAN).map(|p| p.payload), None);
        let swept = f.min_latency_under_fp_batch(&[f64::NAN, 0.9]);
        assert_eq!(swept[0].map(|p| p.payload), None);
        assert_eq!(swept[1].map(|p| p.payload), Some("a"));
        assert_eq!(f.min_latency_under_fp(f64::NAN).map(|p| p.payload), None);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn batch_read_rejects_unsorted_bounds() {
        let mut f = ParetoFront::new();
        f.insert(10.0, 0.5, ());
        let _ = f.min_fp_under_latency_batch(&[2.0, 1.0]);
    }

    #[test]
    fn chunks_cover_the_front_in_order() {
        let mut f = ParetoFront::new();
        for i in 0..7 {
            f.insert(f64::from(i), 1.0 / (1.0 + f64::from(i)), i);
        }
        let chunks: Vec<_> = f.chunks(3).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 3);
        assert_eq!(chunks[2].len(), 1);
        let reassembled: Vec<_> = chunks.concat();
        assert_eq!(reassembled.len(), f.len());
        for (a, b) in reassembled.iter().zip(f.iter()) {
            assert_eq!(a.payload, b.payload);
        }
        assert_eq!(ParetoFront::<()>::new().chunks(4).count(), 0);
    }

    #[test]
    fn merge_unions_fronts() {
        let mut a = ParetoFront::new();
        a.insert(10.0, 0.5, 1);
        a.insert(30.0, 0.1, 2);
        let mut b = ParetoFront::new();
        b.insert(20.0, 0.2, 3);
        b.insert(40.0, 0.4, 4); // dominated by 2
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert!(a.invariant_holds());
    }

    #[test]
    fn dominance_relation() {
        let a = ParetoPoint {
            latency: 1.0,
            failure_prob: 0.1,
            payload: (),
        };
        let b = ParetoPoint {
            latency: 2.0,
            failure_prob: 0.1,
            payload: (),
        };
        let c = ParetoPoint {
            latency: 1.0,
            failure_prob: 0.1,
            payload: (),
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c)); // equal points do not dominate
    }

    #[test]
    fn randomized_front_invariant() {
        // Deterministic pseudo-random stream (LCG) to avoid a rand dep here.
        let mut state = 0x2545F491_4F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        let mut f = ParetoFront::new();
        let mut all = Vec::new();
        for i in 0..500 {
            let l = next() * 100.0;
            let fp = next();
            all.push((l, fp));
            f.insert(l, fp, i);
        }
        assert!(f.invariant_holds());
        // Every offered point is dominated-or-equal by something on the front.
        for &(l, fp) in &all {
            let covered = f.iter().any(|q| q.latency <= l && q.failure_prob <= fp);
            assert!(covered, "({l}, {fp}) not covered");
        }
    }
}
