//! Canonical content hashing of model objects.
//!
//! The solver service keys its solution cache by a stable digest of
//! `(instance, query)`. The digest must be identical for semantically
//! identical instances across processes and platforms, so it is computed
//! over the canonical numeric content (bit patterns of the `f64` values in
//! a fixed field order), not over any serialized text form.
//!
//! The hash is two independent 64-bit streams combined into 128 bits —
//! collision probability is negligible at cache scale, and the
//! implementation has no dependencies. Each stream absorbs a whole 64-bit
//! word per step (xor, multiply by an odd constant, fold the high half
//! down), so an instance's ~2,000 `f64`s cost one step each, and
//! [`CanonicalHasher::finish`] avalanches both lanes.

use crate::platform::Platform;
use crate::stage::Pipeline;

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
/// Lane multipliers: dense odd constants (golden ratio, xxHash's prime 2).
const MIX_A: u64 = 0x9e37_79b9_7f4a_7c15;
const MIX_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One absorb step: the product carries every low bit upward, the fold
/// brings the high half back down for the next step.
#[inline]
fn absorb(state: u64, word: u64, multiplier: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(multiplier);
    x ^ (x >> 32)
}

/// MurmurHash3's 64-bit finalizer: every input bit reaches every output
/// bit.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Incremental 128-bit canonical hasher.
#[derive(Clone, Debug)]
pub struct CanonicalHasher {
    a: u64,
    b: u64,
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        CanonicalHasher {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }
}

impl CanonicalHasher {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        CanonicalHasher::default()
    }

    /// Feeds raw bytes, eight at a time (a short tail is zero-padded, so
    /// callers that concatenate byte strings length-prefix them, as
    /// [`Self::write_str`] does).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Feeds a `u64` in one step per lane.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.a = absorb(self.a, v, MIX_A);
        // The second lane sees the word rotated so the two lanes stay
        // decorrelated.
        self.b = absorb(self.b, v.rotate_left(32), MIX_B);
    }

    /// Feeds a `usize`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` by bit pattern, canonicalizing `-0.0` to `0.0` so
    /// numerically equal instances digest equally.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        let canonical = if v == 0.0 { 0.0f64 } else { v };
        self.write_u64(canonical.to_bits());
    }

    /// Feeds a string (length-prefixed, so concatenations cannot collide).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 128-bit digest.
    #[must_use]
    pub fn finish(&self) -> u128 {
        (u128::from(avalanche(self.a)) << 64) | u128::from(avalanche(self.b))
    }
}

/// Types with a canonical content digest.
pub trait CanonicalDigest {
    /// Feeds `self`'s canonical content into the hasher.
    fn digest(&self, hasher: &mut CanonicalHasher);

    /// One-shot digest of `self` alone.
    fn canonical_hash(&self) -> u128 {
        let mut hasher = CanonicalHasher::new();
        self.digest(&mut hasher);
        hasher.finish()
    }
}

/// Canonical key of a problem *instance* — the `(pipeline, platform)`
/// content alone, independent of any objective or query parameters. This
/// is the key under which the serving layer caches and shares Pareto
/// fronts: every threshold query over the same instance maps to the same
/// front.
#[must_use]
pub fn instance_key(pipeline: &Pipeline, platform: &Platform) -> u128 {
    let mut hasher = CanonicalHasher::new();
    hasher.write_str("front");
    pipeline.digest(&mut hasher);
    platform.digest(&mut hasher);
    hasher.finish()
}

impl CanonicalDigest for Pipeline {
    fn digest(&self, hasher: &mut CanonicalHasher) {
        hasher.write_str("pipeline");
        hasher.write_usize(self.n_stages());
        for &w in self.works() {
            hasher.write_f64(w);
        }
        for &d in self.deltas() {
            hasher.write_f64(d);
        }
    }
}

impl CanonicalDigest for Platform {
    fn digest(&self, hasher: &mut CanonicalHasher) {
        hasher.write_str("platform");
        let m = self.n_procs();
        hasher.write_usize(m);
        for &s in self.speeds() {
            hasher.write_f64(s);
        }
        for &fp in self.failure_probs() {
            hasher.write_f64(fp);
        }
        // Full bandwidth matrix, row-major in vertex order (procs, In,
        // Out); the matrix is symmetric but hashing every entry keeps this
        // code independent of that invariant.
        for &b in self.bandwidth_matrix() {
            hasher.write_f64(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline(works: Vec<f64>, deltas: Vec<f64>) -> Pipeline {
        Pipeline::new(works, deltas).expect("valid")
    }

    #[test]
    fn equal_content_equal_hash() {
        let a = pipeline(vec![1.0, 2.0], vec![3.0, 4.0, 5.0]);
        let b = pipeline(vec![1.0, 2.0], vec![3.0, 4.0, 5.0]);
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn different_content_different_hash() {
        let a = pipeline(vec![1.0, 2.0], vec![3.0, 4.0, 5.0]);
        let b = pipeline(vec![1.0, 2.5], vec![3.0, 4.0, 5.0]);
        let c = pipeline(vec![2.0, 1.0], vec![3.0, 4.0, 5.0]);
        assert_ne!(a.canonical_hash(), b.canonical_hash());
        assert_ne!(a.canonical_hash(), c.canonical_hash());
    }

    #[test]
    fn negative_zero_canonicalizes() {
        let a = pipeline(vec![0.0], vec![0.0, 0.0]);
        let b = pipeline(vec![-0.0], vec![-0.0, 0.0]);
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn platform_hash_covers_links() {
        let a = Platform::comm_homogeneous(vec![1.0, 2.0], 1.0, vec![0.1, 0.2]).expect("valid");
        let b = Platform::comm_homogeneous(vec![1.0, 2.0], 2.0, vec![0.1, 0.2]).expect("valid");
        assert_ne!(a.canonical_hash(), b.canonical_hash());
        assert_eq!(a.canonical_hash(), a.clone().canonical_hash());
    }

    #[test]
    fn combined_digest_is_order_sensitive() {
        let p = pipeline(vec![1.0], vec![1.0, 1.0]);
        let pf = Platform::comm_homogeneous(vec![1.0], 1.0, vec![0.5]).expect("valid");
        let mut h1 = CanonicalHasher::new();
        p.digest(&mut h1);
        pf.digest(&mut h1);
        let mut h2 = CanonicalHasher::new();
        pf.digest(&mut h2);
        p.digest(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
