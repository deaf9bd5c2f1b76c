//! Decoded instances reused by their exact input bytes.
//!
//! A client exploring the latency/reliability trade-off sends the same
//! `(pipeline, platform)` again and again with a new bound each time, and
//! decoding a large instance's numbers costs far more than answering from
//! its cached front. So the two custom decoders, [`Pipeline`]'s and
//! [`Platform`]'s `from_json`, go through this memo: when the unread
//! input starts with bytes this thread decoded successfully before, the
//! reader skips exactly those bytes and the stored value is cloned.
//!
//! **Exactness.** An entry is the byte string the full decoder consumed
//! for one complete JSON object, the value it built, and the deepest
//! reader depth at which it succeeded. Objects are self-delimiting and
//! the decoder reads nothing past the closing `}`, so on input starting
//! with those bytes a full decode would consume exactly them and build
//! exactly that value — at any depth up to the stored one (a deeper
//! start might trip [`serde::MAX_DEPTH`], so it decodes in full). Any
//! byte difference is a miss, whitespace and key order included; only
//! successful decodes are stored. The memo caches a pure function of
//! bytes: nothing in it can go stale.
//!
//! **Bounds.** One LRU per decoding thread (no lock), at most 32 entries
//! and 1 MiB of raw plus decoded bytes; a larger value is never stored.
//! [`counts`] reports process-wide hits and misses.

use crate::platform::Platform;
use crate::stage::Pipeline;
use serde::Reader;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Entries one thread keeps.
const MAX_ENTRIES: usize = 32;

/// Raw plus decoded bytes one thread keeps.
const MAX_BYTES: usize = 1 << 20;

/// Leading bytes compared before the rest: distinct instances differ in
/// their first numbers, so a miss rarely reads further.
const LEAD: usize = 64;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEMO: RefCell<Memo> = const { RefCell::new(Memo::new()) };
}

/// Process-wide memo lookups since start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Decodes answered from a thread's memo.
    pub hits: u64,
    /// Decodes that ran the full decoder.
    pub misses: u64,
}

/// Hits and misses over every thread of the process.
#[must_use]
pub fn counts() -> MemoCounts {
    MemoCounts {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

/// A stored value: one of the two memoized types.
#[derive(Debug)]
pub(crate) enum Decoded {
    Pipeline(Pipeline),
    Platform(Platform),
}

/// A type [`decode`] memoizes.
pub(crate) trait Memoized: Clone + Sized {
    fn wrap(self) -> Decoded;
    fn unwrap(decoded: &Decoded) -> Option<&Self>;
    /// Heap bytes the value holds.
    fn heap_bytes(&self) -> usize;
}

impl Memoized for Pipeline {
    fn wrap(self) -> Decoded {
        Decoded::Pipeline(self)
    }

    fn unwrap(decoded: &Decoded) -> Option<&Self> {
        match decoded {
            Decoded::Pipeline(p) => Some(p),
            Decoded::Platform(_) => None,
        }
    }

    fn heap_bytes(&self) -> usize {
        // Works, deltas and the work prefix sums (as long as the deltas).
        (self.works().len() + 2 * self.deltas().len()) * size_of::<f64>()
    }
}

impl Memoized for Platform {
    fn wrap(self) -> Decoded {
        Decoded::Platform(self)
    }

    fn unwrap(decoded: &Decoded) -> Option<&Self> {
        match decoded {
            Decoded::Platform(p) => Some(p),
            Decoded::Pipeline(_) => None,
        }
    }

    fn heap_bytes(&self) -> usize {
        (self.speeds().len() + self.failure_probs().len() + self.bandwidth_matrix().len())
            * size_of::<f64>()
    }
}

/// Decodes a `T` at the reader through this thread's memo, running `full`
/// on a miss and storing what it builds.
pub(crate) fn decode<T: Memoized>(
    reader: &mut Reader<'_>,
    full: fn(&mut Reader<'_>) -> Result<T, serde::Error>,
) -> Result<T, serde::Error> {
    let input = reader.rest();
    let depth = reader.depth();
    if let Some((len, value)) = MEMO.with_borrow_mut(|memo| memo.get::<T>(input, depth)) {
        HITS.fetch_add(1, Ordering::Relaxed);
        reader.skip_bytes(len);
        return Ok(value);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let start = reader.position();
    let value = full(reader)?;
    let raw = &input[..reader.position() - start];
    MEMO.with_borrow_mut(|memo| memo.insert(raw, depth, &value));
    Ok(value)
}

struct Entry {
    raw: Box<[u8]>,
    /// Deepest reader depth at which `raw` decoded.
    depth: usize,
    value: Decoded,
    /// `raw` plus the value's heap bytes.
    bytes: usize,
}

impl Entry {
    /// Whether `input` starts with this entry's bytes.
    fn prefixes(&self, input: &[u8]) -> bool {
        let Some(head) = input.get(..self.raw.len()) else {
            return false;
        };
        let lead = self.raw.len().min(LEAD);
        head[..lead] == self.raw[..lead] && head[lead..] == self.raw[lead..]
    }
}

/// One thread's LRU.
struct Memo {
    /// Most recently used first.
    entries: Vec<Entry>,
    bytes: usize,
}

impl Memo {
    const fn new() -> Self {
        Memo {
            entries: Vec::new(),
            bytes: 0,
        }
    }

    /// The stored value whose bytes start `input` and which decoded at
    /// `depth` or deeper, with its byte length; marks it most recent.
    fn get<T: Memoized>(&mut self, input: &[u8], depth: usize) -> Option<(usize, T)> {
        let i = self
            .entries
            .iter()
            .position(|e| depth <= e.depth && T::unwrap(&e.value).is_some() && e.prefixes(input))?;
        self.entries[..=i].rotate_right(1);
        let entry = &self.entries[0];
        Some((entry.raw.len(), T::unwrap(&entry.value)?.clone()))
    }

    /// Stores `value`, decoded from exactly `raw` at `depth`, as the most
    /// recent entry, evicting from the least recent end to stay in
    /// bounds. Bytes already stored (decoded shallower) only gain depth.
    fn insert<T: Memoized>(&mut self, raw: &[u8], depth: usize, value: &T) {
        let same = |e: &Entry| T::unwrap(&e.value).is_some() && *e.raw == *raw;
        if let Some(i) = self.entries.iter().position(same) {
            self.entries[i].depth = self.entries[i].depth.max(depth);
            self.entries[..=i].rotate_right(1);
            return;
        }
        let bytes = raw.len() + value.heap_bytes();
        if bytes > MAX_BYTES {
            return;
        }
        self.entries.insert(
            0,
            Entry {
                raw: raw.into(),
                depth,
                value: value.clone().wrap(),
                bytes,
            },
        );
        self.bytes += bytes;
        while self.entries.len() > MAX_ENTRIES || self.bytes > MAX_BYTES {
            let evicted = self.entries.pop().expect("over a bound, so not empty");
            self.bytes -= evicted.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline(n: usize, work: f64) -> (Pipeline, Vec<u8>) {
        let pipeline = Pipeline::uniform(n, work, 1.0).unwrap();
        let raw = serde_json::to_string(&pipeline).unwrap().into_bytes();
        (pipeline, raw)
    }

    fn stored(memo: &mut Memo, raw: &[u8]) -> bool {
        memo.get::<Pipeline>(raw, 0).is_some()
    }

    #[test]
    fn the_33rd_entry_evicts_the_least_recently_used() {
        let mut memo = Memo::new();
        let entries: Vec<_> = (0..=MAX_ENTRIES)
            .map(|k| pipeline(3, k as f64 + 0.5))
            .collect();
        for (value, raw) in &entries[..MAX_ENTRIES] {
            memo.insert(raw, 0, value);
        }
        assert_eq!(memo.entries.len(), MAX_ENTRIES);
        // A hit on the oldest entry leaves the second oldest least recent.
        assert!(stored(&mut memo, &entries[0].1));
        let (value, raw) = &entries[MAX_ENTRIES];
        memo.insert(raw, 0, value);
        assert_eq!(memo.entries.len(), MAX_ENTRIES);
        assert!(!stored(&mut memo, &entries[1].1), "the LRU entry is gone");
        for (_, raw) in entries.iter().take(1).chain(&entries[2..]) {
            assert!(stored(&mut memo, raw));
        }
        let total: usize = memo.entries.iter().map(|e| e.bytes).sum();
        assert_eq!(memo.bytes, total);
    }

    #[test]
    fn a_value_over_the_byte_bound_is_never_stored() {
        let mut memo = Memo::new();
        let (small, small_raw) = pipeline(2, 1.0);
        memo.insert(&small_raw, 0, &small);
        // 3n + 2 floats of 8 bytes each exceed 1 MiB on their own.
        let (large, large_raw) = pipeline(MAX_BYTES / 24 + 1, 1.0);
        assert!(large.heap_bytes() > MAX_BYTES);
        memo.insert(&large_raw, 0, &large);
        assert!(!stored(&mut memo, &large_raw));
        assert!(stored(&mut memo, &small_raw), "the small entry stays");
        assert_eq!(memo.entries.len(), 1);
    }

    #[test]
    fn the_byte_bound_evicts_until_the_rest_fits() {
        let mut memo = Memo::new();
        // Each of these holds a little over a third of the bound.
        let n = MAX_BYTES / 3 / 24 + 1;
        let values: Vec<_> = (0..3).map(|k| pipeline(n, k as f64 + 1.0)).collect();
        for (value, raw) in &values {
            memo.insert(raw, 0, value);
        }
        assert_eq!(memo.entries.len(), 2);
        assert!(memo.bytes <= MAX_BYTES);
        assert!(!stored(&mut memo, &values[0].1));
    }

    #[test]
    fn a_hit_needs_the_same_kind_and_no_more_depth() {
        let mut memo = Memo::new();
        let (value, raw) = pipeline(2, 1.0);
        memo.insert(&raw, 3, &value);
        assert!(memo.get::<Platform>(&raw, 3).is_none());
        assert!(memo.get::<Pipeline>(&raw, 4).is_none());
        let mut longer = raw.clone();
        longer.extend_from_slice(b",\"next\":1}");
        assert_eq!(
            memo.get::<Pipeline>(&longer, 2).map(|(len, _)| len),
            Some(raw.len())
        );
        assert!(memo.get::<Pipeline>(&raw[..raw.len() - 1], 0).is_none());
    }

    #[test]
    fn a_hit_never_lifts_the_nesting_cap() {
        use serde::Deserialize;
        let (value, raw) = pipeline(2, 1.0);
        let text = String::from_utf8(raw).unwrap();
        assert_eq!(serde_json::from_str::<Pipeline>(&text).unwrap(), value);
        let nested = format!("{}{text}", "[".repeat(serde::MAX_DEPTH));
        let at_depth = |depth: usize| {
            let mut reader = Reader::new(&nested[serde::MAX_DEPTH - depth..]);
            for _ in 0..depth {
                reader.begin_array().unwrap();
            }
            Pipeline::from_json(&mut reader)
        };
        // From depth 127 the pipeline's arrays would open level 129.
        let err = at_depth(serde::MAX_DEPTH - 1).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        assert_eq!(at_depth(serde::MAX_DEPTH - 2).unwrap(), value);
        assert!(
            at_depth(serde::MAX_DEPTH - 1).is_err(),
            "still deeper than stored"
        );
    }

    #[test]
    fn a_repeat_decode_on_one_thread_is_a_hit_with_the_same_value() {
        std::thread::spawn(|| {
            let (value, raw) = pipeline(4, 2.5);
            let text = std::str::from_utf8(&raw).unwrap();
            let first: Pipeline = serde_json::from_str(text).unwrap();
            let before = counts();
            let second: Pipeline = serde_json::from_str(text).unwrap();
            assert_eq!(first, value);
            assert_eq!(second, value);
            assert!(counts().hits > before.hits);
            MEMO.with_borrow(|memo| assert_eq!(memo.entries.len(), 1));
        })
        .join()
        .unwrap();
    }
}
