//! Sharded, content-addressed LRU cache — fronts first.
//!
//! The unit of caching is the **Pareto front**: entries are keyed by the
//! canonical hash of the `(pipeline, platform)` instance alone
//! ([`rpwf_core::hash::instance_key`]), so every threshold query and every
//! `Pareto` request over the same instance shares one entry, and a point
//! answer is a read off the cached front. Cached fronts are
//! completeness-aware: a budget-cutoff front is stored flagged incomplete
//! — reusable as a best-effort answer for deadline-bound requests, but it
//! never masquerades as exact and never overwrites a complete front.
//! Non-front results (Monte Carlo simulation) are cached per query as
//! opaque serialized trees, as before.
//!
//! Sharding by the key's low bits keeps lock contention negligible under
//! concurrent workers; each shard is a small `HashMap` with recency ticks
//! and evicts its least-recently-used entry when full (linear scan —
//! shards are small by construction).

use rpwf_algo::Provenance;
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::pareto::ParetoFront;
use serde::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A cached Pareto front and how it was produced. The front itself is
/// behind an [`Arc`] so a cache hit is a refcount bump, not a deep copy
/// of every point and mapping under the shard lock.
#[derive(Clone, Debug)]
pub struct CachedFront {
    /// The front (mappings included, so point answers replay exactly).
    pub front: Arc<ParetoFront<IntervalMapping>>,
    /// `true` when the front is proven exact. Incomplete fronts are sound
    /// under-approximations (budget cutoffs or heuristic sweeps) and must
    /// be reported with `exact_complete: false`.
    pub complete: bool,
    /// Who produced it (wire `meta.solver`, replayed verbatim on hits).
    pub solver: Provenance,
    /// Whether any exact front backend applies to the instance at all.
    /// When `false`, an incomplete front is the best any rerun could do,
    /// so it is served even to requests without a deadline.
    pub exact_capable: bool,
}

/// A cached per-query result: the response payload and how it was produced.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// Serialized result tree (replayed verbatim into responses, so a hit
    /// is byte-identical to the original result).
    pub result: Value,
    /// Solver tier that produced it, when applicable.
    pub solver: Option<Provenance>,
    /// Whether the exact solver completed.
    pub exact_complete: Option<bool>,
}

/// What a cache slot holds.
#[derive(Clone, Debug)]
pub enum CachedEntry {
    /// A Pareto front keyed by instance hash.
    Front(CachedFront),
    /// An opaque per-query result keyed by `(command, instance, query)`.
    Result(CachedResult),
}

struct Entry<V> {
    value: V,
    tick: u64,
}

struct Shard<V> {
    map: HashMap<u128, Entry<V>>,
    clock: u64,
    // Counters live inside the shard (they are only touched under its
    // lock anyway), so observability can report per-shard skew instead of
    // a fleet-blind aggregate.
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Cache counters — per shard or aggregated across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Evictions to stay under capacity.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
}

/// The sharded LRU cache, generic in what a slot holds.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard_capacity: usize,
}

/// The service's cache type: fronts plus per-query results.
pub type SolutionCache = ShardedLru<CachedEntry>;

impl<V: Clone> ShardedLru<V> {
    /// A cache of roughly `capacity` entries across `shards` shards.
    /// Zero `capacity` disables caching (every lookup misses).
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, 1024);
        let per_shard_capacity = capacity.div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        clock: 0,
                        hits: 0,
                        misses: 0,
                        evictions: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
        }
    }

    /// Shard count.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    fn shard(&self, key: u128) -> &Mutex<Shard<V>> {
        // Low bits of the canonical digest are well mixed.
        &self.shards[(key as usize) % self.shards.len()]
    }

    /// Looks up a key, refreshing its recency on hit.
    #[must_use]
    pub fn get(&self, key: u128) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        shard.clock += 1;
        let tick = shard.clock;
        let value = shard.map.get_mut(&key).map(|entry| {
            entry.tick = tick;
            entry.value.clone()
        });
        match &value {
            Some(_) => shard.hits += 1,
            None => shard.misses += 1,
        }
        value
    }

    /// Inserts (or refreshes) a key, evicting the shard's LRU entry when
    /// full. No-op when the cache has zero capacity.
    pub fn insert(&self, key: u128, value: V) {
        let _ = self.insert_if(key, value, |_| true);
    }

    /// Inserts; when the key is already occupied, only if
    /// `replace(existing)` allows it — evaluated under the shard lock, so
    /// the check-and-replace is atomic. Used by the front cache to never
    /// let an incomplete front overwrite a complete one. Returns whether
    /// the value was stored (`false`: zero capacity, or the incumbent
    /// was kept) — the fleet layer uses this to report replica-fill
    /// outcomes and to replicate only writes that actually landed.
    pub fn insert_if(&self, key: u128, value: V, replace: impl FnOnce(&V) -> bool) -> bool {
        if self.per_shard_capacity == 0 {
            return false;
        }
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        shard.clock += 1;
        let tick = shard.clock;
        if let Some(existing) = shard.map.get(&key) {
            if !replace(&existing.value) {
                return false;
            }
        } else if shard.map.len() >= self.per_shard_capacity {
            if let Some((&lru, _)) = shard.map.iter().min_by_key(|(_, e)| e.tick) {
                shard.map.remove(&lru);
                shard.evictions += 1;
            }
        }
        shard.map.insert(key, Entry { value, tick });
        true
    }

    /// Aggregate counters across all shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .into_iter()
            .fold(CacheStats::default(), |acc, s| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                evictions: acc.evictions + s.evictions,
                entries: acc.entries + s.entries,
            })
    }

    /// Per-shard counters, in shard order (the `Metrics` dump renders one
    /// line per shard so hot-shard skew is visible).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard lock");
                CacheStats {
                    hits: shard.hits,
                    misses: shard.misses,
                    evictions: shard.evictions,
                    entries: shard.map.len(),
                }
            })
            .collect()
    }

    /// Snapshot of every live key (across shards, no particular order).
    #[must_use]
    pub fn keys(&self) -> Vec<u128> {
        self.keys_where(|_| true)
    }

    /// Snapshot of the keys whose entries satisfy `keep`. Fleet nodes use
    /// this to census *front* entries — the ones keyed by the canonical
    /// instance hash the ring places — against ring ownership (per-query
    /// result entries are keyed by `cache_key`, a different hash space).
    #[must_use]
    pub fn keys_where(&self, mut keep: impl FnMut(&V) -> bool) -> Vec<u128> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard lock")
                    .map
                    .iter()
                    .filter(|(_, entry)| keep(&entry.value))
                    .map(|(&k, _)| k)
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(tag: i64) -> CachedEntry {
        CachedEntry::Result(CachedResult {
            result: Value::Int(tag),
            solver: None,
            exact_complete: None,
        })
    }

    fn tag_of(entry: &CachedEntry) -> i64 {
        match entry {
            CachedEntry::Result(r) => match r.result {
                Value::Int(i) => i,
                _ => panic!("test values are ints"),
            },
            CachedEntry::Front(_) => panic!("test values are results"),
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = SolutionCache::new(8, 2);
        assert!(cache.get(1).is_none());
        cache.insert(1, value(10));
        let got = cache.get(1).expect("hit");
        assert_eq!(tag_of(&got), 10);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn evicts_least_recently_used_within_shard() {
        // One shard, capacity 2: touching `a` keeps it alive, `b` dies.
        let cache = SolutionCache::new(2, 1);
        cache.insert(1, value(1));
        cache.insert(2, value(2));
        let _ = cache.get(1);
        cache.insert(3, value(3));
        assert!(cache.get(1).is_some(), "recently used must survive");
        assert!(cache.get(2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = SolutionCache::new(0, 4);
        cache.insert(9, value(9));
        assert!(cache.get(9).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn insert_if_protects_the_incumbent() {
        let cache = SolutionCache::new(8, 1);
        cache.insert(1, value(1));
        cache.insert_if(1, value(2), |existing| tag_of(existing) != 1);
        assert_eq!(tag_of(&cache.get(1).expect("present")), 1, "incumbent kept");
        cache.insert_if(1, value(3), |_| true);
        assert_eq!(tag_of(&cache.get(1).expect("present")), 3, "replaced");
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = SolutionCache::new(64, 8);
        for k in 0u128..64 {
            cache.insert(k, value(k as i64));
        }
        assert_eq!(cache.stats().entries, 64);
        for k in 0u128..64 {
            assert!(cache.get(k).is_some(), "key {k} must be present");
        }
    }

    #[test]
    fn per_shard_stats_sum_to_the_aggregate() {
        let cache = SolutionCache::new(8, 4);
        for k in 0u128..8 {
            cache.insert(k, value(k as i64));
            let _ = cache.get(k);
            let _ = cache.get(k + 100);
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 4);
        let total = cache.stats();
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), total.hits);
        assert_eq!(
            per_shard.iter().map(|s| s.misses).sum::<u64>(),
            total.misses
        );
        assert_eq!(
            per_shard.iter().map(|s| s.entries).sum::<usize>(),
            total.entries
        );
        let mut keys = cache.keys();
        keys.sort_unstable();
        assert_eq!(keys, (0u128..8).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(SolutionCache::new(128, 8));
        std::thread::scope(|s| {
            for t in 0..8u128 {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..200u128 {
                        let key = t * 1000 + (i % 50);
                        cache.insert(key, value(i as i64));
                        let _ = cache.get(key);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.hits > 0);
        assert!(stats.entries <= cache.capacity());
    }
}
