//! Consistent-hash ring for partitioning the instance keyspace across a
//! fleet of serving nodes.
//!
//! Every node is mapped to `vnodes` pseudo-random points on a `u64` ring
//! (virtual nodes smooth the partition: with `v` vnodes per node the load
//! imbalance concentrates around `1 ± O(1/√v)`). A key is owned by the
//! node whose point is the first at or clockwise-after the key's own ring
//! point. Both hashes reuse the canonical 128-bit hasher
//! ([`crate::hash::CanonicalHasher`]), so every process that knows the
//! same node names computes the **same ownership function** — the
//! property that lets a fleet of `rpwf serve` instances route cache
//! lookups without any coordination service.
//!
//! **Stability contract** (the reason to use consistent hashing at all):
//! adding or removing one node only remaps the keys that move *to* the
//! added node or *away from* the removed node. Every other key keeps its
//! owner, so a membership change invalidates at most `1/n`-th of a warm
//! fleet cache instead of reshuffling everything. Property-tested in this
//! module.

use crate::hash::CanonicalHasher;

/// Default number of virtual nodes per physical node.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over named nodes.
///
/// Node names are arbitrary strings — the serving layer uses the
/// `host:port` address every fleet member knows a node by, which makes
/// the ring identical on every node without coordination.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Node names, sorted and deduplicated (index = node id).
    nodes: Vec<String>,
    /// Ring points `(point, node index)`, sorted by point then node.
    points: Vec<(u64, u32)>,
    /// Virtual nodes per physical node.
    vnodes: usize,
}

/// Ring point of one virtual node (stable across processes).
fn vnode_point(node: &str, replica: usize) -> u64 {
    let mut hasher = CanonicalHasher::new();
    hasher.write_str("ring-node");
    hasher.write_str(node);
    hasher.write_usize(replica);
    fold_u128(hasher.finish())
}

/// Ring point of a key. Keys are re-hashed (rather than used directly) so
/// ring placement stays well distributed even if callers feed structured
/// key spaces, and stays decorrelated from the cache's shard-by-low-bits
/// scheme.
fn key_point(key: u128) -> u64 {
    let mut hasher = CanonicalHasher::new();
    hasher.write_str("ring-key");
    hasher.write_u64(key as u64);
    hasher.write_u64((key >> 64) as u64);
    fold_u128(hasher.finish())
}

fn fold_u128(x: u128) -> u64 {
    (x as u64) ^ ((x >> 64) as u64)
}

impl HashRing {
    /// Builds a ring over `nodes` with `vnodes` virtual nodes each
    /// (`0` is clamped to 1). Duplicate names collapse to one node; name
    /// order does not matter — every permutation builds the same ring.
    #[must_use]
    pub fn new<I, S>(nodes: I, vnodes: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut names: Vec<String> = nodes.into_iter().map(Into::into).collect();
        names.sort_unstable();
        names.dedup();
        let mut ring = HashRing {
            nodes: Vec::new(),
            points: Vec::new(),
            vnodes: vnodes.max(1),
        };
        for name in names {
            ring.insert_points(&name);
        }
        ring
    }

    /// The member names, sorted.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of member nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the ring has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Virtual nodes per member.
    #[must_use]
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// `true` when `node` is a member.
    #[must_use]
    pub fn contains(&self, node: &str) -> bool {
        self.nodes.iter().any(|n| n == node)
    }

    /// The owner of `key`: the node whose ring point is the first at or
    /// clockwise-after the key's point (wrapping). `None` on an empty
    /// ring.
    #[must_use]
    pub fn owner(&self, key: u128) -> Option<&str> {
        let idx = self.owner_index(key)?;
        Some(&self.nodes[idx])
    }

    /// [`owner`](Self::owner) as an index into [`nodes`](Self::nodes).
    #[must_use]
    pub fn owner_index(&self, key: u128) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let point = key_point(key);
        let at = self.points.partition_point(|&(p, _)| p < point);
        let (_, node) = self.points[at % self.points.len()];
        Some(node as usize)
    }

    /// The replicated owner list of `key`: up to `r` **distinct physical
    /// nodes**, in the order their ring points are met walking clockwise
    /// from the key's point. The first entry is [`owner`](Self::owner)
    /// (the *primary*); the rest are the failover/replica successors.
    /// Fewer than `r` members yields every member (once); an empty ring
    /// or `r == 0` yields nothing.
    ///
    /// The successor list inherits the ring's stability contract: a
    /// membership change only splices the joiner into (or the leaver out
    /// of) a key's list — the *relative order* of all surviving nodes is
    /// preserved, so replicated placement moves as little data on churn
    /// as single ownership does. Property-tested in
    /// `tests/ring_proptests.rs`.
    #[must_use]
    pub fn owners(&self, key: u128, r: usize) -> Vec<&str> {
        if self.points.is_empty() || r == 0 {
            return Vec::new();
        }
        let want = r.min(self.nodes.len());
        let point = key_point(key);
        let start = self.points.partition_point(|&(p, _)| p < point);
        let mut indices: Vec<u32> = Vec::with_capacity(want);
        for offset in 0..self.points.len() {
            let (_, node) = self.points[(start + offset) % self.points.len()];
            if !indices.contains(&node) {
                indices.push(node);
                if indices.len() == want {
                    break;
                }
            }
        }
        indices
            .into_iter()
            .map(|i| self.nodes[i as usize].as_str())
            .collect()
    }

    /// Adds a member (no-op when already present). Only keys whose owner
    /// becomes `node` move; every other key keeps its owner.
    pub fn add_node(&mut self, node: &str) {
        if !self.contains(node) {
            self.insert_points(node);
        }
    }

    /// Removes a member (no-op when absent). Only keys owned by `node`
    /// move; every other key keeps its owner.
    pub fn remove_node(&mut self, node: &str) {
        let Some(gone) = self.nodes.iter().position(|n| n == node) else {
            return;
        };
        self.nodes.remove(gone);
        let gone = gone as u32;
        self.points.retain(|&(_, n)| n != gone);
        for (_, n) in &mut self.points {
            if *n > gone {
                *n -= 1;
            }
        }
    }

    /// Inserts `node` into the sorted name list and adds its ring points.
    fn insert_points(&mut self, node: &str) {
        let at = self.nodes.partition_point(|n| n.as_str() < node);
        self.nodes.insert(at, node.to_string());
        let at = at as u32;
        // Renumber members displaced by the insertion.
        for (_, n) in &mut self.points {
            if *n >= at {
                *n += 1;
            }
        }
        for replica in 0..self.vnodes {
            let point = (vnode_point(node, replica), at);
            let pos = self.points.partition_point(|&p| p < point);
            self.points.insert(pos, point);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(count: u64) -> impl Iterator<Item = u128> {
        // Structured key space on purpose: the re-hash must spread it.
        (0..count).map(|i| u128::from(i) * 7 + 3)
    }

    #[test]
    fn ownership_is_total_and_deterministic() {
        let ring = HashRing::new(["a", "b", "c"], 32);
        let again = HashRing::new(["c", "a", "b", "a"], 32);
        for key in keys(500) {
            let owner = ring.owner(key).expect("non-empty ring");
            assert!(ring.contains(owner));
            assert_eq!(Some(owner), again.owner(key), "order/dup independent");
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(Vec::<String>::new(), 8);
        assert!(ring.is_empty());
        assert_eq!(ring.owner(42), None);
        assert_eq!(ring.owner_index(42), None);
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::new(["solo"], 8);
        for key in keys(100) {
            assert_eq!(ring.owner(key), Some("solo"));
        }
    }

    #[test]
    fn vnodes_spread_the_load() {
        let ring = HashRing::new(["a", "b", "c"], DEFAULT_VNODES);
        let mut counts = [0usize; 3];
        let total = 3000;
        for key in keys(total) {
            counts[ring.owner_index(key).expect("non-empty")] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let share = c as f64 / total as f64;
            assert!(
                (0.15..=0.60).contains(&share),
                "node {i} owns a degenerate share: {share:.3}"
            );
        }
    }

    #[test]
    fn join_only_pulls_keys_to_the_new_node() {
        let before = HashRing::new(["a", "b", "c"], 16);
        let mut after = before.clone();
        after.add_node("d");
        let mut moved = 0usize;
        for key in keys(2000) {
            let old = before.owner(key).expect("non-empty");
            let new = after.owner(key).expect("non-empty");
            if old != new {
                assert_eq!(new, "d", "a join may only move keys to the joiner");
                moved += 1;
            }
        }
        assert!(moved > 0, "the joiner must take over some keys");
        assert!(moved < 1500, "a join must not reshuffle the whole space");
    }

    #[test]
    fn leave_only_moves_the_leavers_keys() {
        let before = HashRing::new(["a", "b", "c", "d"], 16);
        let mut after = before.clone();
        after.remove_node("b");
        for key in keys(2000) {
            let old = before.owner(key).expect("non-empty");
            let new = after.owner(key).expect("non-empty");
            if old != "b" {
                assert_eq!(old, new, "a leave may only move the leaver's keys");
            } else {
                assert_ne!(new, "b");
            }
        }
    }

    #[test]
    fn owners_lists_distinct_nodes_primary_first() {
        let ring = HashRing::new(["a", "b", "c", "d"], 16);
        for key in keys(500) {
            let owners = ring.owners(key, 2);
            assert_eq!(owners.len(), 2);
            assert_eq!(Some(owners[0]), ring.owner(key), "primary first");
            assert_ne!(owners[0], owners[1], "replicas are distinct nodes");
        }
    }

    #[test]
    fn owners_saturates_at_the_member_count() {
        let ring = HashRing::new(["a", "b"], 8);
        for key in keys(50) {
            let all = ring.owners(key, 5);
            assert_eq!(all.len(), 2, "only two members exist");
            let mut sorted = all.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec!["a", "b"]);
        }
        assert!(ring.owners(1, 0).is_empty());
        assert!(HashRing::new(Vec::<String>::new(), 8)
            .owners(1, 2)
            .is_empty());
    }

    #[test]
    fn owners_prefix_is_owners_of_smaller_r() {
        let ring = HashRing::new(["a", "b", "c", "d", "e"], 16);
        for key in keys(200) {
            let three = ring.owners(key, 3);
            assert_eq!(ring.owners(key, 1), three[..1].to_vec());
            assert_eq!(ring.owners(key, 2), three[..2].to_vec());
        }
    }

    #[test]
    fn replica_set_survives_primary_removal() {
        // The point of replicated ownership: when the primary dies, the
        // old secondary is the new primary — the key's data is already
        // there.
        let ring = HashRing::new(["a", "b", "c", "d"], 32);
        for key in keys(300) {
            let owners = ring.owners(key, 2);
            let mut without_primary = ring.clone();
            without_primary.remove_node(owners[0]);
            assert_eq!(
                without_primary.owner(key),
                Some(owners[1]),
                "secondary must take over key {key:x}"
            );
        }
    }

    #[test]
    fn add_then_remove_roundtrips() {
        let base = HashRing::new(["a", "b", "c"], 16);
        let mut ring = base.clone();
        ring.add_node("z");
        ring.remove_node("z");
        for key in keys(500) {
            assert_eq!(base.owner(key), ring.owner(key));
        }
        ring.remove_node("absent"); // no-op
        ring.add_node("a"); // duplicate no-op
        assert_eq!(ring.len(), 3);
    }
}
