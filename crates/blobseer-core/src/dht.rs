//! The metadata DHT: tree nodes distributed over metadata providers.
//!
//! "To favor efficient concurrent access to metadata, tree nodes are
//! distributed: they are stored on the metadata providers using a DHT"
//! (§III-A.3). Keys shard by hash; optional replication stores each node on
//! `k` consecutive buckets, which is the DHT-level fault tolerance the paper
//! mentions in §VI-B ("metadata is stored in a DHT … resilient to faults by
//! construction").

use crate::meta::key::NodeKey;
use crate::meta::node::TreeNode;
use crate::sharded::{stripe_runs, ShardedMap, DEFAULT_SHARDS};
use blobseer_types::{Error, Result};

/// One metadata provider: a shard of the DHT. Internally lock-striped so
/// concurrent writers publishing different tree nodes to the same provider
/// do not serialize on one lock.
#[derive(Debug)]
pub struct MetaProvider {
    map: ShardedMap<NodeKey, TreeNode>,
    puts: std::sync::atomic::AtomicU64,
    gets: std::sync::atomic::AtomicU64,
}

impl Default for MetaProvider {
    fn default() -> Self {
        Self::with_stripes(DEFAULT_SHARDS)
    }
}

impl MetaProvider {
    fn with_stripes(n_stripes: usize) -> Self {
        Self {
            map: ShardedMap::named(n_stripes, "meta_dht.map"),
            puts: std::sync::atomic::AtomicU64::new(0),
            gets: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Stores a node. Metadata, like data, is immutable: a re-put must carry
    /// identical content (replica retries, abort-repair idempotence). A
    /// conflicting re-put returns [`Error::MetadataConflict`] in **every**
    /// build profile and leaves the stored copy untouched — silently keeping
    /// either version would let two diverged writers both believe they
    /// published (the seed only `debug_assert`ed here, so release builds
    /// silently kept the old node).
    fn put(&self, key: NodeKey, node: TreeNode) -> Result<()> {
        self.puts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut map = self.map.shard_for(&key).write();
        if let Some(existing) = map.get(&key) {
            if existing != &node {
                return Err(Error::MetadataConflict(format!("{key:?}")));
            }
            return Ok(());
        }
        map.insert(key, node);
        Ok(())
    }

    /// Batched [`Self::put`]: each lock stripe is taken once per batch;
    /// items land in batch order within a stripe, so the per-item results
    /// match the equivalent sequence of single puts exactly.
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.puts
            .fetch_add(items.len() as u64, std::sync::atomic::Ordering::Relaxed);
        let mut out: Vec<Result<()>> = (0..items.len()).map(|_| Ok(())).collect();
        for (stripe, range) in stripe_runs(&self.map, items.iter().map(|(k, _)| k)) {
            let mut map = self.map.shard_at(stripe).write();
            for i in range {
                let (key, node) = &items[i];
                match map.get(key) {
                    Some(existing) if existing != node => {
                        out[i] = Err(Error::MetadataConflict(format!("{key:?}")));
                    }
                    Some(_) => {}
                    None => {
                        map.insert(*key, node.clone());
                    }
                }
            }
        }
        out
    }

    fn get(&self, key: &NodeKey) -> Option<TreeNode> {
        self.gets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.map.get_cloned(key)
    }

    /// Batched [`Self::get`], one read-lock acquisition per stripe.
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Option<TreeNode>> {
        self.gets
            .fetch_add(keys.len() as u64, std::sync::atomic::Ordering::Relaxed);
        let mut out: Vec<Option<TreeNode>> = vec![None; keys.len()];
        for (stripe, range) in stripe_runs(&self.map, keys.iter()) {
            let map = self.map.shard_at(stripe).read();
            for i in range {
                out[i] = map.get(&keys[i]).cloned();
            }
        }
        out
    }

    /// Batched [`Self::delete`], one write-lock acquisition per stripe.
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<bool> {
        let mut out = vec![false; keys.len()];
        for (stripe, range) in stripe_runs(&self.map, keys.iter()) {
            let mut map = self.map.shard_at(stripe).write();
            for i in range {
                out[i] = map.remove(&keys[i]).is_some();
            }
        }
        out
    }

    /// Lookup without touching the op counters (internal validation reads).
    fn peek(&self, key: &NodeKey) -> Option<TreeNode> {
        self.map.get_cloned(key)
    }

    fn delete(&self, key: &NodeKey) -> bool {
        self.map.remove(key).is_some()
    }

    /// Number of nodes stored on this provider.
    pub fn node_count(&self) -> usize {
        self.map.len()
    }

    /// `(puts, gets)` served.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.puts.load(std::sync::atomic::Ordering::Relaxed),
            self.gets.load(std::sync::atomic::Ordering::Relaxed),
        )
    }
}

/// The distributed metadata store.
#[derive(Debug)]
pub struct MetaDht {
    shards: Vec<MetaProvider>,
    replication: usize,
}

impl MetaDht {
    /// A DHT over `n` metadata providers with `replication` copies per node.
    pub fn new(n: usize, replication: usize) -> Self {
        Self::with_stripes(n, replication, DEFAULT_SHARDS)
    }

    /// Same, with an explicit per-provider lock-stripe count (`1` = the
    /// seed's global-lock layout; see `tests/ports_equivalence.rs`).
    pub fn with_stripes(n: usize, replication: usize, n_stripes: usize) -> Self {
        assert!(n > 0, "need at least one metadata provider");
        assert!(
            (1..=n).contains(&replication),
            "metadata replication {replication} must be in 1..={n}"
        );
        Self {
            shards: (0..n)
                .map(|_| MetaProvider::with_stripes(n_stripes))
                .collect(),
            replication,
        }
    }

    /// Number of metadata providers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The primary shard index for a key.
    #[inline]
    pub fn shard_of(&self, key: &NodeKey) -> usize {
        (key.hash64() % self.shards.len() as u64) as usize
    }

    /// Stores a node on its `replication` home shards.
    ///
    /// The put is validated against **every** replica that already holds
    /// the key *before* anything is inserted: a conflicting re-put
    /// ([`Error::MetadataConflict`]) must not install the forged node on a
    /// replica that happens to lack the key (e.g. a crashed-and-restarted
    /// shard) while a surviving replica still serves the original — that
    /// would diverge the replicas and let `get` answer with either copy.
    /// A matching re-put, by contrast, re-populates missing replicas
    /// (per-replica idempotent, which is also the natural re-replication
    /// path after a shard crash). Each replica's own put re-validates
    /// under its stripe lock, so concurrent racing re-puts still cannot
    /// overwrite committed content.
    pub fn put(&self, key: NodeKey, node: TreeNode) -> Result<()> {
        let primary = self.shard_of(&key);
        // The divergence scenario needs a second replica; with replication
        // 1 the per-replica validation below already covers everything, so
        // skip the pre-pass on the hot single-replica publish path.
        if self.replication > 1 {
            for i in 0..self.replication {
                let shard = (primary + i) % self.shards.len();
                if let Some(existing) = self.shards[shard].peek(&key) {
                    if existing != node {
                        return Err(Error::MetadataConflict(format!("{key:?}")));
                    }
                }
            }
        }
        for i in 0..self.replication {
            let shard = (primary + i) % self.shards.len();
            self.shards[shard].put(key, node.clone())?;
        }
        Ok(())
    }

    /// Batched [`Self::put`] with per-item results, in input order.
    ///
    /// On the hot single-replica publish path the batch is grouped by home
    /// shard and each shard processes its group under one stripe lock per
    /// stripe touched. With `replication > 1` the batch falls back to
    /// sequential per-item puts: the cross-replica divergence validation
    /// must observe every earlier item's install before the next item's
    /// pre-pass, which a grouped apply cannot guarantee.
    pub fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        if self.replication > 1 {
            return items
                .iter()
                .map(|(key, node)| self.put(*key, node.clone()))
                .collect();
        }
        let mut out: Vec<Result<()>> = (0..items.len()).map(|_| Ok(())).collect();
        for (shard, range) in self.shard_groups(items.iter().map(|(k, _)| k)) {
            let group: Vec<(NodeKey, TreeNode)> = range.iter().map(|&i| items[i].clone()).collect();
            for (slot, result) in range.into_iter().zip(self.shards[shard].put_many(&group)) {
                out[slot] = result;
            }
        }
        out
    }

    /// Batched [`Self::get`] with per-item results, in input order. Single
    /// replica: grouped by home shard, one lock acquisition per stripe.
    /// The `MissingMetadata` error is built only for keys actually missing.
    pub fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        if self.replication > 1 {
            return keys.iter().map(|key| self.get(key)).collect();
        }
        let mut found: Vec<Option<TreeNode>> = vec![None; keys.len()];
        for (shard, range) in self.shard_groups(keys.iter()) {
            let group: Vec<NodeKey> = range.iter().map(|&i| keys[i]).collect();
            for (slot, node) in range.into_iter().zip(self.shards[shard].get_many(&group)) {
                found[slot] = node;
            }
        }
        keys.iter()
            .zip(found)
            .map(|(key, node)| node.ok_or_else(|| Error::MissingMetadata(format!("{key:?}"))))
            .collect()
    }

    /// Batched [`Self::delete`]: true per item if any replica existed.
    pub fn delete_many(&self, keys: &[NodeKey]) -> Vec<bool> {
        if self.replication > 1 {
            return keys.iter().map(|key| self.delete(key)).collect();
        }
        let mut out = vec![false; keys.len()];
        for (shard, range) in self.shard_groups(keys.iter()) {
            let group: Vec<NodeKey> = range.iter().map(|&i| keys[i]).collect();
            for (slot, existed) in range
                .into_iter()
                .zip(self.shards[shard].delete_many(&group))
            {
                out[slot] = existed;
            }
        }
        out
    }

    /// Groups batch item indices by primary shard, preserving input order
    /// within each group (groups in first-appearance order).
    fn shard_groups<'a>(
        &self,
        keys: impl Iterator<Item = &'a NodeKey>,
    ) -> Vec<(usize, Vec<usize>)> {
        crate::sharded::group_indices_by(keys, |key| self.shard_of(key))
    }

    /// Fetches a node, trying replicas in order.
    pub fn get(&self, key: &NodeKey) -> Result<TreeNode> {
        let primary = self.shard_of(key);
        for i in 0..self.replication {
            let shard = (primary + i) % self.shards.len();
            if let Some(node) = self.shards[shard].get(key) {
                return Ok(node);
            }
        }
        Err(Error::MissingMetadata(format!("{key:?}")))
    }

    /// Simulates the crash of one shard by dropping its contents; used by
    /// fault-tolerance tests to show replicated metadata survives.
    pub fn crash_shard(&self, shard: usize) {
        self.shards[shard].map.clear();
    }

    /// Deletes a node from all its replicas. Returns true if any replica
    /// existed.
    pub fn delete(&self, key: &NodeKey) -> bool {
        let primary = self.shard_of(key);
        let mut existed = false;
        for i in 0..self.replication {
            let shard = (primary + i) % self.shards.len();
            existed |= self.shards[shard].delete(key);
        }
        existed
    }

    /// Total nodes stored across shards (replicas counted).
    pub fn node_count(&self) -> usize {
        self.shards.iter().map(|s| s.node_count()).sum()
    }

    /// Per-shard `(nodes, puts, gets)` — the metadata load distribution.
    pub fn shard_stats(&self) -> Vec<(usize, u64, u64)> {
        self.shards
            .iter()
            .map(|s| {
                let (p, g) = s.op_counts();
                (s.node_count(), p, g)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::key::Pos;
    use crate::meta::node::{BlockDescriptor, NodeRef};
    use blobseer_types::{BlobId, BlockId, Version};

    fn key(v: u64, start: u64, len: u64) -> NodeKey {
        NodeKey::new(BlobId::new(1), Version::new(v), Pos::new(start, len))
    }

    fn leaf(b: u64) -> TreeNode {
        TreeNode::Leaf(BlockDescriptor {
            block_id: BlockId::new(b),
            providers: vec![0],
            len: 64,
        })
    }

    #[test]
    fn put_get_roundtrip() {
        let dht = MetaDht::new(4, 1);
        dht.put(key(1, 0, 1), leaf(10)).unwrap();
        assert_eq!(dht.get(&key(1, 0, 1)).unwrap(), leaf(10));
        assert!(matches!(
            dht.get(&key(2, 0, 1)),
            Err(Error::MissingMetadata(_))
        ));
    }

    #[test]
    fn keys_spread_over_shards() {
        let dht = MetaDht::new(8, 1);
        for v in 0..256 {
            dht.put(key(v, 0, 1), leaf(v)).unwrap();
        }
        let stats = dht.shard_stats();
        let nonempty = stats.iter().filter(|(n, _, _)| *n > 0).count();
        assert_eq!(nonempty, 8, "all shards should hold nodes: {stats:?}");
        let max = stats.iter().map(|(n, _, _)| *n).max().unwrap();
        assert!(max < 100, "no shard should dominate: {stats:?}");
    }

    #[test]
    fn replication_survives_one_shard_crash() {
        let dht = MetaDht::new(4, 2);
        for v in 0..64 {
            dht.put(key(v, 0, 1), leaf(v)).unwrap();
        }
        dht.crash_shard(0);
        for v in 0..64 {
            assert!(dht.get(&key(v, 0, 1)).is_ok(), "v{v} lost after crash");
        }
    }

    #[test]
    fn unreplicated_dht_loses_data_on_crash() {
        let dht = MetaDht::new(4, 1);
        for v in 0..64 {
            dht.put(key(v, 0, 1), leaf(v)).unwrap();
        }
        dht.crash_shard(1);
        let lost = (0..64).filter(|&v| dht.get(&key(v, 0, 1)).is_err()).count();
        assert!(lost > 0, "some keys must have lived on shard 1");
    }

    #[test]
    fn delete_removes_all_replicas() {
        let dht = MetaDht::new(3, 2);
        dht.put(
            key(1, 0, 2),
            TreeNode::Inner {
                left: None,
                right: None,
            },
        )
        .unwrap();
        assert!(dht.delete(&key(1, 0, 2)));
        assert!(!dht.delete(&key(1, 0, 2)));
        assert!(dht.get(&key(1, 0, 2)).is_err());
        assert_eq!(dht.node_count(), 0);
    }

    #[test]
    fn idempotent_reput_accepted() {
        let dht = MetaDht::new(2, 1);
        let n = TreeNode::LeafAlias(Some(NodeRef {
            blob: BlobId::new(1),
            version: Version::new(1),
        }));
        dht.put(key(2, 0, 1), n.clone()).unwrap();
        dht.put(key(2, 0, 1), n.clone()).unwrap();
        assert_eq!(dht.get(&key(2, 0, 1)).unwrap(), n);
    }

    #[test]
    #[should_panic(expected = "must be in")]
    fn invalid_replication_rejected() {
        let _ = MetaDht::new(2, 3);
    }

    #[test]
    fn conflicting_reput_is_rejected_in_all_profiles() {
        // The seed's duplicate-content check was a `debug_assert_eq!`, so a
        // release build silently kept the old node. Now the conflict is a
        // hard error everywhere and the stored copy survives.
        let dht = MetaDht::new(4, 1);
        dht.put(key(1, 0, 1), leaf(10)).unwrap();
        let err = dht.put(key(1, 0, 1), leaf(11)).unwrap_err();
        assert!(matches!(err, Error::MetadataConflict(_)), "{err}");
        assert_eq!(dht.get(&key(1, 0, 1)).unwrap(), leaf(10), "original kept");
    }

    #[test]
    fn conflict_propagates_through_replication_path() {
        // With replication 2 the conflict is detected on every replica and
        // surfaces once; matching replicas stay intact.
        let dht = MetaDht::new(4, 2);
        dht.put(key(3, 0, 1), leaf(30)).unwrap();
        let err = dht.put(key(3, 0, 1), leaf(31)).unwrap_err();
        assert!(matches!(err, Error::MetadataConflict(_)), "{err}");
        // Both replicas still serve the original, even after one "crashes".
        dht.crash_shard(dht.shard_of(&key(3, 0, 1)));
        assert_eq!(dht.get(&key(3, 0, 1)).unwrap(), leaf(30));
    }

    #[test]
    fn conflict_cannot_diverge_replicas_after_shard_crash() {
        // A conflicting re-put arriving while one replica is freshly
        // crashed (empty) must not install the forged node there: the
        // surviving replica's copy wins the validation for the whole put.
        let dht = MetaDht::new(4, 2);
        let k = key(5, 0, 1);
        dht.put(k, leaf(50)).unwrap();
        dht.crash_shard(dht.shard_of(&k)); // primary loses its copy
        let err = dht.put(k, leaf(51)).unwrap_err();
        assert!(matches!(err, Error::MetadataConflict(_)), "{err}");
        // Every surviving path still serves the original — the primary was
        // not repopulated with the forged node.
        assert_eq!(dht.get(&k).unwrap(), leaf(50));
        // A *matching* re-put, however, re-replicates onto the crashed
        // shard: after it, even crashing the surviving replica loses
        // nothing.
        dht.put(k, leaf(50)).unwrap();
        dht.crash_shard((dht.shard_of(&k) + 1) % 4);
        assert_eq!(dht.get(&k).unwrap(), leaf(50));
    }

    #[test]
    fn single_stripe_dht_matches_sharded_semantics() {
        let global = MetaDht::with_stripes(4, 1, 1);
        let striped = MetaDht::with_stripes(4, 1, 32);
        for v in 0..64 {
            global.put(key(v, 0, 1), leaf(v)).unwrap();
            striped.put(key(v, 0, 1), leaf(v)).unwrap();
        }
        for v in 0..64 {
            assert_eq!(
                global.get(&key(v, 0, 1)).unwrap(),
                striped.get(&key(v, 0, 1)).unwrap()
            );
        }
        assert_eq!(global.node_count(), striped.node_count());
    }

    #[test]
    fn get_many_reports_only_missing_keys_with_the_single_get_error() {
        for replication in [1, 2] {
            let dht = MetaDht::new(4, replication);
            let present: Vec<NodeKey> = (0..8).map(|i| key(1, i, 1)).collect();
            for (i, k) in present.iter().enumerate() {
                dht.put(*k, leaf(i as u64)).unwrap();
            }
            let absent = key(9, 3, 1);
            let mut keys = present.clone();
            keys.insert(4, absent);
            let results = dht.get_many(&keys);
            assert_eq!(results.len(), keys.len());
            for (k, result) in keys.iter().zip(&results) {
                if *k == absent {
                    let err = result.as_ref().unwrap_err();
                    assert_eq!(
                        err.to_string(),
                        Error::MissingMetadata(format!("{absent:?}")).to_string()
                    );
                    assert_eq!(err, &dht.get(&absent).unwrap_err(), "same as get");
                } else {
                    assert_eq!(result.as_ref().unwrap(), &dht.get(k).unwrap());
                }
            }
        }
    }
}
