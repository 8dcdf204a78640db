//! Client-side hot-read cache tier: byte-budgeted LRU decorators over the
//! [`BlockStore`] and [`MetaStore`] ports.
//!
//! BlobSeer's concurrency control never mutates data or metadata in place:
//! a block id is written once, a tree node key `(blob, version, pos)` is
//! published once, and both are immutable from then on (§III-A.4 — the
//! versioning PR of Nicolae et al. spells this out as the property that
//! makes client caches trivially coherent). A cached copy can therefore
//! never go stale; the only cache policy needed is an eviction policy.
//! That is exactly the "many readers of one hot snapshot" workload of
//! Fig. 4: 250 clients re-descending the same segment tree and re-fetching
//! the same revealed blocks.
//!
//! The decorators wrap any adapter (`Arc<dyn …>`), so a deployment opts in
//! per port — `blobseer_rpc::LoopbackCluster::deploy` wires them over the
//! TCP adapters when [`blobseer_types::BlobSeerConfig::read_cache_bytes`]
//! is non-zero, and the figure reproductions keep them off (the paper's
//! curves are cache-cold).
//!
//! Every client handle already memoizes the tree nodes it published or
//! fetched (`meta::tree::NodeMemo`, built on the same `Lru` engine), so
//! a writer re-reading its own versions, or a handle re-descending a tree
//! it walked before, skips the DHT without any decorator. Above that memo
//! the decorators add two things: [`CachedMetaStore`] shares nodes across
//! every handle of a deployment (one handle's fetch warms the others), and
//! [`CachedBlockStore`] caches block payloads, which the memo never holds.
//!
//! Transparency contract: a cached deployment is observably equivalent to
//! an uncached one for every `Result`-carrying operation
//! (`tests/ports_equivalence.rs` holds the decorators to it). Block
//! entries are keyed `(provider, block id)` — strictly finer than block
//! identity — so per-provider semantics (a replica miss that triggers
//! fetch-fallback, per-provider op accounting) survive the decoration.
//! Hits, misses and evictions are counted on
//! [`EngineStats::cache_hits`]/[`EngineStats::cache_misses`]/
//! [`EngineStats::cache_evictions`].

use crate::meta::key::NodeKey;
use crate::meta::node::TreeNode;
use crate::ports::{BlockStore, MetaStore};
use crate::stats::EngineStats;
use blobseer_types::{BlockId, NodeId, Result};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A byte-budgeted LRU map. Not a port itself — the engine behind both
/// decorators and behind each client handle's tree-node memo
/// (`meta::tree::NodeMemo`). Entries larger than the whole budget are
/// refused (caching them would evict everything for a single-use payload).
pub(crate) struct Lru<K, V> {
    map: HashMap<K, LruEntry<V>>,
    /// Recency index: tick → key, oldest first. Ticks are unique, so the
    /// first entry is always the least recently used.
    order: BTreeMap<u64, K>,
    tick: u64,
    bytes: u64,
    budget: u64,
}

struct LruEntry<V> {
    value: V,
    size: u64,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    pub(crate) fn new(budget: u64) -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            budget,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks a key up and marks it most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let tick = self.next_tick();
        let entry = self.map.get_mut(key)?;
        self.order.remove(&entry.tick);
        entry.tick = tick;
        self.order.insert(tick, key.clone());
        Some(entry.value.clone())
    }

    /// Inserts (or refreshes) an entry, evicting least-recently-used
    /// entries until the budget holds. Returns how many entries were
    /// evicted. Values are immutable in this engine, so a re-insert under
    /// an existing key only refreshes recency.
    pub(crate) fn insert(&mut self, key: K, value: V, size: u64) -> u64 {
        if size > self.budget {
            return 0;
        }
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&old.tick);
            self.bytes -= old.size;
        }
        let tick = self.next_tick();
        self.bytes += size;
        self.order.insert(tick, key.clone());
        self.map.insert(key, LruEntry { value, size, tick });
        let mut evicted = 0;
        while self.bytes > self.budget {
            let (&oldest, _) = self.order.iter().next().expect("bytes>0 implies entries"); // lint:allow(no-unwrap): Lru invariant: bytes>0 implies resident entries
            let victim = self.order.remove(&oldest).expect("key just observed"); // lint:allow(no-unwrap): key returned by the iterator one line up
            let entry = self.map.remove(&victim).expect("order and map in sync"); // lint:allow(no-unwrap): Lru invariant: order and map always agree
            self.bytes -= entry.size;
            evicted += 1;
        }
        evicted
    }

    fn remove(&mut self, key: &K) {
        if let Some(entry) = self.map.remove(key) {
            self.order.remove(&entry.tick);
            self.bytes -= entry.size;
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }

    /// Budget units currently resident.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// [`BlockStore`] decorator serving repeated block fetches from a
/// byte-budgeted LRU over [`Bytes`] (zero-copy: a hit hands back a
/// refcount bump of the cached buffer).
pub struct CachedBlockStore {
    inner: Arc<dyn BlockStore>,
    lru: Mutex<Lru<(usize, BlockId), Bytes>>,
    stats: Arc<EngineStats>,
}

impl CachedBlockStore {
    /// Wraps `inner` with a cache of at most `budget_bytes` payload bytes.
    /// Hit/miss/eviction counters land on `stats`.
    pub fn new(inner: Arc<dyn BlockStore>, budget_bytes: u64, stats: Arc<EngineStats>) -> Self {
        Self {
            inner,
            lru: Mutex::named(Lru::new(budget_bytes), "cache.blocks.lru"),
            stats,
        }
    }

    fn count(&self, hits: u64, misses: u64, evictions: u64) {
        let add = |c: &std::sync::atomic::AtomicU64, n: u64| {
            if n > 0 {
                c.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&self.stats.cache_hits, hits);
        add(&self.stats.cache_misses, misses);
        add(&self.stats.cache_evictions, evictions);
    }
}

impl BlockStore for CachedBlockStore {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn node(&self, provider: usize) -> NodeId {
        self.inner.node(provider)
    }

    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.inner.index_of_node(node)
    }

    fn contains(&self, provider: usize, id: BlockId) -> bool {
        self.inner.contains(provider, id)
    }

    /// Write-through, write-allocate: the stored bytes are the bytes a
    /// reader would fetch (blocks are immutable), and a writer's own
    /// blocks are the hottest read candidates right after the commit.
    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        let results = self.inner.put_many(provider, items);
        let mut evicted = 0;
        {
            let mut lru = self.lru.lock();
            for ((id, data), result) in items.iter().zip(&results) {
                if result.is_ok() {
                    evicted += lru.insert((provider, *id), data.clone(), data.len() as u64);
                }
            }
        }
        self.count(0, 0, evicted);
        results
    }

    /// The vectored read-path hot spot: answered per item from the cache,
    /// with one inner `get_many` covering exactly the misses.
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        let mut out: Vec<Option<Result<Bytes>>> = vec![None; ids.len()];
        let mut missed: Vec<(usize, BlockId)> = Vec::new();
        {
            let mut lru = self.lru.lock();
            for (slot, &id) in ids.iter().enumerate() {
                match lru.get(&(provider, id)) {
                    Some(hit) => out[slot] = Some(Ok(hit)),
                    None => missed.push((slot, id)),
                }
            }
        }
        let hits = (ids.len() - missed.len()) as u64;
        let misses = missed.len() as u64;
        let mut evicted = 0;
        if !missed.is_empty() {
            let miss_ids: Vec<BlockId> = missed.iter().map(|&(_, id)| id).collect();
            let fetched = self.inner.get_many(provider, &miss_ids);
            let mut lru = self.lru.lock();
            for (&(slot, id), result) in missed.iter().zip(fetched) {
                if let Ok(data) = &result {
                    evicted += lru.insert((provider, id), data.clone(), data.len() as u64);
                }
                out[slot] = Some(result);
            }
        }
        self.count(hits, misses, evicted);
        out.into_iter()
            .map(|r| r.expect("every slot answered")) // lint:allow(no-unwrap): batched dispatch fills every slot exactly once
            .collect()
    }

    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        {
            let mut lru = self.lru.lock();
            for &id in ids {
                lru.remove(&(provider, id));
            }
        }
        self.inner.delete_many(provider, ids)
    }

    fn block_count(&self, provider: usize) -> usize {
        self.inner.block_count(provider)
    }

    fn bytes_stored(&self, provider: usize) -> u64 {
        self.inner.bytes_stored(provider)
    }

    fn op_counts(&self, provider: usize) -> (u64, u64) {
        self.inner.op_counts(provider)
    }

    fn layout_vector(&self) -> Vec<u64> {
        self.inner.layout_vector()
    }
}

/// Approximate in-memory footprint of one cached tree node, for the byte
/// budget. Tree nodes are tens of bytes; exactness does not matter, only
/// that a budget bounds the cache.
pub(crate) fn node_size(node: &TreeNode) -> u64 {
    match node {
        TreeNode::Inner { .. } => 48,
        TreeNode::Leaf(d) => 48 + 8 * d.providers.len() as u64,
        TreeNode::LeafAlias(_) => 32,
    }
}

/// [`MetaStore`] decorator caching segment-tree nodes by [`NodeKey`] —
/// the read descent's per-level `get_many` is its hot path.
pub struct CachedMetaStore {
    inner: Arc<dyn MetaStore>,
    lru: Mutex<Lru<NodeKey, TreeNode>>,
    stats: Arc<EngineStats>,
}

impl CachedMetaStore {
    /// Wraps `inner` with a cache of roughly `budget_bytes` of tree nodes.
    /// Hit/miss/eviction counters land on `stats`.
    pub fn new(inner: Arc<dyn MetaStore>, budget_bytes: u64, stats: Arc<EngineStats>) -> Self {
        Self {
            inner,
            lru: Mutex::named(Lru::new(budget_bytes), "cache.meta.lru"),
            stats,
        }
    }

    fn count(&self, hits: u64, misses: u64, evictions: u64) {
        let add = |c: &std::sync::atomic::AtomicU64, n: u64| {
            if n > 0 {
                c.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&self.stats.cache_hits, hits);
        add(&self.stats.cache_misses, misses);
        add(&self.stats.cache_evictions, evictions);
    }
}

impl MetaStore for CachedMetaStore {
    /// Write-through, write-allocate (a publish's nodes are descended
    /// moments later by the writer's own readers). Failed puts (e.g.
    /// [`blobseer_types::Error::MetadataConflict`]) cache nothing.
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        let results = self.inner.put_many(items);
        let mut evicted = 0;
        {
            let mut lru = self.lru.lock();
            for ((key, node), result) in items.iter().zip(&results) {
                if result.is_ok() {
                    evicted += lru.insert(*key, node.clone(), node_size(node));
                }
            }
        }
        self.count(0, 0, evicted);
        results
    }

    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        let mut out: Vec<Option<Result<TreeNode>>> = vec![None; keys.len()];
        let mut missed: Vec<(usize, NodeKey)> = Vec::new();
        {
            let mut lru = self.lru.lock();
            for (slot, key) in keys.iter().enumerate() {
                match lru.get(key) {
                    Some(hit) => out[slot] = Some(Ok(hit)),
                    None => missed.push((slot, *key)),
                }
            }
        }
        let hits = (keys.len() - missed.len()) as u64;
        let misses = missed.len() as u64;
        let mut evicted = 0;
        if !missed.is_empty() {
            let miss_keys: Vec<NodeKey> = missed.iter().map(|&(_, key)| key).collect();
            let fetched = self.inner.get_many(&miss_keys);
            let mut lru = self.lru.lock();
            for (&(slot, key), result) in missed.iter().zip(fetched) {
                if let Ok(node) = &result {
                    evicted += lru.insert(key, node.clone(), node_size(node));
                }
                out[slot] = Some(result);
            }
        }
        self.count(hits, misses, evicted);
        out.into_iter()
            .map(|r| r.expect("every slot answered")) // lint:allow(no-unwrap): batched dispatch fills every slot exactly once
            .collect()
    }

    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        {
            let mut lru = self.lru.lock();
            for key in keys {
                lru.remove(key);
            }
        }
        self.inner.delete_many(keys)
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn shard_stats(&self) -> Vec<(usize, u64, u64)> {
        self.inner.shard_stats()
    }

    /// The crash hook drops server-side state; cached copies of the lost
    /// shard must not mask it, so the whole cache drops too (keys don't
    /// reveal their shard here) — a crashed deployment then observes the
    /// same errors an uncached one would.
    fn crash_shard(&self, shard: usize) {
        self.lru.lock().clear();
        self.inner.crash_shard(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_store::ProviderSet;
    use crate::dht::MetaDht;
    use crate::meta::key::Pos;
    use crate::meta::node::BlockDescriptor;
    use blobseer_types::{BlobId, Version};

    fn payload(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    #[test]
    fn lru_evicts_least_recently_used_within_budget() {
        let mut lru: Lru<u64, u64> = Lru::new(30);
        assert_eq!(lru.insert(1, 10, 10), 0);
        assert_eq!(lru.insert(2, 20, 10), 0);
        assert_eq!(lru.insert(3, 30, 10), 0);
        // Touch 1, so 2 is now the coldest.
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.insert(4, 40, 10), 1, "one eviction to make room");
        assert_eq!(lru.get(&2), None, "the untouched entry was evicted");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.get(&4), Some(40));
    }

    #[test]
    fn lru_refuses_oversized_entries_and_reinserts_refresh() {
        let mut lru: Lru<u64, u64> = Lru::new(10);
        assert_eq!(lru.insert(1, 1, 11), 0, "over budget: not cached");
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.insert(2, 2, 6), 0);
        // Re-insert of the same key replaces, never double-counts.
        assert_eq!(lru.insert(2, 2, 6), 0);
        assert_eq!(lru.bytes, 6);
    }

    #[test]
    fn cached_blocks_hit_after_miss_and_counters_track() {
        let stats = Arc::new(EngineStats::new());
        let inner = Arc::new(ProviderSet::new(2, |i| NodeId::new(i as u64)));
        let store = CachedBlockStore::new(inner.clone(), 1 << 20, Arc::clone(&stats));
        store.put(0, BlockId::new(1), payload(64, 0xAB)).unwrap();
        // Put is write-allocate: the first read is already a hit.
        assert_eq!(&store.get(0, BlockId::new(1)).unwrap()[..], &[0xAB; 64]);
        let snap = stats.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 0));
        // An uncached id misses once, then hits.
        inner.put(1, BlockId::new(2), payload(16, 1)).unwrap();
        let ids = [BlockId::new(2), BlockId::new(2)];
        for r in store.get_many(1, &ids) {
            assert_eq!(r.unwrap().len(), 16);
        }
        let snap = stats.snapshot();
        // One batch is resolved against the cache as a unit, so both
        // lookups of the uncached id count as misses …
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 2));
        // … and the next call hits.
        assert_eq!(store.get(1, BlockId::new(2)).unwrap().len(), 16);
        let snap = stats.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (2, 2));
    }

    #[test]
    fn cached_block_delete_invalidates() {
        let stats = Arc::new(EngineStats::new());
        let inner = Arc::new(ProviderSet::new(1, |i| NodeId::new(i as u64)));
        let store = CachedBlockStore::new(inner, 1 << 20, Arc::clone(&stats));
        store.put(0, BlockId::new(7), payload(8, 9)).unwrap();
        assert_eq!(store.delete(0, BlockId::new(7)).unwrap(), 8);
        assert!(
            store.get(0, BlockId::new(7)).is_err(),
            "deleted block must not be served from cache"
        );
    }

    #[test]
    fn cached_meta_serves_descent_nodes_and_respects_conflicts() {
        let stats = Arc::new(EngineStats::new());
        let inner = Arc::new(MetaDht::new(4, 1));
        let dht = CachedMetaStore::new(inner, 1 << 16, Arc::clone(&stats));
        let key = NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(0, 1));
        let leaf = TreeNode::Leaf(BlockDescriptor {
            block_id: BlockId::new(42),
            providers: vec![0],
            len: 64,
        });
        dht.put(key, leaf.clone()).unwrap();
        assert_eq!(dht.get(&key).unwrap(), leaf);
        assert!(stats.snapshot().cache_hits >= 1);
        // Immutability still enforced end to end: a conflicting re-put
        // fails on the backend and must not poison the cache.
        assert!(dht.put(key, TreeNode::LeafAlias(None)).is_err());
        assert_eq!(dht.get(&key).unwrap(), leaf);
    }

    #[test]
    fn eviction_counter_moves_under_pressure() {
        let stats = Arc::new(EngineStats::new());
        let inner = Arc::new(ProviderSet::new(1, |i| NodeId::new(i as u64)));
        // Budget of two blocks; storing four evicts two.
        let store = CachedBlockStore::new(inner, 128, Arc::clone(&stats));
        for i in 0..4u64 {
            store.put(0, BlockId::new(i), payload(64, i as u8)).unwrap();
        }
        assert_eq!(stats.snapshot().cache_evictions, 2);
    }
}
