//! Building and traversing the versioned distributed segment trees.
//!
//! **Publishing** (§III-D): after the data blocks are stored and the version
//! manager assigned a version number, the writer generates the tree nodes
//! that its write materializes (see `meta::log` for the rule) and weaves
//! them with existing metadata: every child outside the written range is a
//! *reference* to the latest lower version materializing that position —
//! computed purely from the write log, so references to still-in-flight
//! concurrent writers work ("the client is able to predict the values
//! corresponding to the metadata that is being written", §III-D).
//!
//! **Reading** (§III-C): descend from the root of the requested snapshot,
//! following child references across versions, visiting only subtrees that
//! intersect the requested range, and collect leaf block descriptors.
//!
//! **Memoizing** ([`NodeMemo`]): a node key `(blob, version, pos)` is
//! written once and never changes, so a client handle may keep any node it
//! knows to be final and skip the DHT for it on its next descent.

use super::key::{BlockRange, NodeKey, Pos};
use super::log::{LogChain, LogEntry};
use super::node::{BlockDescriptor, NodeRef, TreeNode};
use crate::cache::{node_size, Lru};
use crate::exec::FanoutExecutor;
use crate::ports::{GcService, MetaStore};
use crate::sharded::group_indices_by;
use crate::stats::EngineStats;
use blobseer_types::{BlobId, Error, Result, Version};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Budget of one client handle's [`NodeMemo`], in [`node_size`] units
/// (about 40k nodes). The smallest power of two at which a handle
/// re-reading its own recent versions — perfbench's `small-rw`, 64-block
/// ops over a 16 MiB blob with 128 kept versions — almost never descends
/// through the DHT (0.09 descent frames per op); at half of it the memo
/// thrashes (2.5).
pub(crate) const NODE_MEMO_BUDGET: u64 = 2 << 20;

/// One client handle's memo of segment-tree nodes, shared by the handle's
/// clones. It only ever holds nodes that can no longer change:
///
/// * **write-through** — a writer's whole publish batch, inserted once
///   its commit returned `Ok` (a failed publish or root registration is
///   repaired by force-replacing the version's keys, and a failed commit
///   leaves the version in doubt, so none of those batches goes in);
/// * **read-through** — every node a descent fetched for a revealed
///   snapshot, whose whole tree is committed.
///
/// The lock (class `client.node_memo`) is never held across a port call.
/// Only client handles create memos ([`crate::BlobClient`]); other
/// [`TreeStore`] users pass `memo: None`.
pub struct NodeMemo {
    lru: Mutex<Lru<NodeKey, TreeNode>>,
}

impl NodeMemo {
    /// An empty memo holding at most `budget` [`node_size`] units.
    pub(crate) fn new(budget: u64) -> Self {
        Self {
            lru: Mutex::named(Lru::new(budget), "client.node_memo"),
        }
    }

    /// The memoized node of each key, in input order.
    fn lookup(&self, keys: &[NodeKey]) -> Vec<Option<TreeNode>> {
        let mut lru = self.lru.lock();
        keys.iter().map(|key| lru.get(key)).collect()
    }

    /// Memoizes final nodes, evicting the least recently used past the
    /// budget.
    pub(crate) fn insert(&self, nodes: impl IntoIterator<Item = (NodeKey, TreeNode)>) {
        let mut lru = self.lru.lock();
        for (key, node) in nodes {
            let size = node_size(&node);
            lru.insert(key, node, size);
        }
    }

    /// Budget units currently resident.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> u64 {
        self.lru.lock().bytes()
    }
}

/// A located block within a snapshot: its index and the descriptor of the
/// stored block covering it (`None` = never-written hole, reads as zeros).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocatedBlock {
    /// Block index within the BLOB.
    pub index: u64,
    /// Descriptor, or `None` for a hole.
    pub desc: Option<BlockDescriptor>,
}

/// How to populate the leaves a write materializes.
enum LeafMode<'a> {
    /// Normal write: leaves carry the freshly stored blocks.
    Blocks(&'a HashMap<u64, BlockDescriptor>),
    /// Abort repair: leaves alias the previous version's leaves, restoring
    /// prior content without any data movement.
    Repair,
}

/// Per-publish state threaded through the [`TreeStore::build`] recursion:
/// what is being published, and the nodes it produces, grouped by depth.
struct BuildCx<'a, 'b> {
    blob: BlobId,
    entry: &'a LogEntry,
    chain: &'a LogChain,
    mode: &'a LeafMode<'b>,
    levels: Vec<Vec<(NodeKey, TreeNode)>>,
    /// GC child references the build discovers, registered with a single
    /// batched [`GcService::inc_nodes`] call (one control frame against a
    /// hosted refcount service instead of one per reference).
    incs: Vec<NodeKey>,
}

/// Metadata operations bound to one deployment's metadata backend (any
/// [`MetaStore`] adapter), GC service, stats and fan-out executor, plus
/// the calling client handle's node memo, if any.
#[derive(Clone, Copy)]
pub struct TreeStore<'a> {
    pub dht: &'a Arc<dyn MetaStore>,
    pub gc: &'a Arc<dyn GcService>,
    pub stats: &'a EngineStats,
    pub exec: &'a FanoutExecutor,
    pub memo: Option<&'a NodeMemo>,
}

/// A published tree: its root key and every node the publish put, for the
/// writer to memoize once the version committed.
pub struct Published {
    /// The new version's root key.
    pub root: NodeKey,
    /// Every node of the publish batch.
    pub nodes: Vec<(NodeKey, TreeNode)>,
}

impl<'a> TreeStore<'a> {
    /// One publish batch's vectored put, fanned out across the backend's
    /// independently reachable DHT shards ([`MetaStore::fanout_shard`];
    /// single-endpoint backends get exactly one `put_many`). Results come
    /// back in input order.
    fn put_batch(&self, batch: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        let groups = group_indices_by(batch.iter().map(|(key, _)| *key), |key| {
            self.dht.fanout_shard(key)
        });
        self.stats.record_fanout(groups.len());
        if groups.len() <= 1 {
            return self.dht.put_many(batch);
        }
        let jobs: Vec<_> = groups
            .iter()
            .map(|(_, indices)| {
                let dht = Arc::clone(self.dht);
                let items: Vec<(NodeKey, TreeNode)> =
                    indices.iter().map(|&i| batch[i].clone()).collect();
                move || dht.put_many(&items)
            })
            .collect();
        let mut out: Vec<Option<Result<()>>> = (0..batch.len()).map(|_| None).collect();
        for ((_, indices), results) in groups.iter().zip(self.exec.fanout(jobs)) {
            for (&i, result) in indices.iter().zip(results) {
                out[i] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every batch item grouped exactly once")) // lint:allow(no-unwrap): grouping assigns each item to exactly one slot
            .collect()
    }

    /// One level's vectored fetch, fanned out across DHT shards like
    /// [`Self::put_batch`]. Results come back in input order.
    fn get_level(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        let groups = group_indices_by(keys.iter().copied(), |key| self.dht.fanout_shard(key));
        self.stats.record_fanout(groups.len());
        if groups.len() <= 1 {
            return self.dht.get_many(keys);
        }
        let jobs: Vec<_> = groups
            .iter()
            .map(|(_, indices)| {
                let dht = Arc::clone(self.dht);
                let subset: Vec<NodeKey> = indices.iter().map(|&i| keys[i]).collect();
                move || dht.get_many(&subset)
            })
            .collect();
        let mut out: Vec<Option<Result<TreeNode>>> = (0..keys.len()).map(|_| None).collect();
        for ((_, indices), results) in groups.iter().zip(self.exec.fanout(jobs)) {
            for (&i, result) in indices.iter().zip(results) {
                out[i] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every frontier key grouped exactly once")) // lint:allow(no-unwrap): grouping assigns each key to exactly one slot
            .collect()
    }

    /// One descent level, answered from the handle's memo where it can:
    /// only the misses go to [`Self::get_level`], so a level whose whole
    /// frontier hits costs no round trip. Fetched nodes are memoized.
    fn fetch_level(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        let Some(memo) = self.memo else {
            return self.get_level(keys);
        };
        let mut out: Vec<Option<Result<TreeNode>>> = memo
            .lookup(keys)
            .into_iter()
            .map(|hit| hit.map(Ok))
            .collect();
        let missed: Vec<usize> = (0..keys.len()).filter(|&i| out[i].is_none()).collect();
        EngineStats::add(
            &self.stats.meta_memo_hits,
            (keys.len() - missed.len()) as u64,
        );
        if !missed.is_empty() {
            let miss_keys: Vec<NodeKey> = missed.iter().map(|&i| keys[i]).collect();
            let fetched = self.get_level(&miss_keys);
            memo.insert(
                miss_keys
                    .iter()
                    .zip(&fetched)
                    .filter_map(|(key, node)| Some((*key, node.as_ref().ok()?.clone()))),
            );
            for (i, result) in missed.into_iter().zip(fetched) {
                out[i] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every frontier key answered")) // lint:allow(no-unwrap): each slot is a memo hit or one of the fetched misses
            .collect()
    }

    /// Publishes the metadata of a normal write. `leaves` maps each block
    /// index in `entry.blocks` to its descriptor. Returns the new root key
    /// and the published nodes.
    ///
    /// Fails when the backend rejects a node put (a conflicting re-put —
    /// [`Error::MetadataConflict`] — or an injected fault); the nodes that
    /// did land stay in place, exactly like a writer that crashed halfway
    /// through its metadata phase (§VI-B), and no GC reference is counted
    /// for them.
    pub fn publish_write(
        &self,
        blob: BlobId,
        entry: &LogEntry,
        chain: &LogChain,
        leaves: &HashMap<u64, BlockDescriptor>,
    ) -> Result<Published> {
        debug_assert!(
            entry.blocks.iter().all(|b| leaves.contains_key(&b)),
            "every written block needs a descriptor"
        );
        self.publish(blob, entry, chain, LeafMode::Blocks(leaves))
    }

    /// Publishes *repair* metadata for an aborted write: the same node
    /// positions a normal write would create, but every leaf aliases the
    /// previous version's content. Readers of this version observe the
    /// previous snapshot's bytes over the aborted range (zeros where the
    /// range extended the BLOB). Returns the new root key.
    pub fn publish_repair(
        &self,
        blob: BlobId,
        entry: &LogEntry,
        chain: &LogChain,
    ) -> Result<NodeKey> {
        Ok(self.publish(blob, entry, chain, LeafMode::Repair)?.root)
    }

    fn publish(
        &self,
        blob: BlobId,
        entry: &LogEntry,
        chain: &LogChain,
        mode: LeafMode<'_>,
    ) -> Result<Published> {
        let root = Pos::root(entry.cap_after);
        debug_assert!(
            entry.materializes(root),
            "a write always materializes its root"
        );
        // Build every materialized node locally first — weaving is pure
        // write-log computation (§III-D: "the client is able to predict
        // the values corresponding to the metadata that is being
        // written") — grouped by tree depth.
        let mut cx = BuildCx {
            blob,
            entry,
            chain,
            mode: &mode,
            levels: Vec::new(),
            incs: Vec::new(),
        };
        let r = self.build(&mut cx, root, 0);
        debug_assert_eq!(
            r,
            Some(NodeRef {
                blob,
                version: entry.version
            })
        );
        let BuildCx { levels, incs, .. } = cx;
        // Publish the whole tree as one batch — one `put_many` per
        // reachable DHT shard, so a single-endpoint backend pays one round
        // trip per publish. No level barrier is needed: a version's nodes
        // are unreachable until the version manager reveals it, which
        // happens only after this publish returned (§III-A.5), so readers
        // never depend on the order nodes land in. The levels are still
        // concatenated deepest first, so a backend that applies a batch
        // sequentially lands children before the parents that reference
        // them. A failed item leaves an arbitrary subset of the other
        // nodes in place (the crashed-writer shape of §VI-B).
        let batch: Vec<(NodeKey, TreeNode)> = levels.into_iter().rev().flatten().collect();
        let is_repair = matches!(mode, LeafMode::Repair);
        let mut first_err = None;
        let mut conflicts: Vec<usize> = Vec::new();
        for (i, result) in self.put_batch(&batch).into_iter().enumerate() {
            match result {
                Ok(()) => EngineStats::add(&self.stats.meta_nodes_written, 1),
                Err(Error::MetadataConflict(_)) if is_repair => conflicts.push(i),
                Err(e) if first_err.is_none() => first_err = Some(e),
                Err(_) => {}
            }
        }
        // A repair owns its version's keys — no other writer ever
        // publishes under this (blob, version). A conflicting node at one
        // of them is a remnant of the aborted attempt, which may have
        // landed any subset of its batch: force-replace it with the alias
        // metadata, or a transiently refused put would strand the version
        // forever behind its own half-published tree.
        if !conflicts.is_empty() {
            let keys: Vec<NodeKey> = conflicts.iter().map(|&i| batch[i].0).collect();
            let _ = self.dht.delete_many(&keys);
            let retry: Vec<(NodeKey, TreeNode)> =
                conflicts.iter().map(|&i| batch[i].clone()).collect();
            for result in self.dht.put_many(&retry) {
                match result {
                    Ok(()) => EngineStats::add(&self.stats.meta_nodes_written, 1),
                    Err(e) if first_err.is_none() => first_err = Some(e),
                    Err(_) => {}
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // Count the child references only once the whole tree landed, so
        // every version's edges are counted exactly once: an aborted
        // attempt counts nothing, and the repair that replaces it counts
        // its own tree. Nothing is lost by counting late — the tree is
        // unreachable until its version is revealed, and every older node
        // it weaves in stays referenced by the latest revealed snapshot
        // (never collected) or by an unrevealed lower version.
        if !incs.is_empty() {
            self.gc.inc_nodes(&incs)?;
        }
        Ok(Published {
            root: NodeKey::new(blob, entry.version, root),
            nodes: batch,
        })
    }

    /// Recursively materializes `pos` if the write covers it — appending
    /// the node to its depth's batch in `cx.levels` — else returns a woven
    /// reference to the latest earlier materializer.
    fn build(&self, cx: &mut BuildCx<'_, '_>, pos: Pos, depth: usize) -> Option<NodeRef> {
        if !cx.entry.materializes(pos) {
            // Weave: reference the latest lower version materializing this
            // position (possibly still being written by a concurrent
            // writer), or a hole.
            return cx
                .chain
                .materializer_before(pos, cx.entry.version)
                .map(|m| NodeRef {
                    blob: m.blob,
                    version: m.version,
                });
        }
        let key = NodeKey::new(cx.blob, cx.entry.version, pos);
        let node = if pos.is_leaf() {
            match cx.mode {
                LeafMode::Blocks(leaves) => {
                    let desc = leaves
                        .get(&pos.start)
                        .expect("materialized leaf must have a descriptor") // lint:allow(no-unwrap): LeafMode::Blocks materializes a descriptor per leaf
                        .clone();
                    TreeNode::Leaf(desc)
                }
                LeafMode::Repair => {
                    let target = cx
                        .chain
                        .materializer_before(pos, cx.entry.version)
                        .map(|m| NodeRef {
                            blob: m.blob,
                            version: m.version,
                        });
                    if let Some(t) = target {
                        cx.incs.push(NodeKey::new(t.blob, t.version, pos));
                    }
                    TreeNode::LeafAlias(target)
                }
            }
        } else {
            let left = self.build(cx, pos.left(), depth + 1);
            let right = self.build(cx, pos.right(), depth + 1);
            if let Some(l) = left {
                cx.incs.push(NodeKey::new(l.blob, l.version, pos.left()));
            }
            if let Some(r) = right {
                cx.incs.push(NodeKey::new(r.blob, r.version, pos.right()));
            }
            TreeNode::Inner { left, right }
        };
        if cx.levels.len() <= depth {
            cx.levels.resize_with(depth + 1, Vec::new);
        }
        cx.levels[depth].push((key, node));
        Some(NodeRef {
            blob: cx.blob,
            version: cx.entry.version,
        })
    }

    /// Registers the root of a committed version (one GC reference — one
    /// control frame against a hosted refcount service).
    pub fn register_root(&self, root: NodeKey) -> Result<()> {
        self.gc.inc_nodes(&[root])
    }

    /// Locates the blocks covering `query` in the snapshot rooted at
    /// `(root_blob, version)` with tree capacity `cap` blocks.
    ///
    /// Returns one entry per block in `query`, in increasing index order;
    /// holes yield `desc: None`.
    ///
    /// The descent is level-synchronous: every node of one tree level that
    /// intersects the query is fetched with one [`MetaStore::get_many`]
    /// per reachable DHT shard, issued concurrently through the fan-out
    /// executor — hops between levels stay sequential (a
    /// child reference is only known once its parent arrived, §III-C), but
    /// a remote backend pays one round trip per level instead of one per
    /// node. Alias chains extend the frontier at the same position, so a
    /// chain of `k` aliases adds `k` extra rounds for those entries only.
    ///
    /// With a handle's memo attached, each level sends only its memo
    /// misses and memoizes what it fetched — so callers must pass a
    /// *revealed* snapshot, whose whole tree is final.
    pub fn locate(
        &self,
        root_blob: BlobId,
        version: Version,
        cap: u64,
        query: BlockRange,
    ) -> Result<Vec<LocatedBlock>> {
        if query.is_empty() {
            return Ok(Vec::new());
        }
        if cap == 0 {
            return Err(Error::Internal(format!(
                "locate on empty tree for {root_blob} {version}"
            )));
        }
        let mut slots: Vec<Option<LocatedBlock>> = vec![None; query.len() as usize];
        let slot_of = |index: u64| (index - query.start) as usize;
        let mut frontier = vec![NodeKey::new(root_blob, version, Pos::root(cap))];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for (key, fetched) in frontier.iter().zip(self.fetch_level(&frontier)) {
                let node = fetched?;
                EngineStats::add(&self.stats.meta_nodes_read, 1);
                match node {
                    TreeNode::Leaf(desc) => {
                        slots[slot_of(key.pos.start)] = Some(LocatedBlock {
                            index: key.pos.start,
                            desc: Some(desc),
                        });
                    }
                    TreeNode::LeafAlias(Some(target)) => {
                        // Follow the alias chain at the same position.
                        next.push(NodeKey::new(target.blob, target.version, key.pos));
                    }
                    TreeNode::LeafAlias(None) => {
                        slots[slot_of(key.pos.start)] = Some(LocatedBlock {
                            index: key.pos.start,
                            desc: None,
                        });
                    }
                    TreeNode::Inner { left, right } => {
                        for (child_pos, child_ref) in
                            [(key.pos.left(), left), (key.pos.right(), right)]
                        {
                            if !child_pos.intersects(&query) {
                                continue;
                            }
                            match child_ref {
                                Some(r) => {
                                    next.push(NodeKey::new(r.blob, r.version, child_pos));
                                }
                                None => {
                                    // A hole subtree: every queried block
                                    // in it is a hole.
                                    let lo = child_pos.start.max(query.start);
                                    let hi = child_pos.end().min(query.end);
                                    for index in lo..hi {
                                        slots[slot_of(index)] =
                                            Some(LocatedBlock { index, desc: None });
                                    }
                                }
                            }
                        }
                    }
                }
            }
            frontier = next;
        }
        let out: Vec<LocatedBlock> = slots
            .into_iter()
            .map(|s| s.expect("descent covered every queried block")) // lint:allow(no-unwrap): descent covers every queried block or errors earlier
            .collect();
        debug_assert_eq!(out.len() as u64, query.len());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dht::MetaDht;
    use crate::meta::log::LogSegment;
    use blobseer_types::BlockId;
    use parking_lot::RwLock;
    use std::sync::Arc;

    struct Fx {
        dht: Arc<dyn MetaStore>,
        gc: Arc<dyn GcService>,
        stats: EngineStats,
        exec: FanoutExecutor,
        log: Arc<RwLock<Vec<LogEntry>>>,
        blob: BlobId,
    }

    impl Fx {
        fn new() -> Self {
            Self {
                dht: Arc::new(MetaDht::new(4, 1)),
                gc: Arc::new(crate::gc::GcTracker::new()),
                stats: EngineStats::new(),
                exec: FanoutExecutor::new(2),
                log: Arc::new(RwLock::new(Vec::new())),
                blob: BlobId::new(1),
            }
        }

        fn store(&self) -> TreeStore<'_> {
            TreeStore {
                dht: &self.dht,
                gc: &self.gc,
                stats: &self.stats,
                exec: &self.exec,
                memo: None,
            }
        }

        fn chain(&self) -> LogChain {
            LogChain::new(vec![LogSegment::full(
                self.blob,
                Arc::clone(&self.log),
                Version::ZERO,
                Version::new(u64::MAX),
            )])
        }

        /// Assign-then-publish a write of whole blocks [start, end) with
        /// block ids start*100+v.
        fn write(&self, v: u64, start: u64, end: u64) -> NodeKey {
            let (cap_before, size_before) = {
                let log = self.log.read();
                log.last()
                    .map(|e| (e.cap_after, e.size_after))
                    .unwrap_or((0, 0))
            };
            let size_after = size_before.max(end * 64);
            let entry = LogEntry {
                version: Version::new(v),
                blocks: BlockRange::new(start, end),
                cap_before,
                cap_after: size_after.div_ceil(64).next_power_of_two().max(1),
                size_after,
            };
            self.log.write().push(entry);
            let leaves: HashMap<u64, BlockDescriptor> = (start..end)
                .map(|b| {
                    (
                        b,
                        BlockDescriptor {
                            block_id: BlockId::new(b * 100 + v),
                            providers: vec![(b % 3) as u32],
                            len: 64,
                        },
                    )
                })
                .collect();
            self.store()
                .publish_write(self.blob, &entry, &self.chain(), &leaves)
                .unwrap()
                .root
        }

        fn blocks_of(&self, v: u64, cap: u64, q: (u64, u64)) -> Vec<Option<u64>> {
            self.store()
                .locate(self.blob, Version::new(v), cap, BlockRange::new(q.0, q.1))
                .unwrap()
                .into_iter()
                .map(|l| l.desc.map(|d| d.block_id.raw()))
                .collect()
        }
    }

    #[test]
    fn paper_figure_1_sequence() {
        // Fig. 1: append 4 blocks, overwrite the first two, append 1 block.
        let fx = Fx::new();
        fx.write(1, 0, 4);
        fx.write(2, 0, 2);
        fx.write(3, 4, 5);
        // v1 sees its own four blocks.
        assert_eq!(
            fx.blocks_of(1, 4, (0, 4)),
            vec![Some(1), Some(101), Some(201), Some(301)]
        );
        // v2 shares blocks 2–3 with v1, replaces 0–1.
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(2), Some(102), Some(201), Some(301)]
        );
        // v3 (capacity 8) sees v2's front, v1's middle, its own appended block.
        assert_eq!(
            fx.blocks_of(3, 8, (0, 5)),
            vec![Some(2), Some(102), Some(201), Some(301), Some(403)]
        );
        // Node count check against Fig. 1: v1 creates 4 leaves + 2 inner +
        // root = 7; v2 creates 2 leaves + 1 inner + root = 4; v3 creates
        // 1 leaf + (4,2) + (4,4) + new root = 4. Total 15.
        assert_eq!(fx.stats.snapshot().meta_nodes_written, 15);
    }

    #[test]
    fn old_versions_remain_readable_after_new_writes() {
        let fx = Fx::new();
        fx.write(1, 0, 4);
        fx.write(2, 1, 3);
        for _ in 0..3 {
            // Repeated reads of the old snapshot are stable (immutability).
            assert_eq!(
                fx.blocks_of(1, 4, (0, 4)),
                vec![Some(1), Some(101), Some(201), Some(301)]
            );
        }
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(1), Some(102), Some(202), Some(301)]
        );
    }

    #[test]
    fn partial_range_queries_visit_only_needed_subtrees() {
        let fx = Fx::new();
        fx.write(1, 0, 8);
        let before = fx.stats.snapshot().meta_nodes_read;
        // Query a single block: the descent reads depth+1 = 4 nodes
        // (root, (0,4), (0,2), leaf).
        assert_eq!(fx.blocks_of(1, 8, (0, 1)), vec![Some(1)]);
        let visited = fx.stats.snapshot().meta_nodes_read - before;
        assert_eq!(visited, 4);
    }

    #[test]
    fn holes_read_as_none() {
        let fx = Fx::new();
        // First write covers blocks [2, 3) only; 0–1 are holes.
        fx.write(1, 2, 3);
        assert_eq!(fx.blocks_of(1, 4, (0, 3)), vec![None, None, Some(201)]);
    }

    #[test]
    fn hole_write_preserves_old_content_through_spine() {
        let fx = Fx::new();
        fx.write(1, 0, 2); // cap 2
        fx.write(2, 6, 8); // jumps past the end, cap 8, holes [2,6)
        assert_eq!(
            fx.blocks_of(2, 8, (0, 8)),
            vec![
                Some(1),
                Some(101),
                None,
                None,
                None,
                None,
                Some(602),
                Some(702)
            ]
        );
    }

    #[test]
    fn weaving_references_in_flight_lower_versions() {
        // Simulate two concurrent writers: v2 (blocks 0–1) and v3 (blocks
        // 2–3) both assigned before either publishes. v3 publishes FIRST,
        // weaving a reference to v2's yet-unwritten subtree; then v2
        // publishes; then reads of v3 see both (the version manager would
        // only reveal v3 after v2 committed).
        let fx = Fx::new();
        fx.write(1, 0, 4);
        // Assign both versions up front (entries enter the log in order).
        let e2 = LogEntry {
            version: Version::new(2),
            blocks: BlockRange::new(0, 2),
            cap_before: 4,
            cap_after: 4,
            size_after: 4 * 64,
        };
        let e3 = LogEntry {
            version: Version::new(3),
            blocks: BlockRange::new(2, 4),
            cap_before: 4,
            cap_after: 4,
            size_after: 4 * 64,
        };
        fx.log.write().push(e2);
        fx.log.write().push(e3);
        let leaves = |v: u64, s: u64, e: u64| -> HashMap<u64, BlockDescriptor> {
            (s..e)
                .map(|b| {
                    (
                        b,
                        BlockDescriptor {
                            block_id: BlockId::new(b * 100 + v),
                            providers: vec![0],
                            len: 64,
                        },
                    )
                })
                .collect()
        };
        // v3 publishes first.
        fx.store()
            .publish_write(fx.blob, &e3, &fx.chain(), &leaves(3, 2, 4))
            .unwrap();
        // Reads of v3's left subtree would dangle here — which is exactly
        // why the version manager delays revealing v3 until v2 commits.
        // Now v2 publishes.
        fx.store()
            .publish_write(fx.blob, &e2, &fx.chain(), &leaves(2, 0, 2))
            .unwrap();
        // v3's snapshot correctly shows v2's blocks on the left.
        assert_eq!(
            fx.blocks_of(3, 4, (0, 4)),
            vec![Some(2), Some(102), Some(203), Some(303)]
        );
        // And v2's snapshot shows v1's blocks on the right.
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(2), Some(102), Some(201), Some(301)]
        );
    }

    #[test]
    fn repair_publishes_previous_content() {
        let fx = Fx::new();
        fx.write(1, 0, 4);
        // v2 "fails" after version assignment: repair republished v1 content.
        let e2 = LogEntry {
            version: Version::new(2),
            blocks: BlockRange::new(1, 3),
            cap_before: 4,
            cap_after: 4,
            size_after: 4 * 64,
        };
        fx.log.write().push(e2);
        fx.store()
            .publish_repair(fx.blob, &e2, &fx.chain())
            .unwrap();
        // v2 reads exactly like v1.
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(1), Some(101), Some(201), Some(301)]
        );
        // And a later write on top of v2 still weaves correctly.
        fx.write(3, 0, 1);
        assert_eq!(
            fx.blocks_of(3, 4, (0, 4)),
            vec![Some(3), Some(101), Some(201), Some(301)]
        );
    }

    #[test]
    fn repair_of_range_extension_reads_zero_holes() {
        let fx = Fx::new();
        fx.write(1, 0, 2);
        let e2 = LogEntry {
            version: Version::new(2),
            blocks: BlockRange::new(2, 4),
            cap_before: 2,
            cap_after: 4,
            size_after: 4 * 64,
        };
        fx.log.write().push(e2);
        fx.store()
            .publish_repair(fx.blob, &e2, &fx.chain())
            .unwrap();
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(1), Some(101), None, None]
        );
    }

    #[test]
    fn gc_refcounts_accumulate_during_publish() {
        let fx = Fx::new();
        let root1 = fx.write(1, 0, 2);
        let _root2 = fx.write(2, 0, 1);
        // v1's right leaf is referenced by v1's root and v2's root.
        let shared = NodeKey::new(fx.blob, Version::new(1), Pos::new(1, 1));
        assert_eq!(fx.gc.node_count(&shared).unwrap(), 2);
        // v1's left leaf only by v1's root.
        let private = NodeKey::new(fx.blob, Version::new(1), Pos::new(0, 1));
        assert_eq!(fx.gc.node_count(&private).unwrap(), 1);
        assert_eq!(
            fx.gc.node_count(&root1).unwrap(),
            0,
            "roots counted at commit, not publish"
        );
    }
}
