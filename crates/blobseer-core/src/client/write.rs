//! The write path: data phase, version assignment, metadata publish, commit
//! (§III-D), plus the writer-failure repair hook (§VI-B).

use crate::meta::node::BlockDescriptor;
use crate::ports::{ProtocolOp, ProtocolPhase};
use crate::stats::EngineStats;
use crate::version_manager::{WriteIntent, WriteTicket};
use blobseer_types::{BlobId, BlockId, Error, Result, Version};
use bytes::{Bytes, BytesMut};
use std::collections::HashMap;
use std::sync::Arc;

use super::BlobClient;

/// A payload extended to block boundaries, ready for the data phase.
pub(crate) struct MergedPayload {
    pub(crate) start: u64,
    pub(crate) payload: Bytes,
}

/// Appends `item` to the group keyed by `key`, creating the group on first
/// sight. Groups keep first-appearance order and items keep insertion
/// order, so batch contents are deterministic — the shared grouping step
/// behind every per-provider vectored call on the client paths.
pub(crate) fn push_grouped<T>(groups: &mut Vec<(usize, Vec<T>)>, key: usize, item: T) {
    match groups.iter_mut().find(|(k, _)| *k == key) {
        Some((_, items)) => items.push(item),
        None => groups.push((key, vec![item])),
    }
}

impl BlobClient {
    /// Writes `data` at `offset`, producing a new snapshot. Returns its
    /// version (revealed once all lower versions commit).
    pub fn write(&self, blob: BlobId, offset: u64, data: &[u8]) -> Result<Version> {
        if data.is_empty() {
            return Err(Error::WriteAborted(
                "zero-length writes are rejected".into(),
            ));
        }
        let bs = self.sys.cfg.block_size;
        // Overflow-safe, mirroring the read path's check_bounds: a huge
        // offset must fail cleanly instead of wrapping (release) or
        // panicking on add/mul-overflow (debug) inside the geometry math.
        // The *block-rounded* end must fit too — the write's last block
        // would otherwise extend past the addressable range.
        // merge_boundaries re-checks defensively (it has other callers),
        // but rejecting here keeps the failure ahead of the Start
        // observation and the version-manager lookup: no trace left.
        let rounded_end = offset
            .checked_add(data.len() as u64)
            .and_then(|end| end.checked_next_multiple_of(bs));
        if rounded_end.is_none() {
            return Err(Error::WriteAborted(format!(
                "write range overflows: offset {offset} + {} bytes",
                data.len()
            )));
        }
        self.observe(ProtocolOp::Write, ProtocolPhase::Start);
        // Read-modify-write alignment against the latest revealed snapshot
        // (see module docs on block-granularity semantics). One lookup
        // pins the snapshot used for geometry and both boundary reads.
        let (revealed, base_size) = self.sys.vm.latest(blob)?;
        let merged = self.merge_boundaries(blob, offset, data, base_size, (revealed, base_size))?;
        let first_block = merged.start / bs;
        let leaves = self.store_blocks(merged.payload, first_block)?;
        self.observe(ProtocolOp::Write, ProtocolPhase::DataDone);
        let ticket = match self.sys.vm.assign(
            blob,
            WriteIntent::Write {
                offset,
                size: data.len() as u64,
            },
        ) {
            Ok(t) => t,
            Err(e) => {
                // No version exists, so the stored blocks can never be
                // referenced: undo the data phase or the orphans would skew
                // the provider manager's load accounting forever.
                self.release_stored(&leaves);
                return Err(e);
            }
        };
        self.observe(ProtocolOp::Write, ProtocolPhase::VersionAssigned);
        self.publish_and_commit(ProtocolOp::Write, &ticket, leaves)?;
        Ok(ticket.version)
    }

    /// Simulates a writer crashing right after version assignment, then
    /// repairs the hole so the reveal pipeline does not stall: the assigned
    /// version republishes the previous snapshot's content over the
    /// intended range (zeros where it extended the BLOB). Returns the
    /// repaired version.
    ///
    /// This is the fault-injection hook behind the fault-tolerance tests;
    /// the paper leaves writer failure to "minimal mechanisms" (§VI-B).
    pub fn simulate_failed_write(&self, blob: BlobId, intent: WriteIntent) -> Result<Version> {
        let ticket = self.sys.vm.assign(blob, intent)?;
        // The writer dies here: no data, no metadata. Repair:
        self.repair_aborted(&ticket)?;
        Ok(ticket.version)
    }

    /// Repairs an assigned-but-failed write (publishes alias metadata and
    /// commits). Public so integration tests can drive the two halves
    /// separately.
    pub fn repair_aborted(&self, ticket: &WriteTicket) -> Result<()> {
        let tree = self.tree();
        let root = tree.publish_repair(ticket.blob, &ticket.entry, &ticket.chain)?;
        tree.register_root(root)?;
        EngineStats::add(&self.sys.stats.writes_aborted, 1);
        self.sys.vm.commit(ticket.blob, ticket.version)
    }

    /// Extends `data` to block boundaries by merging with the base snapshot
    /// content (or zeros where the base is shorter).
    ///
    /// `base_size` is the size of the *preceding* snapshot (which may still
    /// be in flight for unaligned appends); boundary content is read from
    /// one **pinned revealed** snapshot — the only kind readers may access
    /// (§III-A.5) — passed by the caller as `revealed = (version, size)`
    /// from the lookup it already performed. Pinning matters: reading
    /// "latest" twice could straddle a concurrent reveal and merge a
    /// boundary block from two different snapshots — a state no snapshot
    /// ever held. The gap up to `base_size` is zero-filled; this is the
    /// block-granularity conflict window documented in the module docs.
    pub(crate) fn merge_boundaries(
        &self,
        blob: BlobId,
        offset: u64,
        data: &[u8],
        base_size: u64,
        revealed: (Version, u64),
    ) -> Result<MergedPayload> {
        let bs = self.sys.cfg.block_size;
        let (pin, revealed_size) = revealed;
        let readable = revealed_size.min(base_size);
        let overflow = || Error::WriteAborted("write range overflows at block rounding".into());
        let end = offset.checked_add(data.len() as u64).ok_or_else(overflow)?;
        let lead = offset % bs;
        let start = offset - lead;
        let tail_end = end.checked_next_multiple_of(bs).ok_or_else(overflow)?;
        let suffix_end = base_size.min(tail_end).max(end);
        let mut payload = BytesMut::with_capacity((suffix_end - start) as usize);
        if lead > 0 {
            let avail = readable.min(offset).saturating_sub(start);
            if avail > 0 {
                payload.extend_from_slice(&self.read(blob, Some(pin), start, avail)?);
            }
            // Zero gap between readable content and the write offset.
            payload.resize((offset - start) as usize, 0);
        }
        payload.extend_from_slice(data);
        if suffix_end > end {
            let suffix_avail = readable.min(suffix_end).saturating_sub(end);
            if suffix_avail > 0 {
                payload.extend_from_slice(&self.read(blob, Some(pin), end, suffix_avail)?);
            }
            payload.resize((suffix_end - start) as usize, 0);
        }
        Ok(MergedPayload {
            start,
            payload: payload.freeze(),
        })
    }

    /// Data phase: allocates providers, stores the payload's blocks, and
    /// returns `(block_index, descriptor)` pairs keyed from `first_block`.
    ///
    /// The puts are **vectored** and **fanned out**: every block (and
    /// replica) destined for one provider ships in a single
    /// [`crate::ports::BlockStore::put_many`] call, and the per-provider
    /// calls are issued concurrently through the deployment's
    /// [`crate::exec::FanoutExecutor`] — the §III-D "store all blocks in
    /// parallel" structure expressed at the port boundary: one round trip
    /// per provider touched, and those round trips overlap.
    ///
    /// A failed block put aborts the whole write ("if writing of a block
    /// fails, then the whole write fails", §III-D). The data phase then
    /// undoes itself: `allocate` charged provider-manager load for *every*
    /// block of this call up front, so the blocks that did land are
    /// deleted and every allocation is released — otherwise a refused put
    /// would skew placement accounting forever. The version manager was
    /// never involved, so the snapshot history is untouched.
    pub(crate) fn store_blocks(
        &self,
        payload: Bytes,
        first_block: u64,
    ) -> Result<Vec<(u64, BlockDescriptor)>> {
        let bs = self.sys.cfg.block_size as usize;
        let n_blocks = payload.len().div_ceil(bs);
        let allocs = self.sys.pm.allocate(n_blocks, self.sys.cfg.replication)?;
        let mut out = Vec::with_capacity(n_blocks);
        let mut batches: Vec<(usize, Vec<(BlockId, Bytes)>)> = Vec::new();
        for (i, alloc) in allocs.iter().enumerate() {
            let lo = i * bs;
            let hi = ((i + 1) * bs).min(payload.len());
            let chunk = payload.slice(lo..hi);
            for &p in &alloc.providers {
                push_grouped(&mut batches, p, (alloc.block_id, chunk.clone()));
            }
            out.push((
                first_block + i as u64,
                BlockDescriptor {
                    block_id: alloc.block_id,
                    providers: alloc.providers.iter().map(|&p| p as u32).collect(),
                    len: (hi - lo) as u32,
                },
            ));
        }
        let jobs: Vec<_> = batches
            .into_iter()
            .map(|(provider, items)| {
                let providers = Arc::clone(&self.sys.providers);
                move || {
                    let results = providers.put_many(provider, &items);
                    (items, results)
                }
            })
            .collect();
        self.sys.stats.record_fanout(jobs.len());
        // Every batch settles before the first error is acted on, so the
        // undo below always sees the complete (post-fan-out) state; batch
        // and item order make the surfaced error deterministic.
        for (items, results) in self.sys.exec.fanout(jobs) {
            for ((_, data), result) in items.iter().zip(results) {
                if let Err(e) = result {
                    // Undo the whole allocation set: deleting a block that
                    // never landed is a no-op, and each replica's load was
                    // charged exactly once at allocate time. The load
                    // release is one batched call — and best-effort, like
                    // the block deletes: the write already failed.
                    let mut undo: Vec<(usize, Vec<BlockId>)> = Vec::new();
                    let mut released: Vec<usize> = Vec::new();
                    for a in &allocs {
                        for &q in &a.providers {
                            push_grouped(&mut undo, q, a.block_id);
                            released.push(q);
                        }
                    }
                    let _ = self.sys.pm.release_many(&released);
                    self.sys.stats.record_fanout(undo.len());
                    let undo_jobs: Vec<_> = undo
                        .into_iter()
                        .map(|(q, ids)| {
                            let providers = Arc::clone(&self.sys.providers);
                            move || {
                                let _ = providers.delete_many(q, &ids);
                            }
                        })
                        .collect();
                    self.sys.exec.fanout(undo_jobs);
                    return Err(e);
                }
                EngineStats::add(&self.sys.stats.blocks_written, 1);
                EngineStats::add(&self.sys.stats.bytes_written, data.len() as u64);
            }
        }
        Ok(out)
    }

    /// Undoes the data phase of a write whose later phases failed: deletes
    /// the stored blocks (one vectored call per provider) and releases
    /// their provider-manager load (one unit per replica). Blocks orphaned
    /// by a failed version assignment, metadata publish or commit are
    /// unreachable from every revealed snapshot — repair republishes
    /// *aliases* to the previous version, never these descriptors — so
    /// they are pure leaks until released.
    pub(crate) fn release_stored(&self, leaves: &[(u64, BlockDescriptor)]) {
        let mut batches: Vec<(usize, Vec<BlockId>)> = Vec::new();
        let mut released: Vec<usize> = Vec::new();
        for (_, d) in leaves {
            for &p in &d.providers {
                push_grouped(&mut batches, p as usize, d.block_id);
                released.push(p as usize);
            }
        }
        if batches.is_empty() {
            return;
        }
        // One batched, best-effort load release (the caller is already on
        // an error path; a refused control frame must not mask its error).
        let _ = self.sys.pm.release_many(&released);
        self.sys.stats.record_fanout(batches.len());
        let jobs: Vec<_> = batches
            .into_iter()
            .map(|(p, ids)| {
                let providers = Arc::clone(&self.sys.providers);
                move || {
                    let _ = providers.delete_many(p, &ids);
                }
            })
            .collect();
        self.sys.exec.fanout(jobs);
    }

    /// Metadata phase + commit.
    ///
    /// If the publish fails (backend refusing puts, a metadata conflict),
    /// the already-assigned version would otherwise stall the reveal
    /// pipeline forever — so the writer self-repairs ([`Self::
    /// repair_aborted`]) before surfacing the error, exactly like the
    /// unaligned-append timeout path. The repair is best-effort: it can
    /// itself fail (the backend may still be refusing puts, or a partially
    /// published tree conflicts with the alias nodes), in which case the
    /// version stays pending — the crashed-writer caveat of §VI-B,
    /// observable via `pending_versions` and repairable once the backend
    /// heals.
    ///
    /// The published nodes seed this handle's node memo only once the
    /// commit returned `Ok`: a failed publish or root registration is
    /// repaired, which force-replaces the version's keys, and a failed
    /// commit leaves the version in doubt.
    pub(crate) fn publish_and_commit(
        &self,
        op: ProtocolOp,
        ticket: &WriteTicket,
        leaves: Vec<(u64, BlockDescriptor)>,
    ) -> Result<()> {
        let leaf_map: HashMap<u64, BlockDescriptor> = leaves.iter().cloned().collect();
        let tree = self.tree();
        let published =
            match tree.publish_write(ticket.blob, &ticket.entry, &ticket.chain, &leaf_map) {
                Ok(published) => published,
                Err(e) => {
                    let _ = self.repair_aborted(ticket);
                    // Whether or not the repair landed, no revealed
                    // snapshot can ever reference this write's blocks
                    // (repair aliases the *previous* version's leaves):
                    // undo the data phase.
                    self.release_stored(&leaves);
                    return Err(e);
                }
            };
        if let Err(e) = tree.register_root(published.root) {
            // The tree is published but its root was never refcounted: a
            // later collection of this version would be an untracked
            // release. Repair-and-release exactly like a failed publish —
            // the version must not reveal with unprotected metadata.
            let _ = self.repair_aborted(ticket);
            self.release_stored(&leaves);
            return Err(e);
        }
        self.observe(op, ProtocolPhase::MetadataPublished);
        if let Err(e) = self.sys.vm.commit(ticket.blob, ticket.version) {
            // Release only when the BLOB is gone (deleted mid-write): the
            // version then provably never revealed and never will, so the
            // stored blocks are orphans. Other commit failures are
            // conservative no-ops — by this point the metadata *is*
            // published and root-registered, and e.g. an Internal
            // "double commit" would mean the version is live, where
            // deleting its blocks would corrupt readable data.
            if matches!(e, Error::NoSuchBlob(_)) {
                self.release_stored(&leaves);
            }
            return Err(e);
        }
        self.memo.insert(published.nodes);
        self.observe(op, ProtocolPhase::Committed);
        Ok(())
    }

    /// Reports a protocol phase boundary to the deployment's observer.
    #[inline]
    pub(crate) fn observe(&self, op: ProtocolOp, phase: ProtocolPhase) {
        self.sys.observer.phase(self.node, op, phase);
    }
}
