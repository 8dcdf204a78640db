//! The read path: snapshot resolution, segment-tree descent and block
//! fetches (§III-C), plus the data-location primitive behind Hadoop's
//! affinity scheduling (§IV-C).

use crate::meta::key::BlockRange;
use crate::meta::tree::LocatedBlock;
use crate::ports::{ProtocolOp, ProtocolPhase};
use crate::stats::EngineStats;
use crate::version_manager::SnapshotInfo;
use blobseer_types::{BlobId, BlockId, ByteRange, Error, Result, Version};
use bytes::{Bytes, BytesMut};
use std::sync::Arc;

use super::write::push_grouped;
use super::{BlobClient, BlockLocation};

impl BlobClient {
    /// Reads `size` bytes at `offset` from the given snapshot
    /// (`None` = latest revealed). Fails with [`Error::OutOfBounds`] when
    /// the range exceeds the snapshot and [`Error::VersionNotRevealed`]
    /// when an explicit version is not yet visible (§III-A.5: readers only
    /// access revealed snapshots).
    pub fn read(
        &self,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        size: u64,
    ) -> Result<Bytes> {
        self.observe(ProtocolOp::Read, ProtocolPhase::Start);
        let info = self.resolve(blob, version)?;
        self.check_bounds(offset, size, info.size)?;
        if size == 0 {
            return Ok(Bytes::new());
        }
        let bs = self.sys.cfg.block_size;
        let query = BlockRange::of_bytes(offset, size, bs);
        let located = self
            .tree()
            .locate(info.root_blob, info.version, info.cap, query)?;
        self.observe(ProtocolOp::Read, ProtocolPhase::Located);
        // Fetch phase, vectored and fanned out: group the needed blocks by
        // the replica provider chosen for each (deterministically by block
        // index, to spread load) and issue one `get_many` per provider —
        // concurrently, through the deployment's fan-out executor. Items
        // that fail are retried in batched waves against their surviving
        // replicas before the read surfaces an error.
        let mut fetched: Vec<Option<Bytes>> = vec![None; located.len()];
        let mut batches: Vec<(usize, Vec<(usize, BlockId)>)> = Vec::new();
        for (i, loc) in located.iter().enumerate() {
            if let Some(desc) = &loc.desc {
                let replica = (loc.index as usize) % desc.providers.len();
                let pidx = desc.providers[replica] as usize;
                push_grouped(&mut batches, pidx, (i, desc.block_id));
            }
        }
        let jobs: Vec<_> = batches
            .into_iter()
            .map(|(provider, items)| {
                let providers = Arc::clone(&self.sys.providers);
                move || {
                    let ids: Vec<BlockId> = items.iter().map(|&(_, id)| id).collect();
                    let results = providers.get_many(provider, &ids);
                    (provider, items, results)
                }
            })
            .collect();
        // `(item, failed primary, its error)` of every miss, in item order.
        let mut failures: Vec<(usize, usize, Error)> = Vec::new();
        if !jobs.is_empty() {
            self.sys.stats.record_fanout(jobs.len());
            for (provider, items, results) in self.sys.exec.fanout(jobs) {
                for (&(i, _), result) in items.iter().zip(results) {
                    match result {
                        Ok(block) => fetched[i] = Some(block),
                        Err(e) => failures.push((i, provider, e)),
                    }
                }
            }
        }
        if !failures.is_empty() {
            failures.sort_by_key(|&(i, _, _)| i);
            self.fetch_fallback_replicas(&located, failures, &mut fetched)?;
        }
        let mut out = BytesMut::with_capacity(size as usize);
        let spans = ByteRange::new(offset, size).block_spans(bs);
        for ((span, loc), block) in spans.zip(located.iter()).zip(fetched) {
            debug_assert_eq!(span.block_index, loc.index);
            match block {
                None => out.resize(out.len() + span.len as usize, 0),
                Some(block) => {
                    let lo = span.offset_in_block as usize;
                    let hi = (span.offset_in_block + span.len) as usize;
                    let avail = block.len();
                    if lo < avail {
                        out.extend_from_slice(&block[lo..hi.min(avail)]);
                    }
                    // Stored tail blocks may be shorter than the span when a
                    // later write extended the BLOB past them: zero-fill.
                    if hi > avail.max(lo) {
                        out.resize(out.len() + (hi - avail.max(lo)), 0);
                    }
                }
            }
        }
        debug_assert_eq!(out.len() as u64, size);
        EngineStats::add(&self.sys.stats.bytes_read, size);
        self.observe(ProtocolOp::Read, ProtocolPhase::Done);
        Ok(out.freeze())
    }

    /// Replica failover for the blocks whose deterministically chosen
    /// replica refused or lost them: retry against the descriptors'
    /// remaining replicas (the replication the paper relies on for fault
    /// tolerance, §VI-B — `desc.providers` lists healthy replicas the read
    /// would otherwise ignore). The retries are **batched per surviving
    /// provider** (`get_many`, fanned out) instead of one blocking `get`
    /// per block, and each attempt is counted in
    /// `EngineStats::read_replica_fallbacks`. Fails with the lowest-index
    /// unrecovered item's *last* replica error once all are exhausted.
    fn fetch_fallback_replicas(
        &self,
        located: &[LocatedBlock],
        failures: Vec<(usize, usize, Error)>,
        fetched: &mut [Option<Bytes>],
    ) -> Result<()> {
        // Per failed item: remaining replica candidates, in descriptor
        // order with the already-failed primary skipped.
        let mut states: Vec<(usize, Vec<usize>, Error)> = failures
            .into_iter()
            .map(|(i, failed, err)| {
                let desc = located[i]
                    .desc
                    .as_ref()
                    .expect("fallback only runs for fetched descriptors"); // lint:allow(no-unwrap): fallback waves only enumerate fetched descriptors
                let mut candidates: Vec<usize> = desc
                    .providers
                    .iter()
                    .map(|&p| p as usize)
                    .filter(|&p| p != failed)
                    .collect();
                candidates.reverse(); // pop() yields descriptor order
                (i, candidates, err)
            })
            .collect();
        loop {
            // One wave: each unresolved item tries its next candidate;
            // attempts are grouped by provider and issued concurrently.
            let mut wave: Vec<(usize, Vec<(usize, BlockId)>)> = Vec::new();
            for (s, (i, candidates, _)) in states.iter_mut().enumerate() {
                if fetched[*i].is_some() {
                    continue;
                }
                if let Some(p) = candidates.pop() {
                    let id = located[*i].desc.as_ref().expect("checked above").block_id; // lint:allow(no-unwrap): same descriptor unwrapped at wave setup
                    push_grouped(&mut wave, p, (s, id));
                }
            }
            if wave.is_empty() {
                break;
            }
            let attempts: usize = wave.iter().map(|(_, items)| items.len()).sum();
            EngineStats::add(&self.sys.stats.read_replica_fallbacks, attempts as u64);
            self.sys.stats.record_fanout(wave.len());
            let jobs: Vec<_> = wave
                .into_iter()
                .map(|(provider, items)| {
                    let providers = Arc::clone(&self.sys.providers);
                    move || {
                        let ids: Vec<BlockId> = items.iter().map(|&(_, id)| id).collect();
                        let results = providers.get_many(provider, &ids);
                        (items, results)
                    }
                })
                .collect();
            for (items, results) in self.sys.exec.fanout(jobs) {
                for (&(s, _), result) in items.iter().zip(results) {
                    let (i, _, last_err) = &mut states[s];
                    match result {
                        Ok(block) => fetched[*i] = Some(block),
                        Err(e) => *last_err = e,
                    }
                }
            }
        }
        // `states` is in item order, so the surfaced error is the lowest
        // unrecovered index's — deterministic, like the serial path's.
        for (i, _, last_err) in states {
            if fetched[i].is_none() {
                return Err(last_err);
            }
        }
        Ok(())
    }

    /// The data-location primitive backing Hadoop's affinity scheduling
    /// (§IV-C). Returns one entry per block overlapping the range, with the
    /// nodes hosting its replicas.
    pub fn locations(
        &self,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        size: u64,
    ) -> Result<Vec<BlockLocation>> {
        let info = self.resolve(blob, version)?;
        self.check_bounds(offset, size, info.size)?;
        if size == 0 {
            return Ok(Vec::new());
        }
        let bs = self.sys.cfg.block_size;
        let query = BlockRange::of_bytes(offset, size, bs);
        let located = self
            .tree()
            .locate(info.root_blob, info.version, info.cap, query)?;
        let spans = ByteRange::new(offset, size).block_spans(bs);
        Ok(spans
            .zip(located)
            .map(|(span, loc)| BlockLocation {
                range: span.absolute(bs),
                block_index: loc.index,
                nodes: loc
                    .desc
                    .map(|d| {
                        d.providers
                            .iter()
                            .map(|&p| self.sys.providers.node(p as usize))
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect())
    }

    /// Overflow-safe range check: `offset + size` saturates instead of
    /// wrapping, so a huge offset fails with [`Error::OutOfBounds`] rather
    /// than slipping past the guard (release) or panicking (debug).
    fn check_bounds(&self, offset: u64, size: u64, snapshot_size: u64) -> Result<()> {
        match offset.checked_add(size) {
            Some(end) if end <= snapshot_size => Ok(()),
            _ => Err(Error::OutOfBounds {
                requested_end: offset.saturating_add(size),
                snapshot_size,
            }),
        }
    }

    pub(crate) fn resolve(&self, blob: BlobId, version: Option<Version>) -> Result<SnapshotInfo> {
        match version {
            None => {
                let (v, _) = self.sys.vm.latest(blob)?;
                self.sys.vm.snapshot_info(blob, v)
            }
            Some(v) => {
                let info = self.sys.vm.snapshot_info(blob, v)?;
                if !info.revealed {
                    return Err(Error::VersionNotRevealed {
                        blob: blob.raw(),
                        version: v.raw(),
                    });
                }
                Ok(info)
            }
        }
    }
}
