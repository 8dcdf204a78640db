//! The version manager: assigns snapshot versions and enforces the reveal
//! order that makes BlobSeer linearizable (§III-A.4, §III-A.5).
//!
//! Version assignment is "the only step in the writing process where
//! concurrent requests are serialized": a per-BLOB mutex hands out
//! monotonically increasing version numbers and, for appends, fixes the
//! offset to "the size of the snapshot corresponding to the preceding
//! version number" — even when that snapshot is still being written
//! (§III-D). Each assignment also appends a [`LogEntry`] to the BLOB's
//! write log; the ticket carries the log *chain*, which is the hint
//! mechanism concurrent writers use to weave metadata.
//!
//! Commits may arrive out of order; the snapshot `v` is *revealed* to
//! readers only once every version `<= v` has committed ("the system simply
//! delays revealing the snapshot to the readers until the metadata of all
//! lower versions has been successfully written"). A condition variable
//! lets clients block until a version becomes visible.
//!
//! Branching (§VI-A, "branching a dataset into two independent datasets")
//! creates a new BLOB whose history *chains* to the parent's log up to the
//! branch point: an O(1) operation sharing all data and metadata.

use crate::meta::key::{BlockRange, NodeKey, Pos};
use crate::meta::log::{LogChain, LogEntry, LogSegment, SharedLog};
use crate::stats::EngineStats;
use blobseer_types::{BlobId, Error, Result, Version};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a writer wants to do; sizes in bytes, must be positive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteIntent {
    /// Write `size` bytes at an explicit `offset` (possibly past the end —
    /// the gap reads as zeros).
    Write { offset: u64, size: u64 },
    /// Append `size` bytes at the current end; the offset is fixed at
    /// assignment time (§III-D).
    Append { size: u64 },
}

impl WriteIntent {
    fn size(&self) -> u64 {
        match self {
            WriteIntent::Write { size, .. } | WriteIntent::Append { size } => *size,
        }
    }
}

/// Everything a writer needs to publish its metadata after the data phase.
#[derive(Clone)]
pub struct WriteTicket {
    /// The BLOB being written.
    pub blob: BlobId,
    /// The assigned snapshot version.
    pub version: Version,
    /// Resolved byte offset of the update (appends: previous size).
    pub offset: u64,
    /// Size of the preceding snapshot in bytes.
    pub prev_size: u64,
    /// This write's log entry (blocks, capacities, new size).
    pub entry: LogEntry,
    /// The write-log chain for metadata weaving.
    pub chain: LogChain,
}

/// Geometry and visibility of one snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The snapshot version.
    pub version: Version,
    /// BLOB size in bytes at this version.
    pub size: u64,
    /// Tree capacity in blocks (power of two; 0 for the empty BLOB).
    pub cap: u64,
    /// The lineage whose write materialized this version's root (differs
    /// from the queried blob for inherited, pre-branch versions).
    pub root_blob: BlobId,
    /// True once the snapshot is visible to readers.
    pub revealed: bool,
}

impl SnapshotInfo {
    /// The DHT key of this snapshot's root node (meaningless for v0).
    pub fn root_key(&self) -> NodeKey {
        NodeKey::new(self.root_blob, self.version, Pos::root(self.cap))
    }
}

struct BlobInner {
    latest_assigned: Version,
    revealed: Version,
    /// Committed versions above `revealed`, waiting for lower versions.
    committed: BTreeSet<Version>,
    /// Own versions `<= collected_up_to` have been garbage collected.
    collected_up_to: Version,
}

struct BlobState {
    id: BlobId,
    /// Versions `<= base` resolve through `ancestry` (0 for root blobs).
    base: Version,
    log: SharedLog,
    /// Ancestor segments, youngest first, already clipped to the branch
    /// points.
    ancestry: Vec<LogSegment>,
    inner: Mutex<BlobInner>,
    reveal_cv: Condvar,
}

impl BlobState {
    fn chain(&self) -> LogChain {
        let mut segments = Vec::with_capacity(1 + self.ancestry.len());
        segments.push(LogSegment::full(
            self.id,
            Arc::clone(&self.log),
            self.base,
            Version::new(u64::MAX),
        ));
        segments.extend(self.ancestry.iter().cloned());
        LogChain::new(segments)
    }

    /// Size and capacity of the snapshot preceding `first_own = base + 1`,
    /// i.e. the branch point (or the empty BLOB).
    fn base_geometry(&self) -> (u64, u64) {
        if self.base.is_zero() {
            return (0, 0);
        }
        for seg in &self.ancestry {
            if let Some(e) = seg.entry(self.base) {
                return (e.size_after, e.cap_after);
            }
        }
        unreachable!("branch base {} must exist in ancestry", self.base)
    }
}

/// The version manager service.
pub struct VersionManager {
    block_size: u64,
    blobs: RwLock<HashMap<BlobId, Arc<BlobState>>>,
    next_blob: AtomicU64,
    stats: Arc<EngineStats>,
}

impl VersionManager {
    /// Creates a version manager for BLOBs striped into `block_size` blocks.
    pub fn new(block_size: u64, stats: Arc<EngineStats>) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            blobs: RwLock::named(HashMap::new(), "vm.blobs"),
            next_blob: AtomicU64::new(1),
            stats,
        }
    }

    /// The configured block size.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Creates a new, empty BLOB and returns its id.
    pub fn create_blob(&self) -> BlobId {
        let id = BlobId::new(self.next_blob.fetch_add(1, Ordering::Relaxed));
        let state = BlobState {
            id,
            base: Version::ZERO,
            log: Arc::new(RwLock::named(Vec::new(), "vm.blob.log")),
            ancestry: Vec::new(),
            inner: Mutex::named(
                BlobInner {
                    latest_assigned: Version::ZERO,
                    revealed: Version::ZERO,
                    committed: BTreeSet::new(),
                    collected_up_to: Version::ZERO,
                },
                "vm.blob.inner",
            ),
            reveal_cv: Condvar::named("vm.blob.reveal"),
        };
        self.blobs.write().insert(id, Arc::new(state));
        id
    }

    fn state(&self, blob: BlobId) -> Result<Arc<BlobState>> {
        self.blobs
            .read()
            .get(&blob)
            .cloned()
            .ok_or(Error::NoSuchBlob(blob.raw()))
    }

    /// Forks `parent` at (revealed) version `at` into a new BLOB sharing
    /// all data and metadata up to the branch point. O(1): no copying.
    ///
    /// The caller is responsible for registering a GC reference on the
    /// branch point's root (see `BlobClient::branch`).
    pub fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        let parent_state = self.state(parent)?;
        let parent_collected = {
            let inner = parent_state.inner.lock();
            if at > inner.latest_assigned {
                return Err(Error::NoSuchVersion {
                    blob: parent.raw(),
                    version: at.raw(),
                });
            }
            if at > inner.revealed {
                return Err(Error::VersionNotRevealed {
                    blob: parent.raw(),
                    version: at.raw(),
                });
            }
            if at <= inner.collected_up_to {
                return Err(Error::NoSuchVersion {
                    blob: parent.raw(),
                    version: at.raw(),
                });
            }
            inner.collected_up_to
        };
        // Child ancestry: parent's own segment plus parent's ancestry, each
        // clipped to the branch point. Versions the parent has already
        // garbage-collected are excluded — their trees are gone.
        let mut ancestry = Vec::new();
        let parent_own = LogSegment {
            blob: parent_state.id,
            entries: Arc::clone(&parent_state.log),
            vec_base: parent_state.base,
            lo: parent_state.base.max(parent_collected),
            hi: at,
        };
        if parent_own.hi > parent_own.lo {
            ancestry.push(parent_own);
        }
        for seg in &parent_state.ancestry {
            let hi = if seg.hi < at { seg.hi } else { at };
            if hi > seg.lo {
                ancestry.push(LogSegment { hi, ..seg.clone() });
            }
        }
        let id = BlobId::new(self.next_blob.fetch_add(1, Ordering::Relaxed));
        let state = BlobState {
            id,
            base: at,
            log: Arc::new(RwLock::named(Vec::new(), "vm.blob.log")),
            ancestry,
            inner: Mutex::named(
                BlobInner {
                    latest_assigned: at,
                    revealed: at,
                    committed: BTreeSet::new(),
                    collected_up_to: Version::ZERO,
                },
                "vm.blob.inner",
            ),
            reveal_cv: Condvar::named("vm.blob.reveal"),
        };
        self.blobs.write().insert(id, Arc::new(state));
        Ok(id)
    }

    /// Assigns the next version for a write/append — the serialization
    /// point of the protocol. Returns the ticket the writer needs to
    /// publish its metadata.
    pub fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        if intent.size() == 0 {
            return Err(Error::WriteAborted(
                "zero-length writes are rejected".into(),
            ));
        }
        let state = self.state(blob)?;
        let mut inner = state.inner.lock();
        let version = inner.latest_assigned.next();
        let (prev_size, prev_cap) = if inner.latest_assigned == state.base {
            state.base_geometry()
        } else {
            let log = state.log.read();
            let e = log.last().expect("versions past base imply log entries"); // lint:allow(no-unwrap): any version past base appended a log entry
            (e.size_after, e.cap_after)
        };
        let (offset, size) = match intent {
            WriteIntent::Write { offset, size } => (offset, size),
            WriteIntent::Append { size } => (prev_size, size),
        };
        // A range whose end, or whose power-of-two tree capacity, does not
        // fit u64 is refused before any geometry wraps: clients check the
        // range too, but a remote request may carry any intent.
        let geometry = offset.checked_add(size).and_then(|end| {
            let size_after = prev_size.max(end);
            let cap = size_after
                .div_ceil(self.block_size)
                .checked_next_power_of_two()?;
            Some((size_after, cap))
        });
        let Some((size_after, cap)) = geometry else {
            return Err(Error::WriteAborted(format!(
                "write range overflows: offset {offset} + {size} bytes"
            )));
        };
        let blocks = BlockRange::of_bytes(offset, size, self.block_size);
        let cap_after = cap.max(prev_cap);
        let entry = LogEntry {
            version,
            blocks,
            cap_before: prev_cap,
            cap_after,
            size_after,
        };
        state.log.write().push(entry);
        inner.latest_assigned = version;
        EngineStats::add(&self.stats.versions_assigned, 1);
        Ok(WriteTicket {
            blob,
            version,
            offset,
            prev_size,
            entry,
            chain: state.chain(),
        })
    }

    /// Marks `version`'s metadata as successfully written. Reveals it (and
    /// any queued higher versions) once all lower versions committed.
    pub fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        let state = self.state(blob)?;
        let mut inner = state.inner.lock();
        if version > inner.latest_assigned {
            return Err(Error::NoSuchVersion {
                blob: blob.raw(),
                version: version.raw(),
            });
        }
        if version <= inner.revealed || !inner.committed.insert(version) {
            return Err(Error::Internal(format!(
                "double commit of {blob} {version}"
            )));
        }
        let mut advanced = false;
        loop {
            let next = inner.revealed.next();
            if !inner.committed.remove(&next) {
                break;
            }
            inner.revealed = next;
            advanced = true;
        }
        if advanced {
            state.reveal_cv.notify_all();
        }
        Ok(())
    }

    /// The latest revealed snapshot: `(version, size)`. The paper's "special
    /// call \[that\] allows the client to find out the latest version"
    /// (§III-A.1).
    pub fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        let state = self.state(blob)?;
        let revealed = state.inner.lock().revealed;
        let info = self.snapshot_info(blob, revealed)?;
        Ok((revealed, info.size))
    }

    /// Geometry and visibility of snapshot `version`.
    pub fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        let state = self.state(blob)?;
        if version.is_zero() {
            return Ok(SnapshotInfo {
                version,
                size: 0,
                cap: 0,
                root_blob: blob,
                revealed: true,
            });
        }
        let (latest_assigned, revealed, collected) = {
            let inner = state.inner.lock();
            (inner.latest_assigned, inner.revealed, inner.collected_up_to)
        };
        if version > latest_assigned {
            return Err(Error::NoSuchVersion {
                blob: blob.raw(),
                version: version.raw(),
            });
        }
        if version > state.base && version <= collected {
            return Err(Error::NoSuchVersion {
                blob: blob.raw(),
                version: version.raw(),
            });
        }
        if version > state.base {
            let log = state.log.read();
            let idx = (version.raw() - state.base.raw() - 1) as usize;
            let e = log[idx];
            debug_assert_eq!(e.version, version);
            return Ok(SnapshotInfo {
                version,
                size: e.size_after,
                cap: e.cap_after,
                root_blob: blob,
                revealed: version <= revealed,
            });
        }
        // Inherited (pre-branch) version: resolve through ancestry; those
        // versions were revealed before the branch was allowed.
        for seg in &state.ancestry {
            if let Some(e) = seg.entry(version) {
                return Ok(SnapshotInfo {
                    version,
                    size: e.size_after,
                    cap: e.cap_after,
                    root_blob: seg.blob,
                    revealed: true,
                });
            }
        }
        Err(Error::NoSuchVersion {
            blob: blob.raw(),
            version: version.raw(),
        })
    }

    /// The write-log chain of a BLOB (own log plus ancestry).
    pub fn chain(&self, blob: BlobId) -> Result<LogChain> {
        Ok(self.state(blob)?.chain())
    }

    /// Blocks until `version` is revealed or `timeout` elapses.
    pub fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        let state = self.state(blob)?;
        let mut inner = state.inner.lock();
        if inner.revealed >= version {
            return Ok(());
        }
        let deadline = std::time::Instant::now() + timeout;
        while inner.revealed < version {
            if state.reveal_cv.wait_until(&mut inner, deadline).timed_out() {
                return Err(Error::Timeout(format!("reveal of {blob} {version}")));
            }
        }
        Ok(())
    }

    /// Versions assigned but not yet revealed (diagnostics; a non-empty
    /// result with no active writers indicates a crashed writer, the
    /// "minimal fault tolerance" caveat of §VI-B).
    pub fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        let state = self.state(blob)?;
        let inner = state.inner.lock();
        Ok((inner.revealed.raw() + 1..=inner.latest_assigned.raw())
            .map(Version::new)
            .collect())
    }

    /// Unregisters a BLOB entirely, returning the root keys of all its own
    /// revealed versions so the caller can release their storage. Branches
    /// taken from this BLOB keep working: they hold the log segments via
    /// `Arc` and GC references on their branch points. Writers still in
    /// flight on the deleted BLOB will fail at commit with `NoSuchBlob`;
    /// their blocks become unreferenced (the same caveat as crashed
    /// writers, §VI-B).
    pub fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        let state = self.state(blob)?;
        let mut roots = Vec::new();
        {
            let inner = state.inner.lock();
            let mut v = inner.collected_up_to.max(state.base).next();
            while v <= inner.revealed {
                let log = state.log.read();
                let idx = (v.raw() - state.base.raw() - 1) as usize;
                let e = log[idx];
                roots.push(NodeKey::new(blob, v, Pos::root(e.cap_after)));
                v = v.next();
            }
        }
        self.blobs.write().remove(&blob);
        Ok(roots)
    }

    /// Marks own versions strictly below `keep_from` (and strictly below the
    /// latest revealed version) as collected, returning the root keys whose
    /// GC references the caller must release. Inherited (pre-branch)
    /// versions are never collected through a child.
    pub fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        let state = self.state(blob)?;
        let mut inner = state.inner.lock();
        let limit = keep_from.min(inner.revealed); // never touch unrevealed or the latest
        let from = inner.collected_up_to.max(state.base).next();
        let mut roots = Vec::new();
        let mut v = from;
        while v < limit {
            let log = state.log.read();
            let idx = (v.raw() - state.base.raw() - 1) as usize;
            let e = log[idx];
            roots.push(NodeKey::new(blob, v, Pos::root(e.cap_after)));
            v = v.next();
        }
        if !roots.is_empty() {
            inner.collected_up_to = Version::new(limit.raw() - 1);
        }
        Ok(roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(block_size: u64) -> VersionManager {
        VersionManager::new(block_size, Arc::new(EngineStats::new()))
    }

    #[test]
    fn create_assign_commit_reveal() {
        let vm = vm(64);
        let b = vm.create_blob();
        assert_eq!(vm.latest(b).unwrap(), (Version::ZERO, 0));
        let t = vm.assign(b, WriteIntent::Append { size: 100 }).unwrap();
        assert_eq!(t.version, Version::new(1));
        assert_eq!(t.offset, 0);
        assert_eq!(t.entry.size_after, 100);
        assert_eq!(t.entry.cap_after, 2);
        // Not revealed before commit.
        assert_eq!(vm.latest(b).unwrap(), (Version::ZERO, 0));
        assert!(!vm.snapshot_info(b, t.version).unwrap().revealed);
        vm.commit(b, t.version).unwrap();
        assert_eq!(vm.latest(b).unwrap(), (Version::new(1), 100));
        assert!(vm.snapshot_info(b, t.version).unwrap().revealed);
    }

    #[test]
    fn append_offsets_chain_through_inflight_writes() {
        // §III-D: the append offset is the size of the *preceding* snapshot
        // even when that snapshot is still being written.
        let vm = vm(64);
        let b = vm.create_blob();
        let t1 = vm.assign(b, WriteIntent::Append { size: 100 }).unwrap();
        let t2 = vm.assign(b, WriteIntent::Append { size: 50 }).unwrap();
        let t3 = vm.assign(b, WriteIntent::Append { size: 10 }).unwrap();
        assert_eq!(t1.offset, 0);
        assert_eq!(t2.offset, 100, "sees t1's size before t1 commits");
        assert_eq!(t3.offset, 150);
        assert_eq!(t3.entry.size_after, 160);
    }

    #[test]
    fn out_of_order_commits_delay_reveal() {
        // §III-A.5: "the order in which new snapshots are revealed to the
        // readers must respect the order in which the version numbers have
        // been assigned".
        let vm = vm(64);
        let b = vm.create_blob();
        let t1 = vm.assign(b, WriteIntent::Append { size: 10 }).unwrap();
        let t2 = vm.assign(b, WriteIntent::Append { size: 10 }).unwrap();
        let t3 = vm.assign(b, WriteIntent::Append { size: 10 }).unwrap();
        vm.commit(b, t3.version).unwrap();
        vm.commit(b, t2.version).unwrap();
        assert_eq!(
            vm.latest(b).unwrap().0,
            Version::ZERO,
            "v2 and v3 committed but v1 still in flight"
        );
        assert_eq!(vm.pending_versions(b).unwrap().len(), 3);
        vm.commit(b, t1.version).unwrap();
        assert_eq!(
            vm.latest(b).unwrap(),
            (Version::new(3), 30),
            "all three reveal at once"
        );
        assert!(vm.pending_versions(b).unwrap().is_empty());
    }

    #[test]
    fn write_at_offset_and_growth() {
        let vm = vm(64);
        let b = vm.create_blob();
        let t = vm
            .assign(
                b,
                WriteIntent::Write {
                    offset: 600,
                    size: 100,
                },
            )
            .unwrap();
        assert_eq!(t.entry.size_after, 700);
        assert_eq!(t.entry.blocks, BlockRange::new(9, 11));
        assert_eq!(t.entry.cap_after, 16);
        vm.commit(b, t.version).unwrap();
        // Overwrite inside: size unchanged.
        let t2 = vm
            .assign(
                b,
                WriteIntent::Write {
                    offset: 0,
                    size: 64,
                },
            )
            .unwrap();
        assert_eq!(t2.entry.size_after, 700);
        assert_eq!(t2.entry.cap_before, 16);
        assert_eq!(t2.entry.cap_after, 16);
    }

    #[test]
    fn zero_size_write_rejected() {
        let vm = vm(64);
        let b = vm.create_blob();
        assert!(matches!(
            vm.assign(b, WriteIntent::Append { size: 0 }),
            Err(Error::WriteAborted(_))
        ));
    }

    #[test]
    fn overflowing_write_range_rejected_without_a_trace() {
        let vm = vm(64);
        let b = vm.create_blob();
        vm.assign(b, WriteIntent::Append { size: 64 }).unwrap();
        for intent in [
            WriteIntent::Write {
                offset: u64::MAX - 10,
                size: 100,
            },
            WriteIntent::Append { size: u64::MAX },
        ] {
            assert!(matches!(vm.assign(b, intent), Err(Error::WriteAborted(_))));
        }
        assert_eq!(vm.pending_versions(b).unwrap(), vec![Version::new(1)]);
    }

    #[test]
    fn unknown_blob_and_version_errors() {
        let vm = vm(64);
        assert!(matches!(
            vm.latest(BlobId::new(99)),
            Err(Error::NoSuchBlob(99))
        ));
        let b = vm.create_blob();
        assert!(matches!(
            vm.snapshot_info(b, Version::new(5)),
            Err(Error::NoSuchVersion { .. })
        ));
        assert!(matches!(
            vm.commit(b, Version::new(5)),
            Err(Error::NoSuchVersion { .. })
        ));
    }

    #[test]
    fn double_commit_is_an_error() {
        let vm = vm(64);
        let b = vm.create_blob();
        let t = vm.assign(b, WriteIntent::Append { size: 1 }).unwrap();
        vm.commit(b, t.version).unwrap();
        assert!(vm.commit(b, t.version).is_err());
    }

    #[test]
    fn wait_revealed_blocks_until_commit() {
        let vm = Arc::new(vm(64));
        let b = vm.create_blob();
        let t = vm.assign(b, WriteIntent::Append { size: 1 }).unwrap();
        let v = t.version;
        let vm2 = Arc::clone(&vm);
        let waiter = std::thread::spawn(move || vm2.wait_revealed(b, v, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        vm.commit(b, v).unwrap();
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn wait_revealed_times_out() {
        let vm = vm(64);
        let b = vm.create_blob();
        let t = vm.assign(b, WriteIntent::Append { size: 1 }).unwrap();
        let err = vm
            .wait_revealed(b, t.version, Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, Error::Timeout(_)));
    }

    #[test]
    fn branch_shares_history_and_diverges() {
        let vm = vm(64);
        let b = vm.create_blob();
        for _ in 0..3 {
            let t = vm.assign(b, WriteIntent::Append { size: 64 }).unwrap();
            vm.commit(b, t.version).unwrap();
        }
        let fork = vm.branch(b, Version::new(2)).unwrap();
        // The fork sees version 2's geometry...
        assert_eq!(vm.latest(fork).unwrap(), (Version::new(2), 128));
        let info = vm.snapshot_info(fork, Version::new(2)).unwrap();
        assert_eq!(
            info.root_blob, b,
            "inherited root belongs to the parent lineage"
        );
        // ...and continues independently with version 3 of its own.
        let t = vm.assign(fork, WriteIntent::Append { size: 64 }).unwrap();
        assert_eq!(t.version, Version::new(3));
        assert_eq!(t.offset, 128, "fork appends at the branch-point size");
        vm.commit(fork, t.version).unwrap();
        assert_eq!(vm.latest(fork).unwrap(), (Version::new(3), 192));
        // Parent unaffected.
        assert_eq!(vm.latest(b).unwrap(), (Version::new(3), 192));
        let parent_info = vm.snapshot_info(b, Version::new(3)).unwrap();
        let fork_info = vm.snapshot_info(fork, Version::new(3)).unwrap();
        assert_eq!(parent_info.root_blob, b);
        assert_eq!(fork_info.root_blob, fork);
    }

    #[test]
    fn branch_of_unrevealed_version_is_rejected() {
        let vm = vm(64);
        let b = vm.create_blob();
        let t = vm.assign(b, WriteIntent::Append { size: 1 }).unwrap();
        assert!(matches!(
            vm.branch(b, t.version),
            Err(Error::VersionNotRevealed { .. })
        ));
        assert!(matches!(
            vm.branch(b, Version::new(9)),
            Err(Error::NoSuchVersion { .. })
        ));
    }

    #[test]
    fn branch_of_branch_resolves_deep_ancestry() {
        let vm = vm(64);
        let a = vm.create_blob();
        let t = vm.assign(a, WriteIntent::Append { size: 64 }).unwrap();
        vm.commit(a, t.version).unwrap();
        let b = vm.branch(a, Version::new(1)).unwrap();
        let t = vm.assign(b, WriteIntent::Append { size: 64 }).unwrap();
        vm.commit(b, t.version).unwrap();
        let c = vm.branch(b, Version::new(2)).unwrap();
        // c resolves v1 via a, v2 via b.
        assert_eq!(vm.snapshot_info(c, Version::new(1)).unwrap().root_blob, a);
        assert_eq!(vm.snapshot_info(c, Version::new(2)).unwrap().root_blob, b);
        assert_eq!(vm.latest(c).unwrap(), (Version::new(2), 128));
    }

    #[test]
    fn collect_before_returns_roots_and_blocks_reads() {
        let vm = vm(64);
        let b = vm.create_blob();
        for _ in 0..4 {
            let t = vm.assign(b, WriteIntent::Append { size: 64 }).unwrap();
            vm.commit(b, t.version).unwrap();
        }
        let roots = vm.collect_before(b, Version::new(3)).unwrap();
        assert_eq!(roots.len(), 2, "v1 and v2 collected");
        assert_eq!(roots[0].version, Version::new(1));
        assert_eq!(roots[1].version, Version::new(2));
        assert!(matches!(
            vm.snapshot_info(b, Version::new(1)),
            Err(Error::NoSuchVersion { .. })
        ));
        assert!(vm.snapshot_info(b, Version::new(3)).is_ok());
        // Idempotent: nothing more to collect below 3.
        assert!(vm.collect_before(b, Version::new(3)).unwrap().is_empty());
        // Never collects the latest revealed version.
        let roots = vm.collect_before(b, Version::new(99)).unwrap();
        assert_eq!(roots.len(), 1, "only v3; v4 is the latest revealed");
    }

    #[test]
    fn concurrent_assign_commit_stress() {
        let vm = Arc::new(vm(64));
        let b = vm.create_blob();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let vm = Arc::clone(&vm);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let t = vm.assign(b, WriteIntent::Append { size: 64 }).unwrap();
                        vm.commit(b, t.version).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (v, size) = vm.latest(b).unwrap();
        assert_eq!(v, Version::new(400));
        assert_eq!(size, 400 * 64);
        // Every version's geometry is a consistent prefix sum.
        for i in 1..=400u64 {
            let info = vm.snapshot_info(b, Version::new(i)).unwrap();
            assert_eq!(info.size, i * 64);
            assert!(info.revealed);
        }
    }
}
