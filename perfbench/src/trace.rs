//! Tracing from outside the program: spans recorded around calls into the
//! public API of each layer, kept in memory and written out when the run
//! ends.
//!
//! * [`PhaseObserver`] turns `ProtocolObserver` callbacks into protocol
//!   phase spans (data, assign, publish, commit; locate, fetch).
//! * [`deploy_traced`] wires timing decorators around the five RPC port
//!   adapters and hands them to `BlobSeer::deploy_ports`, exactly as
//!   `LoopbackCluster::deploy_observed` wires the undecorated ones.
//! * [`TracedFs`] wraps a `dfs::FileSystem` mount (and the streams it
//!   opens).
//!
//! Every client thread owns one deployment, so every span a deployment's
//! decorators emit — including those run on its `FanoutExecutor` pool
//! threads — belongs to that client's current operation. Op spans are
//! roots, phase and file-system spans hang under them (per thread), and
//! port spans hang under the innermost open span of the deployment.

use blobseer_core::gc::GcReport;
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::LogChain;
use blobseer_core::meta::node::TreeNode;
use blobseer_core::ports::{
    BlockStore, GcService, MetaStore, PlacementService, ProtocolObserver, ProtocolOp,
    ProtocolPhase, VersionService,
};
use blobseer_core::{
    BlobSeer, BlockAllocation, CachedBlockStore, CachedMetaStore, EnginePorts, EngineStats,
    SnapshotInfo, WriteIntent, WriteTicket,
};
use blobseer_rpc::{
    LoopbackCluster, RpcBlockStore, RpcGcService, RpcMetaStore, RpcPlacementService,
    RpcVersionService,
};
use blobseer_types::{BlobId, BlockId, NodeId, Result, Version};
use bytes::Bytes;
use dfs::api::{DfsInput, DfsOutput, FileStatus, FileSystem, FsBlockLocation};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
// lint:allow(no-std-sync): the benchmark's own locks stay out of the shim's process-wide lock statistics, which it reports
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// No parent / no operation.
pub const NONE: u32 = u32::MAX;

/// Which kind of span a record is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A benchmark operation (root).
    Op,
    /// A protocol phase or file-system call (under an op).
    Step,
    /// A port call (leaf).
    Port,
}

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub client: u32,
    pub kind: Kind,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Port spans: items carried (batch methods) and items that failed.
    pub items: u32,
    pub errors: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The in-memory span store of one traced run.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Block ids fetched while measuring: `id -> times fetched`, and the
    /// payload bytes served.
    fetched: Mutex<(HashMap<BlockId, u32>, u64)>,
    measuring: AtomicBool,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            t0: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            fetched: Mutex::new((HashMap::new(), 0)),
            measuring: AtomicBool::new(false),
        })
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Starts or stops the window whose block fetches count toward the
    /// re-read share and working set.
    pub fn set_measuring(&self, on: bool) {
        self.measuring.store(on, Ordering::Relaxed);
    }

    /// `(blocks fetched, of which re-fetched, distinct blocks, bytes
    /// served)` in the measuring window.
    pub fn fetch_stats(&self) -> (u64, u64, u64, u64) {
        let f = self.fetched.lock().expect("fetch set poisoned");
        let total: u64 = f.0.values().map(|&n| n as u64).sum();
        let distinct = f.0.len() as u64;
        (total, total - distinct, distinct, f.1)
    }

    /// Takes every recorded span, sorted by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Writes spans as tab-separated lines:
/// `id parent op client kind name start_ns end_ns items errors`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\top\tclient\tkind\tname\tstart_ns\tend_ns\titems\terrors"
    )?;
    let id = |v: u32| if v == NONE { -1 } else { v as i64 };
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            id(s.parent),
            id(s.op),
            s.client,
            s.kind,
            s.name,
            s.start,
            s.end,
            s.items,
            s.errors
        )?;
    }
    out.flush()
}

/// An open span on some thread's stack.
struct Open {
    id: u32,
    name: &'static str,
    start: u64,
}

#[derive(Default)]
struct CtxState {
    op: Option<Open>,
    stacks: Vec<(ThreadId, Vec<Open>)>,
}

/// The tracing context of one client (one deployment).
pub struct ClientCtx {
    tracer: Arc<Tracer>,
    client: u32,
    state: Mutex<CtxState>,
}

impl ClientCtx {
    pub fn new(tracer: &Arc<Tracer>, client: u32) -> Arc<Self> {
        Arc::new(Self {
            tracer: Arc::clone(tracer),
            client,
            state: Mutex::new(CtxState::default()),
        })
    }

    // lint:allow(no-std-sync): the benchmark's own locks stay out of the shim's process-wide lock statistics, which it reports
    fn lock(&self) -> std::sync::MutexGuard<'_, CtxState> {
        self.state.lock().expect("client trace state poisoned")
    }

    fn record(&self, open: Open, parent: u32, op: u32, kind: Kind, end: u64) {
        self.tracer.push(Span {
            id: open.id,
            parent,
            op,
            client: self.client,
            kind,
            name: open.name,
            start: open.start,
            end,
            items: 0,
            errors: 0,
        });
    }

    /// Runs `f` as one benchmark operation: a root span. Steps left open by
    /// an early error return are closed with the op.
    pub fn op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.id();
        let start = self.tracer.now();
        self.lock().op = Some(Open { id, name, start });
        let out = f();
        let end = self.tracer.now();
        let mut st = self.lock();
        let stacks = std::mem::take(&mut st.stacks);
        let op = st.op.take().expect("op span open");
        drop(st);
        for (_, stack) in stacks {
            let mut parent = id;
            for open in stack {
                let next = open.id;
                self.record(open, parent, id, Kind::Step, end);
                parent = next;
            }
        }
        self.record(op, NONE, id, Kind::Op, end);
        out
    }

    fn op_id(st: &CtxState) -> u32 {
        st.op.as_ref().map_or(NONE, |o| o.id)
    }

    /// Opens a step span on the calling thread.
    fn open_step(&self, name: &'static str) {
        let open = Open {
            id: self.tracer.id(),
            name,
            start: self.tracer.now(),
        };
        let me = std::thread::current().id();
        let mut st = self.lock();
        match st.stacks.iter_mut().find(|(t, _)| *t == me) {
            Some((_, stack)) => stack.push(open),
            None => st.stacks.push((me, vec![open])),
        }
    }

    /// Closes the calling thread's innermost step span.
    fn close_step(&self) {
        let end = self.tracer.now();
        let me = std::thread::current().id();
        let mut st = self.lock();
        let op = Self::op_id(&st);
        let Some(pos) = st.stacks.iter().position(|(t, _)| *t == me) else {
            return;
        };
        let stack = &mut st.stacks[pos].1;
        let Some(open) = stack.pop() else { return };
        let parent = stack.last().map_or(op, |o| o.id);
        if stack.is_empty() {
            st.stacks.swap_remove(pos);
        }
        drop(st);
        self.record(open, parent, op, Kind::Step, end);
    }

    /// Runs `f` as a step span on the calling thread.
    pub fn step<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open_step(name);
        let out = f();
        self.close_step();
        out
    }

    /// The parent of a port call made now from the calling thread: the
    /// thread's own innermost step, else the only thread's innermost step
    /// (a pool thread working for it), else the op.
    fn port_parent(&self, st: &CtxState) -> u32 {
        let me = std::thread::current().id();
        let innermost = |s: &Vec<Open>| s.last().map(|o| o.id);
        if let Some((_, s)) = st.stacks.iter().find(|(t, _)| *t == me) {
            if let Some(id) = innermost(s) {
                return id;
            }
        }
        if st.stacks.len() == 1 {
            if let Some(id) = innermost(&st.stacks[0].1) {
                return id;
            }
        }
        Self::op_id(st)
    }

    /// Runs one port call as a leaf span.
    fn port<T: Outcome>(&self, name: &'static str, items: usize, f: impl FnOnce() -> T) -> T {
        let (parent, op) = {
            let st = self.lock();
            (self.port_parent(&st), Self::op_id(&st))
        };
        let id = self.tracer.id();
        let start = self.tracer.now();
        let out = f();
        let end = self.tracer.now();
        self.tracer.push(Span {
            id,
            parent,
            op,
            client: self.client,
            kind: Kind::Port,
            name,
            start,
            end,
            items: items as u32,
            errors: out.errors(),
        });
        out
    }
}

/// Failed items of a port call's return value.
trait Outcome {
    fn errors(&self) -> u32;
}

impl<T> Outcome for Result<T> {
    fn errors(&self) -> u32 {
        self.is_err() as u32
    }
}

impl<T> Outcome for Vec<Result<T>> {
    fn errors(&self) -> u32 {
        self.iter().filter(|r| r.is_err()).count() as u32
    }
}

impl Outcome for bool {
    fn errors(&self) -> u32 {
        0
    }
}

/// Protocol phase spans from the client's own observer callbacks.
pub struct PhaseObserver(pub Arc<ClientCtx>);

impl ProtocolObserver for PhaseObserver {
    fn phase(&self, _node: NodeId, op: ProtocolOp, phase: ProtocolPhase) {
        use ProtocolPhase::*;
        let (data, assign, publish, commit) = match op {
            ProtocolOp::Write => (
                "client.write.data",
                "client.write.assign",
                "client.write.publish",
                "client.write.commit",
            ),
            ProtocolOp::Append => (
                "client.append.data",
                "client.append.assign",
                "client.append.publish",
                "client.append.commit",
            ),
            ProtocolOp::Read => ("client.read.locate", "client.read.fetch", "", ""),
        };
        let ctx = &self.0;
        match (op, phase) {
            (_, Start) => ctx.open_step(data),
            (ProtocolOp::Read, Located) => {
                ctx.close_step();
                ctx.open_step(assign);
            }
            (ProtocolOp::Read, Done) => ctx.close_step(),
            (_, DataDone) => {
                ctx.close_step();
                ctx.open_step(assign);
            }
            (_, VersionAssigned) => {
                ctx.close_step();
                ctx.open_step(publish);
            }
            (_, MetadataPublished) => {
                ctx.close_step();
                ctx.open_step(commit);
            }
            (_, Committed) => ctx.close_step(),
            _ => {}
        }
    }
}

/// A timing decorator over one port adapter.
pub struct Timed<P: ?Sized> {
    inner: Arc<P>,
    ctx: Arc<ClientCtx>,
}

impl<P: ?Sized> Timed<P> {
    pub fn new(inner: Arc<P>, ctx: &Arc<ClientCtx>) -> Self {
        Self {
            inner,
            ctx: Arc::clone(ctx),
        }
    }
}

impl BlockStore for Timed<dyn BlockStore> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn node(&self, provider: usize) -> NodeId {
        self.inner.node(provider)
    }
    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.inner.index_of_node(node)
    }
    fn put(&self, provider: usize, id: BlockId, data: Bytes) -> Result<()> {
        self.ctx
            .port("block.put", 1, || self.inner.put(provider, id, data))
    }
    fn get(&self, provider: usize, id: BlockId) -> Result<Bytes> {
        let out = self
            .ctx
            .port("block.get", 1, || self.inner.get(provider, id));
        if let Ok(b) = &out {
            self.note_fetched(&[id], &[b.len() as u64]);
        }
        out
    }
    fn contains(&self, provider: usize, id: BlockId) -> bool {
        self.ctx
            .port("block.contains", 1, || self.inner.contains(provider, id))
    }
    fn delete(&self, provider: usize, id: BlockId) -> Result<u64> {
        self.ctx
            .port("block.delete", 1, || self.inner.delete(provider, id))
    }
    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        self.ctx.port("block.put_many", items.len(), || {
            self.inner.put_many(provider, items)
        })
    }
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        let out = self.ctx.port("block.get_many", ids.len(), || {
            self.inner.get_many(provider, ids)
        });
        let (ok_ids, lens): (Vec<BlockId>, Vec<u64>) = ids
            .iter()
            .zip(&out)
            .filter_map(|(id, r)| r.as_ref().ok().map(|b| (*id, b.len() as u64)))
            .unzip();
        self.note_fetched(&ok_ids, &lens);
        out
    }
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        self.ctx.port("block.delete_many", ids.len(), || {
            self.inner.delete_many(provider, ids)
        })
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
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn layout_vector(&self) -> Vec<u64> {
        self.inner.layout_vector()
    }
    fn total_block_count(&self) -> usize {
        self.inner.total_block_count()
    }
    fn total_bytes_stored(&self) -> u64 {
        self.inner.total_bytes_stored()
    }
}

impl Timed<dyn BlockStore> {
    fn note_fetched(&self, ids: &[BlockId], lens: &[u64]) {
        let tracer = &self.ctx.tracer;
        if !tracer.measuring.load(Ordering::Relaxed) {
            return;
        }
        let mut f = tracer.fetched.lock().expect("fetch set poisoned");
        for id in ids {
            *f.0.entry(*id).or_insert(0) += 1;
        }
        f.1 += lens.iter().sum::<u64>();
    }
}

impl MetaStore for Timed<dyn MetaStore> {
    fn put(&self, key: NodeKey, node: TreeNode) -> Result<()> {
        self.ctx.port("meta.put", 1, || self.inner.put(key, node))
    }
    fn get(&self, key: &NodeKey) -> Result<TreeNode> {
        self.ctx.port("meta.get", 1, || self.inner.get(key))
    }
    fn delete(&self, key: &NodeKey) -> bool {
        self.ctx.port("meta.delete", 1, || self.inner.delete(key))
    }
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.ctx
            .port("meta.put_many", items.len(), || self.inner.put_many(items))
    }
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        self.ctx
            .port("meta.get_many", keys.len(), || self.inner.get_many(keys))
    }
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        self.ctx.port("meta.delete_many", keys.len(), || {
            self.inner.delete_many(keys)
        })
    }
    fn fanout_shard(&self, key: &NodeKey) -> usize {
        self.inner.fanout_shard(key)
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
    fn crash_shard(&self, shard: usize) {
        self.inner.crash_shard(shard)
    }
}

impl VersionService for Timed<dyn VersionService> {
    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }
    fn create_blob(&self) -> Result<BlobId> {
        self.ctx
            .port("vm.create_blob", 1, || self.inner.create_blob())
    }
    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        self.ctx
            .port("vm.branch", 1, || self.inner.branch(parent, at))
    }
    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        self.ctx
            .port("vm.assign", 1, || self.inner.assign(blob, intent))
    }
    fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        self.ctx
            .port("vm.commit", 1, || self.inner.commit(blob, version))
    }
    fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        self.ctx.port("vm.latest", 1, || self.inner.latest(blob))
    }
    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        self.ctx.port("vm.snapshot_info", 1, || {
            self.inner.snapshot_info(blob, version)
        })
    }
    fn chain(&self, blob: BlobId) -> Result<LogChain> {
        self.ctx.port("vm.chain", 1, || self.inner.chain(blob))
    }
    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        self.ctx.port("vm.wait_revealed", 1, || {
            self.inner.wait_revealed(blob, version, timeout)
        })
    }
    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        self.ctx.port("vm.pending_versions", 1, || {
            self.inner.pending_versions(blob)
        })
    }
    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        self.ctx
            .port("vm.delete_blob", 1, || self.inner.delete_blob(blob))
    }
    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        self.ctx.port("vm.collect_before", 1, || {
            self.inner.collect_before(blob, keep_from)
        })
    }
}

impl PlacementService for Timed<dyn PlacementService> {
    fn provider_count(&self) -> usize {
        self.inner.provider_count()
    }
    fn allocate(&self, n_blocks: usize, replication: usize) -> Result<Vec<BlockAllocation>> {
        self.ctx.port("placement.allocate", n_blocks, || {
            self.inner.allocate(n_blocks, replication)
        })
    }
    fn release_many(&self, providers: &[usize]) -> Result<()> {
        self.ctx
            .port("placement.release_many", providers.len(), || {
                self.inner.release_many(providers)
            })
    }
    fn load_vector(&self) -> Result<Vec<u64>> {
        self.inner.load_vector()
    }
    fn register_provider(&self, node: NodeId) -> Result<usize> {
        self.ctx.port("placement.register_provider", 1, || {
            self.inner.register_provider(node)
        })
    }
    fn heartbeat(&self, provider: usize) -> Result<u64> {
        self.ctx
            .port("placement.heartbeat", 1, || self.inner.heartbeat(provider))
    }
}

impl GcService for Timed<dyn GcService> {
    fn inc_nodes(&self, keys: &[NodeKey]) -> Result<()> {
        self.ctx
            .port("gc.inc_nodes", keys.len(), || self.inner.inc_nodes(keys))
    }
    fn release_roots(&self, roots: &[NodeKey]) -> Result<GcReport> {
        self.ctx.port("gc.release_roots", roots.len(), || {
            self.inner.release_roots(roots)
        })
    }
    fn node_count(&self, key: &NodeKey) -> Result<u64> {
        self.inner.node_count(key)
    }
    fn tracked_nodes(&self) -> Result<usize> {
        self.inner.tracked_nodes()
    }
}

/// A client deployment on `cluster` with every port adapter wrapped in a
/// timing decorator and a phase observer installed — the wiring of
/// `LoopbackCluster::deploy_observed`, decorators added, nothing else
/// changed (the read cache tier, when configured, still sits above the
/// wire adapters).
pub fn deploy_traced(cluster: &LoopbackCluster, ctx: &Arc<ClientCtx>) -> Result<Arc<BlobSeer>> {
    let cfg = cluster.config().clone();
    let stats = Arc::new(EngineStats::new());
    let budget = cfg.rpc_client_connections;
    let rpc_blocks: Arc<dyn BlockStore> = Arc::new(RpcBlockStore::connect_with(
        cluster.block_addrs(),
        Arc::clone(&stats),
        budget,
    )?);
    let rpc_meta: Arc<dyn MetaStore> = Arc::new(RpcMetaStore::connect_with(
        cluster.meta_addr(),
        Arc::clone(&stats),
        budget,
    )?);
    let rpc_vm: Arc<dyn VersionService> = Arc::new(RpcVersionService::connect_with(
        cluster.vm_addr(),
        Arc::clone(&stats),
        budget,
    )?);
    let rpc_pm: Arc<dyn PlacementService> = Arc::new(RpcPlacementService::connect_with(
        cluster.placement_addr(),
        Arc::clone(&stats),
        budget,
    )?);
    let rpc_gc: Arc<dyn GcService> = Arc::new(RpcGcService::connect_with(
        cluster.gc_addr(),
        Arc::clone(&stats),
        budget,
    )?);
    let mut providers: Arc<dyn BlockStore> = Arc::new(Timed::new(rpc_blocks, ctx));
    let mut dht: Arc<dyn MetaStore> = Arc::new(Timed::new(rpc_meta, ctx));
    if cfg.read_cache_bytes > 0 {
        providers = Arc::new(CachedBlockStore::new(
            providers,
            cfg.read_cache_bytes,
            Arc::clone(&stats),
        ));
        dht = Arc::new(CachedMetaStore::new(
            dht,
            cfg.read_cache_bytes,
            Arc::clone(&stats),
        ));
    }
    let ports = EnginePorts {
        providers,
        dht,
        vm: Arc::new(Timed::new(rpc_vm, ctx)),
        pm: Arc::new(Timed::new(rpc_pm, ctx)),
        gc: Some(Arc::new(Timed::new(rpc_gc, ctx))),
        stats,
        observer: Arc::new(PhaseObserver(Arc::clone(ctx))),
    };
    Ok(BlobSeer::deploy_ports(cfg, ports))
}

/// A `FileSystem` decorator: every call, and every read, write and close
/// on the streams it opens, is a step span of the calling thread.
pub struct TracedFs<F> {
    inner: F,
    ctx: Arc<ClientCtx>,
}

impl<F> TracedFs<F> {
    pub fn new(inner: F, ctx: &Arc<ClientCtx>) -> Self {
        Self {
            inner,
            ctx: Arc::clone(ctx),
        }
    }
}

struct TracedInput<'a> {
    inner: Box<dyn DfsInput + 'a>,
    ctx: Arc<ClientCtx>,
}

impl DfsInput for TracedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let inner = &mut self.inner;
        self.ctx.step("bsfs.read", || inner.read(buf))
    }
    fn seek(&mut self, pos: u64) -> Result<()> {
        let inner = &mut self.inner;
        self.ctx.step("bsfs.seek", || inner.seek(pos))
    }
    fn pos(&self) -> u64 {
        self.inner.pos()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let inner = &mut self.inner;
        self.ctx.step("bsfs.read", || inner.read_exact(buf))
    }
}

struct TracedOutput<'a> {
    inner: Box<dyn DfsOutput + 'a>,
    ctx: Arc<ClientCtx>,
}

impl DfsOutput for TracedOutput<'_> {
    fn write(&mut self, buf: &[u8]) -> Result<()> {
        let inner = &mut self.inner;
        self.ctx.step("bsfs.write", || inner.write(buf))
    }
    fn pos(&self) -> u64 {
        self.inner.pos()
    }
    fn close(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        self.ctx.step("bsfs.close", || inner.close())
    }
}

impl<F: FileSystem> FileSystem for TracedFs<F> {
    fn create(&self, path: &str, overwrite: bool) -> Result<Box<dyn DfsOutput + '_>> {
        let inner = self
            .ctx
            .step("bsfs.create", || self.inner.create(path, overwrite))?;
        Ok(Box::new(TracedOutput {
            inner,
            ctx: Arc::clone(&self.ctx),
        }))
    }
    fn append(&self, path: &str) -> Result<Box<dyn DfsOutput + '_>> {
        let inner = self.ctx.step("bsfs.append", || self.inner.append(path))?;
        Ok(Box::new(TracedOutput {
            inner,
            ctx: Arc::clone(&self.ctx),
        }))
    }
    fn open(&self, path: &str) -> Result<Box<dyn DfsInput + '_>> {
        let inner = self.ctx.step("bsfs.open", || self.inner.open(path))?;
        Ok(Box::new(TracedInput {
            inner,
            ctx: Arc::clone(&self.ctx),
        }))
    }
    fn exists(&self, path: &str) -> Result<bool> {
        self.ctx.step("bsfs.exists", || self.inner.exists(path))
    }
    fn status(&self, path: &str) -> Result<FileStatus> {
        self.ctx.step("bsfs.status", || self.inner.status(path))
    }
    fn list(&self, path: &str) -> Result<Vec<FileStatus>> {
        self.ctx.step("bsfs.list", || self.inner.list(path))
    }
    fn mkdirs(&self, path: &str) -> Result<()> {
        self.ctx.step("bsfs.mkdirs", || self.inner.mkdirs(path))
    }
    fn delete(&self, path: &str, recursive: bool) -> Result<()> {
        self.ctx
            .step("bsfs.delete", || self.inner.delete(path, recursive))
    }
    fn rename(&self, src: &str, dst: &str) -> Result<()> {
        self.ctx.step("bsfs.rename", || self.inner.rename(src, dst))
    }
    fn block_locations(&self, path: &str, offset: u64, len: u64) -> Result<Vec<FsBlockLocation>> {
        self.ctx.step("bsfs.block_locations", || {
            self.inner.block_locations(path, offset, len)
        })
    }
    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}
