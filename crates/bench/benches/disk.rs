//! Throughput of the append-only disk backend at the port boundary.
//!
//! Three questions, measured directly against `blobseer-disk`:
//!
//! * what a batch of one costs on the needle volume (one frame append +
//!   index insert, one positioned read) vs whole batches that amortise
//!   the log lock and the write syscall across many items — the same
//!   batch-of-one/batched comparison `batching.rs` makes over RPC, here
//!   without the wire;
//! * the same for the metadata record log behind `DiskMetaStore`; and
//! * what a cold open costs: `reopen()` drops every in-memory index and
//!   rebuilds it by replaying the logs, which is the startup price a
//!   restarted provider pays before serving its first request.

use blobseer_core::meta::key::{NodeKey, Pos};
use blobseer_core::meta::node::{BlockDescriptor, TreeNode};
use blobseer_core::ports::{BlockStore, MetaStore};
use blobseer_disk::testutil::TempDir;
use blobseer_disk::{DiskMetaStore, DiskProviderSet};
use blobseer_types::{BlobId, BlockId, NodeId, Version};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const BLOCKS: u64 = 64;
const BLOCK_BYTES: usize = 4096;

fn node_key(k: u64) -> NodeKey {
    NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(k, 1))
}

fn tree_node(k: u64) -> TreeNode {
    TreeNode::Leaf(BlockDescriptor {
        block_id: BlockId::new(k),
        providers: vec![0],
        len: BLOCK_BYTES as u32,
    })
}

fn bench_disk_volume(c: &mut Criterion) {
    let tmp = TempDir::new("bench-disk-volume");
    let store = DiskProviderSet::open(tmp.path(), 1, |i| NodeId::new(i as u64)).unwrap();
    let payload = Bytes::from(vec![0xD1u8; BLOCK_BYTES]);

    // --- write side: 64 fresh blocks per round ------------------------------
    // Ids never repeat across rounds (the volume is append-only and puts
    // are immutable), so every round measures 64 genuine appends.
    let mut g = c.benchmark_group("disk_volume/store_64_blocks");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(BLOCKS * BLOCK_BYTES as u64));
    let mut round = 0u64;
    g.bench_function("batch_of_one", |b| {
        b.iter(|| {
            round += 1;
            let base = round * 1_000_000;
            for k in 0..BLOCKS {
                store
                    .put(0, BlockId::new(base + k), payload.clone())
                    .unwrap();
            }
        });
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            round += 1;
            let base = round * 1_000_000;
            let items: Vec<(BlockId, Bytes)> = (0..BLOCKS)
                .map(|k| (BlockId::new(base + k), payload.clone()))
                .collect();
            for result in store.put_many(0, &items) {
                result.unwrap();
            }
        });
    });
    g.finish();

    // --- read side: the same 64 blocks back ---------------------------------
    let base = u64::MAX / 2;
    for k in 0..BLOCKS {
        store
            .put(0, BlockId::new(base + k), payload.clone())
            .unwrap();
    }
    let ids: Vec<BlockId> = (0..BLOCKS).map(|k| BlockId::new(base + k)).collect();
    let mut g = c.benchmark_group("disk_volume/fetch_64_blocks");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(BLOCKS * BLOCK_BYTES as u64));
    g.bench_function("batch_of_one", |b| {
        b.iter(|| {
            for &id in &ids {
                black_box(BlockStore::get(&store, 0, id).unwrap());
            }
        });
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            for result in store.get_many(0, &ids) {
                black_box(result.unwrap());
            }
        });
    });
    g.finish();
}

fn bench_disk_meta(c: &mut Criterion) {
    let tmp = TempDir::new("bench-disk-meta");
    let store = DiskMetaStore::open(tmp.path(), 4).unwrap();

    // Tree-node puts are idempotent re-puts after the first round (same
    // key, same node — no append), so this measures the steady-state
    // publish path: conflict check against the memtable, no I/O. The
    // first round pays the 64 appends once.
    let batch: Vec<(NodeKey, TreeNode)> =
        (0..BLOCKS).map(|k| (node_key(k), tree_node(k))).collect();
    let keys: Vec<NodeKey> = (0..BLOCKS).map(node_key).collect();
    let mut g = c.benchmark_group("disk_meta/publish_64_nodes");
    g.sample_size(10);
    g.throughput(Throughput::Elements(BLOCKS));
    g.bench_function("batch_of_one", |b| {
        b.iter(|| {
            for (key, node) in &batch {
                store.put(*key, node.clone()).unwrap();
            }
        });
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            for result in store.put_many(&batch) {
                result.unwrap();
            }
        });
    });
    g.finish();

    let mut g = c.benchmark_group("disk_meta/descend_64_nodes");
    g.sample_size(10);
    g.throughput(Throughput::Elements(BLOCKS));
    g.bench_function("batch_of_one", |b| {
        b.iter(|| {
            for key in &keys {
                black_box(store.get(key).unwrap());
            }
        });
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            for result in store.get_many(&keys) {
                black_box(result.unwrap());
            }
        });
    });
    g.finish();
}

fn bench_cold_reopen(c: &mut Criterion) {
    // The restart price: rebuild the offset index (volume) and memtable
    // (record log) by replaying logs holding 4096 committed entries.
    const ENTRIES: u64 = 4096;
    let tmp = TempDir::new("bench-disk-reopen");
    let volume_dir = tmp.path().join("block");
    let meta_dir = tmp.path().join("meta");
    let volume = DiskProviderSet::open(&volume_dir, 1, |i| NodeId::new(i as u64)).unwrap();
    let payload = Bytes::from(vec![0xD2u8; BLOCK_BYTES]);
    let items: Vec<(BlockId, Bytes)> = (0..ENTRIES)
        .map(|k| (BlockId::new(1 + k), payload.clone()))
        .collect();
    for result in volume.put_many(0, &items) {
        result.unwrap();
    }
    let meta = DiskMetaStore::open(&meta_dir, 4).unwrap();
    let nodes: Vec<(NodeKey, TreeNode)> =
        (0..ENTRIES).map(|k| (node_key(k), tree_node(k))).collect();
    for result in meta.put_many(&nodes) {
        result.unwrap();
    }

    let mut g = c.benchmark_group("disk_reopen/cold_index_4096_entries");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(ENTRIES * BLOCK_BYTES as u64));
    g.bench_function("volume", |b| {
        b.iter(|| {
            volume.reopen().unwrap();
            black_box(volume.total_block_count())
        });
    });
    g.finish();
    let mut g = c.benchmark_group("disk_reopen/cold_memtable_4096_nodes");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ENTRIES));
    g.bench_function("meta", |b| {
        b.iter(|| {
            meta.reopen().unwrap();
            black_box(meta.node_count())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_disk_volume,
    bench_disk_meta,
    bench_cold_reopen
);
criterion_main!(benches);
