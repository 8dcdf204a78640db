//! Batches of one vs whole batches of port traffic over the RPC loopback
//! cluster.
//!
//! The store ports are batch-only so the data phase, tree publish and
//! descent pay one wire frame per batch instead of one per item. This
//! bench measures that directly at the port boundary: storing and
//! fetching a 64-block write's worth of blocks through the
//! `RpcBlockStore` adapter, once as 64 batches of one (one round trip
//! each, what an item-at-a-time caller pays) and once as one
//! `put_many`/`get_many` per provider — real sockets, real frames,
//! laptop-scale 4 KB blocks (the round trips under comparison are
//! size-independent; the paper's 64 MB blocks only add stream time on
//! both sides).

//! Two follow-on groups measure this PR's transport work at the same
//! boundary: `rpc_mux` drives 1000 simulated client requests through a
//! fixed per-endpoint connection budget (the multiplexed frames are what
//! keep a 1-connection budget from serialising into 1000 blocking round
//! trips), and `rpc_cache` compares a hot-snapshot re-read served by the
//! client-side LRU tier against the same fetch over the wire.

use blobseer_core::ports::BlockStore;
use blobseer_core::EngineStats;
use blobseer_rpc::{LoopbackCluster, RpcBlockStore};
use blobseer_types::{BlobSeerConfig, BlockId, NodeId};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

const PROVIDERS: usize = 4;
const BLOCKS: u64 = 64;
const BLOCK_BYTES: usize = 4096;

/// The provider each block of the "write" lands on (round-robin, like the
/// provider manager's default placement).
fn provider_of(block: u64) -> usize {
    (block % PROVIDERS as u64) as usize
}

fn bench_rpc_batching(c: &mut Criterion) {
    let cluster = LoopbackCluster::boot(
        BlobSeerConfig::small_for_tests().with_block_size(BLOCK_BYTES as u64),
        PROVIDERS,
    )
    .unwrap();
    let sys = cluster.deploy().unwrap();
    let store = sys.providers();
    let payload = Bytes::from(vec![0xB1u8; BLOCK_BYTES]);

    // --- write side: 64 blocks to 4 providers ------------------------------
    let mut g = c.benchmark_group("rpc_batching/store_64_blocks");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(BLOCKS * BLOCK_BYTES as u64));
    let mut round = 0u64;
    g.bench_function("batch_of_one", |b| {
        b.iter(|| {
            round += 1;
            let base = round * 1_000_000;
            for k in 0..BLOCKS {
                store
                    .put(provider_of(k), BlockId::new(base + k), payload.clone())
                    .unwrap();
            }
            // Keep the servers from growing without bound across samples.
            for p in 0..PROVIDERS {
                let ids: Vec<BlockId> = (0..BLOCKS)
                    .filter(|&k| provider_of(k) == p)
                    .map(|k| BlockId::new(base + k))
                    .collect();
                let _ = store.delete_many(p, &ids);
            }
        });
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            round += 1;
            let base = round * 1_000_000;
            for p in 0..PROVIDERS {
                let items: Vec<(BlockId, Bytes)> = (0..BLOCKS)
                    .filter(|&k| provider_of(k) == p)
                    .map(|k| (BlockId::new(base + k), payload.clone()))
                    .collect();
                for result in store.put_many(p, &items) {
                    result.unwrap();
                }
                let ids: Vec<BlockId> = items.iter().map(|&(id, _)| id).collect();
                let _ = store.delete_many(p, &ids);
            }
        });
    });
    g.finish();

    // --- read side: fetch the same 64 blocks back --------------------------
    let base = u64::MAX / 2;
    for k in 0..BLOCKS {
        store
            .put(provider_of(k), BlockId::new(base + k), payload.clone())
            .unwrap();
    }
    let mut g = c.benchmark_group("rpc_batching/fetch_64_blocks");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(BLOCKS * BLOCK_BYTES as u64));
    g.bench_function("batch_of_one", |b| {
        b.iter(|| {
            for k in 0..BLOCKS {
                black_box(store.get(provider_of(k), BlockId::new(base + k)).unwrap());
            }
        });
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            for p in 0..PROVIDERS {
                let ids: Vec<BlockId> = (0..BLOCKS)
                    .filter(|&k| provider_of(k) == p)
                    .map(|k| BlockId::new(base + k))
                    .collect();
                for result in store.get_many(p, &ids) {
                    black_box(result.unwrap());
                }
            }
        });
    });
    g.finish();

    // --- mux pipelining: 1000 simulated client requests, fixed sockets -----
    // 8 worker threads replay 125 single-block fetches (batches of one)
    // each — 1000
    // logically independent client requests — through one shared adapter.
    // The budget sweep shows what multiplexing buys: even a single
    // connection carries all 1000 requests concurrently instead of
    // falling back to serialized checkout round trips.
    let mut g = c.benchmark_group("rpc_mux/pipelined_1000_requests");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(1000 * BLOCK_BYTES as u64));
    for budget in [1usize, 4] {
        let stats = Arc::new(EngineStats::new());
        let shared =
            Arc::new(RpcBlockStore::connect_with(cluster.block_addrs(), stats, budget).unwrap());
        g.bench_function(format!("budget_{budget}"), |b| {
            b.iter(|| {
                let threads: Vec<_> = (0..8u64)
                    .map(|t| {
                        let store = Arc::clone(&shared);
                        std::thread::spawn(move || {
                            for i in 0..125u64 {
                                let k = (t * 125 + i) % BLOCKS;
                                black_box(
                                    store.get(provider_of(k), BlockId::new(base + k)).unwrap(),
                                );
                            }
                        })
                    })
                    .collect();
                for t in threads {
                    t.join().unwrap();
                }
            });
        });
    }
    g.finish();

    // --- cache tier: a hot snapshot re-read vs the wire --------------------
    // Same 64-block fetch as `rpc_batching/fetch_64_blocks`, but through a
    // deployment with the read cache enabled. The puts write-allocate, so
    // every fetch here is a cache hit — the delta against the `wire`
    // baseline is the round-trip cost the cache removes for fig-4-style
    // many-readers-one-snapshot workloads.
    let cached_cluster = LoopbackCluster::boot(
        BlobSeerConfig::small_for_tests()
            .with_block_size(BLOCK_BYTES as u64)
            .with_read_cache_bytes(64 << 20),
        PROVIDERS,
    )
    .unwrap();
    let cached_sys = cached_cluster.deploy().unwrap();
    let cached_store = cached_sys.providers();
    for k in 0..BLOCKS {
        cached_store
            .put(provider_of(k), BlockId::new(base + k), payload.clone())
            .unwrap();
    }
    let mut g = c.benchmark_group("rpc_cache/fetch_64_blocks");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(BLOCKS * BLOCK_BYTES as u64));
    for (name, st) in [("wire", store), ("warm_cache", cached_store)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                for p in 0..PROVIDERS {
                    let ids: Vec<BlockId> = (0..BLOCKS)
                        .filter(|&k| provider_of(k) == p)
                        .map(|k| BlockId::new(base + k))
                        .collect();
                    for result in st.get_many(p, &ids) {
                        black_box(result.unwrap());
                    }
                }
            });
        });
    }
    g.finish();
}

/// Client-side fan-out vs a serial executor, end to end: the same
/// 64-block write and read driven through the full protocol (data phase,
/// tree publish, descent, fetch) against 4- and 8-provider clusters, once
/// with `client_io_threads = 1` (every batch inline, one at a time) and
/// once with one thread per provider. The delta is the overlap the
/// fan-out executor buys on the multi-provider hot paths — the bytes and
/// frame counts are identical by construction (see `tests/parallel_io.rs`).
fn bench_fanout(c: &mut Criterion) {
    let payload = vec![0xFAu8; BLOCKS as usize * BLOCK_BYTES];
    let setups: Vec<_> = [(4usize, 1usize), (4, 4), (8, 1), (8, 8)]
        .into_iter()
        .map(|(providers, threads)| {
            let cluster = LoopbackCluster::boot(
                BlobSeerConfig::small_for_tests()
                    .with_block_size(BLOCK_BYTES as u64)
                    .with_client_io_threads(threads),
                providers,
            )
            .unwrap();
            let sys = cluster.deploy().unwrap();
            let client = sys.client(NodeId::new(100));
            let mode = if threads == 1 { "serial" } else { "fanout" };
            (format!("{mode}_{providers}p"), cluster, client)
        })
        .collect();

    let mut g = c.benchmark_group("fanout/store_64_blocks");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(BLOCKS * BLOCK_BYTES as u64));
    for (label, _cluster, client) in &setups {
        g.bench_function(label.clone(), |b| {
            b.iter(|| {
                let blob = client.create();
                client.write(blob, 0, &payload).unwrap();
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("fanout/fetch_64_blocks");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(BLOCKS * BLOCK_BYTES as u64));
    for (label, _cluster, client) in &setups {
        let blob = client.create();
        client.write(blob, 0, &payload).unwrap();
        g.bench_function(label.clone(), |b| {
            b.iter(|| {
                black_box(client.read(blob, None, 0, payload.len() as u64).unwrap());
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rpc_batching, bench_fanout);
criterion_main!(benches);
