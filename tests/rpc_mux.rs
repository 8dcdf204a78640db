//! The multiplexed transport: many in-flight requests per connection, a
//! bounded socket budget, transparent redial after a server restart, and
//! the opt-in hot-read cache tier.
//!
//! The old transport model spent one TCP connection per in-flight request
//! (a parked `wait_revealed` pinned a whole socket). These tests pin down
//! the muxed model's contract instead: 64 concurrent requests — one of
//! them a `wait_revealed` deliberately blocked for 500 ms — all complete
//! through a fixed per-endpoint connection budget, observed from the
//! *server* side via its accept counter.

use blobseer_core::block_store::ProviderSet;
use blobseer_core::dht::MetaDht;
use blobseer_core::meta::key::{NodeKey, Pos};
use blobseer_core::ports::{BlockStore, MetaStore};
use blobseer_core::{EngineStats, WriteIntent};
use blobseer_rpc::{LoopbackCluster, RpcBlockStore, RpcMetaStore, RpcServer, RpcService};
use blobseer_types::{BlobId, BlobSeerConfig, BlockId, Error, NodeId, Version};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const BLOCK: u64 = 256;

#[test]
fn pipelined_requests_complete_within_the_connection_budget() {
    let cfg = BlobSeerConfig::small_for_tests().with_block_size(BLOCK);
    let budget = cfg.rpc_client_connections;
    // One data provider: every block request pipelines on that single
    // endpoint's connections.
    let cluster = LoopbackCluster::boot(cfg, 1).unwrap();
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(0));

    let blob = c.create();
    let payload: Vec<u8> = (0..64 * BLOCK).map(|i| i as u8).collect();
    let v1 = c.write(blob, 0, &payload).unwrap();

    // A writer that assigned but never commits: the next committed write
    // cannot reveal, so waiting for it parks server-side for the full
    // timeout (§III-C reveal-in-order).
    sys.version_manager()
        .assign(blob, WriteIntent::Append { size: BLOCK })
        .unwrap();
    let v3 = c.write(blob, 0, &[9u8; BLOCK as usize]).unwrap();

    let wait_done = Arc::new(AtomicBool::new(false));
    let waiter = {
        let sys = Arc::clone(&sys);
        let wait_done = Arc::clone(&wait_done);
        std::thread::spawn(move || {
            let c = sys.client(NodeId::new(1));
            let started = Instant::now();
            let err = c
                .wait_revealed(blob, v3, Duration::from_millis(500))
                .unwrap_err();
            wait_done.store(true, Ordering::SeqCst);
            (err, started.elapsed())
        })
    };
    // Give the wait a head start so it is parked before the readers run.
    std::thread::sleep(Duration::from_millis(50));

    // 64 concurrent readers, each one block plus a version-manager call —
    // so the version service keeps answering on the same connections the
    // parked wait rides.
    let barrier = Arc::new(Barrier::new(64));
    let readers: Vec<_> = (0..64u64)
        .map(|i| {
            let sys = Arc::clone(&sys);
            let barrier = Arc::clone(&barrier);
            let expect = payload[(i * BLOCK) as usize..((i + 1) * BLOCK) as usize].to_vec();
            std::thread::spawn(move || {
                let c = sys.client(NodeId::new(10 + i));
                barrier.wait();
                let data = c.read(blob, Some(v1), i * BLOCK, BLOCK).unwrap();
                assert_eq!(&data[..], &expect[..], "reader {i} got wrong bytes");
                assert_eq!(c.latest(blob).unwrap().0, v1, "v3 must not be revealed");
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        !wait_done.load(Ordering::SeqCst),
        "all 64 readers finished while wait_revealed was still parked"
    );
    let (err, waited) = waiter.join().unwrap();
    assert!(matches!(err, Error::Timeout(_)), "{err}");
    assert!(waited >= Duration::from_millis(450), "parked {waited:?}");

    // The server-side accept counters bound the socket spend: 5 endpoints
    // (block, meta, version, plus the placement and GC control planes),
    // at most `budget` muxed connections each — not one socket per
    // in-flight request.
    let accepted = cluster.connections_accepted();
    assert!(
        accepted <= (5 * budget) as u64,
        "{accepted} sockets accepted for 65 concurrent requests (budget {budget}/endpoint)"
    );
}

#[test]
fn idle_dead_connections_redial_after_a_server_restart_on_the_same_port() {
    let provider: Arc<ProviderSet> = Arc::new(ProviderSet::new(1, |_| NodeId::new(7)));
    let mut server =
        RpcServer::spawn_with(RpcService::Block(Arc::clone(&provider) as _), 2, 16).unwrap();
    let addr = server.addr();

    let stats = Arc::new(EngineStats::new());
    let store = RpcBlockStore::connect_with(&[addr], Arc::clone(&stats), 2).unwrap();
    store
        .put(0, BlockId::new(1), Bytes::from_static(b"before restart"))
        .unwrap();
    assert_eq!(
        &store.get(0, BlockId::new(1)).unwrap()[..],
        b"before restart"
    );

    // Restart on the *same* port while the client pool idles. Every muxed
    // connection the client holds dies here.
    server.shutdown();
    drop(server);
    let deadline = Instant::now() + Duration::from_secs(10);
    let _server2 = loop {
        // The old listener's sockets may linger briefly (TIME_WAIT);
        // retry the bind rather than flake.
        match RpcServer::spawn_at(addr, RpcService::Block(Arc::clone(&provider) as _), 2, 16) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    };

    // No reconnect ceremony: the next calls transparently redial. Data
    // survives because the restarted server hosts the same provider set.
    assert_eq!(
        &store.get(0, BlockId::new(1)).unwrap()[..],
        b"before restart"
    );
    store
        .put(0, BlockId::new(2), Bytes::from_static(b"after restart"))
        .unwrap();
    assert_eq!(
        &store.get(0, BlockId::new(2)).unwrap()[..],
        b"after restart"
    );
    assert_eq!(store.block_count(0), 2);
    assert_eq!(
        stats.snapshot().rpc_degraded_diagnostics,
        0,
        "healthy calls after the restart must not count as degradations"
    );
}

#[test]
fn diagnostics_against_a_dead_cluster_degrade_loudly_not_silently() {
    let provider: Arc<ProviderSet> = Arc::new(ProviderSet::new(1, |_| NodeId::new(0)));
    let mut server =
        RpcServer::spawn_with(RpcService::Block(Arc::clone(&provider) as _), 2, 16).unwrap();
    let stats = Arc::new(EngineStats::new());
    let store = RpcBlockStore::connect_with(&[server.addr()], Arc::clone(&stats), 1).unwrap();
    let mut meta_server =
        RpcServer::spawn_with(RpcService::Meta(Arc::new(MetaDht::new(1, 1))), 2, 16).unwrap();
    let meta = RpcMetaStore::connect_with(meta_server.addr(), Arc::clone(&stats), 1).unwrap();
    assert_eq!(store.block_count(0), 0);
    assert_eq!(stats.snapshot().rpc_degraded_diagnostics, 0);

    server.shutdown();
    drop(server);
    meta_server.shutdown();
    drop(meta_server);
    // The port has no error channel for these: they answer their zero
    // defaults, but each degradation is now counted.
    assert!(!store.contains(0, BlockId::new(1)));
    assert_eq!(store.block_count(0), 0);
    assert_eq!(store.bytes_stored(0), 0);
    assert_eq!(store.op_counts(0), (0, 0));
    // The single metadata delete rides a batch of one, but still cannot
    // report an unknown outcome: it answers "nothing deleted", counted.
    let key = NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(0, 1));
    assert!(!MetaStore::delete(&meta, &key));
    assert_eq!(
        stats.snapshot().rpc_degraded_diagnostics,
        5,
        "every degraded diagnostic answer must be observable on EngineStats"
    );
}

#[test]
fn read_cache_serves_hot_snapshots_and_reports_hits() {
    let cfg = BlobSeerConfig::small_for_tests()
        .with_block_size(BLOCK)
        .with_read_cache_bytes(1 << 20);
    let cluster = LoopbackCluster::boot(cfg, 2).unwrap();
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(0));

    let blob = c.create();
    let payload: Vec<u8> = (0..16 * BLOCK).map(|i| (i / 3) as u8).collect();
    c.write(blob, 0, &payload).unwrap();

    // Write-allocate: the writer's own cache was populated by the puts,
    // so reading back its own blob never re-fetches a block.
    let first = c.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&first[..], &payload[..]);
    let writer_snap = sys.stats().snapshot();
    assert!(
        writer_snap.cache_hits > 0,
        "write-allocate must serve the writer's read-back from cache"
    );
    assert_eq!(
        writer_snap.cache_misses, 0,
        "the writer populated every block and tree node it reads back"
    );

    // A second deployment starts cold: its first read pays misses over
    // the wire, the hot re-read is served from its own cache with fewer
    // round trips.
    let sys2 = cluster.deploy().unwrap();
    let c2 = sys2.client(NodeId::new(9));
    let cold = c2.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&cold[..], &payload[..]);
    let after_cold = sys2.stats().snapshot();
    assert!(
        after_cold.cache_misses > 0,
        "the cold read populates via misses"
    );

    let warm = c2.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&warm[..], &payload[..]);
    let after_warm = sys2.stats().snapshot();
    assert!(
        after_warm.cache_hits > after_cold.cache_hits,
        "the hot re-read must hit the cache"
    );
    assert_eq!(
        after_warm.cache_misses, after_cold.cache_misses,
        "nothing evicted under a 1 MiB budget: the re-read misses nothing"
    );
    let cold_trips = after_cold.port_round_trips;
    let warm_trips = after_warm.port_round_trips - cold_trips;
    assert!(
        warm_trips < cold_trips,
        "cached re-read took {warm_trips} round trips vs {cold_trips} cold"
    );
}
