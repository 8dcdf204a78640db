//! Ablation sweeps over the influential calibrated constants and design
//! choices of the figure reproductions (`docs/REPRODUCING.md`; the
//! constants live in `experiments::constants`). Each "benchmark" runs the
//! figure model at several settings of one knob and prints the resulting
//! series, so the sensitivity of the reproduced curves is itself a
//! recorded artifact.
//!
//! * placement policy × {round-robin, least-loaded, random, sticky};
//! * HDFS placement stickiness (Fig. 3(b)'s magnitude driver);
//! * metadata-provider count (the decentralization claim of §III-A.3);
//! * version-manager service time (Fig. 5's knee);
//! * append vs random-offset writes (§V-F's closing claim).

use blobseer_core::placement::manhattan_unbalance;
use blobseer_types::config::PlacementPolicy;
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{fig3b, fig5, Constants};
use simnet::SimDuration;
use std::hint::black_box;

/// Unbalance of every policy at the 16 GB point.
fn ablate_policies(c: &mut Criterion) {
    let policies = [
        ("round_robin", PlacementPolicy::RoundRobin),
        ("least_loaded", PlacementPolicy::LeastLoaded),
        ("random", PlacementPolicy::Random),
        (
            "sticky_65",
            PlacementPolicy::StickyRandom { stickiness: 65 },
        ),
    ];
    println!("# ablation: placement policy → unbalance (256 blocks / 269 nodes)");
    for (name, policy) in policies {
        let u = fig3b::mean_unbalance(policy, 256, 269);
        println!("{name:>14}: {u:8.1}");
    }
    let mut g = c.benchmark_group("ablations/policy_unbalance");
    g.sample_size(10);
    g.bench_function("all_policies", |b| {
        b.iter(|| {
            for (_, policy) in policies {
                black_box(fig3b::mean_unbalance(policy, 256, 269));
            }
        })
    });
    g.finish();
}

/// Fig. 3(b) magnitude vs the stickiness constant.
fn ablate_stickiness(c: &mut Criterion) {
    println!("# ablation: HDFS stickiness → unbalance at 16 GB");
    for stickiness in [0u8, 20, 40, 55, 65, 80] {
        let u = fig3b::mean_unbalance(PlacementPolicy::StickyRandom { stickiness }, 256, 269);
        println!("stickiness {stickiness:>3}%: {u:8.1}");
    }
    let mut g = c.benchmark_group("ablations/stickiness");
    g.sample_size(10);
    g.bench_function("sweep", |b| {
        b.iter(|| {
            for s in [0u8, 40, 80] {
                black_box(fig3b::mean_unbalance(
                    PlacementPolicy::StickyRandom { stickiness: s },
                    256,
                    269,
                ));
            }
        })
    });
    g.finish();
}

/// Fig. 5 aggregate vs metadata-provider count: decentralized metadata is
/// what keeps the appenders scaling (§III-A.3).
fn ablate_meta_shards(c: &mut Criterion) {
    println!("# ablation: metadata providers → Fig. 5 aggregate at 250 appenders (MB/s)");
    for shards in [1usize, 5, 10, 20, 40] {
        let cst = Constants {
            meta_shards: shards,
            ..Constants::default()
        };
        let t = fig5::aggregated_mbps(&cst, fig5::OpMode::Append, 250);
        println!("{shards:>3} shards: {t:10.0}");
    }
    let mut g = c.benchmark_group("ablations/meta_shards");
    g.sample_size(10);
    g.bench_function("sweep", |b| {
        b.iter(|| {
            for shards in [1usize, 20] {
                let cst = Constants {
                    meta_shards: shards,
                    ..Constants::default()
                };
                black_box(fig5::aggregated_mbps(&cst, fig5::OpMode::Append, 250));
            }
        })
    });
    g.finish();
}

/// Fig. 5 aggregate vs the version-manager service time — the knee of the
/// scaling curve.
fn ablate_vm_service(c: &mut Criterion) {
    println!("# ablation: VM assignment service time → Fig. 5 aggregate at 250 appenders (MB/s)");
    for ms in [1u64, 2, 4, 8, 16] {
        let cst = Constants {
            vm_assign_svc: SimDuration::from_millis(ms),
            ..Constants::default()
        };
        let t = fig5::aggregated_mbps(&cst, fig5::OpMode::Append, 250);
        println!("{ms:>3} ms: {t:10.0}");
    }
    let mut g = c.benchmark_group("ablations/vm_service");
    g.sample_size(10);
    g.bench_function("sweep", |b| {
        b.iter(|| {
            for ms in [1u64, 16] {
                let cst = Constants {
                    vm_assign_svc: SimDuration::from_millis(ms),
                    ..Constants::default()
                };
                black_box(fig5::aggregated_mbps(&cst, fig5::OpMode::Append, 250));
            }
        })
    });
    g.finish();
}

/// §V-F's claim: appends ≈ random-offset writes.
fn ablate_append_vs_write(c: &mut Criterion) {
    println!("# ablation: append vs random-offset write (aggregated MB/s)");
    let cst = Constants::default();
    for n in [50usize, 150, 250] {
        let a = fig5::aggregated_mbps(&cst, fig5::OpMode::Append, n);
        let w = fig5::aggregated_mbps(&cst, fig5::OpMode::RandomWrite, n);
        println!(
            "{n:>3} clients: append {a:9.0}  write {w:9.0}  delta {:+5.1}%",
            (w - a) / a * 100.0
        );
    }
    let mut g = c.benchmark_group("ablations/append_vs_write");
    g.sample_size(10);
    g.bench_function("both_modes_250", |b| {
        b.iter(|| {
            black_box(fig5::aggregated_mbps(&cst, fig5::OpMode::Append, 250));
            black_box(fig5::aggregated_mbps(&cst, fig5::OpMode::RandomWrite, 250));
        })
    });
    g.finish();
}

/// Live-engine sanity for the policy ablation: run the real provider
/// manager under each policy and score the layout.
fn ablate_live_policies(c: &mut Criterion) {
    use blobseer_core::BlobSeer;
    use blobseer_types::{BlobSeerConfig, NodeId};
    println!("# ablation: live-engine layout unbalance per policy (64 blocks / 16 providers)");
    let policies = [
        ("round_robin", PlacementPolicy::RoundRobin),
        ("least_loaded", PlacementPolicy::LeastLoaded),
        ("random", PlacementPolicy::Random),
        (
            "sticky_65",
            PlacementPolicy::StickyRandom { stickiness: 65 },
        ),
    ];
    for (name, policy) in policies {
        let sys = BlobSeer::deploy(
            BlobSeerConfig::default()
                .with_block_size(1024)
                .with_placement(policy),
            16,
        );
        let client = sys.client(NodeId::new(99));
        let blob = client.create();
        client.write(blob, 0, &vec![1u8; 64 * 1024]).unwrap();
        println!(
            "{name:>14}: {:8.1}",
            manhattan_unbalance(&sys.layout_vector())
        );
    }
    let mut g = c.benchmark_group("ablations/live_policy_layout");
    g.sample_size(10);
    g.bench_function("round_robin_write", |b| {
        b.iter(|| {
            let sys = BlobSeer::deploy(BlobSeerConfig::default().with_block_size(1024), 16);
            let client = sys.client(NodeId::new(99));
            let blob = client.create();
            client.write(blob, 0, &vec![1u8; 64 * 1024]).unwrap();
            black_box(manhattan_unbalance(&sys.layout_vector()))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ablate_policies,
    ablate_stickiness,
    ablate_meta_shards,
    ablate_vm_service,
    ablate_append_vs_write,
    ablate_live_policies
);
criterion_main!(benches);
