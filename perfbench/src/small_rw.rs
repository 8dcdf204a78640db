//! `small-rw`: metadata-bound small reads and writes on private blobs.
//!
//! In-memory backend, 4 KiB blocks. Set-up preloads one 16 MiB blob per
//! client. Each client then does 50% `write` of 64 blocks at a uniform
//! random aligned offset in its own blob and 50% `read` of 64 blocks at a
//! uniform random offset and a uniform random past version. Every read is
//! compared against the generator's model of each block's content at the
//! version read.
//!
//! Every version a write creates stays stored until collected, so each
//! client keeps a window of its latest versions: every [`GC_EVERY`] writes
//! it collects those older than the last [`KEEP_VERSIONS`]
//! (`BlobClient::gc_before`), and reads pick among the versions kept. The
//! run's memory then stays bounded and its speed does not drift with its
//! length.

use crate::common::*;
use blobseer_core::{BlobClient, BlobSeer};
use blobseer_rpc::LoopbackCluster;
use blobseer_types::{BlobId, BlobSeerConfig, NodeId, Result, Version};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BLOCK: u64 = 4096;
const BLOB_BLOCKS: u64 = 4096;
const OP_BLOCKS: u64 = 64;
/// Operations per client before timing starts: enough that collections
/// run in their steady rhythm from the first timed operation.
const WARMUP_OPS: usize = 400;
/// Versions a client keeps readable.
const KEEP_VERSIONS: u64 = 128;
/// Writes between two collections.
const GC_EVERY: u64 = 32;

pub fn config() -> BlobSeerConfig {
    BlobSeerConfig::default().with_block_size(BLOCK)
}

fn tag(client: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 40) | seq
}

/// One client's blob and its content model: per block index, the
/// `(version, tag)` pairs written there, oldest first.
struct Model {
    client: usize,
    blob: BlobId,
    version: u64,
    /// Oldest version not collected.
    oldest: u64,
    seq: u64,
    history: Vec<Vec<(u64, u64)>>,
}

impl Model {
    fn tag_at(&self, block: u64, version: u64) -> u64 {
        let h = &self.history[block as usize];
        let i = h.partition_point(|&(v, _)| v <= version);
        h[i - 1].1
    }

    fn preload(client: usize, c: &BlobClient) -> Result<Model> {
        let blob = c.try_create()?;
        let t = tag(client, 0);
        let v = c.write(blob, 0, &payload(t, 0, BLOB_BLOCKS, BLOCK))?;
        Ok(Model {
            client,
            blob,
            version: v.raw(),
            oldest: 1,
            seq: 0,
            history: (0..BLOB_BLOCKS).map(|_| vec![(v.raw(), t)]).collect(),
        })
    }

    /// One random operation: a write or a read, with its latency when the
    /// call succeeded.
    fn step(
        &mut self,
        c: &BlobClient,
        rng: &mut StdRng,
        pass: &mut Pass,
    ) -> Option<(bool, Duration)> {
        let first = rng.gen_range(0..=BLOB_BLOCKS - OP_BLOCKS);
        if rng.gen_bool(0.5) {
            self.seq += 1;
            let t = tag(self.client, self.seq);
            let data = payload(t, first, OP_BLOCKS, BLOCK);
            let (r, d) = timed(|| c.write(self.blob, first * BLOCK, &data));
            pass.tally(&r);
            let v = r.ok()?.raw();
            pass.check(v == self.version + 1, || {
                format!("write got version {v}, expected {}", self.version + 1)
            });
            self.version = v;
            for b in first..first + OP_BLOCKS {
                self.history[b as usize].push((v, t));
            }
            Some((true, d))
        } else {
            let version = rng.gen_range(self.oldest..=self.version);
            let (r, d) = timed(|| {
                c.read(
                    self.blob,
                    Some(Version::new(version)),
                    first * BLOCK,
                    OP_BLOCKS * BLOCK,
                )
            });
            pass.tally(&r);
            let data = r.ok()?;
            let mut want = vec![0u8; BLOCK as usize];
            for (i, got) in data.chunks(BLOCK as usize).enumerate() {
                let b = first + i as u64;
                fill_block(&mut want, self.tag_at(b, version), b);
                pass.check(got == &want[..], || {
                    format!("blob {:?} v{version} block {b}: content differs", self.blob)
                });
            }
            Some((false, d))
        }
    }

    /// The first version to keep, when a collection is due.
    fn gc_due(&self) -> Option<u64> {
        let keep_from = self.version.saturating_sub(KEEP_VERSIONS - 1);
        (keep_from >= self.oldest + GC_EVERY).then_some(keep_from)
    }

    /// Collects the versions below `keep_from`.
    fn collect(&mut self, c: &BlobClient, keep_from: u64, pass: &mut Pass) {
        let r = c.gc_before(self.blob, Version::new(keep_from));
        pass.tally(&r);
        if r.is_ok() {
            self.oldest = keep_from;
            for h in &mut self.history {
                let i = h.partition_point(|&(v, _)| v <= keep_from);
                h.drain(..i - 1);
            }
        }
    }
}

/// Boots a cluster and preloads one blob per client.
fn set_up(tracing: &Tracing) -> Result<(LoopbackCluster, Deployments, Vec<Model>)> {
    let cluster = LoopbackCluster::boot(config(), PROVIDERS)?;
    let deps = deploy_clients(&cluster, tracing)?;
    let models = deps
        .iter()
        .enumerate()
        .map(|(i, (sys, _))| Model::preload(i, &sys.client(NodeId::new(100 + i as u64))))
        .collect::<Result<_>>()?;
    Ok((cluster, deps, models))
}

pub fn run(args: &Args, tracing: Tracing, setups: usize) -> Result<Pass> {
    let mut pass = Pass::default();
    let (booted, wall, cpu) = cpu_timed(|| set_up(&tracing));
    pass.setup_s.push(wall.as_secs_f64());
    pass.setup_cpu_s.push(cpu.as_secs_f64());
    let (cluster, deps, models) = booted?;
    let systems: Vec<Arc<BlobSeer>> = deps.iter().map(|(s, _)| Arc::clone(s)).collect();
    let clients: Vec<BlobClient> = systems
        .iter()
        .enumerate()
        .map(|(i, s)| s.client(NodeId::new(100 + i as u64)))
        .collect();

    let mut state: Vec<(Model, StdRng)> = models
        .into_iter()
        .enumerate()
        .map(|(i, m)| (m, StdRng::seed_from_u64(args.seed ^ (0xA11CE + i as u64))))
        .collect();
    // Warm-up: a fixed amount of work, after which the memory high-water
    // mark is read (work done in the timed phase grows with throughput).
    for ((model, rng), c) in state.iter_mut().zip(&clients) {
        for _ in 0..WARMUP_OPS {
            model.step(c, rng, &mut pass);
            if let Some(keep_from) = model.gc_due() {
                model.collect(c, keep_from, &mut pass);
            }
        }
    }
    pass.rss_mib = peak_rss_mib();
    // The other set-ups, timed and dropped, after the memory reading.
    for _ in 1..setups {
        let (b, wall, cpu) = cpu_timed(|| set_up(&tracing));
        drop(b?);
        pass.setup_s.push(wall.as_secs_f64());
        pass.setup_cpu_s.push(cpu.as_secs_f64());
    }
    if let Some(t) = &tracing {
        t.take();
        t.set_measuring(true);
    }
    let before = Snap::take(&cluster, &systems);
    let marks = CpuMarks::start();
    let marks = &marks;
    let deadline = Instant::now() + args.measure_for();
    let results: Vec<(Pass, Lat, Lat)> = std::thread::scope(|s| {
        let handles: Vec<_> = state
            .iter_mut()
            .zip(&clients)
            .zip(&deps)
            .map(|(((model, rng), c), (_, ctx))| {
                s.spawn(move || {
                    let mut p = Pass::default();
                    let (mut w, mut r) = (Lat::default(), Lat::default());
                    while Instant::now() < deadline {
                        let out = match ctx {
                            None => model.step(c, rng, &mut p),
                            Some(ctx) => ctx.op("small-rw.op", || model.step(c, rng, &mut p)),
                        };
                        match out {
                            Some((true, d)) => w.0.push((Instant::now(), ms(d))),
                            Some((false, d)) => r.0.push((Instant::now(), ms(d))),
                            None => {}
                        }
                        marks.tick();
                        if let Some(keep_from) = model.gc_due() {
                            match ctx {
                                None => model.collect(c, keep_from, &mut p),
                                Some(ctx) => {
                                    ctx.op("small-rw.gc", || model.collect(c, keep_from, &mut p))
                                }
                            }
                        }
                    }
                    (p, w, r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    pass.counters = Snap::take(&cluster, &systems).since(&before);
    let warm = std::mem::take(&mut pass.problems);
    for (p, w, r) in results {
        pass.attempted += p.attempted;
        pass.failed += p.failed;
        pass.problems.extend(p.problems);
        pass.write.extend(w);
        pass.read.extend(r);
    }
    pass.problems.extend(warm);
    pass.ops = pass.write.n() + pass.read.n();
    let times = pass.write.times().chain(pass.read.times());
    pass.ops_per_s = chunked_rate(times);
    pass.cpu_ms_per_op = marks.ms_per_op();
    if let Some(t) = &tracing {
        t.set_measuring(false);
        pass.fetch = t.fetch_stats();
        pass.spans = t.take();
        pass.probe = Some(probe_frames(&cluster, t, probe)?);
    }
    Ok(pass)
}

/// The fixed probe: a 1 MiB blob, then four writes and four reads at fixed
/// offsets and versions.
fn probe(sys: &Arc<BlobSeer>) -> Result<()> {
    let c = sys.client(NodeId::new(900));
    let blob = c.try_create()?;
    c.write(blob, 0, &payload(1, 0, 256, BLOCK))?;
    for i in 0..4u64 {
        c.write(blob, i * 48 * BLOCK, &payload(2 + i, 0, OP_BLOCKS, BLOCK))?;
        c.read(
            blob,
            Some(Version::new(1 + i)),
            i * 32 * BLOCK,
            OP_BLOCKS * BLOCK,
        )?;
    }
    Ok(())
}
