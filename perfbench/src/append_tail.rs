//! `append-tail`: concurrent appends to one shared blob, each followed by
//! a read of the blob's tail.
//!
//! In-memory backend, 4 KiB blocks. Each client alternates an `append` of
//! 1–16 whole blocks with a tail read (`latest`, then `read` of the last
//! 64 blocks at that version). Every block read is checked against the
//! record that the offsets returned by `append` place there, and at the
//! end every acknowledged append must appear in the blob exactly once.

use crate::common::*;
use blobseer_core::{BlobClient, BlobSeer};
use blobseer_rpc::LoopbackCluster;
use blobseer_types::{BlobId, BlobSeerConfig, NodeId, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BLOCK: u64 = 4096;
const TAIL_BLOCKS: u64 = 64;
const MAX_APPEND_BLOCKS: u64 = 16;
const WARMUP_OPS: usize = 100;

pub fn config() -> BlobSeerConfig {
    BlobSeerConfig::default().with_block_size(BLOCK)
}

/// An acknowledged append: its offset, block count and record tag.
#[derive(Clone, Copy)]
struct Record {
    offset: u64,
    blocks: u64,
    tag: u64,
}

/// A block seen by a tail read: its offset, the identity its content
/// claims, and the version it was read at.
struct Seen {
    block: u64,
    tag: u64,
    index: u64,
}

/// One client's generator and what it saw.
struct Client {
    id: usize,
    rng: StdRng,
    seq: u64,
    acked: Vec<Record>,
    seen: Vec<Seen>,
}

/// One record: `blocks` blocks indexed from 0.
fn record(tag: u64, blocks: u64) -> Vec<u8> {
    payload(tag, 0, blocks, BLOCK)
}

impl Client {
    fn append(&mut self, c: &BlobClient, blob: BlobId, pass: &mut Pass) -> Option<Duration> {
        self.seq += 1;
        let tag = ((self.id as u64 + 1) << 40) | self.seq;
        let blocks = self.rng.gen_range(1..=MAX_APPEND_BLOCKS);
        let data = record(tag, blocks);
        let (r, d) = timed(|| c.append(blob, &data));
        pass.tally(&r);
        let (offset, _) = r.ok()?;
        pass.check(offset % BLOCK == 0, || {
            format!("unaligned append offset {offset}")
        });
        self.acked.push(Record {
            offset,
            blocks,
            tag,
        });
        Some(d)
    }

    fn tail_read(&mut self, c: &BlobClient, blob: BlobId, pass: &mut Pass) -> Option<Duration> {
        let (r, d) = timed(|| -> Result<_> {
            let (v, size) = c.latest(blob)?;
            let from = size.saturating_sub(TAIL_BLOCKS * BLOCK);
            Ok((v, from, c.read(blob, Some(v), from, size - from)?))
        });
        pass.tally(&r);
        let (v, from, data) = r.ok()?;
        let mut scratch = vec![0u8; BLOCK as usize];
        for (i, got) in data.chunks(BLOCK as usize).enumerate() {
            let block = from / BLOCK + i as u64;
            match block_identity(got, &mut scratch) {
                Some((tag, index)) => self.seen.push(Seen { block, tag, index }),
                None => pass.check(false, || {
                    format!("tail read at {v:?}: block {block} holds no record")
                }),
            }
        }
        Some(d)
    }
}

fn set_up(tracing: &Tracing) -> Result<(LoopbackCluster, Deployments, BlobId, Record)> {
    let cluster = LoopbackCluster::boot(config(), PROVIDERS)?;
    let deps = deploy_clients(&cluster, tracing)?;
    // The shared blob starts with one full tail of records.
    let c = deps[0].0.client(NodeId::new(100));
    let blob = c.try_create()?;
    let seed = Record {
        offset: 0,
        blocks: TAIL_BLOCKS,
        tag: 1,
    };
    c.append(blob, &record(seed.tag, seed.blocks))?;
    Ok((cluster, deps, blob, seed))
}

pub fn run(args: &Args, tracing: Tracing, setups: usize) -> Result<Pass> {
    let mut pass = Pass::default();
    let (booted, wall, cpu) = cpu_timed(|| set_up(&tracing));
    pass.setup_s.push(wall.as_secs_f64());
    pass.setup_cpu_s.push(cpu.as_secs_f64());
    let (cluster, deps, blob, seed) = booted?;
    let systems: Vec<Arc<BlobSeer>> = deps.iter().map(|(s, _)| Arc::clone(s)).collect();
    let handles: Vec<BlobClient> = systems
        .iter()
        .enumerate()
        .map(|(i, s)| s.client(NodeId::new(100 + i as u64)))
        .collect();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client {
            id,
            rng: StdRng::seed_from_u64(args.seed ^ (0xA99E + id as u64)),
            seq: 0,
            acked: Vec::new(),
            seen: Vec::new(),
        })
        .collect();
    for (cl, c) in clients.iter_mut().zip(&handles) {
        for _ in 0..WARMUP_OPS / 2 {
            cl.append(c, blob, &mut pass);
            cl.tail_read(c, blob, &mut pass);
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
        let hs: Vec<_> = clients
            .iter_mut()
            .zip(&handles)
            .zip(&deps)
            .map(|((cl, c), (_, ctx))| {
                s.spawn(move || {
                    let mut p = Pass::default();
                    let (mut a, mut r) = (Lat::default(), Lat::default());
                    while Instant::now() < deadline {
                        let d = match ctx {
                            None => cl.append(c, blob, &mut p),
                            Some(ctx) => {
                                ctx.op("append-tail.append", || cl.append(c, blob, &mut p))
                            }
                        };
                        a.0.extend(d.map(|d| (Instant::now(), ms(d))));
                        marks.tick();
                        let d = match ctx {
                            None => cl.tail_read(c, blob, &mut p),
                            Some(ctx) => {
                                ctx.op("append-tail.tail_read", || cl.tail_read(c, blob, &mut p))
                            }
                        };
                        r.0.extend(d.map(|d| (Instant::now(), ms(d))));
                        marks.tick();
                    }
                    (p, a, r)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    pass.counters = Snap::take(&cluster, &systems).since(&before);
    for (p, a, r) in results {
        pass.attempted += p.attempted;
        pass.failed += p.failed;
        pass.problems.extend(p.problems);
        pass.write.extend(a);
        pass.read.extend(r);
    }
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
    verify(&handles[0], blob, seed, &clients, &mut pass)?;
    Ok(pass)
}

/// Every tail block must hold the record its acknowledged append placed
/// there, and the final blob must hold every acknowledged append exactly
/// once, at its offset, with nothing else.
fn verify(
    c: &BlobClient,
    blob: BlobId,
    seed: Record,
    clients: &[Client],
    pass: &mut Pass,
) -> Result<()> {
    let mut owner: HashMap<u64, (u64, u64)> = HashMap::new();
    let records = clients.iter().flat_map(|c| c.acked.iter()).chain([&seed]);
    let mut total_blocks = 0;
    for r in records {
        total_blocks += r.blocks;
        for i in 0..r.blocks {
            let prev = owner.insert(r.offset / BLOCK + i, (r.tag, i));
            pass.check(prev.is_none(), || {
                format!(
                    "two acknowledged appends claim block {}",
                    r.offset / BLOCK + i
                )
            });
        }
    }
    for s in clients.iter().flat_map(|c| c.seen.iter()) {
        pass.check(owner.get(&s.block) == Some(&(s.tag, s.index)), || {
            format!(
                "tail read saw record {:#x}/{} at block {}",
                s.tag, s.index, s.block
            )
        });
    }
    let (v, size) = c.latest(blob)?;
    pass.check(size == total_blocks * BLOCK, || {
        format!(
            "blob holds {size} bytes, acknowledged appends {}",
            total_blocks * BLOCK
        )
    });
    let mut scratch = vec![0u8; BLOCK as usize];
    let chunk = 1024 * BLOCK;
    let mut off = 0;
    while off < size {
        let len = chunk.min(size - off);
        let data = c.read(blob, Some(v), off, len)?;
        for (i, got) in data.chunks(BLOCK as usize).enumerate() {
            let block = off / BLOCK + i as u64;
            let id = block_identity(got, &mut scratch);
            pass.check(id.is_some() && id == owner.get(&block).copied(), || {
                format!("final blob block {block} does not hold its acknowledged record")
            });
        }
        off += len;
    }
    Ok(())
}

/// The fixed probe: a fresh blob, then eight append/tail-read pairs by one
/// client.
fn probe(sys: &Arc<BlobSeer>) -> Result<()> {
    let c = sys.client(NodeId::new(900));
    let blob = c.try_create()?;
    c.append(blob, &record(1, TAIL_BLOCKS))?;
    for i in 0..8u64 {
        c.append(blob, &record(2 + i, 1 + i * 2))?;
        let (v, size) = c.latest(blob)?;
        c.read(
            blob,
            Some(v),
            size - TAIL_BLOCKS * BLOCK,
            TAIL_BLOCKS * BLOCK,
        )?;
    }
    Ok(())
}
