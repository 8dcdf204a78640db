//! `wordcount-disk`: the paper's application path on the disk backend.
//!
//! Disk backend (`data_dir` in a work directory the run removes), 1 MiB
//! blocks, one tasktracker with its default two slots. Repeated rounds:
//! write a fresh `TextGen` input through BSFS, run `WordCount` with two
//! reducers, delete the previous round's input and output. After the last
//! round the cluster is shut down, rebooted on the used directory (timed),
//! and the last input is read back byte for byte through its blob id and
//! version — the BSFS namespace lives in RAM and does not survive. Each
//! round's input is also read back the same way right after it is written,
//! so the read timings spread over the whole run.

use crate::common::*;
use crate::trace::{deploy_traced, ClientCtx, TracedFs};
use blobseer_core::{BlobClient, BlobSeer};
use blobseer_disk::volume::volume_path;
use blobseer_disk::{DiskMetaStore, DiskVolume, DurableVersionService};
use blobseer_rpc::LoopbackCluster;
use blobseer_types::{BlobId, BlobSeerConfig, NodeId, Result, Version};
use bsfs::{Bsfs, BsfsCluster};
use dfs::api::FileSystem;
use dfs::util::read_fully;
use mapreduce::apps::WordCount;
use mapreduce::{JobTracker, TaskTracker, TextGen};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BLOCK: u64 = 1 << 20;
/// Input bytes per round.
const ROUND_BYTES: usize = 32 << 20;
const REDUCERS: usize = 2;
/// The tasktracker runs on the node of provider 0.
const TRACKER: NodeId = NodeId::new(0);

pub fn config(dir: &Path) -> BlobSeerConfig {
    BlobSeerConfig::default()
        .with_block_size(BLOCK)
        .with_data_dir(dir)
}

/// A work directory under the benchmark's own `out/`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(k: usize) -> Result<Self> {
        let dir = crate::out_dir().join(format!("wc-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| {
            blobseer_types::Error::Internal(format!("create {}: {e}", dir.display()))
        })?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One booted stack: cluster, deployment, BSFS and the tracker's mount.
struct Stack {
    cluster: LoopbackCluster,
    sys: Arc<BlobSeer>,
    bsfs: Bsfs,
    ctx: Option<Arc<ClientCtx>>,
    dir: WorkDir,
}

impl Stack {
    fn fs(&self) -> Box<dyn FileSystem> {
        match &self.ctx {
            None => Box::new(self.bsfs.clone()),
            Some(ctx) => Box::new(TracedFs::new(self.bsfs.clone(), ctx)),
        }
    }

    fn op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.ctx {
            None => f(),
            Some(ctx) => ctx.op(name, f),
        }
    }
}

fn input_text(seed: u64, round: u64) -> Vec<u8> {
    TextGen::new(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)).text(ROUND_BYTES)
}

/// Writes `text` through BSFS one block per `write` call, timing each
/// call that carries a whole block (each flushes one block append).
fn ingest(fs: &dyn FileSystem, path: &str, text: &[u8], lat: &mut Lat) -> Result<()> {
    let mut out = fs.create(path, true)?;
    for chunk in text.chunks(BLOCK as usize) {
        let (r, d) = timed(|| out.write(chunk));
        r?;
        if chunk.len() == BLOCK as usize {
            lat.push(d);
        }
    }
    out.close()
}

fn set_up(tracing: &Tracing, k: usize, text: &[u8], lat: &mut Lat) -> Result<Stack> {
    let dir = WorkDir::new(k)?;
    let cluster = LoopbackCluster::boot(config(&dir.0), PROVIDERS)?;
    let (sys, ctx) = match tracing {
        None => (cluster.deploy()?, None),
        Some(t) => {
            let ctx = ClientCtx::new(t, 0);
            (deploy_traced(&cluster, &ctx)?, Some(ctx))
        }
    };
    let bsfs = BsfsCluster::new(Arc::clone(&sys)).mount(TRACKER);
    let stack = Stack {
        cluster,
        sys,
        bsfs,
        ctx,
        dir,
    };
    let fs = stack.fs();
    stack.op("wc.ingest", || ingest(&*fs, &input_path(0), text, lat))?;
    Ok(stack)
}

fn input_path(round: u64) -> String {
    format!("/in/r{round}")
}

fn output_dir(round: u64) -> String {
    format!("/out/r{round}")
}

/// Word counts of `text`, split the way the mapper splits.
fn expected_counts(text: &[u8]) -> HashMap<&[u8], u64> {
    let mut counts = HashMap::new();
    for line in text.split(|&b| b == b'\n') {
        for word in line.split(|&b| b == b' ' || b == b'\t') {
            if !word.is_empty() {
                *counts.entry(word).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Runs WordCount over round `round`'s input and checks its output.
/// Returns the job's wall time, its local-map share and its process CPU
/// time.
fn job(stack: &Stack, round: u64, text: &[u8], pass: &mut Pass) -> Result<(f64, f64, Duration)> {
    let jt = JobTracker::new(vec![TaskTracker::new(TRACKER, stack.fs())]);
    let spec = WordCount::job(&input_path(round), &output_dir(round), REDUCERS);
    let (r, d, cpu) =
        cpu_timed(|| stack.op("wc.job", || jt.run_job(&spec, &WordCount, &WordCount)));
    pass.tally(&r);
    let report = r?;
    let mut got: HashMap<Vec<u8>, u64> = HashMap::new();
    for part in &report.output_files {
        for line in read_fully(&stack.bsfs, part)?.split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            let mut kv = line.splitn(2, |&b| b == b'\t');
            let word = kv.next().unwrap_or_default().to_vec();
            let count = std::str::from_utf8(kv.next().unwrap_or_default())
                .ok()
                .and_then(|s| s.parse::<u64>().ok());
            pass.check(count.is_some(), || {
                format!("malformed output line in {part}")
            });
            let dup = got.insert(word, count.unwrap_or(0));
            pass.check(dup.is_none(), || {
                format!("word emitted twice in round {round}")
            });
        }
    }
    let want = expected_counts(text);
    pass.check(
        got.len() == want.len() && want.iter().all(|(w, n)| got.get(*w) == Some(n)),
        || format!("round {round}: WordCount output differs from the input's counts"),
    );
    let local = report.local_maps as f64 / report.map_tasks.max(1) as f64;
    Ok((d.as_secs_f64(), local, cpu))
}

/// Reads `text`'s blob back one block per call at `version`, timing each
/// call and comparing the bytes. Returns the process CPU time of the calls.
fn read_back(
    c: &BlobClient,
    blob: BlobId,
    version: Version,
    text: &[u8],
    pass: &mut Pass,
) -> Duration {
    let mut cpu = Duration::ZERO;
    for (i, want) in text.chunks(BLOCK as usize).enumerate() {
        let off = i as u64 * BLOCK;
        let (r, d, c_cpu) = cpu_timed(|| c.read(blob, Some(version), off, want.len() as u64));
        cpu += c_cpu;
        pass.tally(&r);
        if let Ok(got) = r {
            pass.read.push(d);
            pass.check(&got[..] == want, || {
                format!("blob {blob:?} {version:?}: bytes at {off} differ from the input")
            });
        }
    }
    cpu
}

/// Bytes under `dir`, by first path component.
fn disk_usage(dir: &Path) -> HashMap<String, u64> {
    fn walk(p: &Path, top: &str, acc: &mut HashMap<String, u64>) {
        let Ok(entries) = std::fs::read_dir(p) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            let name = if top.is_empty() {
                e.file_name().to_string_lossy().into_owned()
            } else {
                top.to_string()
            };
            match e.metadata() {
                Ok(m) if m.is_dir() => walk(&path, &name, acc),
                Ok(m) => *acc.entry(name).or_insert(0) += m.len(),
                Err(_) => {}
            }
        }
    }
    let mut acc = HashMap::new();
    walk(dir, "", &mut acc);
    acc
}

pub fn run(args: &Args, tracing: Tracing, setups: usize) -> Result<Pass> {
    let mut pass = Pass::default();
    let first = input_text(args.seed, 0);
    let mut lat = Lat::default();
    let (stack, wall, cpu) = cpu_timed(|| set_up(&tracing, 0, &first, &mut lat));
    let stack = stack?;
    pass.setup_s.push(wall.as_secs_f64());
    pass.setup_cpu_s.push(cpu.as_secs_f64());
    let systems = vec![Arc::clone(&stack.sys)];

    // Warm-up: the first round's job over the set-up input.
    job(&stack, 0, &first, &mut pass)?;
    pass.rss_mib = peak_rss_mib();
    // The other set-ups, timed and dropped, after the memory reading.
    for k in 1..setups {
        let (s, wall, cpu) = cpu_timed(|| set_up(&tracing, k, &first, &mut lat));
        drop(s?);
        pass.setup_s.push(wall.as_secs_f64());
        pass.setup_cpu_s.push(cpu.as_secs_f64());
    }
    drop(first);

    if let Some(t) = &tracing {
        t.take();
        t.set_measuring(true);
    }
    let before = Snap::take(&stack.cluster, &systems);
    let fs = stack.fs();
    let started = Instant::now();
    let (mut ingest_rate, mut job_s, mut round_rate, mut local) = (vec![], vec![], vec![], vec![]);
    let mut round_cpu = Vec::new();
    let mut input_bytes = 0u64;
    let mut round = 0u64;
    let mut last_text = Vec::new();
    while round < 2 || started.elapsed() < args.measure_for() {
        round += 1;
        let text = input_text(args.seed, round);
        let (r, d_in, cpu_in) = cpu_timed(|| {
            stack.op("wc.ingest", || {
                ingest(&*fs, &input_path(round), &text, &mut pass.write)
            })
        });
        pass.tally(&r);
        r?;
        let blob = stack.bsfs.file_blob(&input_path(round))?;
        let (version, _) = stack.bsfs.blob_client().latest(blob)?;
        let cpu_back = stack.op("wc.read_back", || {
            read_back(stack.bsfs.blob_client(), blob, version, &text, &mut pass)
        });
        let (d_job, l, cpu_job) = job(&stack, round, &text, &mut pass)?;
        let (r, d_clean, cpu_clean) = cpu_timed(|| {
            stack.op("wc.cleanup", || -> Result<()> {
                fs.delete(&input_path(round - 1), false)?;
                fs.delete(&output_dir(round - 1), true)
            })
        });
        pass.tally(&r);
        r?;
        let mib = text.len() as f64 / (1 << 20) as f64;
        input_bytes += text.len() as u64;
        ingest_rate.push(mib / d_in.as_secs_f64());
        job_s.push(d_job);
        local.push(l);
        let busy = d_in.as_secs_f64() + d_job + d_clean.as_secs_f64();
        round_rate.push(text.len() as f64 / BLOCK as f64 / busy);
        let cpu = cpu_in + cpu_back + cpu_job + cpu_clean;
        round_cpu.push(ms(cpu) / (text.len() as f64 / BLOCK as f64));
        last_text = text;
    }
    pass.counters = Snap::take(&stack.cluster, &systems).since(&before);
    pass.ops = round;
    pass.ops_per_s = median(&round_rate);
    pass.cpu_ms_per_op = quantile(&round_cpu, CPU_QUANTILE);
    pass.extra
        .push(metric("ingest_mib_s", median(&ingest_rate), "MiB/s"));
    pass.extra
        .push(timing("job_s", median(&job_s), "s", job_s.len() as u64));
    pass.extra.push(metric("rounds", round as f64, "count"));
    pass.extra
        .push(metric("local_map_share", median(&local), "ratio"));
    let input_mib = input_bytes as f64 / (1 << 20) as f64;
    pass.extra.push(metric("job_input_mib", input_mib, "MiB"));
    if let Some(t) = &tracing {
        t.set_measuring(false);
        pass.fetch = t.fetch_stats();
        pass.spans = t.take();
        pass.probe = Some(probe_frames(&stack.cluster, t, probe)?);
    }

    // What stays live: the last round's input and output.
    let blob = stack.bsfs.file_blob(&input_path(round))?;
    let (version, size) = stack.bsfs.blob_client().latest(blob)?;
    pass.check(size == last_text.len() as u64, || {
        format!("last input holds {size} bytes, wrote {}", last_text.len())
    });
    let mut live = size;
    for part in stack.bsfs.list(&output_dir(round))? {
        live += part.len;
    }
    let Stack {
        cluster,
        sys,
        bsfs,
        ctx,
        dir,
        ..
    } = stack;
    drop((fs, bsfs, ctx, sys, cluster));
    let usage = disk_usage(&dir.0);
    let total: u64 = usage.values().sum();
    pass.extra
        .push(metric("space_amp", total as f64 / live as f64, "ratio"));
    for (name, key) in [
        ("disk.block_bytes", "block"),
        ("disk.meta_bytes", "meta"),
        ("disk.version_log_bytes", "version.log"),
    ] {
        let bytes = usage.get(key).copied().unwrap_or(0);
        pass.extra.push(metric(name, bytes as f64, "bytes"));
    }

    // Reboot on the used directory, then read the last input back.
    let cfg = config(&dir.0);
    let (cluster, d) = timed(|| LoopbackCluster::boot(cfg.clone(), PROVIDERS));
    let cluster = cluster?;
    pass.extra.push(metric("reboot_s", d.as_secs_f64(), "s"));
    let c = cluster.deploy()?.client(NodeId::new(200));
    read_back(&c, blob, version, &last_text, &mut pass);
    drop(c);
    drop(cluster);

    // Replay cost of each store, opened alone on the stopped directory.
    let (r, d) = timed(|| -> Result<()> {
        for i in 0..PROVIDERS {
            DiskVolume::open(volume_path(&dir.0.join("block"), i), NodeId::new(i as u64))?;
        }
        Ok(())
    });
    r?;
    pass.extra
        .push(metric("disk.replay.volume_ms", d.as_secs_f64() * 1e3, "ms"));
    let (r, d) = timed(|| DiskMetaStore::open(dir.0.join("meta"), cfg.metadata_providers));
    r?;
    pass.extra
        .push(metric("disk.replay.meta_ms", d.as_secs_f64() * 1e3, "ms"));
    let (r, d) = timed(|| DurableVersionService::open(dir.0.join("version.log"), BLOCK));
    r?;
    pass.extra.push(metric(
        "disk.replay.version_log_ms",
        d.as_secs_f64() * 1e3,
        "ms",
    ));
    Ok(pass)
}

/// The fixed probe: a four-block file written and read back through a
/// fresh BSFS namespace, then deleted.
fn probe(sys: &Arc<BlobSeer>) -> Result<()> {
    let fs = BsfsCluster::new(Arc::clone(sys)).mount(TRACKER);
    let text = TextGen::new(7).text(4 * BLOCK as usize);
    let mut lat = Lat::default();
    ingest(&fs, "/probe", &text[..4 * BLOCK as usize], &mut lat)?;
    let back = read_fully(&fs, "/probe")?;
    if back[..] != text[..4 * BLOCK as usize] {
        return Err(blobseer_types::Error::Internal(
            "probe file read back differs".into(),
        ));
    }
    fs.delete("/probe", false)
}
