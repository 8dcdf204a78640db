//! Pieces every workload shares: latency samples, the block content model,
//! counter snapshots, the result of one pass.

use crate::trace::{Span, Tracer};
use blobseer_core::BlobSeer;
use blobseer_rpc::LoopbackCluster;
use std::sync::atomic::{AtomicU64, Ordering};
// lint:allow(no-std-sync): the benchmark's own locks stay out of the shim's process-wide lock statistics, which it reports
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn measure_for(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Number of closed-loop clients of the in-memory workloads (the sandbox
/// has two cores; more threads would measure the scheduler).
pub const CLIENTS: usize = 2;
/// Data providers of every cluster.
pub const PROVIDERS: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Timed operations per CPU-cost sample, and samples taken.
pub const CPU_CHUNK: u64 = 500;
pub const CPU_CHUNKS: u64 = 10;
/// Which quantile of the CPU-cost samples is reported. Time stolen from
/// the VM still inflates CPU time a little (lock holders preempted,
/// caches cooled), so the cheaper quarter of the samples is taken as the
/// program's cost.
pub const CPU_QUANTILE: f64 = 0.25;

/// Consecutive samples per chunk of a latency statistic: enough that a
/// p99 has ten samples beyond it.
pub const CHUNK: usize = 1000;

/// Latency samples in milliseconds, with the instant each call completed.
#[derive(Clone, Debug, Default)]
pub struct Lat(pub Vec<(Instant, f64)>);

impl Lat {
    pub fn push(&mut self, d: Duration) {
        self.0.push((Instant::now(), ms(d)));
    }
    pub fn extend(&mut self, other: Lat) {
        self.0.extend(other.0);
    }
    pub fn n(&self) -> u64 {
        self.0.len() as u64
    }

    /// The `q` quantile, taken over each run of [`CHUNK`] consecutive
    /// samples (in completion order), and the median of those — a burst
    /// of interference from outside the process moves one chunk, not the
    /// figure. Fewer than `CHUNK` samples form one chunk.
    pub fn q(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by_key(|&(t, _)| t);
        let ms: Vec<f64> = v.into_iter().map(|(_, ms)| ms).collect();
        if ms.len() < 2 * CHUNK {
            return quantile(&ms, q);
        }
        let per_chunk: Vec<f64> = ms.chunks_exact(CHUNK).map(|c| quantile(c, q)).collect();
        median(&per_chunk)
    }

    /// Completion instants, for windowed rates.
    pub fn times(&self) -> impl Iterator<Item = Instant> + '_ {
        self.0.iter().map(|&(t, _)| t)
    }
}

/// Completions per second, measured over each run of [`RATE_CHUNK`]
/// consecutive completions, and the median over those runs.
pub fn chunked_rate(times: impl Iterator<Item = Instant>) -> f64 {
    let mut t: Vec<Instant> = times.collect();
    t.sort();
    let rates: Vec<f64> = t
        .windows(RATE_CHUNK + 1)
        .step_by(RATE_CHUNK)
        .map(|w| RATE_CHUNK as f64 / (w[RATE_CHUNK] - w[0]).as_secs_f64())
        .collect();
    median(&rates)
}

/// Completions per rate sample.
pub const RATE_CHUNK: usize = 250;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) used so far by every thread of this process,
/// the exited ones included. Time the hypervisor steals from the VM is
/// mostly not in it, which is why CPU costs spread far less than
/// wall-clock figures on a shared machine.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this runs on) through the pointer,
    // which points at a live, writable `Timespec` of that layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Runs `f`, returning its wall time and the process CPU time it used.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, Duration, Duration) {
    let cpu = process_cpu();
    let (out, wall) = timed(f);
    (out, wall, process_cpu() - cpu)
}

/// Process CPU time at every [`CPU_CHUNK`]-th completed operation, for the
/// first [`CPU_CHUNKS`] chunks of the timed phase: a fixed amount of work
/// whatever the throughput, so the cost per operation does not depend on
/// how far a run got.
pub struct CpuMarks {
    done: AtomicU64,
    marks: Mutex<Vec<(u64, Duration)>>,
}

impl CpuMarks {
    pub fn start() -> Self {
        Self {
            done: AtomicU64::new(0),
            marks: Mutex::new(vec![(0, process_cpu())]),
        }
    }

    /// Counts one completed operation.
    pub fn tick(&self) {
        let n = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(CPU_CHUNK) && n <= CPU_CHUNK * CPU_CHUNKS {
            let cpu = process_cpu();
            self.marks
                .lock()
                .expect("cpu marks poisoned")
                .push((n, cpu));
        }
    }

    /// CPU milliseconds per operation: the [`CPU_QUANTILE`] over the chunks
    /// completed (over the whole phase when a short run completed none).
    pub fn ms_per_op(&self) -> f64 {
        let mut m = self.marks.lock().expect("cpu marks poisoned").clone();
        m.sort();
        if m.len() < 2 {
            m.push((self.done.load(Ordering::Relaxed).max(1), process_cpu()));
        }
        let per: Vec<f64> = m
            .windows(2)
            .map(|w| ms(w[1].1 - w[0].1) / (w[1].0 - w[0].0) as f64)
            .collect();
        quantile(&per, CPU_QUANTILE)
    }
}

/// High-water resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide `(steal, total)` CPU ticks so far, from `/proc/stat`.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Process CPU milliseconds of a fixed reference computation (filling and
/// summing an 8 MiB buffer 16 times): how fast this machine runs plain
/// code at the moment, to read the run's CPU costs against.
pub fn calibration_cpu_ms() -> f64 {
    let mut buf = vec![0u64; 1 << 20];
    let cpu = process_cpu();
    let mut acc = 0u64;
    for round in 0..16u64 {
        for (i, w) in buf.iter_mut().enumerate() {
            *w = (i as u64 ^ round).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        acc = acc.wrapping_add(std::hint::black_box(&buf).iter().fold(0, |a, &w| a ^ w));
    }
    std::hint::black_box(acc);
    ms(process_cpu() - cpu)
}

/// One named number of the report.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a timing.
    pub n: Option<u64>,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n: None,
    }
}

pub fn timing(name: &str, value: f64, unit: &'static str, n: u64) -> Metric {
    Metric {
        n: Some(n),
        ..metric(name, value, unit)
    }
}

/// Fills one block with content derived from `(tag, index)`: a 16-byte
/// header naming both, then a pattern word, so a block read back at the
/// wrong offset, version or record never compares equal.
pub fn fill_block(buf: &mut [u8], tag: u64, index: u64) {
    buf[..8].copy_from_slice(&tag.to_le_bytes());
    buf[8..16].copy_from_slice(&index.to_le_bytes());
    let word = (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.rotate_left(29)).to_le_bytes();
    for chunk in buf[16..].chunks_mut(8) {
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// `blocks` blocks of `block` bytes, filled for `tag` with indices counting
/// from `first`.
pub fn payload(tag: u64, first: u64, blocks: u64, block: u64) -> Vec<u8> {
    let mut data = vec![0u8; (blocks * block) as usize];
    for (i, chunk) in data.chunks_mut(block as usize).enumerate() {
        fill_block(chunk, tag, first + i as u64);
    }
    data
}

/// The `(tag, index)` a block claims in its header, if its body matches.
pub fn block_identity(block: &[u8], scratch: &mut [u8]) -> Option<(u64, u64)> {
    let tag = u64::from_le_bytes(block[..8].try_into().ok()?);
    let index = u64::from_le_bytes(block[8..16].try_into().ok()?);
    fill_block(scratch, tag, index);
    (scratch == block).then_some((tag, index))
}

/// Engine and cluster counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snap {
    pub data_frames: u64,
    pub control_frames: u64,
    pub fanout_batches: u64,
    pub fanout_max_width: u64,
    pub writes_aborted: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub server_frames: u64,
    pub connections: u64,
    pub in_flight_peak: u64,
    pub versions_assigned: u64,
    pub blocks_collected: u64,
    pub lock_contended: u64,
    pub lock_max_wait_ns: u64,
}

impl Snap {
    pub fn take(cluster: &LoopbackCluster, systems: &[Arc<BlobSeer>]) -> Self {
        let mut s = Snap::default();
        for sys in systems {
            let c = sys.stats().snapshot();
            s.data_frames += c.port_round_trips;
            s.control_frames += c.control_round_trips;
            s.fanout_batches += c.fanout_batches;
            s.fanout_max_width = s.fanout_max_width.max(c.fanout_max_width);
            s.writes_aborted += c.writes_aborted;
            s.cache_hits += c.cache_hits;
            s.cache_misses += c.cache_misses;
            s.lock_contended = c.lock_contended_acquires;
            s.lock_max_wait_ns = c.lock_max_wait_ns;
        }
        let server = cluster.server_stats().snapshot();
        s.server_frames = cluster.frames_served();
        s.connections = cluster.connections_accepted();
        s.in_flight_peak = cluster.in_flight_high_watermark();
        s.versions_assigned = server.versions_assigned;
        s.blocks_collected = server.blocks_collected;
        s
    }

    /// Counts accumulated since `before`; watermarks are kept as read.
    pub fn since(&self, before: &Snap) -> Snap {
        Snap {
            data_frames: self.data_frames - before.data_frames,
            control_frames: self.control_frames - before.control_frames,
            fanout_batches: self.fanout_batches - before.fanout_batches,
            writes_aborted: self.writes_aborted - before.writes_aborted,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            server_frames: self.server_frames - before.server_frames,
            versions_assigned: self.versions_assigned - before.versions_assigned,
            blocks_collected: self.blocks_collected - before.blocks_collected,
            lock_contended: self.lock_contended - before.lock_contended,
            ..*self
        }
    }
}

/// Everything one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Process CPU time of each set-up.
    pub setup_cpu_s: Vec<f64>,
    /// Process CPU milliseconds per timed operation (per input block on
    /// `wordcount-disk`).
    pub cpu_ms_per_op: f64,
    /// Write-path calls: `write`, `append`, or one block through
    /// `BsfsOutput`, by workload.
    pub write: Lat,
    /// Read-path calls: `read`, `latest` + `read`, or one block read back.
    pub read: Lat,
    /// Operations in the timed phase (rounds on `wordcount-disk`).
    pub ops: u64,
    /// Operations per second, the median over runs of [`RATE_CHUNK`]
    /// completions (input blocks per second of round time, the median over
    /// rounds, on `wordcount-disk`).
    pub ops_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub rss_mib: f64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Workload-specific figures (job time, reboot time, space use …).
    pub extra: Vec<Metric>,
    /// Counters over the measured phase.
    pub counters: Snap,
    /// Spans of the measured phase (traced passes).
    pub spans: Vec<Span>,
    /// `(data, control)` frames of the fixed probe sequence, untraced and
    /// traced (traced passes).
    pub probe: Option<[(u64, u64); 2]>,
    /// Block fetches seen at the block port (traced passes), as
    /// [`Tracer::fetch_stats`] returns them.
    pub fetch: (u64, u64, u64, u64),
}

impl Pass {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems.push(what());
        }
    }

    /// Counts one attempted operation; an `Err` counts as failed.
    pub fn tally<T, E: std::fmt::Display>(&mut self, r: &Result<T, E>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.check(false, || format!("operation failed: {e}"));
        }
    }
}

/// How a pass is traced: `None` deploys through `LoopbackCluster::deploy`.
pub type Tracing = Option<Arc<Tracer>>;

/// One deployment per client, with its tracing context when traced.
pub type Deployments = Vec<(Arc<BlobSeer>, Option<Arc<crate::trace::ClientCtx>>)>;

/// Wires one deployment per client to `cluster`.
pub fn deploy_clients(
    cluster: &LoopbackCluster,
    tracing: &Tracing,
) -> blobseer_types::Result<Deployments> {
    (0..CLIENTS)
        .map(|i| match tracing {
            None => Ok((cluster.deploy()?, None)),
            Some(t) => {
                let ctx = crate::trace::ClientCtx::new(t, i as u32);
                Ok((crate::trace::deploy_traced(cluster, &ctx)?, Some(ctx)))
            }
        })
        .collect()
}

/// The frames a fixed probe costs through a plain and through a traced
/// deployment; the decorators must not change the call structure.
pub fn probe_frames(
    cluster: &LoopbackCluster,
    tracer: &Arc<Tracer>,
    probe: impl Fn(&Arc<BlobSeer>) -> blobseer_types::Result<()>,
) -> blobseer_types::Result<[(u64, u64); 2]> {
    let plain = cluster.deploy()?;
    let ctx = crate::trace::ClientCtx::new(tracer, u32::MAX - 1);
    let traced = crate::trace::deploy_traced(cluster, &ctx)?;
    let mut out = [(0, 0); 2];
    for (i, sys) in [plain, traced].iter().enumerate() {
        probe(sys)?;
        let s = sys.stats().snapshot();
        out[i] = (s.port_round_trips, s.control_round_trips);
    }
    Ok(out)
}
