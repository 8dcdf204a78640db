//! The repository benchmark: boots a `blobseer-rpc` loopback cluster, drives
//! one workload from this process, checks every output, and prints the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small-rw --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `small-rw`, `append-tail`, `wordcount-disk` (see
//! `perfbench/README.md`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it are a human-readable table. A traced run also writes its
//! spans to `perfbench/out/spans-<workload>.tsv`.

mod append_tail;
mod common;
mod layers;
mod small_rw;
mod trace;
mod wordcount;

use common::{median, metric, timing, Args, Metric, Pass};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs put their work directories and span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const WORKLOADS: [&str; 3] = ["small-rw", "append-tail", "wordcount-disk"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One pass of the chosen workload, with `setups` set-ups.
fn pass(args: &Args, tracing: common::Tracing, setups: usize) -> blobseer_types::Result<Pass> {
    let (mut p, block) = match args.workload.as_str() {
        "small-rw" => (small_rw::run(args, tracing, setups)?, small_rw::BLOCK),
        "append-tail" => (append_tail::run(args, tracing, setups)?, append_tail::BLOCK),
        _ => (wordcount::run(args, tracing, setups)?, wordcount::BLOCK),
    };
    p.extra.push(metric("block_bytes", block as f64, "bytes"));
    Ok(p)
}

/// The end-to-end metrics of an untraced pass: costs in process CPU time
/// and memory, which repeat on a shared VM (wall-clock figures move with
/// the time the hypervisor steals; they are in the table below).
fn end_to_end(p: &Pass) -> Vec<Metric> {
    let n = p.setup_cpu_s.len() as u64;
    vec![
        timing("setup_s", median(&p.setup_cpu_s), "s", n),
        metric("cpu_ms_per_op", p.cpu_ms_per_op, "ms"),
        metric("peak_rss_mib", p.rss_mib, "MiB"),
    ]
}

/// The human table: the end-to-end metrics, then the wall-clock figures
/// under the names of the workload's operations, the failure ratio and the
/// workload's own figures.
fn table(workload: &str, p: &Pass, e2e: &[Metric]) -> Vec<Metric> {
    let (w, r) = match workload {
        "append-tail" => ("append", "tail_read"),
        "wordcount-disk" => ("block_write", "block_read"),
        _ => ("write", "read"),
    };
    let mut rows: Vec<Metric> = e2e.to_vec();
    let n = p.setup_s.len() as u64;
    rows.push(timing("setup_wall_s", median(&p.setup_s), "s", n));
    for (name, lat) in [(w, &p.write), (r, &p.read)] {
        for (q, label) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
            rows.push(timing(
                &format!("{name}_{label}_ms"),
                lat.q(q),
                "ms",
                lat.n(),
            ));
        }
    }
    rows.push(metric("ops_per_s", p.ops_per_s, "1/s"));
    for name in [
        "ingest_mib_s",
        "job_s",
        "reboot_s",
        "space_amp",
        "machine_steal_pct",
        "machine_calib_cpu_ms",
    ] {
        rows.extend(p.extra.iter().filter(|m| m.name == name).cloned());
    }
    let ratio = p.failed as f64 / p.attempted.max(1) as f64;
    rows.push(timing("failed_ratio", ratio, "ratio", p.attempted));
    rows
}

fn json_metrics(ms: &[Metric]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

/// Runs and reports; `Ok(false)` when an output check failed.
fn run(args: &Args) -> blobseer_types::Result<bool> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (metrics, passes) = if args.trace {
        let plain = pass(args, None, 1)?;
        let tracer = trace::Tracer::new();
        let mut traced = pass(args, Some(std::sync::Arc::clone(&tracer)), 1)?;
        if let Some([a, b]) = traced.probe {
            traced.check(a == b, || {
                format!("probe frames (data, control): untraced {a:?}, traced {b:?}")
            });
        }
        let (checked, bad) = layers::Tree::new(&traced.spans).check_self_times();
        for b in bad.into_iter().take(5) {
            traced.check(false, || b);
        }
        let path = out_dir().join(format!("spans-{}.tsv", args.workload));
        trace::write_spans(&path, &traced.spans)
            .map_err(|e| blobseer_types::Error::Internal(format!("write spans: {e}")))?;
        println!(
            "spans: {} written to {} ({checked} ops checked)",
            traced.spans.len(),
            path.display()
        );
        for (label, p) in [("untraced", &plain), ("traced", &traced)] {
            println!(
                "{label:>9}: ops_per_s {:.2} over {} ops",
                p.ops_per_s, p.ops
            );
        }
        (layers::metrics(&traced, &plain), vec![plain, traced])
    } else {
        let (steal0, total0) = common::machine_ticks();
        let calib0 = common::calibration_cpu_ms();
        let mut p = pass(args, None, common::SETUPS)?;
        let calib = (calib0 + common::calibration_cpu_ms()) / 2.0;
        let (steal1, total1) = common::machine_ticks();
        let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64 * 100.0;
        p.extra.push(metric("machine_steal_pct", steal, "%"));
        p.extra.push(metric("machine_calib_cpu_ms", calib, "ms"));
        let e2e = end_to_end(&p);
        for m in table(&args.workload, &p, &e2e) {
            let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
            println!("{:<16} {:>14.4} {}{n}", m.name, m.value, m.unit);
        }
        (e2e, vec![p])
    };
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut problems: Vec<&String> = passes.iter().flat_map(|p| &p.problems).collect();
    let bad_number = metrics.iter().find(|m| !m.value.is_finite());
    let note = bad_number.map(|m| format!("metric {} is not a finite number", m.name));
    problems.extend(note.as_ref());
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(&metrics)
    );
    Ok(correct)
}
