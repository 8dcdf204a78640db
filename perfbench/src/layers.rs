//! Per-layer metrics of a traced pass, derived from its spans and counters,
//! and the structural check that self times add up to each op's wall time.

use crate::common::{median, metric, Metric, Pass};
use crate::trace::{Kind, Span, NONE};
use std::collections::HashMap;

/// The port methods reported, in order; batch methods also report
/// `items_per_call`.
const PORTS: [(&str, bool); 15] = [
    ("block.put_many", true),
    ("block.get_many", true),
    ("block.delete_many", true),
    ("meta.put_many", true),
    ("meta.get_many", true),
    ("meta.delete_many", true),
    ("vm.assign", false),
    ("vm.commit", false),
    ("vm.latest", false),
    ("vm.snapshot_info", false),
    ("vm.wait_revealed", false),
    ("placement.allocate", false),
    ("placement.release_many", false),
    ("gc.inc_nodes", false),
    ("gc.release_roots", false),
];

const PHASES: [&str; 10] = [
    "client.write.data",
    "client.write.assign",
    "client.write.publish",
    "client.write.commit",
    "client.append.data",
    "client.append.assign",
    "client.append.publish",
    "client.append.commit",
    "client.read.locate",
    "client.read.fetch",
];

/// Ops whose steps run on several threads at once (the job's task
/// slots); their children may overlap, so the additive check skips them.
const PARALLEL_OPS: [&str; 1] = ["wc.job"];

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// The spans of one pass, indexed by parent.
pub struct Tree<'a> {
    spans: &'a [Span],
    children: HashMap<u32, Vec<usize>>,
}

impl<'a> Tree<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut children: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != NONE {
                children.entry(s.parent).or_default().push(i);
            }
        }
        Self { spans, children }
    }

    fn kids(&self, id: u32) -> impl Iterator<Item = &'a Span> + '_ {
        self.children
            .get(&id)
            .into_iter()
            .flatten()
            .map(|&i| &self.spans[i])
    }

    /// A span's duration not covered by its children.
    fn self_time(&self, s: &Span) -> u64 {
        let iv = self.kids(s.id).map(|c| (c.start, c.end)).collect();
        s.dur() - covered(iv, s.start, s.end)
    }

    fn ops(&self) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans.iter().filter(|s| s.kind == Kind::Op)
    }

    /// Checks, for every op that runs on one thread, that its self time
    /// plus the whole time of each child step and port call equals its
    /// wall time (children are disjoint and inside the op), and that every
    /// port call lies inside its parent. Returns `(ops checked, failures)`.
    pub fn check_self_times(&self) -> (u64, Vec<String>) {
        let mut bad = Vec::new();
        let mut checked = 0;
        for op in self.ops().filter(|o| !PARALLEL_OPS.contains(&o.name)) {
            checked += 1;
            let kids: Vec<&Span> = self.kids(op.id).collect();
            let sum: u64 = kids.iter().map(|c| c.dur()).sum();
            let inside = kids.iter().all(|c| c.start >= op.start && c.end <= op.end);
            if !inside || self.self_time(op) + sum != op.dur() {
                bad.push(format!(
                    "op {} ({}): self {} ns + children {sum} ns != wall {} ns",
                    op.id,
                    op.name,
                    self.self_time(op),
                    op.dur()
                ));
            }
        }
        let by_id: HashMap<u32, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        for s in self
            .spans
            .iter()
            .filter(|s| s.kind == Kind::Port && s.parent != NONE)
        {
            match by_id.get(&s.parent) {
                Some(p) if p.kind == Kind::Op && PARALLEL_OPS.contains(&p.name) => {}
                Some(p) if s.start >= p.start && s.end <= p.end => {}
                _ => bad.push(format!(
                    "port call {} ({}) escapes its parent",
                    s.id, s.name
                )),
            }
        }
        (checked, bad)
    }
}

fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Every per-layer metric, for any workload (a layer the workload does not
/// touch reports 0). Wall-clock figures come from the untraced pass
/// `plain`, everything else from the traced pass.
pub fn metrics(traced: &Pass, plain: &Pass) -> Vec<Metric> {
    let tree = Tree::new(&traced.spans);
    let ops = traced.ops.max(1) as f64;
    let mut out = Vec::new();

    // The client's wall-clock view of its calls ("write" and "read" are the
    // workload's write-path and read-path calls).
    for (name, lat) in [("write", &plain.write), ("read", &plain.read)] {
        for (q, label) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
            out.push(metric(
                &format!("client.wall.{name}_{label}_ms"),
                lat.q(q),
                "ms",
            ));
        }
    }
    out.push(metric("client.wall.ops_per_s", plain.ops_per_s, "1/s"));

    // client: phase p50s, then per op the time in its phases not covered
    // by port calls.
    let mut phase_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in traced.spans.iter().filter(|s| s.kind == Kind::Step) {
        phase_ms
            .entry(s.name)
            .or_default()
            .push(ns_to_ms(s.dur() as f64));
    }
    for p in PHASES {
        let v = phase_ms.get(p).map_or(0.0, |v| median(v));
        out.push(metric(&format!("{p}_ms"), v, "ms"));
    }
    let mut op_phases: HashMap<(u32, &str), u64> = HashMap::new();
    for s in traced
        .spans
        .iter()
        .filter(|s| s.kind == Kind::Step && s.op != NONE)
    {
        for kind in ["write", "append", "read"] {
            if s.name
                .strip_prefix("client.")
                .is_some_and(|n| n.starts_with(kind))
            {
                *op_phases.entry((s.op, kind)).or_default() += tree.self_time(s);
            }
        }
    }
    for kind in ["write", "append", "read"] {
        let per_op: Vec<f64> = op_phases
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, &t)| ns_to_ms(t as f64))
            .collect();
        out.push(metric(
            &format!("client.{kind}.self_ms"),
            median(&per_op),
            "ms",
        ));
    }

    // ports
    let mut port: HashMap<&str, (u64, u64, u64, u64)> = HashMap::new();
    for s in traced.spans.iter().filter(|s| s.kind == Kind::Port) {
        let e = port.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur();
        e.2 += s.items as u64;
        e.3 += s.errors as u64;
    }
    for (m, batch) in PORTS {
        let (calls, busy, items, errors) = port.get(m).copied().unwrap_or_default();
        out.push(metric(
            &format!("ports.{m}.calls_per_op"),
            calls as f64 / ops,
            "count",
        ));
        out.push(metric(
            &format!("ports.{m}.busy_ms_per_op"),
            ns_to_ms(busy as f64) / ops,
            "ms",
        ));
        out.push(metric(&format!("ports.{m}.errors"), errors as f64, "count"));
        if batch {
            let per = if calls == 0 {
                0.0
            } else {
                items as f64 / calls as f64
            };
            out.push(metric(&format!("ports.{m}.items_per_call"), per, "count"));
        }
    }
    let c = &traced.counters;
    out.push(metric(
        "ports.data_frames_per_op",
        c.data_frames as f64 / ops,
        "count",
    ));
    out.push(metric(
        "ports.control_frames_per_op",
        c.control_frames as f64 / ops,
        "count",
    ));

    // exec, rpc.server, version manager and locks, cache
    out.push(metric(
        "exec.fanout_batches_per_op",
        c.fanout_batches as f64 / ops,
        "count",
    ));
    out.push(metric(
        "exec.fanout_max_width",
        c.fanout_max_width as f64,
        "count",
    ));
    out.push(metric(
        "server.frames_per_op",
        c.server_frames as f64 / ops,
        "count",
    ));
    out.push(metric(
        "server.connections_accepted",
        c.connections as f64,
        "count",
    ));
    out.push(metric(
        "server.in_flight_peak",
        c.in_flight_peak as f64,
        "count",
    ));
    out.push(metric(
        "vm.versions_assigned_per_op",
        c.versions_assigned as f64 / ops,
        "count",
    ));
    out.push(metric(
        "vm.writes_aborted",
        c.writes_aborted as f64,
        "count",
    ));
    out.push(metric(
        "locks.contended_acquires",
        c.lock_contended as f64,
        "count",
    ));
    out.push(metric(
        "locks.max_wait_ms",
        ns_to_ms(c.lock_max_wait_ns as f64),
        "ms",
    ));
    let lookups = c.cache_hits + c.cache_misses;
    let hit = if lookups == 0 {
        0.0
    } else {
        c.cache_hits as f64 / lookups as f64
    };
    out.push(metric("cache.hit_ratio", hit, "ratio"));

    // bsfs and mapreduce (wordcount-disk)
    let extra = |name: &str| {
        let p = if ["ingest_mib_s", "job_s"].contains(&name) {
            plain
        } else {
            traced
        };
        p.extra
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    for call in ["open", "create", "close"] {
        let name = format!("bsfs.{call}");
        let busy: u64 = traced
            .spans
            .iter()
            .filter(|s| s.kind == Kind::Step && s.name == name)
            .map(|s| s.dur())
            .sum();
        out.push(metric(
            &format!("bsfs.{call}.busy_ms"),
            ns_to_ms(busy as f64) / ops,
            "ms",
        ));
    }
    let input = extra("job_input_mib") * (1 << 20) as f64;
    let amp = if input == 0.0 {
        0.0
    } else {
        traced.fetch.3 as f64 / input
    };
    out.push(metric("bsfs.read_amp", amp, "ratio"));
    out.push(metric("bsfs.ingest_mib_s", extra("ingest_mib_s"), "MiB/s"));
    let job_self: Vec<f64> = tree
        .ops()
        .filter(|o| o.name == "wc.job")
        .map(|o| ns_to_ms(tree.self_time(o) as f64))
        .collect();
    out.push(metric("mapreduce.self_ms", median(&job_self), "ms"));
    out.push(metric(
        "mapreduce.local_map_share",
        extra("local_map_share"),
        "ratio",
    ));
    out.push(metric("mapreduce.job_s", extra("job_s"), "s"));

    // blobseer-disk
    for name in [
        "disk.block_bytes",
        "disk.meta_bytes",
        "disk.version_log_bytes",
        "disk.replay.volume_ms",
        "disk.replay.meta_ms",
        "disk.replay.version_log_ms",
    ] {
        let unit = if name.ends_with("_ms") { "ms" } else { "bytes" };
        out.push(metric(name, extra(name), unit));
    }
    out.push(metric(
        "gc.blocks_collected",
        c.blocks_collected as f64,
        "count",
    ));
    out.push(metric("disk.reboot_s", extra("reboot_s"), "s"));
    out.push(metric("disk.space_amp", extra("space_amp"), "ratio"));

    // the load generator
    let (fetched, refetched, distinct, _) = traced.fetch;
    let reread = if fetched == 0 {
        0.0
    } else {
        refetched as f64 / fetched as f64
    };
    out.push(metric("gen.reread_share", reread, "ratio"));
    let block = traced
        .extra
        .iter()
        .find(|m| m.name == "block_bytes")
        .map_or(0.0, |m| m.value);
    out.push(metric(
        "gen.working_set_mib",
        distinct as f64 * block / (1 << 20) as f64,
        "MiB",
    ));
    let overhead_pct = (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0;
    out.push(metric("trace.overhead_pct", overhead_pct, "%"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_clips_and_merges() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 2, 25), 18);
        assert_eq!(covered(vec![], 0, 10), 0);
    }
}
