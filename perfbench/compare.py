#!/usr/bin/env python3
"""Collect result sets of the benchmark and compare two of them.

A result set is a directory holding one `<workload>.jsonl` file per
workload; each line is the final JSON line of one run, in run order.

    python3 perfbench/compare.py collect OUT --seeds 1 2 3 ... [--trace 1]
        [--workloads small-rw ...]
    python3 perfbench/compare.py compare OLD NEW

`collect` runs the command named in BENCHMARK.json once per seed and
workload, from the repository root. `compare` prints, per workload and
metric, the median and quartiles of both sets and a verdict under the
pairing rule: the i-th run of OLD is paired with the i-th run of NEW (run
the two commits alternately so pairs share conditions). A metric is

* improved      when NEW wins at least nine tenths of the pairs (ties count
                for neither) and the medians differ by more than OLD's own
                quartile distance;
* unresolved    when OLD's quartile distance, as a share of its median, is
                wider than the metric's bound and not every NEW run reads
                better than every OLD run;
* worse         when NEW's median is worse than OLD's by more than the
                bound;
* within bound  otherwise.

Per-layer metrics have no bound; they get medians, quartiles and the
change of the median, with no verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    for seed in args.seeds:
        for w in workloads:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed} failed ({run.returncode}):\n{run.stdout}{run.stderr}")
            with open(os.path.join(args.out, f"{w}.jsonl"), "a") as f:
                f.write(lines[-1] + "\n")
            print(f"{w} seed {seed}: done", flush=True)


def load_set(path):
    runs = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".jsonl"):
            with open(os.path.join(path, name)) as f:
                runs[name[: -len(".jsonl")]] = [json.loads(l) for l in f if l.strip()]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, better, bound):
    q1, med_old, q3 = quartiles(old)
    med_new = statistics.median(new)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    spread = (q3 - q1) / abs(med_old) if med_old else float("inf")
    if wins >= 0.9 * len(pairs) and abs(med_new - med_old) > (q3 - q1):
        return "improved"
    all_better = all(sign * (n - o) > 0 for o in old for n in new)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (med_old - med_new) > bound * abs(med_old):
        return "worse"
    return "within bound"


def compare(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load_set(args.old), load_set(args.new)
    for w in sorted(set(old) & set(new)):
        print(f"== {w}: {len(old[w])} old runs, {len(new[w])} new runs")
        print(f"{'metric':<40} {'old q1/med/q3':>32} {'new q1/med/q3':>32}  verdict")
        names = [n for n in old[w][0]["metrics"] if n in new[w][0]["metrics"]]
        for name in names:
            o = [r["metrics"][name]["value"] for r in old[w]]
            n = [r["metrics"][name]["value"] for r in new[w]]
            qo, qn = quartiles(o), quartiles(n)
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            if name in bounds:
                v = verdict(o, n, bounds[name]["better"], bounds[name]["bound"])
            else:
                delta = (qn[1] - qo[1]) / abs(qo[1]) * 100 if qo[1] else float("nan")
                v = f"median {delta:+.1f}% ({better.get(name, '?')} is better)"
            print(f"{name:<40} {fmt(qo):>32} {fmt(qn):>32}  {v}")
        bad = [r for r in old[w] + new[w] if not r["correct"] or r["failed"]]
        if bad:
            print(f"   {len(bad)} runs were incorrect or had failed operations")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", type=int, nargs="+", required=True)
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--workloads", nargs="*")
    k = sub.add_parser("compare")
    k.add_argument("old")
    k.add_argument("new")
    args = p.parse_args()
    {"collect": collect, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
