#!/usr/bin/env python3
"""Repeats the suite and summarizes the spread of every end-to-end metric.

  python3 bench/suite/repeat.py --runs 10 --out set1.json
  python3 bench/suite/repeat.py --runs 5 --workloads churn,fill --seconds 5
  python3 bench/suite/repeat.py --summary set1.json
  python3 bench/suite/repeat.py --compare set1.json set2.json

Run i of each workload uses seed SEED0 + i. For each workload and metric it
prints the median and the interquartile range as a share of the median
(quartiles as statistics.quantiles(values, n=4) gives them), and flags a
spread wider than the metric's bound in BENCHMARK.json (setup_s is exempt:
its bound only limits how far its median may move). --compare checks that
two saved sets agree: every metric's median in the second set lies within
the bound of the first set's median. Python 3 standard library only.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

SPREAD_EXEMPT = {"setup_s"}


def host_info():
    info = {"nproc": os.cpu_count(), "machine": platform.machine()}
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = run.BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in open(cache):
            if line.startswith("CMAKE_BUILD_TYPE:"):
                info["build_type"] = line.split("=", 1)[1].strip()
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
                try:
                    out = subprocess.run([cxx, "--version"], text=True,
                                         stdout=subprocess.PIPE).stdout
                    info["compiler"] = out.splitlines()[0]
                except OSError:
                    info["compiler"] = cxx
    return info


def run_once(workload, seed, seconds):
    status, result, _ = run.run_workload(workload, seed, seconds, 0)
    if result is None:
        return {"seed": seed, "correct": False, "exit": status}
    return {"seed": seed, "correct": result["correct"], "exit": status,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def summarize(data):
    metrics = run.benchmark_spec()["end_to_end"]
    bad = 0
    for w, runs in data["runs"].items():
        ok = [r for r in runs if r.get("metrics")]
        wrong = [r["seed"] for r in runs if not r.get("correct")]
        print(f"{w}: {len(runs)} runs" +
              (f", NOT CORRECT at seeds {wrong}" if wrong else ""))
        bad += len(wrong)
        for m in metrics:
            vals = [r["metrics"][m["name"]] for r in ok
                    if m["name"] in r["metrics"]]
            if not vals:
                continue
            med, iqr = spread(vals)
            flag = ""
            if m["name"] not in SPREAD_EXEMPT and iqr > m["bound"]:
                flag = "  SPREAD > BOUND"
                bad += 1
            elif m["name"] not in SPREAD_EXEMPT and iqr > m["bound"] / 3:
                flag = "  spread > bound/3"
            print(f"  {m['name']:16s} median {med:12.6g} {m['unit']:6s}"
                  f" iqr/median {iqr:7.4f}  bound {m['bound']:.3f}{flag}")
    return bad


def compare(a, b):
    metrics = run.benchmark_spec()["end_to_end"]
    bad = 0
    for w in a["runs"]:
        if w not in b["runs"]:
            continue
        print(w)
        for m in metrics:
            va = [r["metrics"][m["name"]] for r in a["runs"][w]
                  if r.get("metrics")]
            vb = [r["metrics"][m["name"]] for r in b["runs"][w]
                  if r.get("metrics")]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            rel = (mb - ma) / abs(ma) if ma else 0.0
            agree = abs(rel) <= m["bound"]
            bad += 0 if agree else 1
            print(f"  {m['name']:16s} {ma:12.6g} -> {mb:12.6g} {m['unit']:6s}"
                  f" {rel:+8.4f}  bound {m['bound']:.3f}"
                  f"{'' if agree else '  DISAGREE'}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(run.workloads()))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", help="save the result set as JSON")
    ap.add_argument("--summary", metavar="SET", help="summarize a saved set")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="check that two saved sets agree within the bounds")
    args = ap.parse_args()

    if args.compare:
        sets = [json.load(open(p)) for p in args.compare]
        return 1 if compare(*sets) else 0
    if args.summary:
        return 1 if summarize(json.load(open(args.summary))) else 0

    run.build()
    seconds = args.seconds or run.benchmark_spec()["run_seconds"]
    data = {"host": host_info(), "seconds": seconds, "runs": {}}
    for w in args.workloads.split(","):
        data["runs"][w] = []
        for i in range(args.runs):
            r = run_once(w, args.seed0 + i, seconds)
            data["runs"][w].append(r)
            print(f"{w} seed {r['seed']}: correct={r['correct']} "
                  + " ".join(f"{k}={v:.5g}"
                             for k, v in r.get("metrics", {}).items()),
                  flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    return 1 if summarize(data) else 0


if __name__ == "__main__":
    sys.exit(main())
