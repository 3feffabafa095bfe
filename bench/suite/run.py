#!/usr/bin/env python3
"""Builds bench_suite from this checkout and runs it.

  python3 bench/suite/run.py --workload churn --seed 1 --seconds 10 --trace 0
  python3 bench/suite/run.py                 # every workload, untraced
  python3 bench/suite/run.py --trace 1       # every workload, per-layer
  python3 bench/suite/run.py --smoke         # every workload, 1 s, 1 pass
  python3 bench/suite/run.py --selfcheck     # inputs generated twice agree

The build goes to .bench_build/ at the repository root (CMAKE_BUILD_TYPE
Release). With --workload, the last stdout line is bench_suite's JSON result
(correct, attempted, failed, metrics); without it, one JSON object keyed by
workload. The workloads and the metric names come from BENCHMARK.json. The
exit status is non-zero when the build fails, a correctness gate fails, or
the printed metrics differ from BENCHMARK.json's.
"""
import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_suite"
RUN_TIMEOUT_S = 175


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workloads():
    return [w["name"] for w in benchmark_spec()["workloads"]]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: the repository sources (CMakeLists.txt, src/) are "
                 "not next to bench/suite; nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_suite",
                    "-j", "4"], stdout=sys.stderr, check=True)


def expected_digest(workload, seed):
    with open(HERE / "expected_digest.json") as f:
        exp = json.load(f)
    if exp["workload"] == workload and exp["seed"] == seed:
        return exp["digest"]
    return None


def run_workload(workload, seed, seconds, trace, passes=None):
    """Runs one workload. Returns (exit status, parsed result or None, the
    program's stdout, whose last line is the result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-file", str(BUILD / f"trace_{workload}_{seed}.jsonl")]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    digest = expected_digest(workload, seed)
    if digest is not None:
        cmd += ["--expect-digest", digest]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None, ""
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"run.py: {workload} printed no result", file=sys.stderr)
        return proc.returncode or 1, None, proc.stdout
    want = {m["name"] for m in
            benchmark_spec()["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        print(f"run.py: {workload} metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ want)}", file=sys.stderr)
        return 1, None, proc.stdout
    return proc.returncode, result, proc.stdout


def main():
    names = workloads()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload for 1 s in a single pass")
    ap.add_argument("--selfcheck", action="store_true",
                    help="generate each workload's inputs twice and compare")
    args = ap.parse_args()

    build()
    seconds = args.seconds
    if seconds is None:
        seconds = 1 if args.smoke else benchmark_spec()["run_seconds"]
    chosen = [args.workload] if args.workload else names

    if args.selfcheck:
        status = 0
        for w in chosen:
            proc = subprocess.run([str(BINARY), "--workload", w, "--seed",
                                   str(args.seed), "--seconds", str(seconds),
                                   "--selfcheck"], timeout=RUN_TIMEOUT_S)
            status = status or proc.returncode
        return status

    if args.workload:
        status, result, out = run_workload(args.workload, args.seed, seconds,
                                           args.trace)
        if result is None:
            sys.stderr.write(out)
            return status or 1
        sys.stdout.write(out)
        return status

    status, results = 0, {}
    for w in chosen:
        code, result, out = run_workload(w, args.seed, seconds, args.trace,
                                         1 if args.smoke else None)
        print("\n".join(out.splitlines()[:-1]))
        status = status or code or (1 if result is None else 0)
        results[w] = result
    print(json.dumps(results))
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        print(f"run.py: {' '.join(map(str, e.cmd))} failed", file=sys.stderr)
        sys.exit(1)
