#!/usr/bin/env python3
"""Prints the deterministic work counts of a BENCH_fig14.json, one line each.

  python3 scripts/fig14_counts.py build/BENCH_fig14.json

The fields are the tree DP's per-workload search counts and outcome flags:
they depend only on the code and the fixed inputs, never on timing or the
host's thread count. CI diffs the output against
bench/golden/fig14_counts.txt, so a change that moves how much work the DP
does (steps, memo hits, early exits) shows up as a diff. Stdlib only.
"""

import json
import sys

FIELDS = ("feasible", "blocks", "tree_nodes", "steps_reference",
          "steps_fast", "intra_memo_hit_rate", "early_breaks",
          "parallel_plans_identical")


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: fig14_counts.py BENCH_fig14.json")
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for field in FIELDS:
            print(f"{w['name']} {field} {json.dumps(w[field])}")


if __name__ == "__main__":
    main()
