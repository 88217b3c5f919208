#!/usr/bin/env python3
"""Compares two sets of benchmark runs (A/A or parent/change).

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the run records perfbench/run.py writes
(--results-dir, untraced runs). For every (workload, end-to-end metric) it
prints both sides' medians and quartiles, each side's spread (inter-quartile
distance over median) against the metric's bound, and a verdict: 'better' or
'worse' only when one side wins at least nine tenths of the seed-paired runs
and the medians differ by more than the base's inter-quartile distance,
else 'unresolved'. 'bound' says whether the change's median stays within the
metric's bound of the base's. Exits 1 when any pair breaks its bound or any
run was incorrect.
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402


def load(directory):
    """{workload: {seed: result}} of the untraced run records."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path) as f:
            record = json.load(f)
        runs.setdefault(record["workload"], {})[record["seed"]] = record["result"]
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, change = load(argv[1]), load(argv[2])
    ok = True
    header = (f"{'workload':17} {'metric':21} {'base median [q1,q3]':>31} {'spread':>7} "
              f"{'change median [q1,q3]':>31} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(base) | set(change)):
        a_runs, b_runs = base.get(workload, {}), change.get(workload, {})
        incorrect = [s for s, r in list(a_runs.items()) + list(b_runs.items()) if not r["correct"]]
        if incorrect:
            ok = False
            print(f"{workload}: incorrect runs for seeds {sorted(incorrect)}")
        for name, m in spec.items():
            # Pair by seed where both sides ran it, else by run order.
            common = sorted(set(a_runs) & set(b_runs))
            if common:
                a = [a_runs[s]["metrics"][name]["value"] for s in common]
                b = [b_runs[s]["metrics"][name]["value"] for s in common]
            else:
                a = [r["metrics"][name]["value"] for _, r in sorted(a_runs.items())]
                b = [r["metrics"][name]["value"] for _, r in sorted(b_runs.items())]
            if not a or not b:
                continue
            v = stats.verdict(a, b, m["better"], m["bound"])
            sa, sb = stats.spread(a), stats.spread(b)
            within = v["within_bound"] and (name == "setup_s" or (sa <= m["bound"] and sb <= m["bound"]))
            ok = ok and within
            print(f"{workload:17} {name:21} "
                  f"{v['base_median']:11.4g} [{v['base_q1']:.4g},{v['base_q3']:.4g}]".ljust(71)
                  + f" {sa:7.3f} "
                  + f"{v['change_median']:11.4g} [{v['change_q1']:.4g},{v['change_q3']:.4g}]".ljust(31)
                  + f" {sb:7.3f} {m['bound']:6.2f}  {v['verdict']}{'' if within else '  OUT OF BOUND'}")
    print("all pairs within their bounds" if ok else "some pairs are out of their bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
