#!/usr/bin/env python3
"""Compares two sets of benchmark runs (stdlib only).

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py SET_A SET_B --agree

Each directory holds the per-run result files benchmark/run.py writes
(run.py --calibrate N --out DIR, or single runs with --out DIR). Runs pair up
by (workload, seed); traced and --quick runs are ignored. For every
(workload, end-to-end metric) the two sides' medians and quartiles are
printed with one verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  fewer than 10 pairs, or the parent's own spread is wider than
              the bound and not every change run beats every parent run
  unchanged   otherwise

--agree checks two sets of the same commit instead: every metric's medians
must lie within its bound of each other. The exit code is 1 when a metric is
worse (or, with --agree, outside its bound).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict) or "result" not in record:
            continue
        if record.get("trace") or record.get("quick"):
            continue
        runs[(record["workload"], record["seed"])] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def worse_share(parent, change, higher_is_better):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    if parent == 0:
        return 0.0
    delta = (parent - change) if higher_is_better else (change - parent)
    return delta / abs(parent)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--agree", action="store_true",
                        help="both sets come from one commit")
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"),
                        help="metric names, directions and bounds")
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    metrics = spec["end_to_end"]
    a_runs, b_runs = load(args.parent), load(args.change)
    workloads = [w["name"] for w in spec["workloads"]]

    a_first = sum(1 for k in a_runs if k in b_runs
                  and a_runs[k].get("started", "") < b_runs[k].get("started", ""))
    paired = sum(1 for k in a_runs if k in b_runs)
    if not args.agree and paired and a_first in (0, paired):
        print("warning: one side always ran first; alternate the order of "
              "each pair so host drift cancels", file=sys.stderr)

    print(f"{'workload':13} {'metric':21} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change':>8} {'wins':>6}  verdict")
    failed = False
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            higher = m["better"] == "higher"
            seeds = sorted(s for (w, s) in a_runs if w == workload
                           and (w, s) in b_runs
                           and name in a_runs[(w, s)]["result"]["metrics"]
                           and name in b_runs[(w, s)]["result"]["metrics"])
            if not seeds:
                continue
            a = [a_runs[(workload, s)]["result"]["metrics"][name]["value"]
                 for s in seeds]
            b = [b_runs[(workload, s)]["result"]["metrics"][name]["value"]
                 for s in seeds]
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            better = [(y > x) if higher else (y < x) for x, y in zip(a, b)]
            wins = sum(better)
            worse_by = worse_share(a_med, b_med, higher)

            if args.agree:
                ok = abs(b_med - a_med) <= bound * abs(a_med)
                verdict = "agree" if ok else "OUTSIDE BOUND"
                failed |= not ok
            elif worse_by > bound:
                verdict = "worse"
                failed = True
            elif len(seeds) < MIN_PAIRS:
                verdict = f"unresolved ({len(seeds)} pairs)"
            elif (wins >= WIN_SHARE * len(seeds) and worse_by < 0
                  and abs(b_med - a_med) > a_q3 - a_q1):
                verdict = "improved"
            elif (a_med and (a_q3 - a_q1) / abs(a_med) > bound
                  and not all((y > max(a)) if higher else (y < min(a))
                              for y in b)):
                verdict = "unresolved (spread over bound)"
            else:
                verdict = "unchanged"
            change = (b_med - a_med) / abs(a_med) * 100 if a_med else 0.0
            print(f"{workload:13} {name:21} "
                  f"{a_med:12.5g} [{a_q1:7.4g}, {a_q3:7.4g}] "
                  f"{b_med:12.5g} [{b_q1:7.4g}, {b_q3:7.4g}] "
                  f"{change:+7.2f}% {wins:>3}/{len(seeds):<2}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
