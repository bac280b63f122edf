#!/usr/bin/env python3
"""Compares two checkouts (parent and change) on the performance ledger.

Runs bench/ledger/run.py in each checkout with identical settings, in
alternating pairs (the parent first in even pairs, the change first in odd
ones), then reports, per (metric, workload), each side's median and quartiles
over its runs (each run contributes the value run.py reports) and how many
pairs the change won. Verdicts, with bounds from BENCHMARK.json at the
change's root:

  improved    the change won at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's interquartile range is wider than the bound,
              unless every change run beat every parent run;
  same        none of the above.

Per-layer metrics (--trace 1) have no bound: they are judged improved or not.
Afterwards it lists every simulated statistic that differs between the sides:
per-job digests, simulated seconds and event counts, and the repetition's
simulated counters. A change that only speeds up the simulator must list none.

Usage:
  python3 bench/ledger/compare.py --parent ../parent --change . [--pairs 10]
      [--workload all] [--seed 2] [--seconds 20] [--trace 0]

Standard library only.
"""

import argparse
import json
import math
import pathlib
import subprocess
import sys

from run import WORKLOADS, summarize

BENCH_FILES = ("run.py", "ledger.cc", "CMakeLists.txt")


def run_side(checkout, workload, args, out):
    cmd = [sys.executable, str(checkout / "bench" / "ledger" / "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    if not out.is_file():
        sys.exit(f"compare.py: run.py failed in {checkout} (status {proc.returncode})")
    return json.loads(out.read_text())


def judge(parent, change, lower_is_better, bound):
    """Verdict and win count for one (metric, workload) row, given each
    side's summary and runs."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for p, c in zip(parent["runs"], change["runs"]) if sign * (c - p) < 0)
    delta = sign * (change["median"] - parent["median"])
    parent_iqr = parent["q3"] - parent["q1"]
    if bound is not None:
        scale = abs(parent["median"]) or 1.0
        if delta > bound * scale:
            return "regressed", wins
        all_better = all(sign * (c - p) < 0 for c in change["runs"] for p in parent["runs"])
        if (max(parent_iqr, change["q3"] - change["q1"]) > bound * scale
                and not all_better):
            return "unresolved", wins
    if wins >= math.ceil(0.9 * len(parent["runs"])) and -delta > parent_iqr:
        return "improved", wins
    return "same", wins


def sim_differences(workload, parent, change):
    """Simulated statistics that differ between the first run of each side."""
    diffs = []
    if len(parent["jobs"]) != len(change["jobs"]):
        diffs.append(f"{workload}: {len(parent['jobs'])} jobs -> {len(change['jobs'])}")
    for before, job in zip(parent["jobs"], change["jobs"]):
        for key in ("label", "digest", "sim_s", "events"):
            if before[key] != job[key]:
                diffs.append(f"{workload} {job['label']} {key}: "
                             f"{before[key]} -> {job[key]}")
    for key in sorted(set(parent["sim"]) | set(change["sim"])):
        if parent["sim"].get(key) != change["sim"].get(key):
            diffs.append(f"{workload} {key}: {parent['sim'].get(key)} -> "
                         f"{change['sim'].get(key)}")
    return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2,
                        help="seed 2 is held out for checking claims")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, help="also write the report as JSON")
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    if args.pairs < 10:
        sys.exit("compare.py: at least 10 pairs are needed to judge a claim")

    for name in BENCH_FILES:
        if ((parent / "bench" / "ledger" / name).read_bytes() !=
                (change / "bench" / "ledger" / name).read_bytes()):
            print(f"warning: bench/ledger/{name} differs between the sides; "
                  f"the benchmark must be identical for a claim", file=sys.stderr)

    spec = json.loads((change / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[section]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    work = change / ".bench_build" / "ledger" / "compare"

    runs = {side: {w: [] for w in workloads} for side in ("parent", "change")}
    for pair in range(args.pairs):
        order = [("parent", parent), ("change", change)]
        if pair % 2:
            order.reverse()
        for workload in workloads:
            for side, checkout in order:
                out = work / f"{side}-{workload}-{pair}.json"
                runs[side][workload].append(run_side(checkout, workload, args, out))
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    rows = []
    diffs = []
    print(f"{'workload':16} {'metric':40} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>6}  verdict")
    for workload in workloads:
        for name, m in metrics.items():
            sides = {}
            for side in ("parent", "change"):
                values = [r["metrics"][name]["value"] for r in runs[side][workload]]
                sides[side] = {**summarize(values), "runs": values}
            verdict, wins = judge(sides["parent"], sides["change"],
                                  m["better"] == "lower", m.get("bound"))
            rows.append({"workload": workload, "metric": name, "unit": m["unit"], **sides,
                         "wins": wins, "pairs": args.pairs, "verdict": verdict})
            print(f"{workload:16} {name:40} " + " ".join(
                f"{s['median']:12.6g} [{s['q1']:9.4g}, {s['q3']:9.4g}]"
                for s in sides.values()) + f" {wins:3d}/{args.pairs:<2d} {verdict} "
                f"({m['unit']})")
        for side in ("parent", "change"):
            first = runs[side][workload][0]
            if any(r["jobs"] != first["jobs"] or r["sim"] != first["sim"]
                   for r in runs[side][workload]):
                diffs.append(f"{workload}: the {side}'s simulated statistics vary "
                             f"between its own runs")
        diffs += sim_differences(workload, runs["parent"][workload][0],
                                 runs["change"][workload][0])

    failed = {side: sum(r["failed"] for w in workloads for r in runs[side][w])
              for side in runs}
    print(f"\nfailed jobs: parent {failed['parent']}, change {failed['change']}")
    print("simulated statistics that differ:" if diffs else
          "simulated statistics: identical on both sides")
    for diff in diffs:
        print(f"  {diff}")
    if args.out:
        args.out.write_text(json.dumps({"settings": vars(args) | {
            "parent": str(parent), "change": str(change), "out": str(args.out)},
            "rows": rows, "sim_differences": diffs, "failed": failed}, indent=1) + "\n")
    return 1 if any(r["verdict"] == "regressed" for r in rows) or failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
