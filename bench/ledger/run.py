#!/usr/bin/env python3
"""Performance ledger: runs the simulator benchmark and reports its metrics.

Builds the `ledger` program from the repository's sources (CMake, Release, into
.bench_build/ledger at the repository root), runs it on one workload or all of
them, and turns its raw repetitions and spans into medians, quartiles and
per-layer self times. See README.md in this directory for the metrics.

Usage (from the repository root):
  python3 bench/ledger/run.py --workload sort_hdd --seed 1 --seconds 20 --trace 0
  python3 bench/ledger/run.py --workload all          # every workload in turn
  python3 bench/ledger/run.py --smoke [--ledger BIN]  # audited warm-up + 1 rep each

--trace 0 reports the end-to-end metrics, measured untraced; --trace 1 runs
the ledger's own spans and the layer probes and reports the per-layer metrics.
Every metric is printed by name with its unit, the full results are written
as JSON (--out, default .bench_build/ledger/results/), and the last line of
stdout is {"correct", "attempted", "failed", "metrics"}. The exit status is 0
only when every job passed its checks.

Standard library only.
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / ".bench_build" / "ledger"

WORKLOADS = ("sort_hdd", "ml_flash", "bdb_sweep", "trace_roundtrip")

E2E = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Span name -> per-layer self-time metric.
SPAN_LAYERS = {
    "repetition": "bench.harness_s",
    "job": "bench.harness_s",
    "env_build": "framework.env_build_s",
    "make_job": "workloads.make_job_s",
    "run_job": "framework.run_job_s",
    "env_teardown": "framework.env_teardown_s",
    "to_json": "tracing.to_json_s",
    "parse_trace": "model.parse_trace_s",
    "trace_report": "model.trace_report_s",
    "critical_path": "model.critical_path_s",
    "predict": "model.predict_s",
}

PER_LAYER = {
    "bench.trace_overhead_pct": "%",
    "bench.span_coverage": "ratio",
    "bench.harness_s": "s",
    "framework.env_build_s": "s",
    "workloads.make_job_s": "s",
    "framework.run_job_s": "s",
    "framework.run_job_s.spark.p50": "s",
    "framework.run_job_s.spark.tail": "s",
    "framework.run_job_s.spark.n": "count",
    "framework.run_job_s.mono.p50": "s",
    "framework.run_job_s.mono.tail": "s",
    "framework.run_job_s.mono.n": "count",
    "framework.env_teardown_s": "s",
    "simcore.events": "count",
    "simcore.host_ns_per_event": "ns",
    "cluster.fabric.solves": "count",
    "cluster.fabric.flows_touched": "count",
    "cluster.fabric.rate_changes": "count",
    "cluster.fabric.batched_changes": "count",
    "cluster.fabric.patched": "count",
    "cluster.fabric.useful_ratio": "ratio",
    "cluster.fabric.host_ns_per_flow_touched": "ns",
    "cluster.fabric.busy_side_s": "sim_s",
    "cluster.fabric.saturated_side_s": "sim_s",
    "cluster.disk.busy_s": "sim_s",
    "cluster.disk.saturated_s": "sim_s",
    "cluster.disk.read_bytes": "bytes",
    "cluster.disk.write_bytes": "bytes",
    "cluster.cpu.busy_s": "sim_s",
    "monotask.compute_queue_wait_s": "sim_s",
    "monotask.disk_queue_wait_s": "sim_s",
    "monotask.network_acquire_wait_s": "sim_s",
    "monotask.count": "count",
    "framework.monotask_log.records": "count",
    "tracing.events": "count",
    "tracing.json_bytes": "bytes",
    "tracing.to_json_s": "s",
    "model.parse_trace_s": "s",
    "model.trace_report_s": "s",
    "model.critical_path_s": "s",
    "model.predict_s": "s",
    "model.fidelity_err_pct": "%",
    "simcore.probe.schedule_fire_ns": "ns",
    "simcore.probe.fluid_submit_ns": "ns",
    "cluster.probe.fabric_churn_ns": "ns",
}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the ledger program; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT}: the benchmark builds them from source")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "ledger",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "ledger"


def run_ledger(ledger, workload, seed, out, seconds=None, reps=None, traced=False):
    """Runs one workload in its own process; returns the raw results."""
    cmd = [str(ledger), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    cmd += ["--reps", str(reps)] if reps else ["--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    proc = subprocess.run(cmd, stdout=sys.stderr)
    # Exit 1 means some job failed its checks: the results still say which.
    if proc.returncode not in (0, 1) or not out.is_file():
        fail(f"ledger exited with status {proc.returncode} on {workload}")
    return json.loads(out.read_text())


def summarize(values, headline="median"):
    """Median, quartiles, extremes and count of `values`; `value` is the
    `headline` statistic, the one reported."""
    values = sorted(values)
    q1, q3 = values[0], values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    stats = {"median": statistics.median(values), "q1": q1, "q3": q3,
             "min": values[0], "max": values[-1], "n": len(values)}
    stats["value"] = stats[headline]
    return stats


def percentile(values, q):
    """Linearly interpolated q-quantile (0 <= q <= 1) of `values`."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail(values):
    """The highest percentile with at least ten samples beyond it, or the
    median when there are fewer than twenty samples."""
    n = len(values)
    return percentile(values, 1.0 - 10.0 / n if n >= 20 else 0.5)


def self_times(spans):
    """Per-span self time in seconds: duration minus what its children cover.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and their durations can simply be summed."""
    child_ns = [0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent >= 0:
            child_ns[parent] += span["end"] - span["start"]
    return [(span["end"] - span["start"] - child_ns[i]) * 1e-9
            for i, span in enumerate(spans)]


def layer_metrics(raw):
    """Per-layer metrics of a --traced run (medians over traced repetitions)."""
    reps = raw["reps"]
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    labels = [job["label"] for job in raw["jobs"]]
    # Spans are [rep, name, job, parent, start_ns, end_ns]; parents index the
    # global list, so each repetition's spans are re-indexed locally.
    by_rep = {}
    for i, (rep, name, job, parent, start, end) in enumerate(raw["spans"]):
        by_rep.setdefault(rep, []).append(
            {"id": i, "name": name, "job": job, "parent": parent,
             "start": start, "end": end})
    per_rep = []
    run_job = {"spark": [], "mono": []}
    notes = []
    for rep in traced:
        spans = by_rep.get(rep["rep"], [])
        local = {span["id"]: k for k, span in enumerate(spans)}
        for span in spans:
            span["parent"] = local.get(span["parent"], -1)
        sums = {metric: 0.0 for metric in SPAN_LAYERS.values()}
        for span, self_s in zip(spans, self_times(spans)):
            sums[SPAN_LAYERS[span["name"]]] += self_s
            if span["name"] == "run_job":
                executor = labels[span["job"]].split(":", 1)[0]
                run_job[executor].append((span["end"] - span["start"]) * 1e-9)
        covered = sum(sums.values())
        sums["bench.span_coverage"] = covered / rep["wall_s"]
        if abs(covered / rep["wall_s"] - 1.0) > 0.01:
            notes.append(f"rep {rep['rep']}: span self times sum to {covered:.6f} s "
                         f"of {rep['wall_s']:.6f} s wall")
        sim = rep["sim"]
        run_s = sums["framework.run_job_s"]
        sums["simcore.host_ns_per_event"] = run_s * 1e9 / max(sim["simcore.events"], 1)
        flows = sim["cluster.fabric.flows_touched"]
        sums["cluster.fabric.host_ns_per_flow_touched"] = run_s * 1e9 / flows if flows else 0.0
        sums["cluster.fabric.useful_ratio"] = (
            sim["cluster.fabric.rate_changes"] / flows if flows else 0.0)
        per_rep.append({**sim, **sums})

    metrics = {}
    for name in PER_LAYER:
        samples = [r[name] for r in per_rep if name in r]
        if samples:
            metrics[name] = summarize(samples)
    for executor, samples in run_job.items():
        prefix = f"framework.run_job_s.{executor}"
        metrics[prefix + ".p50"] = summarize([percentile(samples, 0.5)])
        metrics[prefix + ".tail"] = summarize([tail(samples) if samples else 0.0])
        metrics[prefix + ".n"] = summarize([len(samples)])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["bench.trace_overhead_pct"] = summarize(
        [100.0 * (traced_wall - untraced_wall) / untraced_wall])
    for name, value in raw["probes"].items():
        metrics[name] = summarize([value])
    return metrics, notes


def e2e_metrics(raw):
    """End-to-end metrics of an untraced run.

    Every repetition does identical simulated work (the digest checks prove
    it), so differences between repetitions are host interference, which only
    adds time: wall and CPU time report the fastest repetition. Set-up time
    reports the median over repetitions."""
    reps = raw["reps"]
    return {
        "wall_s": summarize([r["wall_s"] for r in reps], "min"),
        "cpu_s": summarize([r["cpu_s"] for r in reps], "min"),
        "setup_s": summarize([r["setup_s"] for r in reps]),
        "peak_rss_mb": summarize([raw["peak_rss_mb"]]),
    }


def check_sim_stats(raw):
    """Simulated statistics must repeat exactly across repetitions."""
    first = raw["reps"][0]["sim"]
    return [f"rep {r['rep']}: simulated statistics differ from rep 0"
            for r in raw["reps"][1:] if r["sim"] != first]


def measure(ledger, workload, seed, seconds, trace, out):
    raw = run_ledger(ledger, workload, seed, BUILD_DIR / "raw" / f"{workload}.json",
                     seconds=seconds, traced=bool(trace))
    problems = check_sim_stats(raw)
    if trace:
        metrics, notes = layer_metrics(raw)
        problems += notes
        units = PER_LAYER
    else:
        metrics, units = e2e_metrics(raw), E2E
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "fail_ratio": raw["failed"] / raw["attempted"],
        "failures": raw["failures"] + problems,
        "correct": raw["failed"] == 0 and not problems,
        "metrics": {name: {**metrics[name], "unit": units[name]} for name in units},
        "jobs": raw["jobs"],
        "sim": raw["reps"][0]["sim"],
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_table(result):
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']}): "
          f"{result['attempted']} jobs, {result['failed']} failed, "
          f"fail_ratio {result['fail_ratio']:.4g}")
    print(f"  {'metric':44} {'value':>12} {'min':>12} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'max':>12} {'n':>5}  unit")
    for name, m in result["metrics"].items():
        print(f"  {name:44} " + " ".join(f"{m[k]:12.6g}" for k in
                                          ("value", "min", "q1", "median", "q3", "max"))
              + f" {m['n']:5d}  {m['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def smoke(ledger):
    """Audited warm-up plus one repetition of every workload, seed 1."""
    ok = True
    for workload in WORKLOADS:
        raw = run_ledger(ledger, workload, 1, BUILD_DIR / "smoke" / f"{workload}.json",
                         reps=1)
        problems = raw["failures"] + check_sim_stats(raw)
        print(f"{workload}: {raw['attempted']} jobs, {raw['failed']} failed")
        for problem in problems:
            print(f"  FAILED {problem}")
        ok = ok and raw["failed"] == 0 and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="results JSON (default .bench_build/ledger/results/...)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--ledger", type=pathlib.Path,
                        help="prebuilt ledger binary (skips the build)")
    args = parser.parse_args()

    ledger = args.ledger or build()
    if args.smoke:
        return smoke(ledger)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        out = BUILD_DIR / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        result = measure(ledger, workload, args.seed, args.seconds, args.trace, out)
        print_table(result)
        results.append(result)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results[0] if len(results) == 1 else results,
                                       indent=1) + "\n")

    def key(result, name):
        return name if len(results) == 1 else f"{result['workload']}/{name}"

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {key(r, name): {"value": m["value"], "unit": m["unit"]}
                    for r in results for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
