"""sympair benchmark: one workload, one run.

    python3 perfbench/run.py --workload polarize --seed 1 --seconds 36 --trace 0

Runs the workload in one worker (see worker.py) for --seconds.  With
--trace 0 the metrics are the end-to-end ones, scaled to a host of nominal
speed (see end_to_end); HOST_SAMPLES_BEFORE host samples are taken before
the run and, in the worker, one before the first op and one after every op.  With
--trace 1 each op runs once untraced and once traced and the metrics are
the per-layer ones.  Run context, the raw unscaled end-to-end figures, the
op records and the tail's rank go to
perfbench/out/<workload>-seed<N>-trace<T>.json, traced spans to
perfbench/out/spans-<workload>-seed<N>.json.  The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.

Exits 1 without a result if the worker fails, and 2 if the checkout has no
sympair sources.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from tracer import METRICS, window_metrics
from worker import sample_host, start, worker_cmd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Host samples (worker.sample_host) taken before the run.  The worker adds
# one before its first op and one after each op.  Host speed drifts over
# seconds, so samples spread over the run vary less from run to run than
# samples taken together.
HOST_SAMPLES_BEFORE = 4
# Times are scaled to a host on which the bare interpreter of worker.BARE
# takes this long, about its median on the 2-vCPU VM on which the bounds
# were set.  That VM's speed drifts by 15-30% over minutes.
REF_NOMINAL_S = 0.05
# Every run ends within this many seconds of its start, or fails.
RUN_DEADLINE_S = 170
# op_s_tail is this nearest-rank percentile of op time.
TAIL_PERCENTILE = 90


def finish(proc, deadline):
    """Wait for a worker and return the rest of its standard output."""
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker passed the %d s deadline" % RUN_DEADLINE_S)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d" % proc.returncode)
    return out


def tail(values):
    """(value, rank): the nearest-rank TAIL_PERCENTILE percentile, that is
    the ceil(p n / 100)-th smallest of the n values, and that rank."""
    ordered = sorted(values)
    rank = -(-TAIL_PERCENTILE * len(ordered) // 100)
    return ordered[rank - 1], rank


def commit():
    """HEAD of the checkout, or None when it is not a git working tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines():
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "sympair", "*.py"))):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def end_to_end(ops, wall_s, peak_rss_mb, host):
    """End-to-end metrics scaled to a host of nominal speed, and the raw
    figures, the tail's rank and the sample counts.

    `host` holds the run's (set-up seconds, [bare seconds]) samples.  Every
    time is multiplied, and ops_per_s divided, by REF_NOMINAL_S over the
    median bare interpreter time of the run.
    """
    setup = [s for s, _ in host]
    bare = [b for _, bs in host for b in bs]
    scale = REF_NOMINAL_S / statistics.median(bare)
    raw = [o["seconds"] for o in ops]
    ok = sum(1 for o in ops if o["failure"] is None)
    tail_s, rank = tail(raw)
    metrics = {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "op_s_p50": (statistics.median(raw) * scale, "s"),
        "op_s_tail": (tail_s * scale, "s"),
        "ops_per_s": (ok / (wall_s * scale), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    detail = {"raw_setup_s": statistics.median(setup),
              "raw_op_s_p50": statistics.median(raw),
              "raw_op_s_tail": tail_s,
              "raw_ops_per_s": ok / wall_s,
              "wall_s": wall_s,
              "bare_interpreter_s": statistics.median(bare),
              "host_scale": scale,
              "op_s_tail_percentile": TAIL_PERCENTILE,
              "op_s_tail_rank": rank,
              "op_samples": len(raw),
              "setup_samples": len(setup),
              "bare_samples": len(bare)}
    return metrics, detail


def overhead(ops):
    """(traced / untraced time, resolution) over the op pairs of a traced
    run.  The ratio is the median of the per-op ratios; the resolution is
    half their range, the least overhead the run can tell from noise."""
    ratios = [o["traced_seconds"] / o["seconds"] for o in ops]
    return statistics.median(ratios), (max(ratios) - min(ratios)) / 2


def overhead_text(ratio, resolution):
    """The tracing overhead as one line for a reader."""
    text = "tracing overhead: %.3f x, resolution %.3f" % (ratio, resolution)
    if abs(ratio - 1) <= resolution:
        text += " (below resolution)"
    return text


def per_layer(ops, window):
    """Per-layer metrics over the first `window` ops, plus the tracing
    overhead over all ops, and whether that overhead is resolved."""
    layers = window_metrics([o["layers"] for o in ops[:window]])
    metrics = {name: (layers[name], unit) for name, unit in METRICS}
    ratio, resolution = overhead(ops)
    metrics["trace.op_s_p50_traced"] = (
        statistics.median(o["traced_seconds"] for o in ops), "s")
    metrics["trace.op_s_p50_untraced"] = (
        statistics.median(o["seconds"] for o in ops), "s")
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    metrics["trace.overhead_resolution"] = (resolution, "ratio")
    detail = {"op_pairs": len(ops),
              "overhead_resolved": abs(ratio - 1) > resolution}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sympair", "cli.py")):
        print("no sympair sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d" % (args.workload, args.seed)
    spans_path = os.path.join(OUT, "spans-%s.json" % tag)

    try:
        before = 0 if args.trace else HOST_SAMPLES_BEFORE
        host = [sample_host(args.workload, args.seed) for _ in range(before)]
        proc, ready = start(
            worker_cmd(args.workload, args.seed, args.seconds, args.trace,
                       ["--spans", spans_path] if args.trace else []),
            deadline - time.perf_counter())
        lines = finish(proc, deadline).splitlines()
        if not lines:
            raise RuntimeError("worker printed no result")
    except RuntimeError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    ops = result["ops"]
    failed = sum(1 for o in ops if o["failure"] is not None)
    if args.trace:
        metrics, detail = per_layer(ops, workload.window)
    else:
        host += result["host"]
        metrics, detail = end_to_end(ops, result["wall_s"],
                                     result["peak_rss_mb"], host)
    context = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sympair_lines": src_lines(),
        "worker_ready_s": ready,
        "host_samples_s": host,
        "fail_ratio": failed / len(ops),
        "failures": [[" ".join(o["argv"]), o["failure"]]
                     for o in ops if o["failure"] is not None],
    }
    context.update(detail)
    record = {"context": context, "ops": ops,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record_path = os.path.join(OUT, "%s-trace%d.json" % (tag, args.trace))
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for key in ("python", "nproc", "commit", "src_sympair_lines", "clients",
                "fail_ratio"):
        print("%s: %s" % (key, context[key]))
    for key, value in detail.items():
        print("%s: %s" % (key, value))
    if args.trace:
        print(overhead_text(metrics["trace.overhead_ratio"][0],
                            metrics["trace.overhead_resolution"][0]))
    for failure in context["failures"]:
        print("FAILED %s: %s" % tuple(failure))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
