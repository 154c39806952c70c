"""Run every workload, untraced and traced, and print every metric by name.

    python3 perfbench/summary.py [--seed N] [--seconds S]

For each workload prints the end-to-end metrics with their units, the same
figures unscaled (see run.end_to_end), the fail ratio, how many reports
were checked against a recorded digest, and the tracing overhead (the
median traced / untraced time of the same op, with the resolution of that
figure).  Exits 1 if any run fails or any op fails.  --seconds defaults to
run_seconds in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads
from run import overhead_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        print("== %s (seed %d, %d s, 1 closed-loop client): %s"
              % (name, args.seed, args.seconds, w["why"]))
        plain = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        if plain is None or traced is None:
            print("  run failed")
            ok = False
            continue
        for m in bench["end_to_end"]:
            got = plain["metrics"][m["name"]]
            print("  %-12s %12.6f %s" % (m["name"], got["value"], got["unit"]))
        record = os.path.join(HERE, "out", "%s-seed%d-trace0.json"
                              % (name, args.seed))
        with open(record, encoding="utf-8") as fh:
            context = json.load(fh)["context"]
        print("  unscaled (host scale %.4f):" % context["host_scale"])
        for m in bench["end_to_end"]:
            raw = context.get("raw_" + m["name"])
            if raw is not None:
                print("    %-10s %12.6f %s" % (m["name"], raw, m["unit"]))
        print("  %-12s %12.6f %s" % (
            "fail_ratio", plain["failed"] / plain["attempted"], "ratio"))
        print("  reports matching their recorded sha256: %d of %d"
              % (plain["attempted"] - plain["failed"], plain["attempted"]))
        tm = traced["metrics"]
        print("  " + overhead_text(tm["trace.overhead_ratio"]["value"],
                                   tm["trace.overhead_resolution"]["value"]))
        print("  op_s_p50 traced %.4f s, untraced %.4f s" % (
            tm["trace.op_s_p50_traced"]["value"],
            tm["trace.op_s_p50_untraced"]["value"]))
        ok = ok and plain["correct"] and traced["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
