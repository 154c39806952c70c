"""Benchmark worker: one process, one thread, one closed-loop client.

Imports sympair from the checkout's `src`, parses the first op's argv,
prints "ready" and then runs ops for about `--seconds`.  Each op is one
`sympair.cli.main(argv)` call whose report is written to memory.  An
untraced worker also takes a host sample (see `sample_host`) before the
first op and after each op, so that set-up and host-speed samples are
spread over the run; that time is left out of the run's wall time.  A traced
worker runs each op untraced and traced, alternating which goes first.  The
last line of standard output is a JSON record of every op; `run.py` turns
it into metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only] [--spans PATH]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time

import workloads

WORKER = os.path.abspath(__file__)
ROOT = os.path.dirname(os.path.dirname(WORKER))
SRC = os.path.join(ROOT, "src")

# An op that runs longer than this is stopped and counted as failed.
OP_TIME_LIMIT_S = 60
# A --setup-only worker or a bare interpreter that is not ready and gone
# within this many seconds fails the run.
SETUP_TIME_LIMIT_S = 30
# The host-speed reference: a bare interpreter that does nothing.  It runs
# none of this repository's code, so only the host can change its time.
BARE = [sys.executable, "-E", "-s", "-c", "print('ready')"]
# Bare interpreters timed per host sample; one alone varies by +-20%.
BARE_PER_SAMPLE = 3
# A traced run makes at least this many windows, so that its tracing
# overhead rests on more than one pair of op times.
TRACED_MIN_WINDOWS = 2


class OpTimeout(Exception):
    pass


def import_cli():
    """sympair.cli from this checkout's src, never from anywhere else."""
    sys.path.insert(0, SRC)
    import sympair.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("sympair imported from %s, not from %s"
                          % (cli.__file__, SRC))
    return cli


def worker_cmd(workload, seed, seconds, trace, extra=()):
    """The argv that starts a worker."""
    return [sys.executable, "-E", "-s", WORKER, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + list(extra)


def start(cmd, timeout):
    """Start `cmd`; return (process, seconds until it printed "ready")."""
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, timeout))
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - begin
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("%s did not become ready" % " ".join(cmd))
    return proc, elapsed


def _time_to_ready(cmd):
    """Seconds from starting `cmd` until it prints "ready"; it must then
    exit 0 within SETUP_TIME_LIMIT_S."""
    proc, elapsed = start(cmd, SETUP_TIME_LIMIT_S)
    try:
        proc.communicate(timeout=SETUP_TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("%s did not exit" % " ".join(cmd))
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d"
                           % (" ".join(cmd), proc.returncode))
    return elapsed


def time_setup(workload, seed):
    """Seconds from launching a --setup-only worker until it is ready."""
    return _time_to_ready(worker_cmd(workload, seed, 0, 0, ["--setup-only"]))


def sample_host(workload, seed):
    """(set-up seconds, [bare interpreter seconds]): one set-up sample and
    BARE_PER_SAMPLE host-speed references, each timed from launch until
    the process prints "ready"."""
    return (time_setup(workload, seed),
            [_time_to_ready(BARE) for _ in range(BARE_PER_SAMPLE)])


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded %d s" % OP_TIME_LIMIT_S)


def run_op(cli, argv):
    """Run one CLI invocation in process.

    Returns (seconds, exit code or None, report text, error text).  The
    clock spans the `cli.main` call, which ends once the report is written.
    """
    buf = io.StringIO()
    error = None
    code = None
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except OpTimeout as exc:
        error = str(exc)
    except Exception as exc:
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, code, buf.getvalue(), error


def run_pair(cli, tracer, argv, i):
    """Run op `i` untraced and traced; untraced goes first on even `i`.

    Returns (untraced run, traced run, layer counts of the traced run),
    each run as run_op returns it.
    """
    runs = {}
    for traced in (False, True) if i % 2 == 0 else (True, False):
        if not traced:
            runs[traced] = run_op(cli, argv)
            continue
        tracer.install()
        tracer.begin_op(i)
        try:
            runs[traced] = run_op(cli, argv)
        finally:
            layers = tracer.end_op()
            tracer.uninstall()
    return runs[False], runs[True], layers


def check_op(cli, digests, argv, code, text, error):
    """Why an op failed, or None when its report is correct: exit code 0,
    "passed": true, and the sha256 recorded for it, byte for byte."""
    if error is not None:
        return error
    if code != 0:
        return "exit code %r" % (code,)
    try:
        passed = json.loads(text).get("passed")
    except ValueError:
        return "report is not JSON"
    if passed is not True:
        return "report has passed: %r" % (passed,)
    key, canonical = workloads.digest_key(cli.render, argv, text)
    if key is None:
        return "report is not in canonical JSON form"
    want = digests.get(key)
    if want is None:
        return "no recorded digest for %r" % key
    got = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if got != want:
        return "sha256 %s differs from recorded %s" % (got, want)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    cli = import_cli()
    cli.build_parser().parse_args(workload.argv(args.seed, 0))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    digests = workloads.load_digests()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    ops = []
    host = [] if tracer is not None else [sample_host(args.workload,
                                                       args.seed)]
    paused = 0.0
    run_start = time.perf_counter()
    i = 0
    while True:
        op_argv = workload.argv(args.seed, i)
        record = {"argv": op_argv}
        if tracer is None:
            secs, code, text, error = run_op(cli, op_argv)
        else:
            (secs, code, text, error), traced, layers = run_pair(
                cli, tracer, op_argv, i)
            t_secs, t_code, t_text, t_error = traced
            record.update(traced_seconds=t_secs, layers=layers)
        failure = check_op(cli, digests, op_argv, code, text, error)
        if tracer is not None and (
                t_error is not None or t_code != code or t_text != text):
            failure = failure or "traced report differs"
        record.update(seconds=secs, failure=failure)
        ops.append(record)
        i += 1
        if tracer is None:
            began = time.perf_counter()
            host.append(sample_host(args.workload, args.seed))
            paused += time.perf_counter() - began
        elapsed = time.perf_counter() - run_start - paused
        # Untraced runs do whole passes over the pool, traced runs whole
        # windows: at least one pass or TRACED_MIN_WINDOWS windows, and no
        # more once the next would end past --seconds.
        if tracer is None:
            step, least = workload.pool, workload.pool
        else:
            step = workload.window
            least = workload.window * TRACED_MIN_WINDOWS
        if i % step == 0 and i >= least and \
                elapsed + elapsed * step / i > args.seconds:
            break
    wall = time.perf_counter() - run_start - paused
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ops": ops, "wall_s": wall, "host": host,
                      "peak_rss_mb": rss_kib / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
