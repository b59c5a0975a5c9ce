"""Runs one workload in this process through `stein_shrink.cli.run` and prints
its measurements as one JSON line.

run.py starts one worker per workload, so the peak memory the worker reports
is that workload's own.  The oracle is computed before anything is timed; each
batch of invocations is timed, then judged.  With --trace 1 the worker first
runs the per-layer probes, then alternates untraced and traced batches.

Every timed call is also scaled to reference-host seconds (`HostClock`): the
shared host this benchmark was written on drifts by 2x in speed over minutes,
which no length of run averages out, while a fixed reference computation timed
beside each call slows down with it.  Set-up samples, which start a fresh
interpreter, are scaled by a fresh interpreter importing numpy instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import probes
import tracing
import workloads

MIN_BATCHES = 3
SETUP_SAMPLES = 9
# reference_time() on the machine where the benchmark was written (Intel Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6) while its host was quiet.
REFERENCE_S = 0.0115
# A fresh interpreter importing what the CLI imports before any stein_shrink
# code runs.  Set-up samples are scaled by it, not by reference_time(): on that
# host the cost of starting an interpreter stepped by 25% within minutes while
# the compute reference stayed put.
STARTUP_REFERENCE = [sys.executable, "-c", "import argparse, tempfile, numpy"]
# Its time on that machine while the host was quiet.
STARTUP_REFERENCE_S = 0.14


def reference_time():
    """Seconds taken by a fixed computation that gauges how fast the host runs now.

    It mixes the program's two kinds of work, a pure-Python float loop and numpy
    draws reduced to a sum, and uses nothing from stein_shrink, so no change to
    the program can move it.
    """
    t0 = time.perf_counter()
    total, w = 0.0, 1.0
    for k in range(1, 60000):
        w *= 0.9999
        total += w / (3 + 2 * k)
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.standard_normal(1 << 17)
    total += float((x * x + rng.chisquare(4, 1 << 17)).sum())
    return time.perf_counter() - t0


def startup_reference_time():
    """Seconds taken by STARTUP_REFERENCE."""
    t0 = time.perf_counter()
    subprocess.run(STARTUP_REFERENCE, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


class HostClock:
    """Times calls in seconds and in reference-host seconds.

    A call's host factor is the mean reference time just before and just after
    it, over REFERENCE_S; its scaled time is its wall time over that factor.
    """

    def __init__(self):
        self.last = reference_time()

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        after = reference_time()
        factor = (self.last + after) / (2 * REFERENCE_S)
        self.last = after
        return result, raw, raw / factor


def load_cli(root):
    """The CLI module of the checkout under test (run.py puts its src/ on PYTHONPATH)."""
    src = os.path.join(root, "src")
    from stein_shrink import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"stein_shrink was imported from {cli.__file__}, not {src}")
    return cli


def _invoke(cli, argv):
    try:
        return cli.run(argv)
    except Exception as exc:  # a traceback is an operation failure, not ours
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return -1


def run_batch(cli, invocations, clock, tracer=None, batch=0):
    """Run every invocation once; returns (wall s, reference-host s, outcomes)."""
    wall = scaled = 0.0
    outcomes = []
    for i, inv in enumerate(invocations):
        if inv.out and os.path.exists(inv.out):
            os.unlink(inv.out)
        if tracer:
            tracer.op = (batch, i)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, raw, host = clock.time(_invoke, cli, inv.argv)
        wall += raw
        scaled += host
        data = None
        if code == 0 and inv.out and os.path.exists(inv.out):
            with open(inv.out, "rb") as fh:
                data = fh.read()
        outcomes.append(workloads.Outcome(code, out.getvalue(), err.getvalue(), data))
    return wall, scaled, outcomes


class Runner:
    """Repeats a workload's rounds; judges the first batch of each round and
    compares later batches of that round to it."""

    def __init__(self, cli, workload, setup):
        self.cli, self.workload, self.setup = cli, workload, setup
        self.clock = HostClock()
        self.first = {}  # round -> Verdict of its first batch
        self.batches = []  # dicts: wall, scaled, units, failures, ops, traced
        self.setup_times = []  # (wall s, reference-host s)
        self.setup_failures = {}

    def setup_sample(self, keep=True):
        """One cold start of the CLI, timed from outside; checked like any output."""
        if os.path.exists(self.setup.out):
            os.unlink(self.setup.out)
        before = startup_reference_time()
        t0 = time.perf_counter()
        proc = subprocess.run(self.setup.argv, capture_output=True, timeout=60)
        raw = time.perf_counter() - t0
        after = startup_reference_time()
        scaled = raw / ((before + after) / (2 * STARTUP_REFERENCE_S))
        self.clock.last = reference_time()  # the next invocation's "before"
        data = None
        if os.path.exists(self.setup.out):
            with open(self.setup.out, "rb") as fh:
                data = fh.read()
        problems = self.setup.problems(proc.returncode, proc.stderr.decode(), data)
        if keep:
            op = f"setup special --p 5 #{len(self.setup_times)}"
            self.setup_times.append((raw, scaled))
            if problems:
                self.setup_failures[op] = workloads.Failure(op, "; ".join(problems), None)

    def batch(self, round_index, tracer=None):
        index = len(self.batches)
        wall, scaled, outcomes = run_batch(
            self.cli, self.workload.invocations[round_index], self.clock, tracer, index)
        verdict = self.workload.judge(round_index, outcomes)
        first = self.first.setdefault(round_index, verdict)
        failures = dict(verdict.failures)
        for op in verdict.ops:
            if op not in failures and verdict.prints[op] != first.prints.get(op):
                failures[op] = workloads.Failure(op, "output differs from the first batch", None)
        units = sum(verdict.units[op] for op in verdict.ops if op not in failures)
        self.batches.append({"wall": wall, "scaled": scaled, "units": units,
                             "failures": failures, "ops": len(verdict.ops),
                             "traced": tracer is not None})

    def summary(self):
        failed = {}
        for b in self.batches:
            for op, f in b["failures"].items():
                entry = failed.setdefault(op, {"op": op, "reason": f.reason,
                                               "known": f.known, "batches": 0})
                entry["batches"] += 1
        # A wrong set-up output makes the run incorrect, but set-up samples are
        # not operations of the workload, so they stay out of the counts.
        for op, f in self.setup_failures.items():
            failed[op] = {"op": op, "reason": f.reason, "known": None, "batches": 1}
        return {
            "attempted": sum(b["ops"] for b in self.batches),
            "failed": sum(len(b["failures"]) for b in self.batches),
            "failures": list(failed.values()),
            "bytes_out": self.first[0].bytes_out,
            "rows_out": self.first[0].rows_out,
        }


def measure(runner, seconds):
    """Untraced batches in whole rounds until another round would overrun the
    time budget (at least MIN_BATCHES), with the set-up samples spread evenly
    over the same time."""
    runner.setup_sample(keep=False)  # writes the bytecode cache a user already has
    rounds = len(runner.workload.rounds)
    start = time.perf_counter()
    while True:
        spent = time.perf_counter() - start
        due = max(1, math.ceil(SETUP_SAMPLES * min(1.0, spent / seconds)))
        while len(runner.setup_times) < due:
            runner.setup_sample()
        runner.batch(len(runner.batches) % rounds)
        spent = time.perf_counter() - start
        walls = [b["wall"] for b in runner.batches]
        if (len(walls) >= MIN_BATCHES and len(walls) % rounds == 0
                and spent + rounds * statistics.median(walls) > seconds):
            break
    while len(runner.setup_times) < SETUP_SAMPLES:
        runner.setup_sample()


def measure_traced(runner, seconds, spans_path):
    """Alternates untraced and traced batches of the same round; per-layer
    medians and overhead."""
    tracer = tracing.Tracer()
    rounds = len(runner.workload.rounds)
    start = time.perf_counter()
    pair = 0.0
    while len(runner.batches) < 4 or time.perf_counter() - start + pair < seconds:
        t0 = time.perf_counter()
        round_index = len(runner.batches) // 2 % rounds
        runner.batch(round_index)
        tracer.install()
        try:
            runner.batch(round_index, tracer)
        finally:
            tracer.uninstall()
        pair = time.perf_counter() - t0
    tracer.dump(spans_path)
    traced_ids = [i for i, b in enumerate(runner.batches) if b["traced"]]
    out = tracing.median_metrics([tracing.layer_metrics(tracer.spans, i) for i in traced_ids])
    scaled = {flag: statistics.median(b["scaled"] for b in runner.batches if b["traced"] == flag)
              for flag in (True, False)}
    out["trace.overhead_s"] = scaled[True] - scaled[False]
    return out, len(traced_ids)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    cli = load_cli(args.root)
    workload = workloads.build(args.workload, args.seed, args.out_dir)
    workload.prepare()
    setup = workloads.Setup(args.out_dir)
    setup.prepare()
    runner = Runner(cli, workload, setup)
    result = {"argv": [inv.argv for invocations in workload.invocations for inv in invocations]}
    if args.trace:
        started = time.perf_counter()
        layers = probes.measure(args.seed, result)
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        budget = max(0.0, args.seconds - (time.perf_counter() - started))
        traced, samples = measure_traced(runner, budget, spans_path)
        layers.update(traced)
        first = runner.first[0]
        layers["cli.bytes_out"] = first.bytes_out
        layers["cli.rows_out"] = first.rows_out
        layers["cli.ns_per_byte"] = layers["cli.self_s"] / first.bytes_out * 1e9
        result["layers"] = layers
        result["traced_batches"] = samples
        result["spans"] = spans_path
    else:
        measure(runner, args.seconds)
        for key in ("wall", "scaled", "units"):
            result[key] = [b[key] for b in runner.batches]
        result["setup_wall"], result["setup_scaled"] = map(list, zip(*runner.setup_times))
    result.update(runner.summary())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
