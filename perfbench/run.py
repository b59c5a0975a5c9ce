"""stein-shrink benchmark: one workload, one run.

    python3 perfbench/run.py --workload exact-curve --seed 1 --seconds 24 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/`.  A single closed-loop client makes one CLI invocation at a time.

--trace 0 measures the end-to-end metrics with no wrapper installed:
  setup_s      median time for a fresh interpreter to run
               `python -m stein_shrink.cli special --p 5` through to its CSV
  wall_s       median time of the workload's fixed batch of invocations
  throughput   median correct work units per second (see workloads.py)
  peak_rss_mb  peak resident memory of the worker process running the workload
Timings are in reference-host seconds (worker.HostClock); the same metrics in
plain wall-clock seconds are printed too and kept in the run record.
--trace 1 measures the per-layer metrics: direct-call probes, then spans from
alternating untraced and traced batches, and the tracing overhead.

Failed operations are counted in `failed` out of `attempted` and listed by name
in the run record written beside the result, under perfbench/out/.  The last
line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170  # a run must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(OUT, "tmp")  # the acceptance suite's temp files
    return env


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import mpmath
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__}


def run_worker(args, env, seconds, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--out-dir", OUT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        fail(f"worker for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def end_to_end(res, key):
    """name -> (value, samples) for the --trace 0 metrics, from the worker's
    "scaled" (reference-host seconds) or "wall" (plain seconds) timings."""
    walls, setup = res[key], res[f"setup_{key}"]
    n = len(walls)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(walls), n),
        "throughput": (statistics.median(u / w for u, w in zip(res["units"], walls)), n),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }


def with_units(values, declared):
    """Attach the units BENCHMARK.json declares; the names must match exactly."""
    units = {m["name"]: m["unit"] for m in declared}
    if values.keys() != units.keys():
        fail(f"metrics differ from BENCHMARK.json: {sorted(values.keys() ^ units.keys())}")
    return {name: {"value": values[name][0], "unit": unit, "samples": values[name][1]}
            for name, unit in units.items()}


def report(args, metrics, res):
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']:6s} (n={m['samples']})")
    if "unscaled_metrics" in res:
        print("  in plain wall-clock seconds, before scaling to the reference host:")
        for name in ("setup_s", "wall_s", "throughput"):
            m = res["unscaled_metrics"][name]
            print(f"    {name:40s} {m['value']:>14.6g} {m['unit']:6s} (n={m['samples']})")
    known = [f for f in res["failures"] if f["known"]]
    other = [f for f in res["failures"] if not f["known"]]
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':42s} {ratio:>14.6g} {'1':6s} (n={res['attempted']})")
    print(f"  failed operations: {res['failed']} of {res['attempted']} attempted "
          f"({len(known)} distinct known, {len(other)} distinct unexpected)")
    groups = {}
    for f in res["failures"]:
        groups.setdefault(f["known"] or "UNEXPECTED", []).append(f)
    for tag, fs in groups.items():
        print(f"    [{tag}] {len(fs)} operation(s), e.g.")
        for f in fs[:3]:
            print(f"      {f['op']}: {f['reason'][:160]}")


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        fail("--seed must be a non-negative 64-bit integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "stein_shrink", "cli.py")):
        fail(f"no stein_shrink sources under {os.path.join(ROOT, 'src')}")
    try:
        import mpmath  # noqa: F401  (the oracle)
        import numpy  # noqa: F401
    except ImportError as exc:
        fail(f"missing dependency: {exc}")

    from workloads import KNOWN_DEFECTS

    deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    env = environment()
    res = run_worker(args, env, args.seconds, deadline)
    if args.trace:
        values = {k: (v, res["traced_batches"]) for k, v in res["layers"].items()}
        metrics = with_units(values, spec["per_layer"])
    else:
        metrics = with_units(end_to_end(res, "scaled"), spec["end_to_end"])
        res["unscaled_metrics"] = with_units(end_to_end(res, "wall"), spec["end_to_end"])

    correct = not any(f["known"] is None for f in res["failures"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(), "known_defects": KNOWN_DEFECTS,
              "correct": correct, "metrics": metrics, **res}
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    report(args, metrics, res)
    print(f"  run record: {os.path.relpath(os.path.join(OUT, name), ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))


if __name__ == "__main__":
    main()
