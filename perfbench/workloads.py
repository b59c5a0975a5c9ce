"""The benchmark's workloads: the CLI invocations each one makes, and how their
outputs are judged.

Every workload is a fixed batch of `stein-shrink` invocations whose inputs
depend only on the seed (`verify` takes turns over three such batches).  An operation is one requested (p, theta, c) row for
`exact-curve` and `mc-curve`, one invocation for `cloud` and one criterion for
`verify`.  It fails if the invocation exits non-zero, its row is missing, its
output misses the reference, or its output differs from the first batch.

Failures that belong to a defect documented when the benchmark was written are
tagged with that defect.  They still count as failed; only an untagged failure
makes a run incorrect.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

import oracle

# The relative precision SeriesControl promises for the exact route.
REL_TOL = 1e-12
# A few ulps of the closed-form approximation's float evaluation.
APPROX_TOL = 1e-14
# The acceptance suite's gates, in standard errors: grid-wide (C03) and single
# (C02, C09).
MC_GATE = 4.5
SINGLE_GATE = 4.0

# A failure is put down to a known defect only if it has that defect's shape.
# The shapes of the exact series' failures at p = 3 to 100 when the benchmark
# was written: rows from lambda = 4e4 (2.56e4 passes) to 1e8 miss REL_TOL by at
# most 5.5e-10; lambda 1e10 to 1e14 exit with "did not converge"; lambda 1e16
# and 1e18 come out at exactly 3x the reference.
SERIES_DRIFT_LAMBDA = (3e4, 1e9)
SERIES_DRIFT_MAX_REL = 1e-8
SERIES_RAISE_LAMBDA = (1e9, 1e15)
SERIES_TRIPLE_MIN_LAMBDA = 1e16
SERIES_TRIPLE_RATIO_TOL = 1e-3
# A p <= 4 Monte Carlo miss is the uncalibrated gate only while it is a
# moderate z; the worst seen over seeds 1-60 was 5.3.
P3_MAX_Z = 8.0
# Acceptance runs per `verify` run, each at its own seed derived from --seed.
VERIFY_SEEDS = 3

KNOWN_DEFECTS = {
    "exact-series": (
        "the Poisson-mixture series for E[1/chi^2_p(lambda)] misses its 1e-12 "
        "tolerance by at most 1e-8 for 3e4 < lambda < 1e9, raises "
        "SeriesConvergenceError for 1e9 <= lambda <= 1e15, and returns 3x the "
        "true value from lambda = 1e16"
    ),
    "p3-mc-gate": (
        "for p <= 4 the paired difference has infinite variance, so a z gate "
        "built from the estimated standard error is not calibrated; known only "
        "for z <= 8 and, at C02, an estimate outside the gate of 0.5"
    ),
    "c07-red": "C07 demands a 60% bound where the exact gap is 2/3; red by design",
}


@dataclass
class Invocation:
    label: str
    argv: list
    out: str | None  # CSV written by the invocation; None when it reports on stdout


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    data: bytes | None


@dataclass
class Failure:
    op: str
    reason: str
    known: str | None


@dataclass
class Verdict:
    ops: list = field(default_factory=list)  # operation names, in order
    units: dict = field(default_factory=dict)  # op -> work units when correct
    prints: dict = field(default_factory=dict)  # op -> output fingerprint
    failures: dict = field(default_factory=dict)  # op -> Failure
    bytes_out: int = 0
    rows_out: int = 0

    def add(self, op, units, fingerprint, problems, known=None):
        self.ops.append(op)
        self.units[op] = units
        self.prints[op] = fingerprint
        if problems:
            self.failures[op] = Failure(op, "; ".join(problems), known)


def _fmt(v) -> str:
    return format(v, "g")


def _grid(spec: str) -> list:
    """The values of an inclusive `start:stop:count` range, or one value."""
    if ":" not in spec:
        return [float(spec)]
    start, stop, count = spec.split(":")
    start, stop, count = float(start), float(stop), int(count)
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _close(got: float, ref: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - ref) <= tol


def _exit_problem(outcome: Outcome) -> str:
    first = outcome.stderr.strip().splitlines()[:1]
    return f"exit {outcome.code}: {first[0] if first else ''}"


def _count_output(verdict: Verdict, outcome: Outcome):
    """Bytes and rows an invocation wrote: its CSV less the header, or its report."""
    if outcome.data is not None:
        verdict.bytes_out += len(outcome.data)
        verdict.rows_out += outcome.data.count(b"\n") - 1
    else:
        verdict.bytes_out += len(outcome.stdout.encode())
        verdict.rows_out += outcome.stdout.count("\n")


class RiskCurve:
    """One `risk-curve` invocation and the reference for each of its rows."""

    def __init__(self, p, theta_spec, cs, seed, out, mc_n=None):
        self.p, self.mc_n = p, mc_n
        argv = ["risk-curve", "--p", str(p), "--theta", theta_spec,
                "--c", ",".join(_fmt(c) for c in cs), "--seed", str(seed)]
        if mc_n:
            argv += ["--mc-n", str(mc_n)]
        label = f"risk-curve p={p} theta={theta_spec}" + (f" mc-n={mc_n}" if mc_n else "")
        self.invocation = Invocation(label, argv + ["--out", out], out)
        self.rows = [(t, c) for t in _grid(theta_spec) for c in cs]
        self.refs = None

    def prepare(self):
        self.refs = [
            (oracle.delta_exact(self.p, t, c), oracle.delta_approx(self.p, t, c))
            for t, c in self.rows
        ]

    def _known(self, lam, problems, facts):
        """The documented defect every problem has the shape of, or None."""
        tags = set()
        for kind in problems:
            if kind == "exit" and "did not converge" in problems[kind] and (
                    SERIES_RAISE_LAMBDA[0] <= lam <= SERIES_RAISE_LAMBDA[1]):
                tags.add("exact-series")
            elif kind == "exact" and (
                    (SERIES_DRIFT_LAMBDA[0] < lam < SERIES_DRIFT_LAMBDA[1]
                     and facts["rel"] <= SERIES_DRIFT_MAX_REL)
                    or (lam >= SERIES_TRIPLE_MIN_LAMBDA
                        and abs(facts["ratio"] / 3.0 - 1.0) <= SERIES_TRIPLE_RATIO_TOL)):
                tags.add("exact-series")
            elif kind == "mc" and self.p <= 4 and facts["z"] <= P3_MAX_Z:
                tags.add("p3-mc-gate")
            else:
                return None
        return ",".join(sorted(tags))

    def judge(self, outcome: Outcome, verdict: Verdict):
        lines, col = [], {}
        if outcome.code == 0 and outcome.data is not None:
            text = outcome.data.decode()
            lines = text.splitlines()
            col = {name: i for i, name in enumerate(lines[0].split(","))} if lines else {}
            lines = lines[1:]
        for i, ((theta, c), (exact, approx)) in enumerate(zip(self.rows, self.refs)):
            op = f"{self.invocation.label} row {i} (theta={_fmt(theta)}, c={_fmt(c)})"
            problems, facts = {}, {}
            line = lines[i] if i < len(lines) else None
            if outcome.code != 0:
                problems["exit"] = _exit_problem(outcome)
            elif line is None:
                problems["missing"] = "row missing"
            else:
                problems, facts = self._check_row(line.split(","), col, theta, c, exact, approx)
            fingerprint = line if line is not None else problems.get("exit", "")
            verdict.add(op, self.mc_n or 1, fingerprint, list(problems.values()),
                        self._known(theta * theta, problems, facts))
        if outcome.code == 0 and outcome.data is not None:
            _count_output(verdict, outcome)

    def _check_row(self, row, col, theta, c, exact, approx):
        """Problems by kind, and the numbers that tell which defect they show."""
        problems, facts = {}, {}
        try:
            p_got, t_got, c_got = (float(row[col[k]]) for k in ("p", "theta", "c"))
            ex_got = float(row[col["delta_exact"]])
            ap_got = float(row[col["delta_approx"]])
            if self.mc_n:
                mean, se = float(row[col["delta_mc_mean"]]), float(row[col["delta_mc_stderr"]])
        except (KeyError, IndexError, ValueError) as exc:
            return {"parse": f"unreadable row: {exc!r}"}, facts
        if p_got != self.p or c_got != c or not _close(t_got, theta, 1e-15 * max(1.0, theta)):
            problems["key"] = f"row is (p={p_got}, theta={t_got}, c={c_got})"
        if not _close(ex_got, exact[0], REL_TOL * exact[1]):
            rel = abs(ex_got - exact[0]) / exact[1] if math.isfinite(ex_got) else math.inf
            facts["rel"] = rel
            facts["ratio"] = ex_got / exact[0] if exact[0] else math.inf
            problems["exact"] = f"delta_exact {ex_got!r} vs {exact[0]!r} (rel {rel:.2e})"
        if not _close(ap_got, approx[0], APPROX_TOL * approx[1]):
            problems["approx"] = f"delta_approx {ap_got!r} vs {approx[0]!r}"
        if self.mc_n:
            z = abs(mean - exact[0]) / se if se > 0 and math.isfinite(se) else math.inf
            facts["z"] = z
            if not z <= MC_GATE:
                problems["mc"] = f"delta_mc {mean!r} +- {se!r}: z = {z:.2f} > {MC_GATE}"
        return problems, facts


class Cloud:
    """One `cloud` invocation, judged by its moments the way C09 judges them."""

    def __init__(self, p, theta, n, seed, out):
        self.p, self.theta, self.n = p, float(theta), n
        argv = ["cloud", "--p", str(p), "--theta", _fmt(theta), "--n", str(n),
                "--seed", str(seed), "--out", out]
        self.invocation = Invocation(f"cloud p={p} theta={_fmt(theta)}", argv, out)

    def prepare(self):
        pass

    def judge(self, outcome: Outcome, verdict: Verdict):
        op = self.invocation.label
        if outcome.code != 0 or outcome.data is None:
            verdict.add(op, self.n, _exit_problem(outcome), [_exit_problem(outcome)])
            return
        _count_output(verdict, outcome)
        fingerprint = hashlib.sha256(outcome.data).hexdigest()
        verdict.add(op, self.n, fingerprint, self._problems(outcome.data))

    def _problems(self, data):
        header, _, body = data.partition(b"\n")
        if header != b"idx,x1,r":
            return [f"header {header[:80]!r}"]
        try:
            table = np.loadtxt(body.decode().splitlines(), delimiter=",", ndmin=2)
        except ValueError as exc:
            return [f"unreadable rows: {exc}"]
        if table.shape != (self.n, 3):
            return [f"{table.shape[0]} rows of {table.shape[1]} columns, expected {self.n} x 3"]
        problems = []
        if not np.array_equal(table[:, 0], np.arange(self.n)):
            problems.append("idx is not 0..n-1")
        x1, r = table[:, 1], table[:, 2]
        if not (np.all(np.isfinite(table)) and np.all(r >= 0)):
            problems.append("non-finite value or negative r")
        p, t, n, g = self.p, self.theta, self.n, SINGLE_GATE
        r2 = r * r
        checks = [
            ("mean x1", x1.mean(), t, g / math.sqrt(n)),
            ("mean r^2", r2.mean(), p - 1.0, g * math.sqrt(2.0 * (p - 1) / n)),
            ("mean |Z|^2", (x1 * x1 + r2).mean(), t * t + p,
             g * math.sqrt((2.0 * p + 4.0 * t * t) / n)),
        ]
        for name, got, want, tol in checks:
            if not abs(got - want) <= tol:
                problems.append(f"{name} {got:.6g}, expected {want:.6g} +- {tol:.3g}")
        return problems


_CRITERION = re.compile(r"^(PASS|FAIL)  (C\d\d) (.*)$")
# FAIL details of the known defects: C07 failing only its 60% bound on the 2/3
# gap, C02's paired delta and its standard error, C03's failing cell.
_C07_RED = re.compile(
    r"Jensen strict: True; .* < 1%: True; gap\(3, 0\) = 0\.6667 < 60%: False$")
_C02_DETAIL = re.compile(r".*: paired delta = (\S+) \+- (\S+) \(n=")
_C03_DETAIL = re.compile(r"cell \(p=(\d+), .* z=(\S+) > ")


class Verify:
    """`verify --seed S`: each of the 12 acceptance criteria is one operation."""

    IDS = [f"C{i:02d}" for i in range(1, 13)]

    def __init__(self, seed):
        argv = ["verify", "--seed", str(seed)]
        self.invocation = Invocation(f"verify --seed {seed}", argv, None)

    def prepare(self):
        pass

    @staticmethod
    def _known(cid, detail):
        """The documented defect a FAIL detail has the shape of, or None."""
        if cid == "C07" and _C07_RED.search(detail):
            return "c07-red"
        m = _C02_DETAIL.match(detail) if cid == "C02" else None
        if m:
            mean, se = float(m.group(1)), float(m.group(2))
            if abs(mean - 0.5) > SINGLE_GATE * se and abs(mean - 1.0) <= P3_MAX_Z * se:
                return "p3-mc-gate"
        m = _C03_DETAIL.search(detail) if cid == "C03" else None
        if m and int(m.group(1)) <= 4 and float(m.group(2)) <= P3_MAX_Z:
            return "p3-mc-gate"
        return None

    def judge(self, outcome: Outcome, verdict: Verdict):
        found = {}
        for line in outcome.stdout.splitlines():
            m = _CRITERION.match(line)
            if m:
                found[m.group(2)] = (m.group(1), m.group(3), line)
        all_pass = all(found.get(cid, ("FAIL",))[0] == "PASS" for cid in self.IDS)
        crashed = outcome.code != (0 if all_pass else 1)
        for cid in self.IDS:
            verdict_line = found.get(cid)
            if crashed:
                problems = [_exit_problem(outcome)]
            elif verdict_line is None:
                problems = ["criterion not reported"]
            elif verdict_line[0] == "FAIL":
                problems = [verdict_line[1]]
            else:
                problems = []
            detail = verdict_line[1] if verdict_line else ""
            known = None if crashed or verdict_line is None else self._known(cid, detail)
            verdict.add(f"{self.invocation.label} {cid}", 1, verdict_line[2] if verdict_line else "",
                        problems, known)
        _count_output(verdict, outcome)


class Setup:
    """`special --p 5` in a fresh interpreter: what every invocation pays to start."""

    def __init__(self, out_dir):
        self.out = os.path.join(out_dir, "setup-special.csv")
        self.argv = [sys.executable, "-m", "stein_shrink.cli", "special", "--p", "5",
                     "--out", self.out]
        self.want = None

    def prepare(self):
        self.want = (oracle.chi_norm_mean(5), 2.0 - 1.0 / 8.0)

    def problems(self, code, stderr, data):
        if code != 0 or data is None:
            return [f"exit {code}: {stderr[-200:]}"]
        lines = data.decode().splitlines()
        try:
            got = [float(v) for v in lines[1].split(",")[1:3]]
        except (IndexError, ValueError):
            got = []
        if lines[:1] != ["p,e_r_exact,e_r_asymptotic"] or len(got) != 2 or any(
                abs(g - w) > REL_TOL * w for g, w in zip(got, self.want)):
            return [f"wrote {lines[:2]!r}, expected {self.want!r}"]
        return []


class Workload:
    """Rounds of parts; batch k runs round k mod len(rounds), whole."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.invocations = [[part.invocation for part in parts] for parts in rounds]

    def prepare(self):
        """Reference values; computed once, before anything is timed."""
        for parts in self.rounds:
            for part in parts:
                part.prepare()

    def judge(self, round_index, outcomes) -> Verdict:
        verdict = Verdict()
        for part, outcome in zip(self.rounds[round_index], outcomes):
            part.judge(outcome, verdict)
        return verdict


def _c03_constants(p):
    return [1.0, float(p - 2), float(p - 1), 2.0 * (p - 2) - 0.5]


def build(name: str, seed: int, out_dir: str) -> Workload:
    outs = (os.path.join(out_dir, f"{name}-{i}.csv") for i in range(1000))
    if name == "exact-curve":
        parts = [RiskCurve(p, grid, _c03_constants(p), seed, next(outs))
                 for p in (3, 5, 20, 100) for grid in ("0:50:51", "0:1000:26")]
        parts += [RiskCurve(5, f"1e{k}", [1.0, 3.0, 6.0], seed, next(outs))
                  for k in range(10)]
    elif name == "mc-curve":
        parts = [RiskCurve(p, "0:40:21", [1.0, float(p - 2), float(p - 1)], seed,
                           next(outs), mc_n=100_000) for p in (5, 10, 20)]
        parts.append(RiskCurve(3, "0:4:5", [1.0], seed, next(outs), mc_n=2_000_000))
    elif name == "cloud":
        parts = [Cloud(p, t, 100_000, seed, next(outs)) for p in (3, 20) for t in (0, 25)]
    elif name == "verify":
        # One acceptance run per batch, at three seeds in turn.  Where the p = 3
        # gate trips, C03 stops at that cell and the run takes half its usual
        # time; the median over the three seeds keeps that one seed's time
        # from being the run's figure, while its failures still count.
        return Workload([[Verify(VERIFY_SEEDS * seed + k)] for k in range(VERIFY_SEEDS)])
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload([parts])
