"""Command-line front end: grid sweeps, figure-regime reproduction, and the
verification suite.  All numeric CSV output uses 17 significant digits, LF
line endings, and atomic writes, so identical invocations are byte-identical.
Each column gets one conversion, checked finite before any byte is written, and rows
are streamed in blocks of 4096 into the atomic write's temp file: cloud's int64 and
float64 arrays formatted by numpy (_csvtext, 17 digits from one exact Dekker product),
other commands' Python rows by a %-template, faster below ~500 rows: the same bytes.
The argument parser is built once per process and keeps no state between calls.
plane, svgplot and acceptance are imported by the commands that run them.

Exit codes: 0 success, 1 computation/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
import tempfile

import numpy as np

from .core import ProblemConfig
from .exact_risk import risk_delta_approx, risk_delta_exact
from .monte_carlo import estimate_delta_mc, estimate_exceedance_prob, simulate_cloud
from .special import expected_chi_norm, expected_chi_norm_asymptotic

__all__ = ["run", "main"]


class _UsageError(argparse.ArgumentTypeError):
    """A bad command line; argparse reports it against the option it came from."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_BLOCK = 4096  # rows per %-template, so the text is never held whole


def _conversion(name: str, column) -> str:
    """A column's one conversion: "" if all None, %d if integer, else %.17g if finite."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return "%d"
    if all(v is None for v in column):
        return ""
    if all(type(v) is int for v in column):
        return "%d"
    values = np.asarray(column, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ArithmeticError(f"{name} is {float(values[bad][0])}, not a finite number")
    return "%.17g"


def _target(path: str) -> str:
    """The file `path` names, through any symlink; a FIFO or device there is refused."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not (os.path.isfile(target) or os.path.isdir(target)):
        raise OSError(f"not a regular file: {path!r}")
    return target


def _write_atomic(path: str, chunks, *more):
    """Write text chunks, and each (path, chunks) pair in `more`, to a temp file beside
    _target(path); rename them only once all are written.  A failure leaves no temp
    file, and an OSError names the path it was writing."""
    temps = []
    try:
        for path, chunks in [(path, chunks), *more]:
            target = _target(path)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
            temps.append((path, tmp, target))
            with os.fdopen(fd, "w", newline="\n") as fh:
                # mkstemp creates the file 0600; give it the mode open() would.
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.writelines(chunks)
        for path, tmp, target in temps:
            os.replace(tmp, target)
    except BaseException as exc:
        for _, tmp, _ in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _write_csv(path: str, header, columns, *more):
    """Stream equal-length columns as CSV, one block of rows at a time, and write
    `more` with it through _write_atomic.

    Each column is converted, and checked, before the file is opened, so a non-finite
    value names the leftmost column holding one.  If every column is an int64 or float64
    array, _csvtext formats each block, else one %-template does: the same bytes.
    """
    columns = list(columns)
    conversions = [_conversion(name, col) for name, col in zip(header, columns)]
    filled = [col for col, conv in zip(columns, conversions) if conv]
    n, k, row = len(columns[0]), len(filled), ",".join(conversions) + "\n"
    numpy_rows = all(isinstance(col, np.ndarray) and col.dtype in (np.int64, np.float64)
                     for col in columns)
    if numpy_rows:
        from ._csvtext import format_block  # the same bytes, made by numpy

    def blocks():
        yield ",".join(header) + "\n"
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            if numpy_rows:
                yield format_block([col[start:start + m] for col in columns])
                continue
            flat = [None] * (m * k)
            for j, col in enumerate(filled):
                flat[j::k] = col[start:start + m]
            yield row * m % tuple(flat)

    _write_atomic(path, blocks(), *more)


def _finite(text: str) -> float:
    """A finite float; anything else, inf and nan included, is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise _UsageError(f"expected a finite number, got {text!r}")
    return value


def _parse_range(text: str):
    """`start:stop:count` (inclusive, count >= 2) or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError(f"bad range {text!r}, expected start:stop:count")
        start, stop = _finite(parts[0]), _finite(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise _UsageError(f"bad range {text!r}") from None
        if count < 2:
            raise _UsageError(f"range count must be >= 2 in {text!r}")
        step = (stop - start) / (count - 1)
        if not math.isfinite(step):
            raise _UsageError(f"range {text!r} is too wide: its step overflows")
        return [start + i * step for i in range(count - 1)] + [stop]
    return [_finite(v) for v in text.split(",")]


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="stein-shrink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help):
        command = sub.add_parser(name, help=help)
        command.set_defaults(run=run)
        return command

    c = add("cloud", _cmd_cloud, "simulate reduced observations")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--theta", type=_finite, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.add_argument("--svg")

    r = add("risk-curve", _cmd_risk_curve, "risk-difference sweep, exact/approx/optional MC")
    r.add_argument("--p", type=int, required=True)
    r.add_argument("--theta", required=True)
    r.add_argument("--c", required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True)
    r.add_argument("--mc-n", type=int, dest="mc_n")
    r.add_argument("--svg")

    k = add("conditional", _cmd_conditional, "two-point conditional loss breakdown")
    k.add_argument("--p", type=_finite, required=True)
    k.add_argument("--theta", type=_finite, required=True)
    k.add_argument("--c", type=_finite, required=True)
    k.add_argument("--out", required=True)

    g = add("geometry", _cmd_geometry, "projection construction report")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--theta", type=_finite, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--svg")

    s = add("special", _cmd_special, "exact and asymptotic chi-norm means")
    s.add_argument("--p", required=True)
    s.add_argument("--out", required=True)

    e = add("exceedance", _cmd_exceedance, "empirical P(|X| >= |theta|)")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--theta", type=_finite, required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", required=True)

    v = add("verify", _cmd_verify, "run the acceptance suite")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--fast", action="store_true")
    return parser


def _emit(args, header, columns, plot=None) -> int:
    """Write columns to --out as CSV and, given --svg, render_scatter(**plot) to it.

    The plot's input, and --svg, which must not name --out's file, are checked before
    either file is written; its blocks are streamed as the CSV's are, and neither file
    is replaced unless both are written.
    """
    svg = []
    if plot is not None and args.svg:
        if _target(args.svg) == _target(args.out):
            raise _UsageError(f"--out and --svg name the same file: {args.svg!r}")
        from .svgplot import render_scatter
        svg.append((args.svg, render_scatter(**plot)))
    _write_csv(args.out, header, columns, *svg)
    return 0


def _cmd_cloud(args) -> int:
    s = simulate_cloud(ProblemConfig(args.p, args.theta, args.seed), args.n)
    return _emit(args, ["idx", "x1", "r"], [np.arange(len(s.x1)), s.x1, s.r], plot=dict(
        xs=s.x1, ys=s.r, title=f"Reduced observations, p={args.p}, theta={args.theta:g}",
        xlabel="x1", ylabel="r",
    ))


def _cmd_risk_curve(args) -> int:
    thetas = _parse_range(args.theta)
    cs = _parse_range(args.c)
    if args.mc_n is not None and args.mc_n < 2:
        raise _UsageError(f"--mc-n must be >= 2, got {args.mc_n}")
    # One call for the whole grid, theta down and c across, in the order of the rows.
    theta_col, c_row = np.array(thetas)[:, None], np.array(cs)
    grid = risk_delta_exact(args.p, theta_col, c_row)
    exact = grid.ravel().tolist()
    approx = risk_delta_approx(args.p, theta_col, c_row).ravel().tolist()
    rows = [(args.p, t, c, ex, ap, None, None)
            for (t, c), ex, ap in zip(itertools.product(thetas, cs), exact, approx)]
    if args.mc_n:
        # One set of draws serves every theta and every c, in the order of the rows.
        configs = [ProblemConfig(args.p, t, args.seed) for t in thetas]
        ests = [est for per_t in estimate_delta_mc(configs, cs, args.mc_n) for est in per_t]
        rows = [row[:5] + (est.mean, est.stderr) for row, est in zip(rows, ests)]
    header = ["p", "theta", "c", "delta_exact", "delta_approx",
              "delta_mc_mean", "delta_mc_stderr"]
    return _emit(args, header, zip(*rows), plot=dict(  # one line per c
        xs=thetas, ys=grid, title=f"Exact risk difference, p={args.p}",
        xlabel="theta", ylabel="delta", mode="line", labels=[f"c = {c:g}" for c in cs],
    ))


def _cmd_conditional(args) -> int:
    from .plane import conditional_delta_closed, conditional_losses

    b = conditional_losses(args.p, args.theta, args.c)
    closed = conditional_delta_closed(args.p, args.theta, args.c)
    return _emit(args, ["p", "theta", "c", "l_plus_1", "l_plus_2", "l_minus_1", "l_minus_2",
                        "delta_direct", "delta_closed"],
                 zip((args.p, args.theta, args.c, b.l_plus_1, b.l_plus_2,
                      b.l_minus_1, b.l_minus_2, b.delta, closed)))


def _cmd_geometry(args) -> int:
    from .plane import ngo_projection

    rep = ngo_projection(args.p, args.theta)
    return _emit(args, ["ax", "ay", "bx", "by", "cx", "cy", "len_ab", "len_ob", "len_bc",
                        "shrink_factor"],
                 zip((rep.a[0], rep.a[1], rep.b[0], rep.b[1], rep.c_point[0], rep.c_point[1],
                      rep.len_ab, rep.len_ob, rep.len_bc, rep.shrink_factor)),
                 plot=dict(xs=[0.0, rep.a[0], rep.b[0], rep.c_point[0]],
                           ys=[0.0, rep.a[1], rep.b[1], rep.c_point[1]],
                           title="O, A, B and the projected point", xlabel="x1", ylabel="r"))


def _cmd_special(args) -> int:
    try:
        ps = [int(v) for v in args.p.split(",")]
    except ValueError:
        raise _UsageError(f"bad dimension list {args.p!r}") from None
    rows = [(p, expected_chi_norm(p), expected_chi_norm_asymptotic(p)) for p in ps]
    return _emit(args, ["p", "e_r_exact", "e_r_asymptotic"], zip(*rows))


def _cmd_exceedance(args) -> int:
    est = estimate_exceedance_prob(ProblemConfig(args.p, args.theta, args.seed), args.n)
    return _emit(args, ["p", "theta", "prob", "stderr"],
                 zip((args.p, args.theta, est.mean, est.stderr)))


def _cmd_verify(args) -> int:
    from . import acceptance

    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(seed=seed, fast=args.fast)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    return 0 if all(res.passed for res in results) else 1


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.run(args)
    except (_UsageError, ValueError, RuntimeError, ArithmeticError, OSError,
            MemoryError) as exc:
        blank = isinstance(exc, MemoryError) and not str(exc)  # as the allocator raises it
        print(f"error: {'out of memory' if blank else exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
