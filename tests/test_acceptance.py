"""Runs every verification criterion at its full stated tolerance and prints
one PASS/FAIL line per criterion (run pytest with -s or check captured output).

Criterion C07 pins the relative gap of the plug-in 1/(|theta|^2 + p) at
(p=3, lambda=0) to its closed form 2/p = 2/3, within 1e-12: at lambda = 0,
E[1/chi^2_p] = 1/(p-2) exactly, so the gap is 1 - (p-2)/p.  It also checks
Jensen's strict lower bound on a grid and a gap below 1% at (p=5, lambda=1e4).
"""

import re

import numpy as np
import pytest

from stein_shrink import acceptance, conditional_delta_closed, conditional_losses, monte_carlo

_RESULTS = {}


def _get(name_fn):
    if name_fn not in _RESULTS:
        _RESULTS[name_fn] = name_fn(acceptance.DEFAULT_SEED, False)
    return _RESULTS[name_fn]


@pytest.mark.parametrize(
    "criterion",
    acceptance._CRITERIA,
    ids=[fn.__name__ for fn in acceptance._CRITERIA],
)
def test_criterion(criterion):
    result = _get(criterion)
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_registry_lists_every_criterion_once_in_definition_order():
    defined = [name for name in vars(acceptance) if re.fullmatch(r"c\d\d_\w+", name)]
    assert len(defined) == 12
    assert defined == [fn.__name__ for fn in acceptance._CRITERIA]


_NUMBER = r"-?\d+\.\d+"


@pytest.mark.parametrize(
    "criterion, name, detail",
    [
        (
            acceptance.c03_exact_vs_mc,
            "C03 exact vs paired-MC risk difference over grid",
            # the shape perfbench/workloads.py parses to tag a p = 3 gate trip
            rf"cell \(p=3, theta={_NUMBER}, c={_NUMBER}\): exact {_NUMBER}, "
            rf"mc {_NUMBER} \+- {_NUMBER}, z={_NUMBER} > 4\.5",
        ),
        (
            acceptance.c04_dominance_window,
            "C04 dominance window (0, 2(p-2))",
            re.escape("delta not 0 at window edge (p=3, theta=0.0, c=2.0)"),
        ),
        (
            acceptance.c05_optimal_constant,
            "C05 optimal constant c = p-2",
            re.escape("argmax 1.25 != 1 at (p=3, theta=0.0)"),
        ),
    ],
    ids=["c03", "c04", "c05"],
)
def test_wrong_exact_risk_fails_under_own_name(monkeypatch, criterion, name, detail):
    # Adding c/2 shifts C03's first cell by 0.5 (many standard errors), lifts
    # the window edge c = 2(p-2) off zero and moves the argmax off p-2.
    exact = acceptance.risk_delta_exact
    monkeypatch.setattr(acceptance, "risk_delta_exact",
                        lambda p, t, c: exact(p, t, c) + 0.5 * np.asarray(c))
    result = criterion(acceptance.DEFAULT_SEED, False)
    assert (result.name, result.passed) == (name, False)
    assert re.fullmatch(detail, result.detail), result.detail


def test_every_criterion_passes_a_plain_bool():
    # C09's `and` of numpy comparisons gave np.True_ before `_criterion` coerced it
    for result in acceptance.run_all(seed=1000, fast=True):
        assert type(result.passed) is bool, result.name


def test_monte_carlo_runs_serial_or_on_two_threads(monkeypatch):
    # the sampling is CPU-bound: threads past a 2-core host's cores only hold more chunks
    seen = []
    map_chunks = monte_carlo._map_chunks

    def spy(config, tag, counts, chunk_fn, workers=1):
        seen.append(workers)
        return map_chunks(config, tag, counts, chunk_fn, workers)

    monkeypatch.setattr(monte_carlo, "_map_chunks", spy)
    acceptance.run_all(fast=True)
    assert set(seen) == {1, acceptance._WORKERS} == {1, 2}


def test_c08_far_check_is_centred_on_its_first_order_value():
    # at seed 913 the estimate sits 4.0 se above the limit 1/2 but 3.2 se
    # above 1/2 + (p-1)/(2 sqrt(2 pi) theta), the value at theta = 1e4
    result = acceptance.c08_exceedance(913, False)
    assert result.passed, result.detail
    assert "0.50200 +- 0.00050 (target 0.5003790)" in result.detail


# `verify --seed 17` (the default seed, full mode), line for line.  Any move of
# a Monte Carlo stream, reduction or exact routine shows here first.
_VERIFY_SEED_17 = [
    "PASS  C01 chi-norm mean table (formula authoritative at p=5): E(R): p=10 2.9180, "
    "p=17 3.9380, p=26 4.9503, p=5 1.8800 (printed 1.850 rejected)",
    "PASS  C02 factor-2 discriminator (p=3, theta=0, c=1): paired delta = 1.00078 +- 0.00408 "
    "(n=10000000); within 4.0 se of 1.0: True, outside 4.0 se of 0.5: True",
    "PASS  C03 exact vs paired-MC risk difference over grid: 64 cells, worst |z| = 1.42 at "
    "(3, 5.0, 1.0) (gate 4.5)",
    "PASS  C04 dominance window (0, 2(p-2)): positive inside, 0 at edges (1e-12), negative at "
    "2(p-2)+0.5, all 16 (p, theta)",
    "PASS  C05 optimal constant c = p-2: argmax within 0.0000 <= 0.01 of p-2 over all (p, theta)",
    "PASS  C06 conditional two-point algebra (direct vs closed form): worst relative gap 1.14e-15 "
    "over 10^4 draws; (p=3, theta=2, c=1) -> 0.575757575757576 vs 19/33 pinned: True",
    "PASS  C07 inverse-moment approximation quality: Jensen strict: True; gap(5, 1e4) = 4.00e-04 "
    "< 1%: True; gap(3, 0) = 0.666667 = 2/3 (closed form 2/p): True",
    "PASS  C08 exceedance probability obstruction (inf = 1/2): P(|X|>=|theta|) at theta=1e4: "
    "0.49988 +- 0.00050 (target 0.5003790); at theta=1: 1.00000 > 0.99: True",
    "PASS  C09 cloud regime (p=20, theta=25, n=2000): mean x1 24.974 (25), mean r^2 18.782 (19), "
    "mean |Z|^2 643.45 (645)",
    "PASS  C10 projection geometry and NGO agreement: worst identity/perpendicularity/agreement "
    "residual 3.33e-16 <= 1e-12",
    "PASS  C11 regularized-shrinkage asymptotic trend: target 9.0, tol 10%; theta=20: "
    "(a+theta^2)*delta = 9.585 (n=1473823); theta=40: (a+theta^2)*delta = 9.240 (n=5928357); "
    "theta=80: (a+theta^2)*delta = 9.133 (n=23740001)",
    "PASS  C12 byte-identical CSV determinism: 6 subcommands byte-identical across runs; "
    "MC bit-equal for 1 vs 2 workers",
]


def test_default_seed_prints_the_pinned_lines():
    # the same results test_criterion computed, from the cache
    got = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}"
           for r in map(_get, acceptance._CRITERIA)]
    assert got == _VERIFY_SEED_17


# C08 and C11 at seed 7, where C03 trips: each draws its chunks once for all its
# theta values, and these lines must stay as they are.
_SEED_7 = {
    acceptance.c08_exceedance:
        "P(|X|>=|theta|) at theta=1e4: 0.50059 +- 0.00050 (target 0.5003790); "
        "at theta=1: 1.00000 > 0.99: True",
    acceptance.c11_regularized_trend:
        "target 9.0, tol 10%; theta=20: (a+theta^2)*delta = 9.592 (n=1474070); "
        "theta=40: (a+theta^2)*delta = 9.089 (n=5929167); "
        "theta=80: (a+theta^2)*delta = 9.004 (n=23740598)",
}


@pytest.mark.parametrize("criterion", list(_SEED_7), ids=["c08", "c11"])
def test_seed_7_prints_the_pinned_detail(criterion):
    result = criterion(7, False)
    assert (result.passed, result.detail) == (True, _SEED_7[criterion])


def test_c06_array_draw_matches_the_scalar_loop(monkeypatch):
    # the reference: 10^4 rounds of scalar uniform() draws and scalar calls per seed
    calls = []
    monkeypatch.setattr(acceptance, "conditional_losses",
                        lambda *args: calls.append(args) or conditional_losses(*args))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        triples, worst = [], 0.0
        for _ in range(10_000):
            p = rng.uniform(2.0, 50.0)
            t = rng.uniform(0.0, 100.0)
            c = rng.uniform(-5.0, 3.0 * p)
            triples.append((p, t, c))
            a, b = conditional_losses(p, t, c).delta, conditional_delta_closed(p, t, c)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), p))
        calls.clear()
        detail = acceptance.c06_conditional_algebra(seed, False).detail
        drawn = calls[0]
        assert np.array_equal(np.column_stack(drawn), np.array(triples))
        a, b = conditional_losses(*drawn).delta, conditional_delta_closed(*drawn)
        gap = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), drawn[0])
        assert float(gap.max()) == worst
        assert detail.startswith(f"worst relative gap {worst:.2e} over 10^4 draws; ")
