import errno
import hashlib
import math
import os
import resource
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stein_shrink import cli, monte_carlo, svgplot
from stein_shrink.conditional import conditional_delta_closed
from stein_shrink.core import ProblemConfig
from stein_shrink.monte_carlo import simulate_cloud
from stein_shrink.special import expected_chi_norm


# Outputs recorded before the Monte Carlo functions were rebuilt on one
# shared chunk loop; a refactor must reproduce them byte for byte.
_GOLDEN_CLOUD = """\
idx,x1,r
0,2.0175536034694357,1.4364006686736046
1,1.4899555618220104,2.4053214866071202
2,0.1506651492838389,3.3111844726548139
3,2.6874985186115476,1.8582142242169106
4,2.3863072788229811,2.2062624898448409
5,1.7894130343661452,1.2973310620361251
6,2.1354536183821056,2.2027519997279335
7,4.0275274708943467,2.762750833161713
8,1.9649413006339556,2.2629824416861828
9,2.7025333573566201,3.0435921109005046
10,1.6984081345280562,2.4656447961406687
11,2.8709018063658043,2.6697257642696703
12,1.4436553162497647,1.2550233817935195
13,1.9270069918534583,0.83318813361624233
14,1.5792804490706842,1.2309614438351126
15,1.9942334959949695,2.2806943035906597
16,0.70871790703496118,1.5235595768644461
17,1.8946279253626623,1.6867938067146566
18,2.1730341741887638,2.6509021850001342
19,0.57346862178985369,2.7470675168357728
20,2.0609790264990577,1.9075770001714181
21,0.80929656845249132,2.9611510224956024
22,1.0660866216642106,2.8758904487968286
23,3.01601009071143,3.5800771312957833
24,2.18664270121424,2.2895952875260543
25,3.0844299613170221,1.619914811272245
26,1.6081230629934378,3.2873023303416211
27,0.95793380814087881,2.2778365710151105
28,1.9808395070819929,0.65794420939917653
29,0.84764738701855236,0.65714514521562295
30,1.99929808433325,1.567077486201083
31,2.0541777690202401,1.6483209947422208
32,2.4235436963777142,1.270489319555165
33,1.8367508711038754,1.786390766228614
34,0.8262027152735576,2.1087518285597557
35,2.1838489504853293,2.9199972344442311
36,2.8948152393659696,1.1750444605343175
37,3.4044848333017312,2.7467910390407972
38,1.5560819239038259,1.777188873218458
39,1.3828737571194116,2.2798515719983539
40,1.0563066582346043,2.3295694373905906
41,2.1565331154109089,2.3321372839356931
42,0.90415791603883777,2.6609774410892624
43,2.999450784111203,2.8862875624905193
44,0.89072852902204525,1.2121543260396523
45,0.47083025064598694,1.3843200320202318
46,1.7887994387562369,0.84635996702569993
47,1.7876757346965662,2.8415044584024693
48,3.2127520756471806,0.89952614514105977
49,1.3154148439835303,0.91898356674066883
"""

_GOLDEN_RISK_CURVE = """\
p,theta,c,delta_exact,delta_approx,delta_mc_mean,delta_mc_stderr
5,0,1,1.6666666666666665,1,1.6734660906104786,0.0077376936503341723
5,0,3,3,1.8,3.0611948154943089,0.069639242853007502
5,5,1,0.19163016971217833,0.16666666666666666,0.18161605814096382,0.007922677171157173
5,5,3,0.344934305481921,0.29999999999999999,0.31243749624756789,0.025899627963931474
5,10,1,0.049494841921753116,0.047619047619047623,0.044064694020473513,0.0043672583611382831
5,10,3,0.089090715459155617,0.085714285714285715,0.072488949660430901,0.013372198311329896
"""
# The delta_mc_* columns above when the paired difference was the difference
# of two losses, scored per chunk.
_OLD_RISK_CURVE_MC = [
    (1.6734660906104788, 0.0077376936503341567), (3.0611948154943089, 0.069639242853007502),
    (0.18161605814096379, 0.007922677171157173), (0.31243749624756789, 0.025899627963931474),
    (0.044064694020473562, 0.0043672583611382813), (0.072488949660430957, 0.013372198311329896),
]

_GOLDEN_EXCEEDANCE = """\
p,theta,prob,stderr
20,1,1,0
"""


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


_SRC = Path(__file__).resolve().parents[1] / "src"
_HUGE_N = str(10**20)  # above monte_carlo.MAX_N


def _run_capped(argv, cwd, seconds=10, address_space=2 << 30):
    """`python -m stein_shrink.cli *argv` in cwd, under a timeout and an address-space cap."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    # one BLAS thread: each reserves tens of MB of address space, so on a
    # many-core host numpy's import alone could exceed the cap
    env = dict(os.environ, PYTHONPATH=str(_SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "stein_shrink.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=seconds, preexec_fn=cap, env=env)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.run(["frobnicate"]) == 2

    def test_missing_flag_is_usage_error(self, capsys):
        assert cli.run(["cloud", "--p", "5"]) == 2

    def test_bad_range_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert cli.run(["risk-curve", "--p", "5", "--theta", "0:1",
                        "--c", "1", "--out", out]) == 2

    def test_domain_error_is_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert cli.run(["risk-curve", "--p", "2", "--theta", "0:10:3",
                        "--c", "1", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_geometry_degenerate_is_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert cli.run(["geometry", "--p", "5", "--theta", "0", "--out", out]) == 1

    @pytest.mark.parametrize("argv", [
        ["risk-curve", "--p", "5", "--theta", "inf", "--c", "1"],
        ["risk-curve", "--p", "5", "--theta", "nan", "--c", "1"],
        ["risk-curve", "--p", "5", "--theta", "0:inf:3", "--c", "1"],
        ["risk-curve", "--p", "5", "--theta", "1", "--c", "1,nan"],
        ["exceedance", "--p", "20", "--theta", "nan", "--n", "100"],
        ["cloud", "--p", "5", "--theta", "inf", "--n", "10"],
        ["conditional", "--p", "3", "--theta", "2", "--c=-inf"],
    ], ids=["risk-curve-inf", "risk-curve-nan", "range-inf", "c-list-nan",
            "exceedance-nan", "cloud-inf", "conditional-inf"])
    def test_non_finite_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert cli.run(argv + ["--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mc_n", ["0", "1"])
    def test_mc_n_below_two_is_usage_error(self, tmp_path, capsys, mc_n):
        out = str(tmp_path / "x.csv")
        assert cli.run(["risk-curve", "--p", "5", "--theta", "1", "--c", "1",
                        "--mc-n", mc_n, "--out", out]) == 2

    def test_overflowing_theta_is_exit_1(self, tmp_path, capsys):
        # the exact route passes theta^2 overflow; the Monte Carlo |x|^2 is inf,
        # and g |x|^2 = 0 * inf a NaN, not a silent 0,0
        out = str(tmp_path / "x.csv")
        assert cli.run(["risk-curve", "--p", "5", "--theta", "1e160",
                        "--c", "1", "--mc-n", "100", "--out", out]) == 1
        assert capsys.readouterr().err == "error: delta_mc_mean is nan, not a finite number\n"
        assert list(tmp_path.iterdir()) == []

    def test_exact_route_past_theta_squared_overflow(self, tmp_path):
        out = tmp_path / "x.csv"
        assert cli.run(["risk-curve", "--p", "5", "--theta", "1e160,1e300",
                        "--c", "1", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [row[3:5] for row in rows] == [["4.999944335913415e-320"] * 2, ["0", "0"]]

    def test_missing_output_directory_is_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "x.csv")
        assert cli.run(["special", "--p", "5", "--out", out]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, column", [
        (["conditional", "--p", "3", "--theta", "1e160", "--c", "1"], "delta_closed"),
        (["conditional", "--p", "1e200", "--theta", "1", "--c", "1"], "delta_closed"),
        (["risk-curve", "--p", "5", "--theta", "1", "--c", "1e200"], "delta_exact"),
        (["risk-curve", "--p", "5", "--theta", "1", "--c", "1e308"], "delta_exact"),
        (["risk-curve", "--p", "5", "--theta", "1", "--c", "1e300", "--mc-n", "100"],
         "delta_exact"),
        (["risk-curve", "--p", "3", "--theta", "0:1:2", "--c", "1e150", "--mc-n", "100000"],
         "delta_mc_stderr"),
    ], ids=["conditional-huge-theta", "conditional-huge-p", "risk-curve-huge-c",
            "risk-curve-c-inf-minus-inf", "risk-curve-mc-overflow",
            "risk-curve-mc-stderr-overflow"])
    def test_non_finite_output_is_exit_1(self, tmp_path, capsys, argv, column):
        out = tmp_path / "x.csv"
        assert cli.run(argv + ["--out", str(out)]) == 1
        # the error line alone: no numpy overflow warning before it (pytest
        # would raise one); an overflowed MC square sum is a NaN stderr, not 0
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {column} is")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["risk-curve", "--p", "5", "--theta", "-1", "--c", "1"],
        ["risk-curve", "--p", "5", "--theta", "-1", "--c", "1", "--mc-n", "100"],
        ["conditional", "--p", "3", "--theta", "-1", "--c", "1"],
        ["cloud", "--p", "5", "--theta", "-1", "--n", "10"],
        ["exceedance", "--p", "20", "--theta", "-1", "--n", "100"],
    ], ids=["risk-curve", "risk-curve-mc", "conditional", "cloud", "exceedance"])
    def test_negative_theta_is_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert cli.run(argv + ["--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: theta_norm must be >= 0, got -1.0"
        assert list(tmp_path.iterdir()) == []

    def test_negative_theta_in_mc_grid_fails_before_any_draw(self, tmp_path, capsys,
                                                             monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking every theta")

        monkeypatch.setattr(monte_carlo, "_map_chunks", no_draws)
        assert cli.run(["risk-curve", "--p", "5", "--theta=1:-1:3", "--c", "1",
                        "--mc-n", "100000", "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: theta_norm must be >= 0, got -1.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["csv-dir-missing", "svg-dir-missing", "csv-is-a-dir"])
    def test_unwritable_output_names_the_given_path(self, tmp_path, capsys, kind):
        csv, bad = str(tmp_path / "c.csv"), str(tmp_path / "no-such-dir" / "x")
        argv = ["cloud", "--p", "5", "--theta", "1", "--n", "10", "--out"]
        if kind == "svg-dir-missing":
            argv += [csv, "--svg", bad]
        elif kind == "csv-is-a-dir":
            bad = str(tmp_path / "d")
            os.mkdir(bad)
            argv += [bad]
        else:
            argv += [bad]
        code = errno.EISDIR if kind == "csv-is-a-dir" else errno.ENOENT
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {code}] {os.strerror(code)}: {bad!r}\n")
        # no temp file is left beside the path, nor a CSV beside a failed SVG
        assert not list(tmp_path.rglob("*.tmp"))
        assert not os.path.exists(csv)

    def test_overflowing_range_step_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.run(["risk-curve", "--p", "5", "--theta=-1e308:1e308:3",
                        "--c", "1", "--out", str(out)]) == 2
        assert "-1e308:1e308:3" in capsys.readouterr().err
        assert not out.exists()


class TestOutputFiles:
    def test_mode_follows_umask(self, tmp_path):
        csv, svg = tmp_path / "c.csv", tmp_path / "c.svg"
        old = os.umask(0o027)
        try:
            assert cli.run(["cloud", "--p", "5", "--theta", "2", "--n", "50",
                            "--out", str(csv), "--svg", str(svg)]) == 0
        finally:
            os.umask(old)
        assert os.stat(csv).st_mode & 0o777 == 0o640
        assert os.stat(svg).st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("argv, golden", [
        (["cloud", "--p", "5", "--theta", "2", "--n", "50", "--seed", "3"],
         _GOLDEN_CLOUD),
        (["risk-curve", "--p", "5", "--theta", "0:10:3", "--c", "1,3",
          "--mc-n", "2000", "--seed", "7"], _GOLDEN_RISK_CURVE),
        (["exceedance", "--p", "20", "--theta", "1", "--n", "500", "--seed", "7"],
         _GOLDEN_EXCEEDANCE),
    ], ids=["cloud", "risk-curve", "exceedance"])
    def test_golden_bytes(self, tmp_path, argv, golden):
        out = tmp_path / "out.csv"
        assert cli.run(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == golden.encode()

    def test_golden_risk_curve_moved_only_by_rounding(self):
        rows = [line.split(",")[5:] for line in _GOLDEN_RISK_CURVE.splitlines()[1:]]
        for row, old in zip(rows, _OLD_RISK_CURVE_MC, strict=True):
            assert list(map(float, row)) == pytest.approx(old, rel=1e-14, abs=0.0)


class TestCsvWriter:
    def test_non_finite_names_the_leftmost_such_column(self, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(ArithmeticError, match=r"^b is nan, not a finite number$"):
            cli._write_csv(str(out), ["a", "b", "c"],
                           [(1, 2), (2.0, math.nan), (math.inf, 3.0)])
        assert list(tmp_path.iterdir()) == []

    def test_failure_mid_stream_keeps_the_old_file(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"old\n")

        def blocks():
            yield "new\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._write_atomic(str(out), blocks())
        assert out.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_failure_in_a_later_file_replaces_neither(self, tmp_path):
        first, second = tmp_path / "x.csv", tmp_path / "x.svg"
        first.write_bytes(b"old csv\n")
        second.write_bytes(b"old svg\n")

        def blocks():
            yield "new svg\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._write_atomic(str(first), ["new csv\n"], (str(second), blocks()))
        assert (first.read_bytes(), second.read_bytes()) == (b"old csv\n", b"old svg\n")
        assert sorted(tmp_path.iterdir()) == [first, second]

    def test_integer_column_is_written_exactly(self, tmp_path):
        out = tmp_path / "special.csv"
        assert cli.run(["special", "--p", "5,100000000000000001", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [r[0] for r in rows] == ["5", "100000000000000001"]
        assert float(rows[1][1]) == pytest.approx(math.sqrt(1e17), rel=1e-15)


class TestOutputTarget:
    _ARGV = ["special", "--p", "5", "--out"]

    def test_symlink_is_written_through_to_its_file(self, tmp_path):
        direct, real, link = tmp_path / "direct.csv", tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_bytes(b"old\n")
        link.symlink_to(real)
        assert cli.run(self._ARGV + [str(direct)]) == 0
        assert cli.run(self._ARGV + [str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == direct.read_bytes()

    def test_dangling_symlink_creates_its_file(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        link.symlink_to(real)
        assert cli.run(self._ARGV + [str(link)]) == 0
        assert link.is_symlink() and real.read_text().startswith("p,e_r_exact,")

    @pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "symlink-to-fifo"])
    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_fifo_is_refused_and_left_as_it_is(self, tmp_path, capsys, via_link, flag):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        path = fifo
        if via_link:
            path = tmp_path / "link"
            path.symlink_to(fifo)
        argv = ["geometry", "--p", "5", "--theta", "2", "--out", str(tmp_path / "g.csv")]
        argv = argv[:-1] + [str(path)] if flag == "--out" else argv + ["--svg", str(path)]
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == f"error: not a regular file: {str(path)!r}\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert not via_link or path.is_symlink()
        assert sorted(tmp_path.iterdir()) == sorted({fifo, path})


class TestCloud:
    def test_rows_span_several_blocks(self, tmp_path):
        n = 2 * cli._BLOCK + 7
        out = tmp_path / "cloud.csv"
        assert cli.run(["cloud", "--p", "5", "--theta", "2", "--n", str(n),
                        "--seed", "3", "--out", str(out)]) == 0
        sample = simulate_cloud(ProblemConfig(5, 2.0, 3), n)
        want = "idx,x1,r\n" + "".join(
            f"{i},{format(x1, '.17g')},{format(r, '.17g')}\n"
            for i, (x1, r) in enumerate(zip(sample.x1.tolist(), sample.r.tolist()))
        )
        assert out.read_bytes() == want.encode()

    def test_csv_shape_and_roundtrip(self, tmp_path):
        out = tmp_path / "cloud.csv"
        code = cli.run(["cloud", "--p", "20", "--theta", "25", "--n", "100",
                        "--seed", "7", "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["idx", "x1", "r"]
        assert len(rows) == 100
        for i, row in enumerate(rows):
            assert int(row[0]) == i
            assert float(row[2]) >= 0
            # 17 significant digits round-trip exactly
            assert format(float(row[1]), ".17g") == row[1]

    def test_byte_determinism(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cli.run(["cloud", "--p", "5", "--theta", "2", "--n", "50",
                     "--seed", "3", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_svg_output(self, tmp_path):
        out = tmp_path / "c.csv"
        svg = tmp_path / "c.svg"
        cli.run(["cloud", "--p", "5", "--theta", "2", "--n", "50",
                 "--seed", "3", "--out", str(out), "--svg", str(svg)])
        text = svg.read_text()
        assert text.startswith("<svg") and "circle" in text


class TestRiskCurve:
    def test_columns_and_exact_value(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = cli.run(["risk-curve", "--p", "3", "--theta", "0:50:51",
                        "--c", "1", "--seed", "7", "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["p", "theta", "c", "delta_exact", "delta_approx",
                          "delta_mc_mean", "delta_mc_stderr"]
        assert len(rows) == 51
        first = rows[0]
        assert float(first[1]) == 0.0
        assert float(first[3]) == pytest.approx(1.0, rel=1e-12)
        # MC columns empty without --mc-n
        assert first[5] == "" and first[6] == ""

    def test_svg_output(self, tmp_path):
        out, svg = tmp_path / "curve.csv", tmp_path / "curve.svg"
        assert cli.run(["risk-curve", "--p", "5", "--theta", "0:10:5", "--c", "1",
                        "--out", str(out), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "<polyline" in text

    def test_mc_columns_populated(self, tmp_path):
        out = tmp_path / "curve.csv"
        cli.run(["risk-curve", "--p", "5", "--theta", "2", "--c", "1,3",
                 "--seed", "7", "--mc-n", "5000", "--out", str(out)])
        _, rows = _read_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row[6]) > 0


class TestOtherSubcommands:
    def test_conditional_matches_library(self, tmp_path):
        out = tmp_path / "cond.csv"
        assert cli.run(["conditional", "--p", "3", "--theta", "2",
                        "--c", "1", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header[-2:] == ["delta_direct", "delta_closed"]
        assert float(rows[0][-1]) == pytest.approx(conditional_delta_closed(3, 2, 1))
        assert float(rows[0][-2]) == pytest.approx(19 / 33, rel=1e-12)

    def test_geometry_values(self, tmp_path):
        out = tmp_path / "geom.csv"
        assert cli.run(["geometry", "--p", "5", "--theta", "3",
                        "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["cx"]) == pytest.approx(27 / 13)
        assert float(row["shrink_factor"]) == pytest.approx(9 / 13)
        assert float(row["len_bc"]) == pytest.approx(4 / math.sqrt(13))

    def test_geometry_svg_marks_o_a_b_c(self, tmp_path):
        out, svg = tmp_path / "geom.csv", tmp_path / "geom.svg"
        assert cli.run(["geometry", "--p", "5", "--theta", "3",
                        "--out", str(out), "--svg", str(svg)]) == 0
        assert svg.read_text().count("<circle") == 4

    def test_special_table(self, tmp_path):
        out = tmp_path / "special.csv"
        assert cli.run(["special", "--p", "5,10,17,26", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [int(r[0]) for r in rows] == [5, 10, 17, 26]
        assert float(rows[1][1]) == pytest.approx(expected_chi_norm(10))
        assert float(rows[0][2]) == pytest.approx(1.875)

    def test_exceedance(self, tmp_path):
        out = tmp_path / "exc.csv"
        assert cli.run(["exceedance", "--p", "20", "--theta", "1", "--n", "20000",
                        "--seed", "7", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert float(rows[0][2]) > 0.99

    def test_exceedance_at_huge_theta(self, tmp_path):
        # |X| >= |theta| comes down to the sign of the noise along theta
        out = tmp_path / "exc.csv"
        assert cli.run(["exceedance", "--p", "20", "--theta", "1e200", "--n",
                        "100000", "--seed", "7", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        prob, stderr = float(rows[0][2]), float(rows[0][3])
        assert stderr > 0
        assert abs(prob - 0.5) <= 4 * stderr

    def test_geometry_at_huge_theta(self, tmp_path):
        out = tmp_path / "geom.csv"
        assert cli.run(["geometry", "--p", "5", "--theta", "1e200",
                        "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["len_ob"]) == 1e200
        assert float(row["len_bc"]) == pytest.approx(4e-200)


class TestVerify:
    def test_fast_mode_passes_every_criterion_in_order(self, capsys):
        assert cli.run(["verify", "--fast", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line[:9] for line in lines] == [f"PASS  C{i:02d}" for i in range(1, 13)]


class TestEntryPoint:
    """`python -m stein_shrink.cli` in a fresh interpreter, through main()."""

    @staticmethod
    def _main(*argv):
        return subprocess.run(
            [sys.executable, "-m", "stein_shrink.cli", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(_SRC)),
        )

    def test_writes_what_run_writes(self, tmp_path):
        out, ref = tmp_path / "main.csv", tmp_path / "run.csv"
        proc = self._main("special", "--p", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert cli.run(["special", "--p", "5", "--out", str(ref)]) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_usage_error_exits_2(self):
        proc = self._main("cloud", "--p", "5")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


class TestParsing:
    @pytest.mark.parametrize("argv, message", [
        (["--theta", "abc", "--c", "1"], "expected a finite number, got 'abc'"),
        (["--theta", "0:1:2.5", "--c", "1"], "bad range '0:1:2.5'"),
        (["--theta", "0:1:1", "--c", "1"], "range count must be >= 2 in '0:1:1'"),
    ], ids=["theta-not-a-number", "count-not-an-integer", "count-below-two"])
    def test_bad_grid_is_usage_error(self, tmp_path, capsys, argv, message):
        assert cli.run(["risk-curve", "--p", "5", *argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, text, values", [
        ("--c", "1:5:5", [1.0, 2.0, 3.0, 4.0, 5.0]),
        ("--theta", "0,1,5", [0.0, 1.0, 5.0]),
    ], ids=["c-range", "theta-list"])
    def test_theta_and_c_share_one_grammar(self, tmp_path, flag, text, values):
        out = tmp_path / "x.csv"
        other = "--theta" if flag == "--c" else "--c"
        assert cli.run(["risk-curve", "--p", "5", flag, text, other, "2",
                        "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        column = 2 if flag == "--c" else 1
        assert [float(row[column]) for row in rows] == values

    def test_bad_dimension_list_is_usage_error(self, tmp_path, capsys):
        assert cli.run(["special", "--p", "5,x", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: bad dimension list '5,x'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["cloud", "--p", "5", "--theta", "1", "--n", "0"], "need 1 <= n"),
        (["exceedance", "--p", "5", "--theta", "1", "--n", "1"], "need 2 <= n"),
    ], ids=["cloud-n-0", "exceedance-n-1"])
    def test_too_few_draws_is_exit_1(self, tmp_path, capsys, argv, message):
        assert cli.run(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []


class TestParserCache:
    """`run` builds its parser once per process; no call sees what another parsed."""

    _CURVE = ["risk-curve", "--p", "5", "--theta", "0:2:3", "--c", "1,3", "--seed", "7",
              "--out", "r.csv"]

    @staticmethod
    def _runs(where, monkeypatch, capsys, *argvs):
        """From a fresh parser, each argv in turn in `where`: exit code, stderr, files left."""
        cli._build_parser.cache_clear()
        where.mkdir()
        monkeypatch.chdir(where)
        seen = []
        for argv in argvs:
            code = cli.run(argv)
            files = {f.name: f.read_bytes() for f in sorted(where.iterdir())}
            for name in files:
                (where / name).unlink()
            seen.append((code, capsys.readouterr().err, files))
        return seen

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_mc_and_svg_do_not_carry_over(self, tmp_path, monkeypatch, capsys):
        mc = self._CURVE + ["--mc-n", "2000", "--svg", "s.svg"]
        both = self._runs(tmp_path / "both", monkeypatch, capsys, mc, self._CURVE)
        assert both == (self._runs(tmp_path / "mc", monkeypatch, capsys, mc)
                        + self._runs(tmp_path / "plain", monkeypatch, capsys, self._CURVE))
        assert sorted(both[0][2]) == ["r.csv", "s.svg"]
        assert list(both[1][2]) == ["r.csv"]
        rows = both[1][2]["r.csv"].decode().splitlines()[1:]
        assert [row.split(",")[5:] for row in rows] == [["", ""]] * 6

    @pytest.mark.parametrize("bad", [
        ["cloud", "--p", "5"],
        ["risk-curve", "--p", "x", "--theta", "1", "--c", "1", "--out", "x.csv"],
    ], ids=["missing-flag", "bad-int"])
    def test_usage_error_leaves_nothing_behind(self, tmp_path, monkeypatch, capsys, bad):
        turns = self._runs(tmp_path / "turns", monkeypatch, capsys, bad, self._CURVE, bad)
        first = (self._runs(tmp_path / "bad", monkeypatch, capsys, bad)
                 + self._runs(tmp_path / "good", monkeypatch, capsys, self._CURVE))
        assert turns == first + first[:1]
        assert [code for code, _, _ in turns] == [2, 0, 2]
        assert turns[0][1].startswith("error: ") and "usage: stein-shrink" in turns[0][1]


class TestSizeCap:
    @pytest.mark.parametrize("argv", [
        ["risk-curve", "--p", "3", "--theta", "0:4:5", "--c", "1", "--mc-n", str(10**15)],
        ["cloud", "--p", "3", "--theta", "0", "--n", _HUGE_N],
        ["exceedance", "--p", "3", "--theta", "0", "--n", _HUGE_N],
    ], ids=["risk-curve", "cloud", "exceedance"])
    def test_n_above_the_cap_exits_1_before_any_draw(self, tmp_path, argv):
        proc = _run_capped(argv + ["--out", "x.csv"], tmp_path)
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: need ") and f"n <= {monte_carlo.MAX_N}, got" in line
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_is_exit_1(self, tmp_path, capsys, monkeypatch):
        def exhausted(config, n):
            raise MemoryError("cannot hold the cloud")

        monkeypatch.setattr(cli, "simulate_cloud", exhausted)
        assert cli.run(["cloud", "--p", "3", "--theta", "0", "--n", "10",
                        "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: cannot hold the cloud\n"
        assert list(tmp_path.iterdir()) == []


    def test_textless_memory_error_says_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # an allocation failure raises MemoryError() with no message
        def exhausted(config, n):
            raise MemoryError()

        monkeypatch.setattr(cli, "simulate_cloud", exhausted)
        assert cli.run(["cloud", "--p", "3", "--theta", "0", "--n", "10",
                        "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []


class TestPlot:
    def test_flat_x_range_at_huge_theta(self, tmp_path):
        # x1 = 1e20 + z rounds to 1e20 for every draw, and 1e20 +- 1.0 to 1e20
        out, svg = tmp_path / "c.csv", tmp_path / "c.svg"
        assert cli.run(["cloud", "--p", "3", "--theta", "1e20", "--n", "50",
                        "--out", str(out), "--svg", str(svg)]) == 0
        assert svg.read_text().count('<circle cx="425.00"') == 50

    @pytest.mark.parametrize("x, y, where", [
        (1e300, 1e300, 'cx="425.00" cy="295.00"'),
        (sys.float_info.max, -sys.float_info.max, 'cx="780.00" cy="550.00"'),
    ], ids=["1e300", "float-max"])
    def test_flat_range_at_any_finite_magnitude(self, x, y, where):
        text = "".join(svgplot.render_scatter([x, x], [y, y], "t", "x", "y"))
        assert text.count(f"<circle {where}") == 2

    # sha256 of each document as rendered before it was streamed in blocks of
    # points; the cloud and the line cover two blocks each
    @pytest.mark.parametrize("argv, digest", [
        (["cloud", "--p", "3", "--theta", "0", "--n", "5000", "--seed", "3"],
         "ef59de925911edb5f2689cfc675cc1f73f8ba03ed1363b2a6f8c184a97bcc7b6"),
        (["risk-curve", "--p", "5", "--theta", "0:50:1500", "--c", "1,3,6"],
         "fa973e482a8a03aaab02b87ad41f142b3166c6901543dbdd31aac84414297360"),
        (["geometry", "--p", "5", "--theta", "3"],
         "24a314860668b9bd749e5be01c63d3d47d1a297df4a2054d67b456b227c71f96"),
    ], ids=["cloud", "risk-curve", "geometry"])
    def test_svg_bytes_are_pinned(self, tmp_path, argv, digest):
        svg = tmp_path / "p.svg"
        assert cli.run(argv + ["--out", str(tmp_path / "p.csv"), "--svg", str(svg)]) == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest

    def test_svg_is_streamed_not_held_whole(self, tmp_path):
        # the whole document, one string per point, peaked at 49 MiB; the CSV alone takes 5
        argv = ["cloud", "--p", "20", "--theta", "25", "--n", "200000", "--seed", "7",
                "--out", str(tmp_path / "c.csv"), "--svg", str(tmp_path / "c.svg")]
        tracemalloc.start()
        try:
            assert cli.run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_failed_plot_writes_neither_file(self, tmp_path, capsys, monkeypatch):
        def broken(**plot):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "render_scatter", broken)
        assert cli.run(["cloud", "--p", "3", "--theta", "1", "--n", "10", "--out",
                        str(tmp_path / "c.csv"), "--svg", str(tmp_path / "c.svg")]) == 1
        assert capsys.readouterr().err == "error: float division by zero\n"
        assert list(tmp_path.iterdir()) == []


def _field(common, edges):
    """Mostly common values, so that an edge value is often the only one in its argv."""
    return st.sampled_from(common * 3 + edges)


_SEED = _field(["0", "7"], ["-1", str(2**64)])
_N = _field(["2", "40"], ["0", "1", _HUGE_N])
_P = _field(["3", "5"], ["1", "1e20", str(10**20)])
_THETA = _field(["0", "2.5"], ["1e20", "1e308", "0:3:3", "0,1,5", "", "abc"])
_C = _field(["1", "1,3"], ["1e308", "1:5:3", ""])


@st.composite
def _argv(draw):
    """One command line of every subcommand's grammar, with edge values in each field."""
    command = draw(st.sampled_from(["cloud", "risk-curve", "conditional", "geometry",
                                    "special", "exceedance", "verify"]))
    if command == "verify":
        return [command, "--fast", f"--seed={draw(st.sampled_from(['-1', str(2**64)]))}"]
    if command == "special":
        p = draw(_field(["5", "5,10"], ["", "5,x", str(10**20)]))
        return [command, f"--p={p}", "--out", "out.csv"]
    argv = [command, f"--p={draw(_P)}", f"--theta={draw(_THETA)}"]
    if command in ("risk-curve", "conditional"):
        argv.append(f"--c={draw(_C)}")
    if command in ("cloud", "exceedance"):
        argv += [f"--n={draw(_N)}", f"--seed={draw(_SEED)}"]
    if command == "risk-curve" and draw(st.booleans()):
        argv += [f"--mc-n={draw(_N)}", f"--seed={draw(_SEED)}"]
    argv += ["--out", "out.csv"]
    if command in ("cloud", "risk-curve", "geometry") and draw(st.booleans()):
        argv += ["--svg", "out.svg"]
    return argv


class TestContract:
    """Any command line exits 0, 1 or 2; a failure is one `error:` line and no file."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argv())
    def test_exit_code_message_and_files(self, argv):
        with tempfile.TemporaryDirectory() as d:
            proc = _run_capped(argv, d)
            files = sorted(os.listdir(d))
        assert proc.returncode in (0, 1, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            assert proc.stderr == ""
            assert files == sorted(a for a in ("out.csv", "out.svg") if a in argv)
        else:
            assert [line for line in proc.stderr.splitlines()
                    if line.startswith("error:")] == proc.stderr.splitlines()[:1]
            assert files == []
