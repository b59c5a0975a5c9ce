import math
import os

import pytest

from stein_shrink import cli
from stein_shrink.conditional import conditional_delta_closed
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
5,0,1,1.6666666666666665,1,1.6734660906104788,0.0077376936503341567
5,0,3,3,1.8,3.0611948154943089,0.069639242853007502
5,5,1,0.19163016971217833,0.16666666666666666,0.18161605814096379,0.007922677171157173
5,5,3,0.344934305481921,0.29999999999999999,0.31243749624756789,0.025899627963931474
5,10,1,0.049494841921753116,0.047619047619047623,0.044064694020473562,0.0043672583611382813
5,10,3,0.089090715459155617,0.085714285714285715,0.072488949660430957,0.013372198311329896
"""

_GOLDEN_EXCEEDANCE = """\
p,theta,prob,stderr
20,1,1,0
"""


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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
        out = str(tmp_path / "x.csv")
        assert cli.run(["risk-curve", "--p", "5", "--theta", "1e200",
                        "--c", "1", "--out", out]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_output_directory_is_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "x.csv")
        assert cli.run(["special", "--p", "5", "--out", out]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, column", [
        (["conditional", "--p", "3", "--theta", "1e160", "--c", "1"], "delta_closed"),
        (["conditional", "--p", "1e200", "--theta", "1", "--c", "1"], "delta_closed"),
        (["risk-curve", "--p", "5", "--theta", "1", "--c", "1e200"], "delta_exact"),
    ], ids=["conditional-huge-theta", "conditional-huge-p", "risk-curve-huge-c"])
    def test_non_finite_output_is_exit_1(self, tmp_path, capsys, argv, column):
        out = tmp_path / "x.csv"
        assert cli.run(argv + ["--out", str(out)]) == 1
        # the error line alone: no numpy overflow warning before it
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {column} is")
        assert not out.exists()

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


class TestCloud:
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
