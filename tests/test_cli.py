"""Command-line interface: grids, config files, CSV output, exit codes."""

import math
import types

import numpy as np
import pytest

from cifc_cms import cli, gaussian, gdof


class TestParseGrid:
    def test_range(self):
        assert cli.parse_grid("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_range_default_step(self):
        assert cli.parse_grid("0:4", integer=True) == [0, 1, 2, 3, 4]

    def test_comma_list(self):
        assert cli.parse_grid("1,3,5", integer=True) == [1, 3, 5]

    def test_single_value(self):
        assert cli.parse_grid("2.5") == [2.5]

    def test_inclusive_endpoint_with_float_step(self):
        grid = cli.parse_grid("0:3:0.25")
        assert grid[0] == 0.0 and grid[-1] == 3.0
        assert len(grid) == 13

    def test_bad_spec_raises(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_grid("5:1")
        with pytest.raises(cli.ConfigError):
            cli.parse_grid("a:b")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nnd = 0:2\nni=1\nseed = 9\n")
        loaded = cli.load_config_file(str(cfg))
        assert loaded == {"nd": "0:2", "ni": "1", "seed": "9"}

    def test_malformed_line_raises(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config_file(str(cfg))

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out.csv"
        cfg.write_text("nd=3\nni=1\nk=3\n")
        rc = cli.main(["ldc-verify", "--config", str(cfg),
                       "--nd", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("2,1,3,")  # flag value won over config

    def test_unknown_config_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        rc = cli.main(["ldc-verify", "--config", str(cfg)])
        assert rc == 2


class TestLdcVerify:
    def test_symmetric_grid(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = cli.main(["ldc-verify", "--nd", "0:2", "--ni", "0:2",
                       "--k", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "nd,ni,k,sum_rate,outer_bound,verified,mode"
        assert len(lines) == 1 + 9
        row = dict(zip(lines[0].split(","), lines[5].split(",")))
        assert row["verified"] == "true"

    def test_gains_file(self, tmp_path):
        gains = tmp_path / "g.txt"
        gains.write_text("3 1 2\n0 4 1\n2 2 5\n")
        out = tmp_path / "v.csv"
        rc = cli.main(["ldc-verify", "--gains-file", str(gains),
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[3] == "10"  # sum rate equals the outer bound

    def test_empty_grid_writes_header_only(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = cli.main(["ldc-verify", "--nd", "", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines() == [
            "nd,ni,k,sum_rate,outer_bound,verified,mode"]

    def test_scheme_above_stated_capacity_is_a_violation(self, tmp_path,
                                                         monkeypatch):
        # the (2,1,3) scheme carries 5 bits; a stated capacity of 4
        # cannot be an upper bound
        monkeypatch.setattr(
            cli.ldc, "ldc_k_sym_sum_capacity",
            lambda nd, ni, k: cli.ldc.SumRateBound(4, (("low", 4),)))
        out = tmp_path / "v.csv"
        rc = cli.main(["ldc-verify", "--nd", "2", "--ni", "1", "--k", "3",
                       "--out", str(out)])
        assert rc == 1
        assert out.read_text().splitlines()[1] == "2,1,3,5,4,true,exhaustive"

    def test_failed_verification_writes_false(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli.ldc, "verify_scheme",
            lambda g, s: types.SimpleNamespace(passed=False,
                                               mode="exhaustive"))
        out = tmp_path / "v.csv"
        rc = cli.main(["ldc-verify", "--nd", "2", "--ni", "1", "--k", "3",
                       "--out", str(out)])
        assert rc == 1
        assert out.read_text().splitlines()[1] == "2,1,3,5,5,false,exhaustive"

    def test_bad_gains_file(self, tmp_path):
        gains = tmp_path / "g.txt"
        gains.write_text("1 2\n3 4\n")  # 2x2: not supported
        rc = cli.main(["ldc-verify", "--gains-file", str(gains),
                       "--out", str(tmp_path / "v.csv")])
        assert rc == 2


def ldc_outer_rows(path):
    lines = path.read_text().splitlines()
    return [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]


class TestLdcOuter:
    def test_random_sweep_with_dominance(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = cli.main(["ldc-outer", "--samples", "3", "--max-gain", "2",
                       "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0].endswith(
            "case_label,rank_bound")
        rows = ldc_outer_rows(out)
        assert len(rows) == 3
        assert all(row["rank_bound"] == row["outer"] for row in rows)

    def test_certifies_channels_past_m3(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = cli.main(["ldc-outer", "--samples", "4", "--max-gain", "5",
                       "--seed", "2", "--out", str(out)])
        assert rc == 0
        rows = ldc_outer_rows(out)
        assert len(rows) == 4
        assert all(row["rank_bound"] == row["outer"] for row in rows)

    def test_rank_bound_above_outer_is_a_violation(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(cli.ldc, "chain_rank_bound", lambda g: 99)
        out = tmp_path / "o.csv"
        rc = cli.main(["ldc-outer", "--samples", "1", "--out", str(out)])
        assert rc == 1
        assert ldc_outer_rows(out)[0]["rank_bound"] == "99"

    def test_dominance_trials_config_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dominance_trials=10\n")
        rc = cli.main(["ldc-outer", "--config", str(cfg),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestGaussianGap:
    def test_analytic_only_run(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(["gaussian-gap", "--k", "3", "--snr-db", "20",
                       "--alpha", "0.5,1.5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["gap_analytic_observed"]) <= float(row["gap_bound"])
        assert row["inner_opt"] == ""  # budget 0 skips optimization

    def test_numeric_columns_with_budget(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(["gaussian-gap", "--k", "3", "--snr-db", "20",
                       "--alpha", "1.5", "--budget", "1000",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        for cell in row.values():
            float(cell)  # numpy scalars must not leak their repr
        assert float(row["inner_opt"]) <= float(row["outer_opt"]) + 1e-6

    def test_optimized_outer_below_inner_exits_1(self, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setattr(cli.gaussian, "_th1_sum_k3", lambda *a: 0.0)
        rc = cli.main(["gaussian-gap", "--k", "3", "--snr-db", "20",
                       "--alpha", "1.5", "--budget", "1000",
                       "--out", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "invariant violation" in capsys.readouterr().err

    def test_inner_above_outer_exits_1(self, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setattr(cli.gaussian, "outer_sum", lambda ch: 0.0)
        rc = cli.main(["gaussian-gap", "--k", "3", "--snr-db", "20",
                       "--alpha", "1.5", "--out", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "invariant violation" in capsys.readouterr().err

    def test_deterministic_output_bytes(self, tmp_path):
        args = ["gaussian-gap", "--k", "3,4", "--snr-db", "10,30",
                "--alpha", "0:2:0.5", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestGdofCurves:
    def test_model_sweep(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = cli.main(["gdof-curves", "--models", "cms,bc", "--k", "3",
                       "--alpha", "0:2:0.5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 5
        assert lines[1].startswith("cms,3,0.0,3.0,1.0")

    def test_unknown_model_rejected(self, tmp_path):
        rc = cli.main(["gdof-curves", "--models", "xyz",
                       "--out", str(tmp_path / "d.csv")])
        assert rc == 2

    def test_empirical_columns_skip_alpha_near_one(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = cli.main(["gdof-curves", "--models", "cms", "--k", "3",
                       "--alpha", "0.5,1.0,1.5", "--snr-db", "40,60,80",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        by_alpha = {line.split(",")[2]: line.split(",") for line in lines[1:]}
        assert by_alpha["1.0"][5] == ""      # no fit at the discontinuity
        assert by_alpha["1.5"][5] != ""


# Bad input: each probe exits 2 with a message instead of a traceback.
@pytest.mark.parametrize("argv", [
    ["gaussian-gap", "--k", "2"],
    ["gaussian-gap", "--snr-db", "4000"],
    ["gaussian-gap", "--snr-db=-100", "--alpha=-40"],
    ["gaussian-gap", "--snr-db", "nan"],
    ["gaussian-gap", "--snr-db=-4000", "--alpha=-0.5"],
    ["gaussian-gap", "--budget=-5"],
    ["gdof-curves", "--k", "1"],
    ["gdof-curves", "--alpha=-1"],
    ["gdof-curves", "--alpha", "1,0.5"],
    ["gdof-curves", "--alpha", ""],
    ["gdof-curves", "--snr-db", "40"],
    ["gdof-curves", "--snr-db", "40,40"],
    ["gdof-curves", "--snr-db", "40,4000"],
    ["ldc-verify", "--nd=-1"],
    ["ldc-verify", "--ni=-2"],
    ["ldc-outer", "--max-gain=-1"],
], ids=lambda argv: " ".join(argv))
def test_bad_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_gain_power_limit_counts_k(tmp_path):
    # 2990 dB alone fits; with k = 8 the 18 dB of k^2 pushes it past
    ok = ["gaussian-gap", "--k", "3", "--snr-db", "2990", "--alpha", "0.5"]
    assert cli.main(ok + ["--out", str(tmp_path / "a.csv")]) == 0
    bad = ["gaussian-gap", "--k", "8", "--snr-db", "2990", "--alpha", "0.5"]
    assert cli.main(bad + ["--out", str(tmp_path / "b.csv")]) == 2


# CSV bytes against a test-side oracle: the general dpc_rates path and a
# per-row repr writer.

def oracle_cell(v):
    return repr(v) if isinstance(v, float) else str(v)


def oracle_csv(header, rows):
    return "".join(",".join(map(oracle_cell, row)) + "\r\n"
                   for row in [header] + rows).encode()


def slow_inner(ch):
    inner = gaussian.dpc_rates(ch, gaussian.closed_form_params(ch)).total
    if ch.inr >= 1.0:
        inner = max(inner, gaussian.dpc_rates(
            ch, gaussian.successive_params(ch)).total)
    return inner


def test_gaussian_gap_bytes_match_oracle(tmp_path):
    rows = []
    for k in (3, 4, 6):
        for snr_db in (-10.0, 0.0, 17.5, 40.0):
            for alpha in (0.0, 0.5, 1.0, 1.5, 2.75):
                ch = gaussian.GaussianSymChannel.from_snr_alpha(
                    snr_db, alpha, k)
                inner, outer = slow_inner(ch), gaussian.outer_sum(ch)
                bf = gaussian.beamforming_inner(ch)
                rows.append([k, snr_db, alpha, outer, inner, outer - inner,
                             gaussian.analytic_gap_bound(k), "", "", "",
                             outer / bf if bf > 0 else float("nan")])
    header = ["k", "snr_db", "alpha", "outer_analytic", "inner_closed",
              "gap_analytic_observed", "gap_bound", "inner_opt",
              "outer_opt", "gap_numeric", "mult_ratio"]
    out = tmp_path / "g.csv"
    assert cli.main(["gaussian-gap", "--k", "3,4,6",
                     "--snr-db=-10,0,17.5,40", "--alpha", "0,0.5,1,1.5,2.75",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == oracle_csv(header, rows)


def test_gdof_curves_bytes_match_oracle(tmp_path):
    alphas, snrs = [0.0, 0.5, 1.0, 1.05, 1.5, 2.0], [40.0, 50.0, 60.0]
    funcs = {"cms": gdof.gdof_cms, "bc": gdof.gdof_bc}
    rows = []
    for model, fn in funcs.items():
        for k in (2, 3):
            for alpha in alphas:
                d = fn(alpha, k)
                emp_in = emp_out = ""
                if model == "cms" and abs(alpha - 1.0) >= 0.1:
                    chs = [gaussian.GaussianSymChannel.from_snr_alpha(
                        s, alpha, k) for s in snrs]
                    xs = [math.log2(1.0 + ch.snr) for ch in chs]
                    emp_in, emp_out = (
                        float(np.polyfit(xs, ys, 1)[0]) for ys in (
                            [gaussian.dpc_rates(
                                ch, gaussian.closed_form_params(ch)).total
                             for ch in chs],
                            [gaussian.outer_sum(ch) for ch in chs]))
                rows.append([model, k, alpha, d, d / k, emp_in, emp_out])
    header = ["model", "k", "alpha", "d", "d_normalized",
              "d_emp_inner", "d_emp_outer"]
    out = tmp_path / "d.csv"
    assert cli.main(["gdof-curves", "--models", "cms,bc", "--k", "2,3",
                     "--alpha", "0,0.5,1,1.05,1.5,2", "--snr-db", "40,50,60",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == oracle_csv(header, rows)
