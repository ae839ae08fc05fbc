"""Command-line interface: grids, config files, CSV output, exit codes."""

import pytest

from cifc_cms import cli


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
