"""Command-line interface: grids, config files, CSV output, exit codes."""

import csv
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifc_cms import cli, gaussian, gdof
from test_gaussian import (oracle_certificate, oracle_outer_sum,
                           oracle_sum_rates)


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
        for spec in ("0:1:0.3", "0:2:0.5", "0.5:2"):
            with pytest.raises(cli.ConfigError, match="non-integral"):
                cli.parse_grid(spec, integer=True)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e2), st.integers(0, 500))
    def test_range_has_n_plus_one_points(self, start, step, n):
        stop = start + n * step
        grid = cli.parse_grid(f"{start!r}:{stop!r}:{step!r}")
        assert len(grid) == n + 1
        assert grid[0] == round(start, 12)
        assert abs(grid[-1] - stop) <= cli.GRID_STOP_SLACK

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-100, 100), st.integers(1, 50), st.integers(0, 60),
           st.sampled_from([1, 2, 3, 4, 10]))
    def test_integer_range_accepts_exactly_integral_points(self, a, b, n,
                                                           den):
        # points (a + i b) / den, i = 0..n: all integral iff den divides
        # a and, past the first point, b
        spec = f"{a / den!r}:{(a + n * b) / den!r}:{b / den!r}"
        if a % den == 0 and (n == 0 or b % den == 0):
            assert cli.parse_grid(spec, integer=True) == [
                (a + i * b) // den for i in range(n + 1)]
        else:
            with pytest.raises(cli.ConfigError, match="non-integral"):
                cli.parse_grid(spec, integer=True)


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

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe\x00bad=1\n")
        out = tmp_path / "v.csv"
        assert cli.main(["ldc-verify", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert "config error: cannot read config file" in (
            capsys.readouterr().err)
        assert not out.exists()


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

    def test_budget_rows_match_analytic_rows(self, tmp_path):
        # one kernel call per point with --budget, one per (k, SNR) row
        # without: every column but the numeric three must agree
        args = ["gaussian-gap", "--k", "3,4", "--snr-db", "0,30",
                "--alpha", "0.5,1,2.5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--budget", "50", "--out", str(b)]) == 0
        rows_a = [r.split(",") for r in a.read_text().splitlines()]
        rows_b = [r.split(",") for r in b.read_text().splitlines()]
        assert len(rows_a) == len(rows_b) == 13
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            assert ra[:7] + ra[10:] == rb[:7] + rb[10:]
            assert ra[7:10] == ["", "", ""] and rb[7] != ""

    def test_optimized_outer_below_inner_exits_1(self, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setattr(cli.gaussian, "_chain_bound", lambda h, noise: (
            lambda l: np.zeros(np.shape(l)[:-2])))
        rc = cli.main(["gaussian-gap", "--k", "3", "--snr-db", "20",
                       "--alpha", "1.5", "--budget", "1000",
                       "--out", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "invariant violation" in capsys.readouterr().err

    def test_inner_above_outer_exits_1(self, tmp_path, monkeypatch,
                                       capsys):
        # the grid path takes its outer bound from the kernel's outer_grid
        monkeypatch.setattr(cli.gaussian, "outer_grid",
                            lambda g: (np.zeros(g.hd.shape),) * 3)
        rc = cli.main(["gaussian-gap", "--k", "3", "--snr-db", "20",
                       "--alpha", "1.5", "--out", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "invariant violation" in capsys.readouterr().err

    def test_low_snr_probe_exits_0(self, tmp_path):
        # the K = 4 point where the coherent/successive pick broke the gap
        # bound; all-beamform certifies it
        out = tmp_path / "g.csv"
        assert cli.main(["gaussian-gap", "--k", "4", "--snr-db=-20",
                         "--alpha", "0.042", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["inner_closed"] == "3.165419225203582"
        assert row["gap_analytic_observed"] == "2.818934768947689"

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

    def test_config_booleans(self, tmp_path, capsys):
        def run(*args):
            out = tmp_path / "d.csv"
            rc = cli.main(["gdof-curves", "--models", "cms", "--alpha", "1",
                           *args, "--out", str(out)])
            return rc, out.read_text() if rc == 0 else None

        cfg = tmp_path / "run.cfg"
        on, off = run("--discontinuity"), run()
        assert on != off
        for word, want in [("1", on), ("TRUE", on), ("Yes", on),
                           ("0", off), ("false", off), ("NO", off)]:
            cfg.write_text(f"discontinuity={word}\n")
            assert run("--config", str(cfg)) == want, word
        for word in ("maybe", "", "2", "on"):
            cfg.write_text(f"discontinuity={word}\n")
            assert run("--config", str(cfg)) == (2, None), word
            assert "config error:" in capsys.readouterr().err

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
    ["ldc-verify", "--nd", "0:1e400"],
    ["gaussian-gap", "--snr-db", "0:1e400"],
    ["gaussian-gap", "--alpha", "0:1e300:1e-300"],
    ["gaussian-gap", "--alpha", "0:1:1e-9"],   # too many points to build
    ["ldc-verify", "--nd", "0:1e9"],
    ["ldc-outer", "--seed=-1"],
    ["gaussian-gap", "--seed=-1", "--budget", "5"],
    ["ldc-verify", "--nd", "0:2:0.5", "--ni", "1"],
    ["ldc-verify", "--nd", "0.5:2"],
    ["gaussian-gap", "--k", "3:5:0.5"],
    ["ldc-outer", "--seed", "x"],
    ["gaussian-gap", "--budget", "1.5"],
], ids=lambda argv: " ".join(argv))
def test_bad_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


# Too large a deterministic channel: rejected before anything is built.
@pytest.mark.parametrize("argv", [
    ["ldc-outer", "--samples", "2", "--max-gain", "100000"],
    ["ldc-outer", "--samples", "2", "--max-gain", "86"],
    ["ldc-outer", "--samples", "1000000000"],
    ["ldc-verify", "--nd", "100000"],
    ["ldc-verify", "--nd", "0", "--ni", "0", "--k", "100000"],
    ["ldc-verify", "--nd", "65", "--ni", "0", "--k", "4"],
], ids=lambda argv: " ".join(argv))
def test_oversized_ldc_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        rc = cli.main(argv + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert peak < 2**20
    assert not out.exists()


@pytest.mark.parametrize("command", ["ldc-verify", "ldc-outer"])
def test_oversized_gains_file_exits_2(command, tmp_path, capsys):
    gains = tmp_path / "g.txt"
    gains.write_text("86 0 0\n0 1 0\n0 0 1\n")  # 3 * 86 > MAX_LDC_SIZE
    rc = cli.main([command, "--gains-file", str(gains),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "blank"])
@pytest.mark.parametrize("command", ["ldc-verify", "ldc-outer"])
def test_empty_gains_file_exits_2(command, text, tmp_path, capsys):
    gains = tmp_path / "g.txt"
    gains.write_text(text)
    out = tmp_path / "x.csv"
    assert cli.main([command, "--gains-file", str(gains),
                     "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("ldc-outer", []),
    ("gaussian-gap", ["--budget", "5"]),
], ids=["ldc-outer", "gaussian-gap"])
def test_negative_seed_in_config_exits_2(command, extra, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=-1\n")
    out = tmp_path / "x.csv"
    assert cli.main([command, "--config", str(cfg), *extra,
                     "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gaussian-gap", "--snr-db", "10", "--alpha", "1.5"],
    ["gdof-curves", "--models", "cms", "--alpha", "0.5",
     "--snr-db", "0,10"],
], ids=lambda argv: argv[0])
def test_gaussian_user_count_cap(argv, tmp_path, capsys):
    cap = cli.MAX_GAUSSIAN_K
    assert cap == 10_000
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--k", str(cap), "--out", str(out)]) == 0
    out.unlink()
    tracemalloc.start()
    try:
        rc = cli.main(argv + ["--k", f"3,{cap + 1}", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert peak < 2**20
    assert not out.exists()


def test_gaussian_user_count_cap_rejects_huge_k():
    # checked alone, so a missing cap fails here without running the
    # sweep (10^6 users at one point took 8 s and 245 MB)
    for k in (10**6, 10**140):
        with pytest.raises(cli.ConfigError, match="exceeds"):
            cli._check_gaussian_grid([3, k], [10.0], [1.5])


@pytest.mark.parametrize("argv", [
    ["ldc-outer", "--samples", "1", "--max-gain", "85"],
    ["ldc-verify", "--nd", "64", "--ni", "0", "--k", "4"],
], ids=lambda argv: " ".join(argv))
def test_largest_ldc_input_runs(tmp_path, argv):
    assert cli.MAX_LDC_SIZE == 256
    assert cli.main(argv + ["--out", str(tmp_path / "x.csv")]) == 0


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_unwritable_output_exits_2(command, tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    assert cli.main([command, "--out", str(missing)]) == 2
    assert "config error:" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out=\n")
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert cli.main([command, "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err
    with pytest.raises(cli.ConfigError):
        cli.write_csv(str(missing), ["a"], [])


@pytest.mark.parametrize("command", ["ldc-verify", "gdof-curves"])
def test_seed_is_not_an_option_of(command, tmp_path):
    # neither command draws random numbers
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\n")
    assert cli.main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2


# One non-default value per option of the table; None marks a boolean
# flag, whose config line is key=true.
NON_DEFAULT = {"out": "o.csv", "seed": "7", "gains_file": "g.txt",
               "nd": "1,2", "ni": "0:2", "k": "3,4", "samples": "5",
               "max_gain": "2", "snr_db": "10,30", "alpha": "0.5,1.5",
               "budget": "50", "models": "bc,cms", "discontinuity": None}


@pytest.mark.parametrize("command", list(cli.OPTIONS))
def test_flag_and_config_line_convert_alike(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = []
    monkeypatch.setattr(cli, cli._COMMANDS[command],
                        lambda opts: seen.append(opts) or 0)
    options = cli._options(command)

    def converted(*args):
        assert cli.main([command, *args]) == 0
        opts = seen.pop()
        return {key: getattr(opts, key) for key in options}

    default = converted()
    cfg = tmp_path / "run.cfg"
    for key in options:
        value = NON_DEFAULT[key]
        flag = "--" + key.replace("_", "-")
        cfg.write_text(f"{key}={'true' if value is None else value}\n")
        by_flag = converted(flag, *([] if value is None else [value]))
        # repr, so that 50 and 50.0 differ
        assert repr(by_flag) == repr(converted("--config", str(cfg))), key
        assert by_flag[key] != default[key], key
        assert {k: v for k, v in by_flag.items() if k != key} == {
            k: v for k, v in default.items() if k != key}, key


@pytest.mark.parametrize("command", list(cli.OPTIONS))
def test_help_lists_each_default(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    # one item per option: "--flag [METAVAR] help (default: value)"
    items = re.split(r"\s(?=--[a-z])", " ".join(capsys.readouterr().out
                                                 .split()))
    for key, (default, _, _) in cli._options(command).items():
        flag = "--" + key.replace("_", "-") + " "
        [item] = [i for i in items if i.startswith(flag)]
        assert item.endswith(f"(default: {default or 'none'})"), item


def test_main_runs_the_patched_subcommand(tmp_path, monkeypatch):
    # main looks cmd_* up when it runs, so a wrapper set on the module
    # attribute (a tracer's, a test's) is the function called
    seen = []
    monkeypatch.setattr(cli, "cmd_gaussian_gap",
                        lambda opts: seen.append(opts.k) or 7)
    out = tmp_path / "g.csv"
    assert cli.main(["gaussian-gap", "--k", "3,4", "--out", str(out)]) == 7
    assert seen == [[3, 4]]
    assert not out.exists()


def test_gain_power_limit_counts_k(tmp_path):
    # 2990 dB alone fits; with k = 8 the 18 dB of k^2 pushes it past
    ok = ["gaussian-gap", "--k", "3", "--snr-db", "2990", "--alpha", "0.5"]
    assert cli.main(ok + ["--out", str(tmp_path / "a.csv")]) == 0
    bad = ["gaussian-gap", "--k", "8", "--snr-db", "2990", "--alpha", "0.5"]
    assert cli.main(bad + ["--out", str(tmp_path / "b.csv")]) == 2


# CSV bytes against the scalar oracle of test_gaussian and a per-row
# repr writer.

def oracle_cell(v):
    return repr(v) if isinstance(v, float) else str(v)


def oracle_csv(header, rows):
    return "".join(",".join(map(oracle_cell, row)) + "\r\n"
                   for row in [header] + rows).encode()


GAP_HEADER = ["k", "snr_db", "alpha", "outer_analytic", "inner_closed",
              "gap_analytic_observed", "gap_bound", "inner_opt",
              "outer_opt", "gap_numeric", "mult_ratio"]
GDOF_HEADER = ["model", "k", "alpha", "d", "d_normalized",
               "d_emp_inner", "d_emp_outer"]


def oracle_gap_rows(ks, snrs, alphas):
    rows = []
    for k in ks:
        for snr_db in snrs:
            for alpha in alphas:
                c = oracle_certificate(
                    gaussian.GaussianSymChannel.from_snr_alpha(
                        snr_db, alpha, k))
                rows.append([k, snr_db, alpha, c.outer, c.inner,
                             c.additive_gap, c.analytic_gap_bound, "", "",
                             "", c.multiplicative_ratio])
    return rows


def oracle_gdof_rows(models, ks, alphas, snrs):
    funcs = {"cms": gdof.gdof_cms, "bc": gdof.gdof_bc}
    rows = []
    for model in models:
        for k in ks:
            for alpha in alphas:
                d = funcs[model](alpha, k)
                emp_in = emp_out = ""
                if model == "cms" and abs(alpha - 1.0) >= 0.1:
                    chs = [gaussian.GaussianSymChannel.from_snr_alpha(
                        s, alpha, k) for s in snrs]
                    xs = [math.log2(1.0 + ch.snr) for ch in chs]
                    emp_in, emp_out = (
                        float(np.polyfit(xs, ys, 1)[0]) for ys in (
                            [oracle_sum_rates(ch)[0] for ch in chs],
                            [oracle_outer_sum(ch) for ch in chs]))
                rows.append([model, k, alpha, d, d / k, emp_in, emp_out])
    return rows


def test_gaussian_gap_bytes_match_oracle(tmp_path):
    # -10 dB mixes weak and strong interference; alpha = 0 at 30 dB puts
    # |hi|^2 at exactly 1; alpha = 1 is the MAC point
    ks, snrs = [3, 4, 6, 8], [-10.0, 0.0, 17.5, 30.0, 40.0]
    alphas = [0.0, 0.5, 1.0, 1.5, 2.75]
    out = tmp_path / "g.csv"
    assert cli.main(["gaussian-gap", "--k", "3,4,6,8",
                     "--snr-db=-10,0,17.5,30,40",
                     "--alpha", "0,0.5,1,1.5,2.75", "--out", str(out)]) == 0
    assert out.read_bytes() == oracle_csv(
        GAP_HEADER, oracle_gap_rows(ks, snrs, alphas))


def test_gdof_curves_bytes_match_oracle(tmp_path):
    # 0 dB makes every alpha a MAC point
    alphas = [0.0, 0.5, 1.0, 1.05, 1.5, 2.0]
    snrs = [0.0, 20.0, 40.0, 50.0, 60.0]
    out = tmp_path / "d.csv"
    assert cli.main(["gdof-curves", "--models", "cms,bc", "--k", "2,3,8",
                     "--alpha", "0,0.5,1,1.05,1.5,2",
                     "--snr-db", "0,20,40,50,60", "--out", str(out)]) == 0
    assert out.read_bytes() == oracle_csv(
        GDOF_HEADER, oracle_gdof_rows(["cms", "bc"], [2, 3, 8], alphas,
                                      snrs))


def test_bytes_match_oracle_at_benchmark_scale(tmp_path):
    # the gauss-dense grids, one k for gaussian-gap: a numpy
    # transcendental that differs from libm on a few percent of inputs
    # cannot hide among 18,361 certificates and 23,042 fitted points
    alphas = cli.parse_grid("0:3:0.01")
    gap, dof = tmp_path / "g.csv", tmp_path / "d.csv"
    assert cli.main(["gaussian-gap", "--k", "5", "--snr-db", "0:60:1",
                     "--alpha", "0:3:0.01", "--out", str(gap)]) == 0
    assert gap.read_bytes() == oracle_csv(
        GAP_HEADER, oracle_gap_rows([5], cli.parse_grid("0:60:1"), alphas))
    assert cli.main(["gdof-curves", "--models", "cms", "--k", "3,4",
                     "--alpha", "0:3:0.01", "--snr-db", "40:80:1",
                     "--out", str(dof)]) == 0
    assert dof.read_bytes() == oracle_csv(
        GDOF_HEADER, oracle_gdof_rows(["cms"], [3, 4], alphas,
                                      cli.parse_grid("40:80:1")))


# The line writer against csv.writer.  Rows have at least two cells, as
# every CLI row does: csv.writer quotes a lone empty cell as "".
CSV_LABELS = ["", "true", "false", "exhaustive", "r3>0", "r3=0",
              *gdof.MODELS]
CSV_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
              1.5e-310, 2.2250738585072014e-308, 1e16, 1e-5, 1e22,
              0.1 + 0.2, 123456789.0]
csv_cells = st.one_of(
    st.integers(), st.integers(-10, 300),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(CSV_FLOATS), st.sampled_from(CSV_LABELS))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(csv_cells, min_size=2, max_size=16), max_size=6))
def test_line_matches_csv_writer(rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    assert "".join(map(cli._line, rows)) == buf.getvalue()


# Every subcommand's output parses the same with csv.reader as with a
# plain comma split: no cell needs quoting.
@pytest.mark.parametrize("argv", [
    ["ldc-verify", "--nd", "0:3", "--ni", "0:3", "--k", "3,4"],
    ["ldc-verify", "--gains-file", "GAINS"],
    ["ldc-outer", "--samples", "30", "--max-gain", "4", "--seed", "3"],
    ["ldc-outer", "--gains-file", "GAINS"],
    ["gaussian-gap", "--k", "3,4", "--snr-db=-10,0,30",
     "--alpha", "0:3:0.5"],
    ["gaussian-gap", "--k", "3,4", "--snr-db", "20", "--alpha", "0.5,1.5",
     "--budget", "50"],
    ["gdof-curves", "--k", "2,3", "--snr-db", "40,60"],
    ["gdof-curves", "--discontinuity"],
], ids=lambda argv: " ".join(argv))
def test_csv_reader_equals_comma_split(argv, tmp_path):
    gains = tmp_path / "g.txt"
    gains.write_text("3 1 2\n0 4 1\n2 2 5\n")
    argv = [str(gains) if a == "GAINS" else a for a in argv]
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    *lines, last = out.read_bytes().decode("ascii").split("\r\n")
    assert last == "" and len(lines) > 1
    assert parsed == [line.split(",") for line in lines]


def test_commands_without_optimizer_do_not_import_scipy(tmp_path):
    # scipy.optimize takes most of the package's import time; only the
    # optimizers (gaussian-gap --budget) need it
    script = f"""
import sys
from cifc_cms import cli
assert "scipy" not in sys.modules, "import"
assert cli.main(["ldc-verify", "--out", {str(tmp_path / "v.csv")!r}]) == 0
assert cli.main(["gaussian-gap", "--k", "3", "--snr-db", "10,30", "--alpha",
                 "0.5,2", "--out", {str(tmp_path / "g.csv")!r}]) == 0
assert "scipy" not in sys.modules, "run"
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
