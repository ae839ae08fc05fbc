"""Smoke runs of the scripts/ wrappers with tiny grids."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name,args", [
    ("ldc_capacity_grid", ["--max-gain", "1", "--samples", "2",
                           "--out-prefix", "ldc"]),
    ("gaussian_gap_sweep", ["--k", "3", "--snr-db", "10",
                            "--alpha", "0.5", "--out", "gap.csv"]),
    ("gdof_model_comparison", ["--alpha", "0:2:0.5", "--snr-db", "40,50",
                               "--out", "gdof.csv"]),
])
def test_script_writes_csv(name, args, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *args])
    assert module.main() == 0
    csvs = sorted(tmp_path.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert len(path.read_text().splitlines()) > 1, path.name
