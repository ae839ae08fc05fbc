"""The standard experiments: each scripts/ preset, run at full size,
writes the CSV pinned by its SHA-256."""

import hashlib
from pathlib import Path

import pytest

from cifc_cms import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

PRESET_SHA256 = {
    "ldc-verify":
        "3807f5a9a72613f1be848e75d400b0b0adf6f29a6a16debd87af6a584e7912ea",
    "ldc-outer":
        "7072fe5724b3ed4097d5eae805e29e7bef50142aeccd4a9e675d83838b9a9176",
    "gaussian-gap":
        "0e8499f8ce7ffbea97cd6dbe11900ebf08a120111ebb7eb500f8de5b590e0b5e",
    "gdof-curves":
        "6d23205aab25b64374103b56fa87b12ba7766d0badf5e3271042e3ae6ff49bee",
}


@pytest.mark.parametrize("command", list(PRESET_SHA256))
def test_preset_writes_pinned_csv(command, tmp_path):
    preset = SCRIPTS / (command.replace("-", "_") + ".cfg")
    out = tmp_path / "x.csv"
    assert cli.main([command, "--config", str(preset),
                     "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == PRESET_SHA256[command])
