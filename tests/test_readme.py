"""The README's Python example runs against the package as it is, and
its claims table names only checks that exist."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
NODE = re.compile(r"`(tests/\w+\.py)::([\w:]+)`")
PRESET = re.compile(r"`(scripts/\w+\.cfg)`")


def test_readme_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    gap, sep, bound = capsys.readouterr().out.split()
    assert sep == "<=" and float(gap) <= float(bound)


def claims_rows() -> list[list[str]]:
    """The cells of each body row of the README's Claims table."""
    section = README.read_text().split("\n## Claims\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [[c.strip() for c in line.strip().strip("|").split(" | ")]
            for line in section.splitlines() if line.startswith("| ")]
    assert rows[0] == ["Claim", "Check", "Coverage", "Status"]
    return rows[1:]


def resolves(path: Path, name: str) -> bool:
    """Whether test file path defines the test `Class::test` or `test`:
    a test function, at the top level or in a Test class."""
    parts = name.split("::")
    if not path.is_file() or not parts[-1].startswith("test_"):
        return False
    scope = ast.parse(path.read_text()).body
    for part in parts:
        found = [n for n in scope if isinstance(
            n, (ast.ClassDef, ast.FunctionDef)) and n.name == part]
        if not found:
            return False
        scope = found[0].body
    return len(parts) == 1 or parts[0].startswith("Test")


def test_resolves_finds_only_existing_tests():
    here = Path(__file__)
    assert resolves(here, "test_readme_example_runs")
    assert not resolves(here, "test_no_such_test")
    assert not resolves(here, "claims_rows")
    ldc = ROOT / "tests" / "test_ldc.py"
    assert resolves(ldc, "TestSymScheme::test_mac_corner")
    assert not resolves(ldc, "TestSymScheme::test_no_such_test")
    assert not resolves(ldc, "test_mac_corner")


def test_claims_table_names_existing_checks():
    rows = claims_rows()
    assert len(rows) == 8
    for claim, check, coverage, status in rows:
        nodes, presets = NODE.findall(check), PRESET.findall(check)
        assert nodes or presets, claim
        assert check.count("`") == 2 * (len(nodes) + len(presets)), claim
        for path, name in nodes:
            assert resolves(ROOT / path, name), f"{path}::{name}"
        for preset in presets:
            assert (ROOT / preset).is_file(), preset
        assert coverage and status, claim
