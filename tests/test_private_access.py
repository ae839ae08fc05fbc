"""No src/ module reads another package module's underscore names: a
stdlib ast check, since the toolchain ships no linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FILES = sorted(SRC.rglob("*.py"))


def module_name(path: Path) -> str:
    name = ".".join(path.relative_to(SRC).with_suffix("").parts)
    return name.removesuffix(".__init__")


MODULES = {module_name(p) for p in FILES}


def private(attr: str) -> bool:
    return attr.startswith("_") and not attr.endswith("__")


def private_reads(source: str, name: str, package: str) -> list[str]:
    """The underscore names of other package modules that module `name`
    (in `package`) reads as `mod._x` or imports as `from .mod import _x`.
    Dunder names are not private; names in strings are not reads."""
    tree = ast.parse(source)
    aliases = {}                 # local name -> the module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) + 1 - node.level]
                base = ".".join(parts + [base] if base else parts)
            for a in node.names:
                if f"{base}.{a.name}" in MODULES:
                    aliases[a.asname or a.name] = f"{base}.{a.name}"
                elif base in MODULES and base != name and private(a.name):
                    found.append((node.lineno, node.col_offset,
                                  f"{base}.{a.name}"))

    def resolve(e):
        if isinstance(e, ast.Name):
            return aliases.get(e.id)
        if isinstance(e, ast.Attribute):
            base = resolve(e.value)
            return base and f"{base}.{e.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            mod = resolve(node.value)
            if mod in MODULES and mod != name:
                found.append((node.lineno, node.col_offset,
                              f"{mod}.{node.attr}"))
    return [f"{text} (line {line})" for line, _, text in sorted(found)]


def test_checker_finds_private_reads():
    src = ('"""gf2._doc is only text."""\n'
           "from . import gf2, ldc as l\n"
           "import cifc_cms.gaussian\n"
           "from .gdof import _x, curve_sweep\n"
           "from .cli import _own\n"
           "gf2._a(l._b, cifc_cms.gaussian._c, gf2.__name__, gf2.pack)\n"
           "self._d, np._e\n")
    assert private_reads(src, "cifc_cms.cli", "cifc_cms") == [
        "cifc_cms.gdof._x (line 4)",
        "cifc_cms.gf2._a (line 6)",
        "cifc_cms.ldc._b (line 6)",
        "cifc_cms.gaussian._c (line 6)",
    ]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_reads_across_modules(path):
    name = module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    assert private_reads(path.read_text(), name, package) == []
