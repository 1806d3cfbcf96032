"""No valdef module reads a private name of another valdef module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "valdef"


def private_reads(source: str) -> list:
    """Each `M._name` read in source, M a module bound by `from . import M`.
    A dunder such as `M.__name__` is public, and an attribute of any other
    value, such as `report._asdict()`, is not a module read."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    return [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
    ]


def test_private_reads_finds_module_reads_only():
    source = (
        "from . import linalg\n"
        "from . import io as valdef_io\n"
        "from .series import canonical\n"
        "vec = linalg._cancel(vec, pivot, 0)\n"
        "row = valdef_io._read_series(doc)\n"
        "doc = report._asdict()\n"
        "name = linalg.__name__\n"
        "pivots = linalg.echelon(rows)\n"
        "series = canonical._private\n"
    )
    assert private_reads(source) == ["linalg._cancel", "valdef_io._read_series"]


def test_no_module_reads_another_modules_private_names():
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "decompose.py" in paths
    found = {
        str(path.relative_to(SRC)): reads
        for path in paths
        if (reads := private_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}
