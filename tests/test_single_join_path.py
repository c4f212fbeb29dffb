"""One join path: ``ops/relational.hash_join`` is the only caller of
Ray's ``Dataset.join``.

``hash_join`` passes its own aggregator args, which replace Ray's
defaults and their per-aggregator memory reservation; a direct
``Dataset.join`` keeps that reservation and hangs on a host whose Ray
memory resource cannot hold every aggregator. The check is static (no
Ray): it parses the query surface and the library and flags every
``<x>.join(...)`` call carrying a ``join_type=`` or ``num_partitions=``
keyword — the shape of a ``Dataset.join`` call, which no ``str.join``,
pandas ``DataFrame.join`` or ``os.path.join`` call has.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOIN_KEYWORDS = {"join_type", "num_partitions"}


def _dataset_join_calls(path: Path) -> list[tuple[str, int]]:
    """(enclosing function name, line) of every Dataset.join-shaped call."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "join"
                and JOIN_KEYWORDS & {k.arg for k in child.keywords}
            ):
                found.append((inner, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_dataset_join_only_inside_hash_join():
    relational = ROOT / "ocr_service_ray" / "ops" / "relational.py"
    sources = [
        ROOT / "__ray_entry__.py",
        *sorted((ROOT / "ocr_service_ray").rglob("*.py")),
    ]
    stray = []
    in_hash_join = 0
    for path in sources:
        for func, line in _dataset_join_calls(path):
            if path == relational and func == "hash_join":
                in_hash_join += 1
            else:
                stray.append(f"{path.relative_to(ROOT)}:{line} (in {func})")
    assert in_hash_join == 1, "relational.hash_join no longer calls Dataset.join"
    assert not stray, "call relational.hash_join, not Dataset.join: " + ", ".join(stray)
