"""The span taxonomy in ``docs/observability.md`` matches the code.

Every ``obs.span("…")`` name under ``src/repro`` must have a row in the
doc's taxonomy table, and every row must name a span the code emits, so
a renamed, added or deleted span cannot drift from its documentation.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"

#: Dynamic span names, by their literal prefix, as the table spells them.
DYNAMIC = {"cli.": "cli.<command>"}


def _span_name(node: ast.expr, where: str) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        head = node.values[0]
        if (len(node.values) == 2 and isinstance(head, ast.Constant)
                and head.value in DYNAMIC
                and isinstance(node.values[1], ast.FormattedValue)):
            return DYNAMIC[head.value]
    raise AssertionError(f"{where}: span name is not a literal "
                         f"(add its pattern to DYNAMIC)")


def emitted_spans() -> dict[str, str]:
    """``{span name: first emitting file:line}`` for every obs.span call."""
    spans: dict[str, str] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "span"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "obs" and node.args):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                spans.setdefault(_span_name(node.args[0], where), where)
    return spans


def documented_spans() -> set[str]:
    """The first column of the doc's "Span taxonomy" table."""
    section = DOC.read_text(encoding="utf-8").split("### Span taxonomy", 1)[1]
    return set(re.findall(r"^\| `([^`]+)`", section.split("\n\n", 2)[1],
                          flags=re.MULTILINE))


def test_scan_finds_the_known_spans():
    spans = emitted_spans()
    assert {"cli.<command>", "mc.band_stack", "serve.batch"} <= set(spans)


def test_every_emitted_span_is_documented():
    documented = documented_spans()
    missing = {name: where for name, where in emitted_spans().items()
               if name not in documented}
    assert not missing, f"spans missing from {DOC.name}: {missing}"


def test_every_documented_span_is_emitted():
    assert documented_spans() <= set(emitted_spans())
