"""The README "Numerical thresholds" table lists every float threshold in src.

A threshold is a module-level ``NAME = <float literal>`` assignment in
``src/zenosim/*.py``; the table needs exactly one row for each, with the
same value and module, and no other rows.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROW = re.compile(r"^\| `(\w+)` \| ([^|]+) \| `(\w+)` \|")


def float_constants() -> dict[str, tuple[float, str]]:
    out = {}
    for path in sorted((ROOT / "src" / "zenosim").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and type(node.value.value) is float):
                out[node.targets[0].id] = (node.value.value, path.stem)
    return out


def table_rows() -> list[tuple[str, float, str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| constant | value | module | bounds |\n", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[1:]:  # skip the |---| rule
        m = ROW.match(line)
        assert m, f"malformed thresholds row: {line!r}"
        rows.append((m[1], float(m[2]), m[3]))
    return rows


def test_table_matches_float_constants():
    rows = table_rows()
    names = [name for name, _, _ in rows]
    assert len(names) == len(set(names)), "a constant has two rows"
    assert {name: (value, module) for name, value, module in rows} == float_constants()
