"""Write ASLib scenario directories from cell text, for parser tests.

A table is a header (attribute names) and rows of undecorated cell strings.
`render_arff` turns one into ARFF text, wrapping each field in the quote and
padding the caller picks and placing comment or blank lines before data rows,
so that one table can be written in the many spellings a real file may use.
bench/aslibgen.py writes the same layout, plain and unquoted, at scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Table:
    relation: str
    attributes: list[str]
    rows: list[list[str]]
    # field decoration per row and field: (left pad, quote, right pad)
    styles: dict[tuple[int, int], tuple[str, str, str]] = field(default_factory=dict)
    # extra lines (comments, blanks) written before data row r
    extras: dict[int, list[str]] = field(default_factory=dict)


def render_arff(table: Table) -> str:
    lines = [f"@relation {table.relation}", "% generated"]
    lines += [f"@attribute {name} string" for name in table.attributes]
    lines.append("@data")
    for r, row in enumerate(table.rows):
        lines += table.extras.get(r, [])
        cells = []
        for c, text in enumerate(row):
            left, quote, right = table.styles.get((r, c), ("", "", ""))
            cells.append(f"{left}{quote}{text}{quote}{right}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_aslib(root, description: str, features: Table, runs: Table, cv: Table) -> Path:
    """Write the four files of one scenario directory and return its path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "description.txt").write_text(description, encoding="utf-8")
    for name, table in (("feature_values.arff", features), ("algorithm_runs.arff", runs),
                        ("cv.arff", cv)):
        (root / name).write_text(render_arff(table), encoding="utf-8")
    return root
