"""Table formatting shared by the experiment renderers.

Every ``repro bench`` table prints through here; the golden-output
tests pin them to byte-identical tables.
"""

from __future__ import annotations

from typing import Any, List, Optional

__all__ = ["fmt_row", "print_table"]


def fmt_row(columns: List[Any], widths: List[int]) -> str:
    cells = []
    for value, width in zip(columns, widths):
        if isinstance(value, float):
            cells.append(f"{value:>{width}.1f}")
        else:
            cells.append(f"{value!s:>{width}}")
    return "  ".join(cells)


def print_table(title: str, header: List[str], rows: List[List[Any]],
                widths: Optional[List[int]] = None) -> None:
    widths = widths or [max(12, len(h)) for h in header]
    print(f"\n=== {title} ===")
    print(fmt_row(header, widths))
    print("-" * (sum(widths) + 2 * len(widths)))
    for row in rows:
        print(fmt_row(row, widths))
