"""Dataset scale and paper-style rendering of tables and figure series."""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

from repro.datasets.twitter import TwitterConfig


def scale_config(seed: int = 42) -> TwitterConfig:
    """The Twitter generator config at ``REPRO_SCALE`` ego networks
    (default 24; the paper used 973)."""
    egos = int(os.environ.get("REPRO_SCALE", "24"))
    return TwitterConfig(egos=egos, seed=seed)


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:,.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
) -> str:
    """Render an ASCII table like the paper's Tables 6-9."""
    header = [str(c) for c in columns]
    body = [[_format(cell) for cell in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    for row in body:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    series: Dict[str, Dict],
) -> str:
    """Render a figure as aligned series (x -> value per series name).

    ``series`` maps a series name (e.g. "NG", "SP") to ``{x: value}``.
    """
    xs: List = []
    for values in series.values():
        for x in values:
            if x not in xs:
                xs.append(x)
    columns = [x_label] + list(series)
    rows = []
    for x in xs:
        rows.append([x] + [series[name].get(x, "") for name in series])
    return render_table(title, columns, rows)
