"""Table/series reporters for the benchmark harness.

The benchmark files print one table per paper table/figure in a stable,
diff-friendly format — the same rows/series the paper plots, so
EXPERIMENTS.md can record paper-vs-measured side by side.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["print_table", "format_table", "Series", "ascii_chart"]


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Format an aligned text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    print("\n" + format_table(title, headers, rows))


def _fmt(value) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:,.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


class Series:
    """A figure-like collection: one x-axis, multiple named lines."""

    def __init__(self, title: str, x_label: str, y_label: str):
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.xs: List = []
        self.lines: Dict[str, Dict] = {}

    def add(self, line: str, x, y) -> None:
        if x not in self.xs:
            self.xs.append(x)
        self.lines.setdefault(line, {})[x] = y

    def as_table(self):
        headers = [self.x_label] + list(self.lines.keys())
        rows = []
        for x in self.xs:
            rows.append([x] + [self.lines[name].get(x, "-") for name in self.lines])
        return headers, rows


_BARS = " ▏▎▍▌▋▊▉█"


def ascii_chart(series: Series, width: int = 40) -> str:
    """Render a Series as horizontal unicode bar rows, one line per point.

    Useful for eyeballing figure shapes in a terminal without plotting
    libraries; bars are scaled to the series maximum.
    """
    numeric = [
        (line, x, y)
        for line, pts in series.lines.items()
        for x, y in pts.items()
        if isinstance(y, (int, float))
    ]
    if not numeric:
        return f"== {series.title} == (no numeric data)"
    peak = max(y for _, _, y in numeric) or 1.0
    label_w = max(len(f"{line} @{x}") for line, x, _ in numeric)
    lines = [f"== {series.title} [{series.y_label}] =="]
    for line_name in series.lines:
        for x in series.xs:
            y = series.lines[line_name].get(x)
            if not isinstance(y, (int, float)):
                continue
            frac = max(0.0, min(1.0, y / peak))
            whole = int(frac * width)
            rem = int((frac * width - whole) * (len(_BARS) - 1))
            bar = "█" * whole + (_BARS[rem] if rem else "")
            label = f"{line_name} @{x}".ljust(label_w)
            lines.append(f"{label} |{bar:<{width}}| {y:,.1f}")
    return "\n".join(lines)
