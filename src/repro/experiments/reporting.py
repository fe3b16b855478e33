"""Plain-text tables and series, shaped like the paper's figures."""

from __future__ import annotations

from io import StringIO


def format_table(title: str, headers: list[str],
                 rows: list[list], note: str | None = None) -> str:
    """Fixed-width table with a title rule, like the paper's tables."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = StringIO()
    rule = "-+-".join("-" * w for w in widths)
    out.write(f"== {title} ==\n")
    out.write(" | ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n")
    out.write(rule + "\n")
    for row in cells:
        out.write(" | ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")
    if note:
        out.write(f"note: {note}\n")
    return out.getvalue()


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_series(title: str, x_label: str,
                  series: dict[str, dict[str, float]]) -> str:
    """One row per x value, one column per series (a figure-as-table)."""
    xs: list[str] = []
    for values in series.values():
        for x in values:
            if x not in xs:
                xs.append(x)
    headers = [x_label] + list(series)
    rows = [[x] + [series[name].get(x, "") for name in series] for x in xs]
    return format_table(title, headers, rows)

