"""ASCII rendering of tables and figures.

Every experiment driver regenerates its paper artifact as text: tables
as aligned columns, figures as labelled horizontal bar charts or
series.  Keeping the renderer dependency-free makes the harness usable
in any terminal and easy to diff in CI.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

BAR_CHARS = 48


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width table with a separator under the header."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must match the header width")
    cells = [[str(h) for h in headers]] + [
        [_fmt(value) for value in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


def render_bar_chart(
    data: Mapping[str, float],
    title: Optional[str] = None,
    unit: str = "",
    width: int = BAR_CHARS,
) -> str:
    """Horizontal bars, one per labelled value."""
    if not data:
        raise ValueError("no data to chart")
    peak = max(data.values()) or 1.0
    label_width = max(len(k) for k in data)
    lines: List[str] = [title] if title else []
    for label, value in data.items():
        bar = "#" * max(1 if value > 0 else 0, round(width * value / peak))
        lines.append(f"{label.ljust(label_width)} |{bar} {_fmt(value)}{unit}")
    return "\n".join(lines)


def render_stacked_bars(
    data: Mapping[str, Mapping[str, float]],
    segment_order: Sequence[str],
    title: Optional[str] = None,
    unit: str = "s",
    width: int = BAR_CHARS,
) -> str:
    """Stacked horizontal bars (Fig 3 / Fig 8 style).

    ``data`` maps bar label -> {segment -> value}; segments render with
    distinct fill characters in ``segment_order``.
    """
    if not data:
        raise ValueError("no data to chart")
    fills = "#=+:%*"
    totals = {k: sum(v.values()) for k, v in data.items()}
    peak = max(totals.values()) or 1.0
    label_width = max(len(k) for k in data)
    lines: List[str] = [title] if title else []
    legend = ", ".join(
        f"{fills[i % len(fills)]}={seg}" for i, seg in enumerate(segment_order)
    )
    lines.append(f"  [{legend}]")
    for label, segments in data.items():
        bar = ""
        for i, seg in enumerate(segment_order):
            value = segments.get(seg, 0.0)
            bar += fills[i % len(fills)] * round(width * value / peak)
        lines.append(
            f"{label.ljust(label_width)} |{bar} {_fmt(totals[label])}{unit}"
        )
    return "\n".join(lines)


def render_series(
    series: Mapping[str, Mapping[int, float]],
    title: Optional[str] = None,
    x_label: str = "threads",
    unit: str = "s",
) -> str:
    """Line-series data as a compact grid (Fig 4/5/6 style)."""
    if not series:
        raise ValueError("no series to render")
    xs: List[int] = sorted({x for pts in series.values() for x in pts})
    headers = [x_label] + [str(x) for x in xs]
    rows = []
    for name, pts in series.items():
        rows.append([name] + [
            _fmt(pts[x]) + unit if x in pts else "-" for x in xs
        ])
    return render_table(headers, rows, title=title)


def render_pie(
    data: Mapping[str, float],
    title: Optional[str] = None,
) -> str:
    """Percentage breakdown (Fig 9 style), sorted descending."""
    total = sum(data.values())
    if total <= 0:
        raise ValueError("pie requires positive total")
    lines: List[str] = [title] if title else []
    for label, value in sorted(data.items(), key=lambda kv: -kv[1]):
        pct = 100.0 * value / total
        bar = "#" * max(1, round(pct / 2))
        lines.append(f"{label:40s} {pct:5.1f}% |{bar}")
    return "\n".join(lines)
