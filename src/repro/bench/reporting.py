"""Result containers and ASCII rendering for the benchmark harness.

Every experiment in :mod:`repro.bench.experiments` returns an
:class:`ExperimentResult` whose ``render()`` prints the same rows/series
the paper's table or figure reports (datasets × methods × templates with
times, sizes, ratios...).  Absolute numbers differ from the paper — this
substrate is pure Python on synthetic stand-in graphs — but the *shape*
(who wins, rough factors, crossovers) is the reproduction target; see
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """A rendered-table-shaped experiment outcome."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def render(self) -> str:
        """Format as a fixed-width ASCII table with a title banner."""
        return f"== {self.experiment}: {self.title} ==\n" + format_table(
            self.headers, self.rows
        )

    def column(self, header: str) -> list[object]:
        """Extract one column by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def rows_where(self, header: str, value: object) -> list[list[object]]:
        """Rows whose ``header`` column equals ``value``."""
        index = self.headers.index(header)
        return [row for row in self.rows if row[index] == value]


def format_cell(value: object) -> str:
    """Uniform cell formatting: scientific for small floats, plain else."""
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) < 0.01 or abs(value) >= 100000:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Fixed-width ASCII table."""
    printable = [[format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in printable:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in printable
    )
    return "\n".join(lines)


def speedup(baseline: float, contender: float) -> float:
    """How many times faster ``contender`` is than ``baseline``."""
    if contender <= 0:
        return float("inf")
    return baseline / contender


def render_series(
    result: ExperimentResult,
    x: str,
    y: str,
    group_by: str,
    width: int = 40,
) -> str:
    """ASCII rendering of a figure-style result: log-scale bars per group.

    The paper's figures are log-scale time series per method/template;
    this renders each ``group_by`` value as a section with one bar per
    ``x`` value whose length is proportional to ``log10(y)`` within the
    result's global range — enough to eyeball crossovers in a terminal.
    """
    import math

    x_index = result.headers.index(x)
    y_index = result.headers.index(y)
    group_index = result.headers.index(group_by)
    values = [row[y_index] for row in result.rows if row[y_index]]
    if not values:
        return "(no data)"
    low = math.log10(min(values))
    high = math.log10(max(values))
    span = max(high - low, 1e-9)

    def bar(value: float) -> str:
        if value <= 0:
            return ""
        fraction = (math.log10(value) - low) / span
        return "#" * max(1, int(round(fraction * width)))

    lines = [f"{result.experiment}: {y} by {x} (log scale, grouped by {group_by})"]
    groups: dict[object, list] = {}
    for row in result.rows:
        groups.setdefault(row[group_index], []).append(row)
    for group, rows in groups.items():
        lines.append(f"{group}:")
        for row in rows:
            label = format_cell(row[x_index])
            value = row[y_index]
            lines.append(
                f"  {label:>10} {bar(value):<{width}} {format_cell(value)}"
            )
    return "\n".join(lines)
