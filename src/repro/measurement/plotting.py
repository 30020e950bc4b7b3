"""Terminal rendering of CDFs.

The paper's Figures 2-5 are CDFs on log-scale time axes. The benches and
examples render the same series as ASCII so a full figure can be read in
a terminal or a CI log -- no plotting dependency required.
"""

from __future__ import annotations

import math

from repro.measurement.stats import Cdf

#: Glyphs cycled across series.
GLYPHS = "ox+*#@%&"
#: chart size in characters
WIDTH = 64
HEIGHT = 16


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Decade ticks covering [lo, hi] (``lo`` > 0)."""
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(max(hi, lo * 10)))
    return [10.0**e for e in range(first, last + 1)]


def render_cdfs(series: dict[str, Cdf]) -> str:
    """Render named CDFs as a :data:`WIDTH` x :data:`HEIGHT` ASCII chart
    on a log time axis (paper-figure style).

    Censored mass keeps a curve from reaching 1.0, exactly as it keeps
    the paper's CDFs from topping out. The axis is labelled at its decade
    ticks, or at its two ends when no decade falls inside the range.
    """
    populated = {name: cdf for name, cdf in series.items() if cdf.n > 0}
    if not populated:
        return "(no data)"
    xs_all: list[float] = []
    for cdf in populated.values():
        xs, _ = cdf.series()
        xs_all.extend(x for x in xs if x > 0)
    if not xs_all:
        return "(all samples censored)"
    lo = max(min(xs_all), 1e-3)
    hi = max(max(xs_all), lo * 1.001)
    log_lo, log_span = math.log10(lo), math.log10(hi) - math.log10(lo)

    def column(x: float) -> int:
        frac = (math.log10(max(x, lo)) - log_lo) / log_span
        return min(WIDTH - 1, max(0, int(frac * (WIDTH - 1))))

    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    for (name, cdf), glyph in zip(populated.items(), GLYPHS):
        for col in range(WIDTH):
            y = cdf.at(10 ** (log_lo + col / (WIDTH - 1) * log_span))
            row = HEIGHT - 1 - min(HEIGHT - 1, int(y * (HEIGHT - 1)))
            # Later series overwrite on conflict so every curve stays
            # visible where they overlap.
            grid[row][col] = glyph

    lines = []
    for i, row in enumerate(grid):
        y_value = 1.0 - i / (HEIGHT - 1)
        label = f"{y_value:4.2f} |" if i % 5 == 0 or i == HEIGHT - 1 else "     |"
        lines.append(label + "".join(row))
    lines.append("     +" + "-" * WIDTH)

    tick_line = [" "] * (WIDTH + 12)
    ticks = [tick for tick in _log_ticks(lo, hi) if lo <= tick <= hi] or [lo, hi]
    for tick in ticks:
        col = 6 + column(tick)
        for offset, ch in enumerate(f"{tick:g}"):
            if col + offset < len(tick_line):
                tick_line[col + offset] = ch
    lines.append("".join(tick_line))
    lines.append("      time (s)")
    legend = "   ".join(
        f"{glyph} {name}" for (name, _), glyph in zip(populated.items(), GLYPHS)
    )
    lines.append(f"      {legend}")
    return "\n".join(lines)
