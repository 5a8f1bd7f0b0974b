"""SVG rendering of instances and solutions.

Presentation only; no solver logic.  Detection circles are the only
<circle> elements in the output (one per target), so structural checks can
count them.  Targets and stations are drawn as small squares, placements as
crosses with a dashed line back to their origin station.
"""

from __future__ import annotations

import math

from .grid import bounding_box
from .instances_io import SolutionFile
from .sites import Instance

_F = "{:.6f}".format


class _Svg:
    def __init__(self, width: float, height: float):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_F(width)}" height="{_F(height)}" '
            f'viewBox="0 0 {_F(width)} {_F(height)}">']

    def line(self, x1, y1, x2, y2, stroke, width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_F(x1)}" y1="{_F(y1)}" x2="{_F(x2)}" y2="{_F(y2)}" '
            f'stroke="{stroke}" stroke-width="{_F(width)}"{d} />')

    def circle(self, cx, cy, r, stroke, cls):
        self.parts.append(
            f'<circle class="{cls}" cx="{_F(cx)}" cy="{_F(cy)}" r="{_F(r)}" '
            f'fill="none" stroke="{stroke}" stroke-width="1" />')

    def square(self, cx, cy, half, fill):
        self.parts.append(
            f'<rect x="{_F(cx - half)}" y="{_F(cy - half)}" '
            f'width="{_F(2 * half)}" height="{_F(2 * half)}" fill="{fill}" />')

    def cross(self, cx, cy, half, stroke):
        self.line(cx - half, cy - half, cx + half, cy + half, stroke, 1.5)
        self.line(cx - half, cy + half, cx + half, cy - half, stroke, 1.5)

    def finish(self) -> str:
        self.parts.append("</svg>")
        return "\n".join(self.parts) + "\n"


def render_svg(instance: Instance, solution: SolutionFile | None = None,
               size: float = 640.0) -> str:
    """Render an instance (and optionally a solution) as an SVG document.

    With a solution, the cell and strip lines of its winning shift round are
    drawn; the number of rounds m is read from the solution's config echo.
    """
    r = instance.r
    xs = [p.x for p in instance.targets] + [p.x for p in instance.stations]
    ys = [p.y for p in instance.targets] + [p.y for p in instance.stations]
    if solution is not None:
        xs += [row["x"] for row in solution.placements]
        ys += [row["y"] for row in solution.placements]
    if not xs:
        xs, ys = [0.0], [0.0]
    x0, x1 = min(xs) - 1.5 * r, max(xs) + 1.5 * r
    y0, y1 = min(ys) - 1.5 * r, max(ys) + 1.5 * r
    scale = size / max(x1 - x0, y1 - y0)
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale    # SVG y axis points down

    svg = _Svg(width, height)

    m = (solution.config.get("m") or 0) if solution else 0
    f = solution.shift_round if solution else None
    if m >= 1 and f is not None and instance.n >= 1:
        g = bounding_box(instance, m)
        side = g.cell_side
        strip_w = 2.0 * g.r
        off_x = g.origin.x + 2.0 * f * g.r
        off_y = g.origin.y + 2.0 * f * g.r
        x = off_x + math.floor((x0 - off_x) / strip_w) * strip_w
        while x <= x1:
            on_cell = abs(((x - off_x) / side) - round((x - off_x) / side)) < 1e-9
            svg.line(sx(x), sy(y0), sx(x), sy(y1),
                     "#888888" if on_cell else "#dddddd", 1.0 if on_cell else 0.5)
            x += strip_w
        y = off_y + math.floor((y0 - off_y) / side) * side
        while y <= y1:
            svg.line(sx(x0), sy(y), sx(x1), sy(y), "#888888", 1.0)
            y += side

    for t in instance.targets:
        svg.circle(sx(t.x), sy(t.y), r * scale, "#2266cc", "detection")
        svg.square(sx(t.x), sy(t.y), 2.5, "#2266cc")
    for p in instance.stations:
        svg.square(sx(p.x), sy(p.y), 4.0, "#cc3333")
    if solution is not None:
        for row in solution.placements:
            st = row.get("station")
            if isinstance(st, int) and 0 <= st < instance.k:
                origin = instance.stations[st]
                svg.line(sx(origin.x), sy(origin.y), sx(row["x"]), sy(row["y"]),
                         "#cc3333", 0.75, dash="4 3")
            svg.cross(sx(row["x"]), sy(row["y"]), 4.0, "#118833")
    return svg.finish()
