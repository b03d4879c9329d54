"""Tiny deterministic SVG writer for orbit and level-set figures.

No plotting dependency: figures are a handful of polylines and markers,
emitted with fixed formatting so identical inputs give identical bytes.
"""

from __future__ import annotations

import math

from .errors import BilliardError
from .kepler import trajectory_arc
from .levelset import ConfigPoint, LevelSetParams, RealLocusClass, _require_nondegenerate
from .poincare import component_curve

_SIZE = 640  # width and height of the viewport in px
_MARGIN = 40.0  # px left clear on every side
_HEAD = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
         f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">\n'
         "<style>"
         ".wall{stroke:#333;stroke-width:2;fill:none}"
         ".arc{stroke:#1565c0;stroke-width:1.2;fill:none}"
         ".component{stroke:#2e7d32;stroke-width:1.2;fill:none}"
         ".orbit{fill:#c62828;stroke:none}"
         ".centre{fill:#333;stroke:none}"
         "</style>")


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _finite(pts) -> list:
    return [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]


def _render(shapes) -> str:
    """SVG text of shapes given in data coordinates, fitted into the viewport.

    A shape is (tag, cls, data).  A "polyline" or "path" runs through the
    finite points of data and is left out when fewer than two remain; a
    "circle" has data (x, y, r).  The finite points drawn fix the scale,
    the same on both axes, and the y axis points up.  Trajectory arcs are
    paths, so they count as <path> nodes.
    """
    kept, pts = [], []
    for tag, cls, data in shapes:
        if tag == "circle":
            pts += _finite([data[:2]])
        else:
            data = _finite(data)
            if len(data) < 2:
                continue
            pts += data
        kept.append((tag, cls, data))
    xs, ys = zip(*pts)
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    s = (_SIZE - 2 * _MARGIN) / max(x1 - x0, y1 - y0, 1e-9)
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)

    def px(x: float, y: float) -> tuple:
        return _fmt(_SIZE / 2 + s * (x - cx)), _fmt(_SIZE / 2 - s * (y - cy))

    out = [_HEAD]
    for tag, cls, data in kept:
        if tag == "polyline":
            coords = " ".join("%s,%s" % px(x, y) for x, y in data)
            out.append(f'<polyline class="{cls}" points="{coords}"/>')
        elif tag == "path":
            d = "M " + " L ".join("%s %s" % px(x, y) for x, y in data)
            out.append(f'<path class="{cls}" d="{d}"/>')
        else:
            x, y, r = data
            x, y = px(x, y)
            out.append(f'<circle class="{cls}" cx="{x}" cy="{y}" r="{_fmt(r)}"/>')
    out.append("</svg>\n")
    return "\n".join(out)


def orbit_figure(points: list[ConfigPoint], params: LevelSetParams) -> str:
    """Physical-plane figure: the wall, the centre, and a marker and a Kepler arc per bounce.

    An arc that trajectory_arc refuses (radial or tangent, through infinity, below the
    wall, or with its far wall point at infinity) is left out.
    """
    _require_nondegenerate(params)  # before the arcs, whose refusals are left out
    xs = [c.x for c in points]
    lo, hi = min(xs + [-1.0]), max(xs + [1.0])
    pad = 0.25 * (hi - lo) + 0.25
    shapes = [("polyline", "wall", [(lo - pad, 1.0), (hi + pad, 1.0)]),
              ("circle", "centre", (0.0, 0.0, 4.0))]
    for c in points[:-1]:
        try:
            shapes.append(("path", "arc", trajectory_arc(c, params)))
        except BilliardError:
            continue
    shapes += [("circle", "orbit", (c.x, 1.0, 2.5)) for c in points]
    return _render(shapes)


def level_set_figure(params: LevelSetParams, points: list[ConfigPoint] | None = None) -> str:
    """Level-set figure in the (A1, L) plane, with optional orbit points."""
    _require_nondegenerate(params)  # before L, whose error on D + 2E < 0 names no class
    two_sided = params.cls in (RealLocusClass.II_PLUS, RealLocusClass.II_MINUS)
    shapes = [("polyline", "component",
               [(c.A1, c.L(params)) for c in component_curve(params, eps=eps)])
              for eps in ((0, 1) if two_sided else (0,))]
    shapes += [("circle", "orbit", (c.A1, c.L(params), 2.5)) for c in points or ()]
    return _render(shapes)
