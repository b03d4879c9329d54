"""Tiny deterministic SVG writer for orbit and level-set figures.

No plotting dependency: figures are a handful of polylines and markers,
emitted with fixed formatting so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ArcUnsupportedError
from .kepler import trajectory_arc
from .levelset import ConfigPoint, LevelSetParams, RealLocusClass
from .poincare import component_curve

_ARC_POINTS = 64  # samples per Kepler arc of orbit_figure
_CURVE_POINTS = 257  # samples per component of level_set_figure


def _fmt(v: float) -> str:
    return f"{v:.6f}"


@dataclass
class SvgCanvas:
    """Collects shapes in data coordinates, maps them to a fixed viewport on render."""

    width: int = 640
    height: int = 640
    margin: float = 40.0
    elements: list = field(default_factory=list)
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)

    def _track(self, pts) -> None:
        for x, y in pts:
            if math.isfinite(x) and math.isfinite(y):
                self.xs.append(x)
                self.ys.append(y)

    def polyline(self, pts, cls: str) -> None:
        pts = [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]
        if len(pts) < 2:
            return
        self._track(pts)
        self.elements.append(("polyline", cls, pts))

    def path(self, pts, cls: str) -> None:
        """Open path; used for trajectory arcs so they are countable as <path> nodes."""
        pts = [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]
        if len(pts) < 2:
            return
        self._track(pts)
        self.elements.append(("path", cls, pts))

    def circle_marker(self, x: float, y: float, cls: str, r: float = 3.0) -> None:
        self._track([(x, y)])
        self.elements.append(("circle", cls, (x, y, r)))

    def _transform(self):
        if not self.xs:
            return lambda x, y: (self.margin, self.margin)
        x0, x1 = min(self.xs), max(self.xs)
        y0, y1 = min(self.ys), max(self.ys)
        span_x = max(x1 - x0, 1e-9)
        span_y = max(y1 - y0, 1e-9)
        s = min((self.width - 2 * self.margin) / span_x,
                (self.height - 2 * self.margin) / span_y)
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)

        def to_px(x: float, y: float):
            # y axis points up in data coordinates, down in SVG
            return (self.width / 2 + s * (x - cx), self.height / 2 - s * (y - cy))

        return to_px

    def render(self) -> str:
        to_px = self._transform()
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">',
            "<style>"
            ".wall{stroke:#333;stroke-width:2;fill:none}"
            ".arc{stroke:#1565c0;stroke-width:1.2;fill:none}"
            ".component{stroke:#2e7d32;stroke-width:1.2;fill:none}"
            ".orbit{fill:#c62828;stroke:none}"
            ".centre{fill:#333;stroke:none}"
            "</style>",
        ]
        for kind, cls, data in self.elements:
            if kind == "polyline":
                coords = " ".join("%s,%s" % tuple(map(_fmt, to_px(x, y))) for x, y in data)
                out.append(f'<polyline class="{cls}" points="{coords}"/>')
            elif kind == "path":
                px = [to_px(x, y) for x, y in data]
                d = "M " + " L ".join("%s %s" % tuple(map(_fmt, p)) for p in px)
                out.append(f'<path class="{cls}" d="{d}"/>')
            else:
                x, y, r = data
                px, py = to_px(x, y)
                out.append(f'<circle class="{cls}" cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r)}"/>')
        out.append("</svg>")
        return "\n".join(out) + "\n"


def orbit_figure(points: list[ConfigPoint], params: LevelSetParams) -> str:
    """Physical-plane figure: the wall, the centre, and a marker and a Kepler arc per bounce.

    An arc that trajectory_arc refuses (through infinity or below the wall) is left out.
    """
    canvas = SvgCanvas()
    xs = [c.x for c in points]
    lo, hi = min(xs + [-1.0]), max(xs + [1.0])
    pad = 0.25 * (hi - lo) + 0.25
    canvas.polyline([(lo - pad, 1.0), (hi + pad, 1.0)], "wall")
    canvas.circle_marker(0.0, 0.0, "centre", r=4.0)
    for c in points[:-1]:
        try:
            arc = trajectory_arc(c, params, n=_ARC_POINTS)
        except ArcUnsupportedError:
            continue
        canvas.path(arc, "arc")
    for c in points:
        canvas.circle_marker(c.x, 1.0, "orbit", r=2.5)
    return canvas.render()


def level_set_figure(params: LevelSetParams, points: list[ConfigPoint] | None = None) -> str:
    """Level-set figure in the (A1, L) plane, with optional orbit points."""
    canvas = SvgCanvas()
    two_sided = params.cls in (RealLocusClass.II_PLUS, RealLocusClass.II_MINUS)
    eps_values = (0, 1) if two_sided else (0,)
    root = math.sqrt(params.D + 2.0 * params.E)
    for eps in eps_values:
        curve = component_curve(params, eps=eps, n=_CURVE_POINTS)
        canvas.polyline([(c.A1, c.z(params) / root) for c in curve], "component")
    if points:
        for c in points:
            canvas.circle_marker(c.A1, c.z(params) / root, "orbit", r=2.5)
    return canvas.render()
