#!/usr/bin/env python3
"""Sweep the (D, E) window and map the rotation number.

Produces a CSV (one row per grid cell) and a self-contained SVG heatmap.
Degenerate cells are left grey; the hue wheel encodes alpha mod 1, so the
period-3 locus shows up as the curve where the hue crosses 2/3.
"""

import argparse
import colorsys
import math

import numpy as np

from boltzmann_billiard import rotation_grid


def cell_color(alpha: float) -> str:
    r, g, b = colorsys.hls_to_rgb(alpha % 1.0, 0.55, 0.9)
    return f"#{int(255 * r):02x}{int(255 * g):02x}{int(255 * b):02x}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--D-range", type=float, nargs=2, default=(-4.0, 4.0),
                    metavar=("DMIN", "DMAX"))
    ap.add_argument("--E-range", type=float, nargs=2, default=(-0.6, 2.0),
                    metavar=("EMIN", "EMAX"))
    ap.add_argument("--n", type=int, default=160, help="cells per axis")
    ap.add_argument("--csv", default="rotation_grid.csv")
    ap.add_argument("--svg", default="rotation_grid.svg")
    args = ap.parse_args()

    Dmin, Dmax = args.D_range
    Emin, Emax = args.E_range
    n = args.n
    cell = 4  # pixels per cell

    # cell centres
    Ds = Dmin + (Dmax - Dmin) * (np.arange(n) + 0.5) / n
    Es = Emin + (Emax - Emin) * (np.arange(n) + 0.5) / n
    classes, alphas = rotation_grid(Ds[:, None], Es)
    rows = ["D,E,class,alpha"]
    rects = []
    computed = 0
    for i, (D, cls_row, alpha_row) in enumerate(zip(Ds.tolist(), classes, alphas.tolist())):
        for j, (E, cls, alpha) in enumerate(zip(Es.tolist(), cls_row, alpha_row)):
            computed += not math.isnan(alpha)
            rows.append(f"{D:.10g},{E:.10g},{cls.value},"
                        f"{'' if math.isnan(alpha) else format(alpha, '.10g')}")
            fill = "#cccccc" if math.isnan(alpha) else cell_color(alpha)
            # SVG y axis points down; flip so E grows upward
            rects.append(f'<rect x="{i * cell}" y="{(n - 1 - j) * cell}" '
                         f'width="{cell}" height="{cell}" fill="{fill}"/>')

    with open(args.csv, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    side = n * cell
    with open(args.svg, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
                 f'height="{side}" viewBox="0 0 {side} {side}">\n'
                 + "\n".join(rects) + "\n</svg>\n")
    print(f"wrote {args.csv} and {args.svg}: {computed}/{n * n} cells "
          f"carry a rotation number")


if __name__ == "__main__":
    main()
