#!/usr/bin/env python3
"""Sweep the (D, E) window and map the rotation number.

The CSV is `boltzmann-billiard rotation --grid` over the window, whose ends
are grid points, and the SVG heatmap draws its rows: grey where alpha is blank,
else a hue of alpha mod 1, so the period-3 locus is where the hue crosses 2/3.
"""

import argparse
import colorsys
import sys

from boltzmann_billiard import cli


def cell_color(alpha: str) -> str:
    if not alpha:  # the grid's blank field: no rotation number
        return "#cccccc"
    r, g, b = colorsys.hls_to_rgb(float(alpha) % 1.0, 0.55, 0.9)
    return f"#{int(255 * r):02x}{int(255 * g):02x}{int(255 * b):02x}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--D-range", type=float, nargs=2, default=(-4.0, 4.0), metavar=("DMIN", "DMAX"))
    ap.add_argument("--E-range", type=float, nargs=2, default=(-0.6, 2.0), metavar=("EMIN", "EMAX"))
    ap.add_argument("--n", type=int, default=160, help="grid points per axis")
    ap.add_argument("--csv", default="rotation_grid.csv")
    ap.add_argument("--svg", default="rotation_grid.svg")
    args = ap.parse_args()
    n, cell = args.n, 4  # pixels per cell
    spec = ":".join(map(repr, (*args.D_range, *args.E_range))) + f":{n}"
    if code := cli.main(["rotation", f"--grid={spec}", "--out", args.csv]):
        return code  # main wrote the "error: ..." line
    with open(args.csv) as fh:
        alphas = [line.rstrip("\n").split(",")[3] for line in fh][1:]
    # rows are D-major, row i*n + j at (D_i, E_j); the SVG y axis points down, so E grows upward
    rects = "".join(f'<rect x="{k // n * cell}" y="{(n - 1 - k % n) * cell}" width="{cell}" '
                    f'height="{cell}" fill="{cell_color(a)}"/>\n' for k, a in enumerate(alphas))
    side = n * cell
    with open(args.svg, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
                 f'viewBox="0 0 {side} {side}">\n{rects}</svg>\n')
    print(f"wrote {args.csv} and {args.svg}: {sum(map(bool, alphas))}/{n * n} cells "
          "carry a rotation number")
    return 0


if __name__ == "__main__":
    sys.exit(main())
