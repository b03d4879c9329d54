#!/usr/bin/env python3
"""Render a small gallery of orbit and level-set figures.

Writes one orbit SVG and one level-set SVG for each of the three
nondegenerate classes, plus the closed period-3 triangle, into --out-dir.
"""

import argparse
import pathlib

from boltzmann_billiard import derive_params, iterate_orbit, sample_level_set
from boltzmann_billiard.svgplot import level_set_figure, orbit_figure

GALLERY = [
    ("class_i", 1.5, -0.2, 12),
    ("class_ii_plus", 2.5, -0.1, 12),
    ("class_ii_minus", -2.5, 1.5, 12),
    ("period3_triangle", 1.75, -5.0 / 24.0, 3),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("figures"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for name, D, E, steps in GALLERY:
        params = derive_params(D, E)
        c0 = sample_level_set(params, 1, seed=args.seed)[0]
        orbit = iterate_orbit(c0, params, steps)

        path = args.out_dir / f"{name}_orbit.svg"
        path.write_text(orbit_figure(orbit.points, params))
        print(f"wrote {path} ({steps} bounces, residual {max(orbit.residuals):.2e})")

        path = args.out_dir / f"{name}_levelset.svg"
        path.write_text(level_set_figure(params, orbit.points))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
