#!/usr/bin/env python3
"""Render a small gallery of orbit and level-set figures.

Writes one orbit SVG and one level-set SVG for each of the three
nondegenerate classes, plus the closed period-3 triangle, into --out-dir.
Each figure is `boltzmann-billiard orbit --format svg|levelset` at its
(D, E), steps and --seed, so its bytes are the command's.
"""

import argparse
import pathlib
import sys

from boltzmann_billiard import cli

GALLERY = [
    ("class_i", 1.5, -0.2, 12),
    ("class_ii_plus", 2.5, -0.1, 12),
    ("class_ii_minus", -2.5, 1.5, 12),
    ("period3_triangle", 1.75, -5.0 / 24.0, 3),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("figures"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, D, E, steps in GALLERY:
        for kind, fmt in (("orbit", "svg"), ("levelset", "levelset")):
            path = args.out_dir / f"{name}_{kind}.svg"
            if code := cli.main(["orbit", "--D", repr(D), "--E", repr(E), "--steps", str(steps),
                                 "--seed", str(args.seed), "--format", fmt, "--out", str(path)]):
                return code  # main wrote the "error: ..." or "orbit aborted: ..." line
            print(f"wrote {path} ({steps} bounces)" if kind == "orbit" else f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
