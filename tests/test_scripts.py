"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_rotation_heatmap(tmp_path):
    csv, svg = tmp_path / "grid.csv", tmp_path / "grid.svg"
    done = run_script("rotation_heatmap.py", "--n", 8, "--csv", csv, "--svg", svg)
    assert done.returncode == 0, done.stderr
    assert len(csv.read_text().splitlines()) == 1 + 8 * 8
    assert svg.read_text().startswith("<svg")


def test_orbit_figure_gallery(tmp_path):
    done = run_script("orbit_figure.py", "--out-dir", tmp_path)
    assert done.returncode == 0, done.stderr
    gallery = ("class_i", "class_ii_plus", "class_ii_minus", "period3_triangle")
    want = {f"{name}_{kind}.svg" for name in gallery for kind in ("orbit", "levelset")}
    assert {p.name for p in tmp_path.iterdir()} == want
