"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

from boltzmann_billiard import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_rotation_heatmap(tmp_path):
    csv, svg, grid = tmp_path / "grid.csv", tmp_path / "grid.svg", tmp_path / "cli.csv"
    done = run_script("rotation_heatmap.py", "--n", 8, "--D-range", 0.5, 3.5,
                      "--E-range", -0.4, -0.1, "--csv", csv, "--svg", svg)
    assert done.returncode == 0, done.stderr
    # the script's CSV is the grid command's, byte for byte, over the same window
    assert cli.main(["rotation", "--grid=0.5:3.5:-0.4:-0.1:8", "--out", str(grid)]) == 0
    assert csv.read_bytes() == grid.read_bytes()
    rows = csv.read_text().splitlines()
    assert len(rows) == 1 + 8 * 8
    # one cell per row, grey exactly where the alpha field is blank
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<rect ") == 8 * 8
    assert text.count('fill="#cccccc"') == sum(row.endswith(",") for row in rows[1:]) > 0
    assert done.stdout.endswith(f": {sum(not row.endswith(',') for row in rows[1:])}/64 cells "
                                "carry a rotation number\n")


def test_rotation_heatmap_refusal(tmp_path):
    # the grid command's refusal is the script's: one "error: ..." line and exit 2
    done = run_script("rotation_heatmap.py", "--n", 1, "--csv", tmp_path / "grid.csv",
                      "--svg", tmp_path / "grid.svg")
    assert (done.returncode, done.stderr) == (2, "error: --grid needs n >= 2\n")
    assert not (tmp_path / "grid.svg").exists()


def test_orbit_figure_gallery(tmp_path):
    done = run_script("orbit_figure.py", "--out-dir", tmp_path)
    assert done.returncode == 0, done.stderr
    gallery = ("class_i", "class_ii_plus", "class_ii_minus", "period3_triangle")
    want = {f"{name}_{kind}.svg" for name in gallery for kind in ("orbit", "levelset")}
    assert {p.name for p in tmp_path.iterdir()} == want
