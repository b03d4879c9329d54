"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

from boltzmann_billiard import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONWARNINGS="error")  # a warning in a script is an error
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
    # and over the default window, which holds every class
    done = run_script("rotation_heatmap.py", "--n", 20, "--csv", csv, "--svg", svg)
    assert done.returncode == 0, done.stderr
    assert cli.main(["rotation", "--grid=-4.0:4.0:-0.6:2.0:20", "--out", str(grid)]) == 0
    assert csv.read_bytes() == grid.read_bytes()


def test_rotation_heatmap_refusal(tmp_path):
    # the grid command's refusal is the script's: one "error: ..." line and exit 2
    done = run_script("rotation_heatmap.py", "--n", 1, "--csv", tmp_path / "grid.csv",
                      "--svg", tmp_path / "grid.svg")
    assert (done.returncode, done.stderr) == (2, "error: --grid needs n >= 2\n")
    assert not (tmp_path / "grid.svg").exists()


def test_orbit_figure_gallery(tmp_path):
    done = run_script("orbit_figure.py", "--out-dir", tmp_path / "gallery", "--seed", 2)
    assert done.returncode == 0, done.stderr
    gallery = (("class_i", 1.5, -0.2, 12), ("class_ii_plus", 2.5, -0.1, 12),
               ("class_ii_minus", -2.5, 1.5, 12), ("period3_triangle", 1.75, -5.0 / 24.0, 3))
    want = {f"{name}_{kind}.svg" for name, *_ in gallery for kind in ("orbit", "levelset")}
    assert {p.name for p in (tmp_path / "gallery").iterdir()} == want
    # each figure is the orbit command's, byte for byte, at the same D, E, steps and seed
    for name, D, E, steps in gallery:
        for kind, fmt in (("orbit", "svg"), ("levelset", "levelset")):
            out = tmp_path / f"{name}_{kind}.svg"
            assert cli.main(["orbit", "--D", repr(D), "--E", repr(E), "--steps", str(steps),
                             "--seed", "2", "--format", fmt, "--out", str(out)]) == 0
            assert (tmp_path / "gallery" / out.name).read_bytes() == out.read_bytes()
    assert done.stdout.count("wrote ") == len(want) and "residual" not in done.stdout


def test_output_digests():
    # one "name sha256" line per selected entry, the same in two fresh interpreters
    patterns = ["rotation-fx-*", "rotation-grid-60"]
    runs = [run_script("output_digests.py", *patterns) for _ in range(2)]
    assert [done.returncode for done in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [line.split() for line in runs[0].stdout.splitlines()]
    assert [name for name, _ in lines] == ["rotation-fx-I", "rotation-fx-IIplus",
                                           "rotation-fx-IIminus", "rotation-grid-60"]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in lines)
    done = run_script("output_digests.py", "no-such-entry")
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: no entry matches no-such-entry\n")


def test_code_lines():
    # one "lines path" line per src/ module, then the total, which is their sum
    done = run_script("code_lines.py")
    assert done.returncode == 0, done.stderr
    *modules, total = [line.split() for line in done.stdout.splitlines()]
    assert {path for _, path in modules} == {
        str(pathlib.Path("src", "boltzmann_billiard", p.name))
        for p in (ROOT / "src" / "boltzmann_billiard").glob("*.py")}
    assert all(int(n) > 0 for n, _ in modules)
    assert total[0] == "total" and int(total[1]) == sum(int(n) for n, _ in modules)
