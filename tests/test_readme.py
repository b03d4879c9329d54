"""The README against the code: every command, the sketch, the scripts and the paths it names."""

import ast
import pathlib
import re
import shlex

import pytest

from boltzmann_billiard import cli
from test_layout import SINGLE_POINT_API

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
SHELL_LINES = [line for lang, body in BLOCKS if lang != "python" for line in body.splitlines()]
SKETCH = next(body for lang, body in BLOCKS if lang == "python")


def shown_commands() -> list:
    """(argv, exit code, stderr) of each boltzmann-billiard line and the comment under it."""
    shown = []
    for line, note in zip(SHELL_LINES, SHELL_LINES[1:] + [""]):
        if line.startswith("boltzmann-billiard "):
            got = re.fullmatch(r"# exit (\d)(?:: (.+))?", note)
            assert got, f"no '# exit N' comment under {line!r}"
            shown.append((shlex.split(line)[1:], int(got[1]), got[2] + "\n" if got[2] else ""))
    return shown


COMMANDS = shown_commands()


def test_every_command_and_exit_code_shown():
    # each subcommand has an example, and each exit code a command that gives it
    assert {argv[0] for argv, *_ in COMMANDS} == {
        "classify", "orbit", "rotation", "period-scan", "selftest"}
    assert {code for _, code, _ in COMMANDS} == {0, 1, 2}


@pytest.mark.parametrize("argv, code, stderr", COMMANDS, ids=[" ".join(a) for a, *_ in COMMANDS])
def test_command_runs_as_shown(capsys, tmp_path, argv, code, stderr):
    # an --out file is written under tmp_path, by its name in the README
    argv = [str(tmp_path / pathlib.Path(value).name) if key == "--out" else value
            for key, value in zip([None] + argv, argv)]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err == stderr
    assert bool(out) is (code != 2 and "--out" not in argv)  # a refusal writes no output


def test_sketch_runs_and_states_true_results():
    names = {}
    exec(compile(SKETCH, "README.md", "exec"), names)
    assert names["rot"].alpha == pytest.approx(2 / 3, abs=1e-15)
    assert names["report"].predicted == names["report"].detected == names["period"] == 3
    assert names["alpha"].shape == (60, 60)
    called = {node.func.id for node in ast.walk(ast.parse(SKETCH))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert SINGLE_POINT_API <= called  # the API that needs no caller in the tree is shown here


def test_scripts_shown_are_tested():
    tested = set(re.findall(r'run_script\("(\w+\.py)"', (ROOT / "tests" / "test_scripts.py").read_text()))
    shown = {line.split()[1].removeprefix("scripts/") for line in SHELL_LINES
             if line.startswith("python3 scripts/")}
    assert shown and shown <= tested
    assert shown == {path.name for path in (ROOT / "scripts").glob("*.py")}


def test_named_paths_exist():
    named = re.findall(r"(?<![\w/])((?:src|tests|scripts|perfbench|\.github)/[\w./]*\w|BENCH_\w+\.json)"
                       r"(?:::(\w+))?", README)
    assert named
    for path, name in named:
        assert (ROOT / path).exists(), path
        assert not name or re.search(rf"^\s*def {name}\b", (ROOT / path).read_text(), re.M), name
