"""The CLI outputs pinned in tests/golden/cli.sha256: the fast steps of
tools/cli_outputs.py, run in-process, must reproduce their manifest lines.
CI runs every step, the searches included, under two hash seeds."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "cli_outputs", _ROOT / "tools" / "cli_outputs.py")
cli_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_outputs)

MANIFEST = (_ROOT / "tests" / "golden" / "cli.sha256").read_text()


def test_manifest_is_sorted_and_names_every_step():
    names = [line.split("  ")[1] for line in MANIFEST.splitlines()]
    assert names == sorted(set(names))
    assert {name for name, _step, _status in cli_outputs.STEPS} <= set(names)


def test_fast_steps_match_the_manifest(tmp_path):
    out = tmp_path / "out"
    assert cli_outputs.run(out, cli_outputs.STEPS[:cli_outputs.SLOW_FROM]) == []
    lines = cli_outputs.manifest(out).splitlines()
    assert len(lines) > cli_outputs.SLOW_FROM // 2
    pinned = set(MANIFEST.splitlines())
    assert [line for line in lines if line not in pinned] == []


def test_a_wrong_exit_status_is_an_error(tmp_path):
    errors = cli_outputs.run(tmp_path / "out", [("unknown.txt", "generate mystery_graph", 0)])
    assert errors == ["percop generate mystery_graph: exit 2, expected 0"]
