"""The README's quick start and Python API example run as written, its
run-config example parses, and its key list names every config key."""

import math
import re
import shlex
from pathlib import Path

from dpdlab import config
from dpdlab.cli import _FIT_MODEL_FLAGS, dispatch
from dpdlab.config import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _python_api_block() -> str:
    return _section("Python API").split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_commands_run(tmp_path, monkeypatch, capsys):
    block = _section("Quick start").split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("dpdlab ")]
    assert [argv[1] for argv in commands] == ["gen-signal", "simulate-pa", "fit", "eval"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert dispatch(argv[1:]) == 0, argv
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and math.isfinite(float(printed[0]))


def test_python_api_example_runs(capsys):
    exec(compile(_python_api_block(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(float(value) for line in lines for value in line.split())


def test_config_example_parses():
    block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block, path="README.md")
    assert cfg.kind == "agmpnn"
    assert cfg.taps == 7


def test_configuration_lists_every_key_of_every_section():
    # One line per section, `- `[section]`: `key`, ...`, in schema order.
    listed = {}
    for line in _section("Configuration").splitlines():
        match = re.match(r"- `\[(\w+)\]`: (.*)$", line)
        if match:
            assert match[1] not in listed, f"[{match[1]}] is listed twice"
            listed[match[1]] = re.findall(r"`(\w+)`", match[2])
    assert listed == {section: list(keys) for section, keys in config._SCHEMA.items()}


def test_commands_list_every_fit_model_flag():
    sentence = " ".join(_section("Commands").split()).split("`fit --config FILE`", 1)[1]
    listed = re.findall(r"`(--[\w-]+)`", sentence.split(" override them.", 1)[0])
    assert listed == [flag for flag, _ in _FIT_MODEL_FLAGS.values()]
