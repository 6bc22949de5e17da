"""The README's Python API example runs as written, and its run-config
example parses."""

from pathlib import Path

from dpdlab.config import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_api_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


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
