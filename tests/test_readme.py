"""The README's own examples, run as written, so it names only API that exists."""

import re
import shlex
from pathlib import Path

from prisomap.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of language under the level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(_block("Library", "python"), {"__name__": "readme"})
    stress, trustworthiness = map(float, capsys.readouterr().out.split())
    assert stress > 0 and 0 < trustworthiness <= 1


def test_quick_start_commands_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [line for line in _block("Quick start (CLI)", "sh").replace("\\\n", " ").splitlines()
                if line.startswith("prisomap ")]
    assert [shlex.split(line)[1] for line in commands] == ["gen", "embed", "eval", "bench", "plot"]
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
