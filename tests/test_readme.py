"""The README's commands and quick start stay in step with the code."""

import re
import shlex
from pathlib import Path

import pytest

from qbp.cli import _build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _commands():
    """Every ``qbp ...`` line of the bash blocks, continuations joined."""
    out = []
    for block in re.findall(r"```bash\n(.*?)```", README, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "qbp":
                out.append(argv[1:])
    return out


COMMANDS = _commands()


def test_readme_has_commands():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    try:
        _build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"qbp {' '.join(argv)} does not parse (exit {exc.code})")


def test_library_quick_start_runs(capsys):
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.DOTALL)
    exec(compile(block.group(1), "README quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
