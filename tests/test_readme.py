"""The README's console session, run through ``cli.main``.

The ``$ arrowlm`` lines run in order in one temporary directory that
starts with ``raw.txt``, the README's ``text`` block.  Each line's standard
output must match the lines below it, where ``...`` matches any text, as
doctest's ``ELLIPSIS`` does.  A line ending in ``; echo $?`` prints the
exit code after the output, as a shell would; any other line must exit 0.
"""

import re
import shlex
from pathlib import Path

from arrowlm import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def session(text: str) -> list[tuple[str, str]]:
    """``(command line, expected output)`` for each ``$`` line of the first console block."""
    block = re.search(r"```console\n(.*?)```", text, re.S).group(1)
    steps = []
    for line in block.splitlines(keepends=True):
        if line.startswith("$ "):
            steps.append([line[2:].rstrip("\n"), ""])
        else:
            steps[-1][1] += line
    return [tuple(step) for step in steps]


def matches(want: str, got: str) -> bool:
    return re.fullmatch(".*".join(map(re.escape, want.split("..."))), got, re.S) is not None


def test_the_readme_session_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    raw = re.search(r"```text\n(.*?)```", text, re.S).group(1)
    (tmp_path / "raw.txt").write_text(raw, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    steps = session(text)
    assert len(steps) == 8
    for command, want in steps:
        command, echo = command.removesuffix("; echo $?"), command.endswith("; echo $?")
        program, *argv = shlex.split(command)
        assert program == "arrowlm", command
        status = cli.main(argv)
        got = capsys.readouterr().out + (f"{status}\n" if echo else "")
        assert echo or status == 0, (command, status)
        assert matches(want, got), (command, got)
