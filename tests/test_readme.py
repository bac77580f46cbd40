"""The README's examples print what it shows: the library quick start runs as
a doctest, and every `$ macpoly ...` line of a fenced block runs through the
command line with its stdout compared exactly."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from macpoly.cli import CACHE_ENV, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# (language, body) of every fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def cli_examples() -> list[tuple[list[str], str]]:
    """(arguments, expected stdout) of each `$ macpoly` line in a fenced
    block; its output runs to the next blank line."""
    examples = []
    for _, body in BLOCKS:
        for chunk in body.split("\n\n"):
            command, *output = chunk.strip("\n").split("\n")
            if command.startswith("$ macpoly "):
                examples.append((shlex.split(command)[2:], "".join(f"{line}\n" for line in output)))
    return examples


EXAMPLES = cli_examples()


def test_the_library_quick_start_runs_as_shown():
    (body,) = [body for language, body in BLOCKS if language == "python" and ">>>" in body]
    test = doctest.DocTestParser().get_doctest(body, {}, "quick start", "README.md", 0)
    report: list[str] = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted and not result.failed, "".join(report)


def test_every_command_line_example_is_collected():
    assert len(EXAMPLES) == README.count("\n$ macpoly ") > 0


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_a_command_line_example_prints_what_the_readme_shows(capsys, monkeypatch, argv, expected):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
