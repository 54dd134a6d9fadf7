"""The README's examples, run: each CLI command prints the summary line shown beside it."""
from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

import pytest

from dynwindow.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def _cli_examples() -> list[tuple[str, list[str]]]:
    # "$ dynwindow ..." lines, each with the output lines under it up to the next blank, comment or command.
    examples = []
    for _, body in BLOCKS:
        output = None
        for line in body.splitlines():
            if line.startswith("$ dynwindow "):
                output = []
                examples.append((line[2:], output))
            elif not line or line.startswith("#"):
                output = None
            elif output is not None:
                output.append(line)
    return examples


CLI_EXAMPLES = _cli_examples()

# The README's squares.txt: the squares 0, 1, 4, ..., 10000 on the horizon 10000.
SQUARES_TXT = "!horizon 10000\n# squares\n" + "".join(f"{n * n}\n" for n in range(101))


def test_the_cli_block_has_every_example():
    assert len(CLI_EXAMPLES) == 9
    assert all(summary for _, summary in CLI_EXAMPLES)


def test_the_format_example_is_the_head_of_squares_txt():
    (example,) = [body for _, body in BLOCKS if body.startswith("!horizon")]
    assert SQUARES_TXT.startswith(example)


@pytest.mark.parametrize("command, summary", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_cli_example_prints_its_summary(tmp_path, monkeypatch, capsys, command, summary):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "squares.txt").write_text(SQUARES_TXT, encoding="utf-8")
    argv = shlex.split(command)
    assert argv[0] == "dynwindow"
    assert main(argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line for line in summary if line not in lines] == []


def test_library_example_runs_as_shown():
    (body,) = [body for lang, body in BLOCKS if lang == "pycon"]
    test = doctest.DocTestParser().get_doctest(body, {}, "README", "README.md", 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
