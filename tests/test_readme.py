"""The README's examples run as printed.

Every ``$ loopalg ...`` line of a ``sh`` block is run through ``cli.run`` and
its stdout compared with the lines that follow it, up to the next blank line;
every ``python`` block is executed.
"""

import re
import shlex
from pathlib import Path

import pytest

from loopalg.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)


def _examples():
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        for chunk in body.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ loopalg "):
                yield lines[0][2:], "".join(f"{line}\n" for line in lines[1:])


EXAMPLES = list(_examples())


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4
    assert [lang for lang, _ in BLOCKS].count("python") >= 1


@pytest.mark.parametrize(("command", "expected"), EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_cli_example(capsys, command, expected):
    assert run(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected


def test_library_example():
    for lang, body in BLOCKS:
        if lang == "python":
            exec(compile(body, str(README), "exec"), {})
