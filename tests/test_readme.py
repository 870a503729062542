"""The command-line examples in README.md print what the README says.

Every ``$ involab ...`` line in a ``sh`` block is run through main(argv)
in a fresh directory, and its stdout is compared with the lines printed
under it, up to the next ``$`` line or the end of the block. The
``phi.txt`` that the cover example creates with printf is written first.
"""

import re
import shlex
from pathlib import Path

import pytest

from involab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) of every ``$ involab`` example."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, printed = chunk.partition("\n")
            if command.startswith("involab "):
                out.append((command, printed))
    return out


EXAMPLES = examples()


def test_readme_has_an_example_per_subcommand():
    commands = {shlex.split(command)[1] for command, _ in EXAMPLES}
    assert commands == {"rzk", "free-rank", "f", "cover", "figure"}
    assert all(printed for _, printed in EXAMPLES)


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.txt").write_text("1 1\n")  # $ printf '1 1\n' > phi.txt
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected
