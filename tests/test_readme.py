"""The examples in README.md print what the README says.

Every ``$ involab ...`` line in a ``sh`` block is run through main(argv)
in a fresh directory, and its stdout is compared with the lines printed
under it, up to the next ``$`` line or the end of the block. The
``phi.txt`` that the cover example creates with printf is written first.
The Library ``python`` block runs statement by statement, and each
``print(...)`` must print the comment at the end of its line.
"""

import ast
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


def test_readme_library_block_prints_its_comments(capsys):
    """Each top-level statement of the ``python`` block runs in turn, and a
    ``print(...)  # expected`` line must print exactly its comment."""
    (source,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
        printed = capsys.readouterr().out
        call = statement.value if isinstance(statement, ast.Expr) else None
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print":
            expected = lines[statement.end_lineno - 1].rpartition("#")[2].strip()
            assert printed == expected + "\n", lines[statement.lineno - 1]
            checked += 1
        else:
            assert printed == ""
    assert checked == 4
