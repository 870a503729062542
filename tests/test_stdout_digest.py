"""CLI output, byte for byte, against the committed stdout digest.

``stdout_digest.txt`` holds the lines that ``tools/stdout_digest.py``
prints for seeds 1 and 7: one sha256 per workload or fixed job set over
every job's exit code, stdout and stderr. Each seed's lines are made
again here from ``src/`` and compared one by one, so a change to any
output byte fails the test and names the line. argparse's messages and
other library output may change between Python minor versions, so on a
minor version other than the file's the test skips. A change that alters
output on purpose regenerates the file (the tool's docstring has the
command) and names each changed line.
"""

import importlib.util
import platform
import sys
from pathlib import Path

import pytest

import involab
from involab import cli, fgenus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("stdout_digest.txt")
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (the benchmark's seeded job lists; needs the path above)


def golden() -> tuple[str, dict[int, list[str]]]:
    """The Python version that made the file, and its lines by seed."""
    head, *rows = GOLDEN.read_text(encoding="utf-8").splitlines()
    lines: dict[int, list[str]] = {}
    for row in rows:
        seed, line = row.split(" ", 1)
        lines.setdefault(int(seed), []).append(line)
    return head.removeprefix("python "), lines


def load_tool():
    spec = importlib.util.spec_from_file_location("stdout_digest",
                                                  ROOT / "tools" / "stdout_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("seed", [1, 7])
def test_cli_output_matches_the_committed_digest(seed, tmp_path, monkeypatch):
    version, lines = golden()
    here = platform.python_version()
    if here.split(".")[:2] != version.split(".")[:2]:
        pytest.skip(f"the digest was made on Python {version}, and argparse's messages "
                    f"may differ on {here}")
    assert Path(involab.__file__).resolve().is_relative_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    made = list(load_tool().digest_lines(seed, cli, fgenus, workloads))
    assert [line.split()[0] for line in made] == [line.split()[0] for line in lines[seed]]
    changed = [line for line, want in zip(made, lines[seed]) if line != want]
    assert not changed, f"seed {seed}: output changed on {changed}"
