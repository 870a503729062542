"""End-to-end CLI checks: output bytes, JSON shapes, exit codes.

Everything goes through main(argv) so the tests see exactly what a
shell user would, including the 0/2/3/4 exit-code contract and the
fixed caps behind exit 3.
"""

import contextlib
import io
import itertools
import json
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from involab import cli, fgenus
from involab.action import MAX_SEARCH_STEPS
from involab.cli import main
from involab.cover import parse_phi
from involab.errors import CapError, CrossCheckError, NotASurfaceError, ValidationError
from involab.rzk import polygon_genus
from involab.scomplex import parse_complex

PENTAGON_REPORT = {
    "m": 5,
    "V": 32,
    "E": 80,
    "F": 40,
    "chi": -8,
    "closed_surface": True,
    "orientable": True,
    "genus": 5,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv); help ends in SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HELP = ("SystemExit", 0)


@pytest.mark.parametrize("argv,code", [
    (["-h"], HELP),
    *[([command, "-h"], HELP) for command in ("rzk", "free-rank", "f", "cover", "figure")],
    (["free-rank", "--h"], HELP),  # an abbreviation of --help
    ([], 2),  # no command
    (["nosuch"], 2),
    (["--m=6"], 2),  # an option before any command
    (["free-rank", "--m", "6", "--bogus"], 2),
    (["rzk", "--m", "4", "extra"], 2),
    (["free-rank", "--m", "6", "--", "x"], 2),
    (["f"], 2),  # a missing --g
    (["f", "--g", "-1"], 2),
    (["cover", "--orientable", "maybe", "--genus", "2", "--phi", "phi.txt"], 2),
    (["free-rank", "--m=6"], 0),
    (["free-rank", "--m", "6", "--wit"], 0),  # an abbreviation of --witness
])
def test_a_command_parses_as_through_the_top_level_parser(argv, code, capsys, monkeypatch):
    got = outcome(capsys, argv)
    parser = cli._parsers()[0]
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))  # no command is known
    assert outcome(capsys, argv) == got
    assert got[0] == code


def test_rzk_json(capsys):
    code, out, err = run(capsys, "rzk", "--m", "5")
    assert code == 0 and err == ""
    assert json.loads(out) == PENTAGON_REPORT


def test_rzk_text(capsys):
    code, out, _ = run(capsys, "rzk", "--m", "5", "--report", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m = 5"
    assert "genus = 5" in lines
    assert "closed_surface = True" in lines


def test_rzk_from_file(capsys, tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text("5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
    code, out, _ = run(capsys, "rzk", "--complex", str(path))
    assert code == 0
    assert json.loads(out) == PENTAGON_REPORT


def test_rzk_non_surface_is_reported_not_an_error(capsys, tmp_path):
    path = tmp_path / "wedge.txt"
    path.write_text("4\n1 2\n3 4\n2 3\n1 4\n1 3\n")
    code, out, _ = run(capsys, "rzk", "--complex", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["closed_surface"] is False
    assert report["orientable"] is None and report["genus"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["rzk"],
        ["rzk", "--m", "5", "--complex", "also.txt"],
        ["rzk", "--complex", "/nonexistent/k.txt"],
        ["rzk", "--m", "2"],
        ["f", "--g", "-1"],
        ["figure", "--gmax", "-1"],
        ["figure", "--gmax", "3", "--threads", "0"],
        # usage errors, which argparse reports
        [],
        ["nosuch"],
        ["rzk", "--m", "x"],
        ["rzk", "--m", "5", "--report", "xml"],
        ["rzk", "--m", "5", "--bogus"],
        ["cover", "--orientable", "maybe", "--genus", "1", "--phi", "phi.txt"],
        ["f"],
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cross_check_failure_exits_4(capsys, monkeypatch, tmp_path):
    from involab import cover
    from involab.errors import CrossCheckError

    def disagree(*args, **kwargs):
        raise CrossCheckError("orientability mismatch: planted")

    monkeypatch.setattr(cover, "build_cover", disagree)
    phi = tmp_path / "phi.txt"
    phi.write_text("1 1\n")
    code, out, err = run(
        capsys, "cover", "--orientable", "false", "--genus", "2", "--phi", str(phi)
    )
    assert code == 4
    assert out == ""
    assert err == "error: orientability mismatch: planted\n"


def test_free_rank_cross_check_failure_exits_4(capsys, monkeypatch):
    from involab import action

    # a colouring of the hexagon onto GF(2)^2 that puts the edge {1, 2} in its kernel
    monkeypatch.setattr(action, "_colouring", lambda K: (2, [1, 1, 2, 2, 3, 3]))
    code, out, err = run(capsys, "free-rank", "--m", "6")
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("error,code", [
    (ValidationError, 2), (NotASurfaceError, 2), (CapError, 3), (CrossCheckError, 4),
])
def test_each_error_type_exits_with_its_own_code(capsys, monkeypatch, error, code):
    from involab import rzk

    def fail(C):
        raise error("planted")

    monkeypatch.setattr(rzk, "surface_report", fail)
    assert run(capsys, "rzk", "--m", "5") == (code, "", "error: planted\n")


def test_any_other_exception_escapes_main(capsys, monkeypatch):
    from involab import rzk

    def fail(C):
        raise TypeError("planted")

    monkeypatch.setattr(rzk, "surface_report", fail)
    with pytest.raises(TypeError, match="^planted$"):
        main(["rzk", "--m", "5"])
    assert capsys.readouterr().out == ""


def test_consecutive_calls_share_no_state(capsys):
    run(capsys, "free-rank", "--m", "6", "--json")
    assert run(capsys, "free-rank", "--m", "6") == (0, "4\n", "")
    run(capsys, "rzk", "--m", "5", "--report", "text")
    code, out, _ = run(capsys, "rzk", "--m", "5")
    assert code == 0 and json.loads(out) == PENTAGON_REPORT
    with pytest.raises(SystemExit):
        main(["figure", "--help"])
    capsys.readouterr()
    assert run(capsys, "free-rank", "--m", "6", "--witness")[1] == "4\n1 3\n2 4\n1 5\n2 6\n"


@pytest.mark.parametrize("m", [17, 18, 19, 20, 21, 40, 1024])
def test_rzk_reports_the_large_polygons(capsys, m):
    # no report lists a cell, so only the vertex cap (1024) bounds m
    code, out, err = run(capsys, "rzk", "--m", str(m))
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "m": m,
        "V": 2**m,
        "E": m * 2 ** (m - 1),
        "F": m * 2 ** (m - 2),
        "chi": 2 ** (m - 2) * (4 - m),
        "closed_surface": True,
        "orientable": True,
        "genus": 1 + 2 ** (m - 3) * (m - 4),
    }
    assert json.loads(out)["genus"] == polygon_genus(m)


def test_rzk_cap_exits_3(capsys):
    code, out, err = run(capsys, "rzk", "--m", "1025")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "vertex cap 1024" in err


@pytest.mark.parametrize("text", ["-2\n1 2\n", "-2\n"])
def test_rzk_refuses_a_negative_m_on_the_header_line(capsys, tmp_path, text):
    path = tmp_path / "k.txt"
    path.write_text(text)
    assert run(capsys, "rzk", "--complex", str(path)) == (
        2, "", "error: line 1: m must be nonnegative, got -2\n")


def test_rzk_reads_a_complex_file_one_line_at_a_time(capsys, tmp_path):
    """5 * 10^4 lines "1 2": holding the file and its list of lines peaked
    at 3.7 MB under tracemalloc; read one line at a time, 0.24 MB."""
    path = tmp_path / "k.txt"
    path.write_text("3\n" + "1 2\n" * 50_000)
    tracemalloc.start()
    try:
        code = main(["rzk", "--complex", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["m"] == 3
    assert peak < 2**20, peak


@pytest.mark.parametrize("argv, header", [
    (["rzk", "--complex"], b"3\n"),
    (["free-rank", "--complex"], b"3\n"),
    (["cover", "--orientable", "true", "--genus", "1", "--phi"], b""),
])
def test_a_byte_that_is_not_utf8_is_refused_with_its_line(capsys, tmp_path, argv, header):
    # past the text reader's first 8 KiB chunk, from which a decoder counts its position
    path = tmp_path / "bad.txt"
    path.write_bytes(header + b"# padding\n" * 1000 + b"1 \xff\n")
    assert path.stat().st_size > 8192
    line = 1002 if header else 1001
    assert run(capsys, *argv, str(path)) == (2, "", f"error: line {line}: byte 0xff is not UTF-8\n")


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c\x1d", "\x85", "\u2028"])
def test_a_file_numbers_its_lines_as_its_decoded_text_does(capsys, tmp_path, sep):
    content = sep.join(["3", "1 2", "# note", "", "2 3", "1 x", "3 1"]).encode()
    with pytest.raises(ValidationError) as parsed:
        parse_complex(content.decode())
    path = tmp_path / "k.txt"
    path.write_bytes(content)
    lineno = 11 if sep == "\x1c\x1d" else 6  # each separator ends one line, \x1c\x1d two
    assert str(parsed.value) == f"line {lineno}: non-integer vertex"
    assert run(capsys, "rzk", "--complex", str(path)) == (2, "", f"error: {parsed.value}\n")


def test_rzk_complete_graph_is_reported_not_capped(capsys, tmp_path):
    m = 40
    path = tmp_path / "k40.txt"
    path.write_text(f"{m}\n" + "".join(f"{i} {j}\n" for i in range(1, m + 1)
                                       for j in range(i + 1, m + 1)))
    code, out, err = run(capsys, "rzk", "--complex", str(path))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["closed_surface"] is False and report["genus"] is None
    assert report["V"] == 2**m and report["F"] == m * (m - 1) // 2 * 2 ** (m - 2)


def test_free_rank_plain(capsys):
    assert run(capsys, "free-rank", "--m", "6") == (0, "4\n", "")


def test_free_rank_witness(capsys):
    code, out, _ = run(capsys, "free-rank", "--m", "6", "--witness")
    assert code == 0
    assert out == "4\n1 3\n2 4\n1 5\n2 6\n"


def test_free_rank_json(capsys):
    code, out, _ = run(capsys, "free-rank", "--m", "6", "--json")
    assert code == 0
    assert json.loads(out) == {"rank": 4, "basis": [[1, 3], [2, 4], [1, 5], [2, 6]]}


def test_free_rank_from_file(capsys, tmp_path):
    path = tmp_path / "full.txt"
    path.write_text("3\n1 2 3\n")
    assert run(capsys, "free-rank", "--complex", str(path)) == (0, "0\n", "")


def _all_triangles_file(tmp_path, m):
    path = tmp_path / f"triangles{m}.txt"
    path.write_text(f"{m}\n" + "".join(f"{a} {b} {c}\n"
                                       for a, b, c in itertools.combinations(range(1, m + 1), 3)))
    return str(path)


def test_free_rank_search_budget_exits_3(capsys, tmp_path):
    # 16 points of GF(2)^5 have no three dependent, 17 do not; only an
    # exhausted search rules r = 5 out, and on 17 vertices that ran past 30 s
    assert run(capsys, "free-rank", "--complex", _all_triangles_file(tmp_path, 16)) == (0, "11\n", "")
    start = time.perf_counter()
    code, out, err = run(capsys, "free-rank", "--complex", _all_triangles_file(tmp_path, 17))
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert err == f"error: the colouring search passed its budget of {MAX_SEARCH_STEPS} steps\n"


def test_f_bounds_output(capsys):
    assert run(capsys, "f", "--g", "9") == (0, "3 3\n", "")
    assert run(capsys, "f", "--g", "3") == (0, "1 2\n", "")


def test_f_exact_json(capsys):
    code, out, _ = run(capsys, "f", "--g", "2", "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == 2 and payload["f_exact"] == 1
    assert payload["resolved"] is True
    assert payload["method"] == "cover-resolver"
    assert payload["certificate"]["phi"] == [[1, 1, 1]]


def test_f_exact_unresolved_is_null(capsys):
    code, out, _ = run(capsys, "f", "--g", "18", "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["resolved"] is False
    assert payload["f_exact"] is None and payload["certificate"] is None
    assert (payload["f_lower"], payload["f_upper"]) == (0, 1)


def test_cover_roundtrip(capsys, tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("# orientation double cover\n1 1\n")
    code, out, _ = run(
        capsys, "cover", "--orientable", "false", "--genus", "2", "--phi", str(phi)
    )
    assert code == 0
    assert json.loads(out) == {
        "n": 1,
        "base": {"orientable": False, "genus": 2},
        "chi": 0,
        "components": 1,
        "orientable": True,
        "genus": 1,
    }


def test_cover_bad_matrix_exits_2(capsys, tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("1 1 1\n")
    code, _, err = run(
        capsys, "cover", "--orientable", "true", "--genus", "1", "--phi", str(phi)
    )
    assert code == 2 and "expected 2 bits" in err


def test_cover_missing_file_exits_2(capsys, tmp_path):
    code, _, _ = run(
        capsys, "cover", "--orientable", "true", "--genus", "1",
        "--phi", str(tmp_path / "absent.txt"),
    )
    assert code == 2


def test_cover_rank_cap_exits_3(capsys, tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("1\n" * 21)
    code, _, _ = run(
        capsys, "cover", "--orientable", "false", "--genus", "1", "--phi", str(phi)
    )
    assert code == 3


def test_cover_generator_cap_exits_3_before_building_the_word(capsys, tmp_path):
    # 60M generators: the 120M-letter base word would exhaust memory
    phi = tmp_path / "phi.txt"
    phi.write_text("")
    code, out, err = run(
        capsys, "cover", "--orientable", "true", "--genus", "30000000", "--phi", str(phi)
    )
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "generator cap" in err


def test_figure_gmax_cap_exits_3_before_any_row(capsys):
    # 10^10 rows would run for days; the cap refuses before the first one
    code, out, err = run(capsys, "figure", "--gmax", "10000000000")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "figure cap" in err


def test_figure_cap_creates_no_file(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "figure", "--gmax", "10000000000", "--out", str(path))
    assert code == 3 and out == "" and "figure cap" in err
    assert not path.exists()


def test_figure_unwritable_out_exits_2_before_any_row(capsys, monkeypatch, tmp_path):
    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(fgenus, "_figure_row", no_row)
    path = tmp_path / "missing" / "rows.csv"
    code, out, err = run(capsys, "figure", "--gmax", "9", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_figure_writes_each_row_as_it_is_made(capsys, tmp_path):
    """20,001 rows are 0.6 MB of CSV and more as FigureRows; written one at
    a time they never all live at once."""
    path = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        code = main(["figure", "--gmax", "20000", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and path.read_text().count("\n") == 20_002
    assert peak < 3 * 2**20


def test_figure_stdout_and_file_agree(capsys, tmp_path):
    code, out, _ = run(capsys, "figure", "--gmax", "9")
    assert code == 0
    assert out.startswith("g,f_lower,f_upper,f_exact,H,equality\n")
    assert "9,3,3,3,3.456999559,false" in out

    path = tmp_path / "rows.csv"
    code2, _, _ = run(capsys, "figure", "--gmax", "9", "--out", str(path))
    assert code2 == 0
    assert path.read_bytes().decode() == out


def test_figure_equality_column(capsys):
    _, out, _ = run(capsys, "figure", "--gmax", "17")
    flagged = [
        int(line.split(",")[0])
        for line in out.splitlines()[1:]
        if line.endswith(",true")
    ]
    assert flagged == [0, 1, 5, 17]


def test_figure_help_hides_threads(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--help"])
    assert exc.value.code == 0
    assert "--threads" not in capsys.readouterr().out


def test_figure_is_deterministic_across_threads(capsys):
    _, serial, _ = run(capsys, "figure", "--gmax", "25")
    _, threaded, _ = run(capsys, "figure", "--gmax", "25", "--threads", "4")
    assert serial == threaded


# file contents for the parsers: token lines that are mostly near-valid,
# arbitrary text, and arbitrary bytes (not always UTF-8)
TOKENS = st.one_of(
    st.integers(-2, 24).map(str),
    st.integers().map(str),
    st.sampled_from(["0", "1", "#", "# note", "x", "1.5", "0x3", "-", "1_0", "\u0663", "\t"]),
)
TEXTS = st.one_of(
    st.lists(st.lists(TOKENS, max_size=5).map(" ".join), max_size=6).map("\n".join),
    st.text(max_size=40),
)
CONTENTS = st.one_of(TEXTS.map(str.encode), st.binary(max_size=40))


def _run_on_file(argv, path, content):
    """Exit code, stdout and stderr of main(argv) with ``content`` at ``path``."""
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected_exit(parse, content):
    """2 if the parser rejects the content, 3 if it hits a cap, else None. The
    CLI reads a file as surrogateescape text, refusing a bad byte at its line."""
    try:
        parse(content.decode("utf-8", "surrogateescape"))
    except ValidationError:
        return 2
    except CapError:
        return 3
    return None


def _assert_one_error_line_or_success(code, out, err, want):
    if want is None:
        assert code in (0, 3)  # a parsed input may still exceed a cap
    else:
        assert code == want
    if code:
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    else:
        assert err == ""


FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(CONTENTS)
def test_fuzzed_complex_files_exit_cleanly(tmp_path, content):
    path = tmp_path / "k.txt"
    code, out, err = _run_on_file(["rzk", "--complex", str(path)], path, content)
    _assert_one_error_line_or_success(code, out, err, _expected_exit(parse_complex, content))


@FUZZ
@given(st.sampled_from([(False, 2), (True, 1), (False, 3)]), CONTENTS)
def test_fuzzed_phi_files_exit_cleanly(tmp_path, base, content):
    orientable, genus = base
    d = 2 * genus if orientable else genus
    path = tmp_path / "phi.txt"
    argv = ["cover", "--orientable", str(orientable), "--genus", str(genus), "--phi", str(path)]
    code, out, err = _run_on_file(argv, path, content)
    want = _expected_exit(lambda text: parse_phi(text, d), content)
    _assert_one_error_line_or_success(code, out, err, want)
