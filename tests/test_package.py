"""The package's import contract and its value types.

The package imports no module of its own until one of its public names
is first read, and ``involab.cli`` imports only ``errors``; each
subcommand then loads the modules it runs and no others. So ``rzk``,
``free-rank`` and ``cover`` never load ``involab.fgenus``, ``f`` and
``figure`` never load the surface code, and no module of the package
loads ``dataclasses``. ``f`` and ``figure`` below 10^26 load no mpmath,
which only ``lambert_w`` and H on an mpf genus or from 10^26 on import.

The value types are NamedTuples: frozen, structurally equal and
hashed, with the ``Name(field=value, ...)`` repr that error messages
print.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import involab
from involab.action import lemma_generators
from involab.cover import build_cover, presentation
from involab.errors import ValidationError
from involab.fgenus import FigureRow, FValue, GenusDecomposition, _figure_row, decompose, f_exact
from involab.rzk import SurfaceReport, build, verify_closed_surface
from involab.scomplex import SimplicialComplex, from_facets, polygon_boundary

SRC = Path(involab.__file__).resolve().parent.parent


def _fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=SRC.parent,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


# prints the exit code of main() on the script's arguments, the involab modules
# loaded, and which of mpmath and dataclasses are loaded
MAIN = (
    "import contextlib, io, json, sys\n"
    "from involab.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:]) if sys.argv[1:] else None\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'involab'),"
    " [m for m in ('mpmath', 'dataclasses') if m in sys.modules]]))\n"
)
CLI = ["involab", "involab.cli", "involab.errors"]


def test_import_loads_no_genus_arithmetic():
    assert json.loads(_fresh(MAIN)) == [None, CLI, []]


@pytest.mark.parametrize("argv, modules", [
    pytest.param(["rzk", "--m", "6"], ["scomplex", "rzk"], id="rzk"),
    pytest.param(["free-rank", "--m", "6", "--witness"],
                 ["scomplex", "rzk", "action", "gf2"], id="free-rank"),
    pytest.param(["cover", "--orientable", "true", "--genus", "2", "--phi", "phi.txt"],
                 ["cover", "gf2", "scomplex"], id="cover"),
    pytest.param(["f", "--g", "5", "--exact"], ["fgenus", "cover", "gf2"], id="f"),
    pytest.param(["figure", "--gmax", "50"], ["fgenus", "cover", "gf2"], id="figure"),
])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    (tmp_path / "phi.txt").write_text("1 0 0 0\n0 1 0 0\n")
    argv = [str(tmp_path / a) if a == "phi.txt" else a for a in argv]
    expected = sorted(CLI + [f"involab.{m}" for m in modules])
    assert json.loads(_fresh(MAIN, *argv)) == [0, expected, []]


@pytest.mark.parametrize("argv", [["f", "--g", "3"], ["figure", "--gmax", "3"],
                                  ["f", "--g", "5", "--exact"], ["f", "--g", "1000001", "--exact"],
                                  ["figure", "--gmax", "50"]])
def test_f_and_figure_load_the_genus_arithmetic_on_first_use(argv):
    """They load ``fgenus`` when they run, and below 10^26 no mpmath with it."""
    code = (
        "import contextlib, io, sys\n"
        "from involab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'involab.fgenus' in sys.modules, 'dataclasses' in sys.modules,"
        " 'mpmath' in sys.modules)\n"
    )
    assert _fresh(code, *argv) == "0 True False False\n"


def test_H_loads_mpmath_for_an_mpf_genus_and_from_10_26_on():
    code = (
        "import sys\n"
        "from involab.fgenus import H\n"
        "out = [H(12.5), H(10**26 - 1), 'mpmath' in sys.modules, H(10**26),"
        " 'mpmath' in sys.modules]\n"
        "import mpmath\n"
        "print(repr(out + [H(mpmath.mpf('12.5'))]))\n"
    )
    assert _fresh(code) == repr([3.731521584398194, 81.06516025522939, False,
                                 81.06516025522939, True, 3.731521584398194]) + "\n"


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from involab import *", namespace)
    assert set(involab.__all__) <= set(namespace)
    for name in involab.__all__:
        assert namespace[name] is getattr(involab, name)


def test_every_public_name_is_its_modules_object():
    assert len(set(involab.__all__)) == len(involab.__all__) == 29
    for name in involab.__all__:
        obj = getattr(involab, name)
        assert obj.__module__.startswith("involab.")
        assert obj is getattr(sys.modules[obj.__module__], name)
        assert name in dir(involab)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        involab.no_such_name
    assert not hasattr(involab, "figure_lines")  # fgenus keeps its other names


VALUES = [
    polygon_boundary(5),
    verify_closed_surface(build(polygon_boundary(4))),
    lemma_generators(6),
    presentation(False, 3),
    build_cover(presentation(True, 1), [0b01, 0b10]),
    decompose(9),
    f_exact(3),
    _figure_row(5),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_refuse_assignment(value):
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_compare_and_hash_by_their_fields(value):
    cls = type(value)
    twin = cls(*[getattr(value, f) for f in cls._fields])
    assert twin == value and twin is not value
    if cls is not FValue:  # its certificate is a dict, so it never hashed
        assert hash(twin) == hash(value) and len({twin, value}) == 1
    assert repr(twin) == repr(value)
    assert repr(value).startswith(f"{cls.__name__}({cls._fields[0]}=")


def test_complexes_hash_structurally():
    assert len({from_facets(3, [[1, 2]]), from_facets(3, [[2, 1]])}) == 1
    assert from_facets(3, [[1, 2]]) != from_facets(4, [[1, 2]])


def test_simplicial_complex_still_validates():
    with pytest.raises(ValidationError, match="nonnegative"):
        SimplicialComplex(-1)
    with pytest.raises(ValidationError, match="exceeds"):
        SimplicialComplex(2, frozenset({0, 0b100}))
    assert SimplicialComplex(3, frozenset({1, 2})) == from_facets(3, [[1], [2]])
    assert SimplicialComplex(3, frozenset()) == SimplicialComplex(3)
    assert SimplicialComplex(3) == SimplicialComplex(m=3, faces=frozenset({0}))
    assert repr(SimplicialComplex(1)) == "SimplicialComplex(m=1, faces=frozenset({0}))"


def test_surface_report_repr_is_unchanged():
    report = SurfaceReport(True, False, True)
    assert repr(report) == ("SurfaceReport(edges_in_two_squares=True, "
                            "vertex_links_single_cycle=False, connected=True)")
    assert not report.closed_surface


def test_fgenus_rows_keep_their_fields():
    assert repr(decompose(9)) == "GenusDecomposition(g=9, chi=-16, a=-2, n=3)"
    assert repr(_figure_row(5)) == ("FigureRow(g=5, f_lower=2, f_upper=3, f_exact=3, H=3.0, "
                                    "equality=True)")
    assert _figure_row(5) == FigureRow(5, 2, 3, 3, 3.0, True)
    # FValue is the f --exact JSON object: its fields are the keys, in print order
    assert FValue._fields == ("g", "f_lower", "f_upper", "f_exact", "resolved", "method",
                              "certificate")
    assert f_exact(9)._asdict() == {"g": 9, "f_lower": 3, "f_upper": 3, "f_exact": 3,
                                    "resolved": True, "method": "formula", "certificate": None}
