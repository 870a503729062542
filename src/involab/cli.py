"""Command-line frontend.

Five subcommands: ``rzk`` (build and classify the surface over a
complex), ``free-rank`` (maximal freely-acting subgroup), ``f`` (bounds
or exact value of the maximal free rank at a genus), ``cover`` (build a
regular cover from a GF(2) matrix), ``figure`` (the bounds/envelope
table as CSV).

Primary output goes to stdout and is byte-deterministic for fixed
inputs; everything diagnostic goes to stderr. Exit codes: 0 success,
else the error type's ``exit_code``: 2 invalid input, 3 a resource cap
was exceeded, 4 two derivations of one answer disagreed (CrossCheckError,
a bug). Every cap is a fixed module constant, checked before the
allocation it guards; no flag or environment variable moves one.
Input files are read one line at a time, so a complex file is refused
at the line whose facet passes the face cap and a phi file at the row
past the cover rank cap, and a byte that is not UTF-8 is refused (exit
2) with its line number when that line is read.
``figure`` writes each row as it is made, so a CrossCheckError in the
middle of a table leaves the rows before it written.

Each command imports the modules it runs when it runs; this module
imports none but ``errors``. So only ``f`` and ``figure`` load ``fgenus``,
and neither loads mpmath, which ``fgenus`` imports only for ``lambert_w``,
H's route for an mpf genus or one from 10^26 on.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

from .errors import CapError, CrossCheckError, NotASurfaceError, ValidationError

if TYPE_CHECKING:
    from .scomplex import SimplicialComplex


def _boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in {"true", "1", "yes"}:
        return True
    if lowered in {"false", "0", "no"}:
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _load_complex(args: argparse.Namespace) -> SimplicialComplex:
    from . import scomplex
    if (args.m is None) == (args.complex is None):
        raise ValidationError("give exactly one of --m and --complex")
    if args.m is not None:
        return scomplex.polygon_boundary(args.m)
    return _read(args.complex, scomplex.parse_complex)


def _read(path: str, parse, *args):
    """``parse(file, *args)`` on the input file at path, which it reads one line at a time."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return parse(fh, *args)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")


def cmd_rzk(args: argparse.Namespace) -> None:
    from . import rzk
    K = _load_complex(args)
    C = rzk.build(K)
    report = rzk.surface_report(C)
    if args.report == "json":
        print(json.dumps(report))
    else:
        for key, value in report.items():
            print(f"{key} = {value}")


def cmd_free_rank(args: argparse.Namespace) -> None:
    from . import action
    K = _load_complex(args)
    rank, witness = action.max_free_rank(K)
    if args.json:
        print(json.dumps({"rank": rank, "basis": witness.basis_vertex_lists()}))
        return
    print(rank)
    if args.witness:
        for verts in witness.basis_vertex_lists():
            print(" ".join(str(v) for v in verts))


def cmd_f(args: argparse.Namespace) -> None:
    from . import fgenus
    if args.g < 0:
        raise ValidationError(f"--g must be nonnegative, got {args.g}")
    fv = fgenus.f_exact(args.g)
    print(json.dumps(fv._asdict()) if args.exact else f"{fv.f_lower} {fv.f_upper}")


def cmd_cover(args: argparse.Namespace) -> None:
    from . import cover
    base = cover.presentation(args.orientable, args.genus)
    phi = _read(args.phi, cover.parse_phi, base.generator_count)
    built = cover.build_cover(base, phi)
    print(json.dumps(built.to_report()))


def cmd_figure(args: argparse.Namespace) -> None:
    from . import fgenus
    # --threads is still accepted so that existing scripts keep working;
    # rows are always computed serially
    if args.threads < 1:
        raise ValidationError(f"--threads must be positive, got {args.threads}")
    lines = fgenus.figure_lines(fgenus.figure_rows(args.gmax))  # checks gmax before --out opens
    if args.out == "-":
        sys.stdout.writelines(lines)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is bad input: exit 2, one stderr line
        raise ValidationError(message)


@functools.cache  # built on the first main() call, then shared by later calls
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's own parser by name."""
    parser = _Parser(
        prog="involab",
        description="Surfaces with free 2-torus symmetry: cubical models, "
        "free ranks, covers, and the genus envelope.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rzk", help="build the surface over a complex and report it")
    p.add_argument("--m", type=int, help="use the boundary of the m-gon")
    p.add_argument("--complex", help="read the complex from a text file")
    p.add_argument("--report", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_rzk)

    p = sub.add_parser("free-rank", help="maximal rank of a freely acting subgroup")
    p.add_argument("--m", type=int, help="use the boundary of the m-gon")
    p.add_argument("--complex", help="read the complex from a text file")
    p.add_argument("--witness", action="store_true", help="also print a basis")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_free_rank)

    p = sub.add_parser("f", help="bounds or exact value of the maximal free rank")
    p.add_argument("--g", type=int, required=True, help="orientable genus")
    p.add_argument("--exact", action="store_true", help="print the full record as JSON")
    p.set_defaults(func=cmd_f)

    p = sub.add_parser("cover", help="build a regular (Z/2)^n cover")
    p.add_argument("--orientable", type=_boolean, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--phi", required=True, help="GF(2) matrix file, rows of bits")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("figure", help="emit the g, bounds, H(g) table as CSV")
    p.add_argument("--gmax", type=int, required=True)
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_figure)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    try:
        # the top-level parser hands a known command all that follows it,
        # so that command's parser alone gives the same result; the rest
        # (no command, an unknown one, -h) needs the top-level parser
        command = commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        args.func(args)
    except (ValidationError, NotASurfaceError, CapError, CrossCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
