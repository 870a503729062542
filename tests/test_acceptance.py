"""Acceptance gate: the headline claims, one verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL
lines. Each criterion re-states its claim from scratch, using brute
oracles where the implementation uses formulas or pruning, and enforces
the stated runtime budgets on the exhaustive sweeps.
"""

import itertools
import time

import mpmath
import pytest

from involab import gf2
from involab.action import lemma_generators, max_free_rank, orientation_sign
from involab.cli import main
from involab.cover import build_cover, presentation
from involab.fgenus import H, decompose, lambert_w, min_genus
from involab.rzk import build, euler_characteristic, genus, orientability, verify_closed_surface
from involab.scomplex import polygon_boundary, vertices_of

from test_action_oracle import apply, span_elements, subspace_bases
from test_cover_oracle import face_components, oracle_boundaries, prop2_tower
from test_fgenus import H_by_lambert
from test_rzk_oracle import square_signs


def verdict(name: str, failures: list[str]) -> None:
    print(f"{'PASS' if not failures else 'FAIL'}: {name}")
    assert not failures, f"{name}: " + "; ".join(failures[:5])


def test_criterion_01_polygon_surfaces_have_the_predicted_genus():
    failures = []
    t0 = time.perf_counter()
    for m in range(3, 13):
        C = build(polygon_boundary(m))
        report = verify_closed_surface(C)
        g = genus(C)  # orients the surface, or raises
        expected = 1 + 2 ** (m - 3) * (m - 4)
        if not (report.closed_surface and report.connected):
            failures.append(f"m={m}: not a connected closed surface")
        if g != expected:
            failures.append(f"m={m}: genus {g}, expected {expected}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    verdict(f"genus formula on m = 3..12 polygons ({elapsed:.2f}s)", failures)


def test_criterion_02_cell_counts_are_exact():
    failures = []
    for m in range(3, 13):
        C = build(polygon_boundary(m))
        expected = (2**m, m * 2 ** (m - 1), m * 2 ** (m - 2))
        got = (C.vertex_count, C.edge_count, C.square_count)
        if got != expected:
            failures.append(f"m={m}: counts {got}, expected {expected}")
        if euler_characteristic(C.K) != 2 ** (m - 2) * (4 - m):
            failures.append(f"m={m}: chi {euler_characteristic(C.K)}")
    verdict("vertex/edge/square counts and chi on m = 3..12", failures)


def test_criterion_03_lemma_subgroup_is_free_and_survives_the_cell_oracle():
    failures = []
    for m in range(3, 13):
        K = polygon_boundary(m)
        Hm = lemma_generators(m)
        if Hm.rank != m - 2:
            failures.append(f"m={m}: rank {Hm.rank}")
        if any(g and g in K.faces for g in span_elements(Hm)):
            failures.append(f"m={m}: support criterion failed")
    for m in range(3, 7):
        K = polygon_boundary(m)
        C = build(K)
        cells = [c for d in range(3) for c in C.cells(d)]
        elements = span_elements(lemma_generators(m))
        if len(elements) != 2 ** (m - 2):
            failures.append(f"m={m}: {len(elements)} elements")
        for g in elements:
            fixes = any(g & ~c.free == 0 for c in cells)
            if fixes != (g == 0):
                failures.append(f"m={m}: element {vertices_of(g)} oracle mismatch")
    verdict("lemma subgroup free of rank m-2, cell oracle agrees on m <= 6", failures)


def test_criterion_04_no_larger_free_subgroup_exists():
    failures = []
    t0 = time.perf_counter()
    for m in range(3, 7):
        K = polygon_boundary(m)
        best = 0
        per_rank = {}
        for basis in subspace_bases(m):
            per_rank[len(basis)] = per_rank.get(len(basis), 0) + 1
            span = [0]
            for b in basis:
                span += [x ^ b for x in span]
            if all(v not in K.faces for v in span if v):
                best = max(best, len(basis))
        for k, count in per_rank.items():
            num = den = 1
            for i in range(k):
                num *= 2**m - 2**i
                den *= 2**k - 2**i
            if count != num // den:
                failures.append(f"m={m}: enumeration missed rank-{k} subspaces")
        if best != m - 2:
            failures.append(f"m={m}: exhaustive max {best}, expected {m - 2}")
        if max_free_rank(K)[0] != best:
            failures.append(f"m={m}: search disagrees with exhaustive max")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    verdict(f"maximality by exhaustive subspace scan, m <= 6 ({elapsed:.2f}s)", failures)


def test_criterion_05_orientation_sign_is_the_support_parity():
    failures = []
    for m in range(3, 8):
        C = build(polygon_boundary(m))
        orient = square_signs(C, orientability(C))
        for g in range(1 << m):
            expected = -1 if g.bit_count() % 2 else 1
            signs = {
                orient[c] * orient[apply(g, c)] * (-1) ** (g & c.free).bit_count()
                for c in C.cells(2)
            }
            if signs != {expected} or orientation_sign(C, g) != expected:
                failures.append(f"m={m}, support {vertices_of(g)}: sign {signs}")
    verdict("orientation sign is (-1)^|support| for every element, m <= 7", failures)


def test_criterion_06_cover_laws_hold_for_every_matrix():
    failures = []
    bases = [
        presentation(False, 1),
        presentation(True, 1),
        presentation(False, 2),
        presentation(False, 3),
        presentation(True, 2),
        presentation(False, 4),
    ]
    t0 = time.perf_counter()
    checked = 0
    for B in bases:
        d = B.generator_count
        for n in range(d + 1):
            for rows in itertools.product(range(1 << d), repeat=n):
                cc = build_cover(B, rows)  # cross-checks components and orientability two ways
                checked += 1
                if cc.chi != cc.sheets * B.euler_characteristic:
                    failures.append(f"{B}: chi not multiplicative at {rows}")
                if cc.components != 1 << (n - gf2.rank(rows)):
                    failures.append(f"{B}: component count wrong at {rows}")
                if cc.components != face_components(oracle_boundaries(B, rows)):
                    failures.append(f"{B}: components disagree with the glued faces at {rows}")
                if cc.orientable != gf2.in_span(B.orientation_character, rows):
                    failures.append(f"{B}: orientability mismatch at {rows}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    verdict(
        f"chi, components, orientability on all {checked} covers with "
        f"d <= 4 ({elapsed:.1f}s)",
        failures,
    )


def test_criterion_07_genus_lower_bound_with_exact_equality_set():
    failures = []
    expected_equalities = {0, 1, 5, 17, 49, 129, 321, 769, 1793, 4097, 9217}
    t0 = time.perf_counter()
    for g in range(10_001):
        n = decompose(g).n
        bound = min_genus(n)
        if bound > g:
            failures.append(f"g={g}: min_genus({n}) = {bound} > g")
        if (bound == g) != (g in expected_equalities):
            failures.append(f"g={g}: equality flag wrong")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5:
        failures.append(f"took {elapsed:.1f}s, budget 5s")
    verdict(f"1 + 2^(n-1)(n-2) <= g on g <= 10^4, equality set exact ({elapsed:.2f}s)", failures)


def test_criterion_08_lambert_residuals_and_envelope_inversion():
    failures = []
    with mpmath.workdps(40):
        xs = [mpmath.mpf("-0.36") + i * (mpmath.mpf("1.36") / 499) for i in range(500)]
        xs += [mpmath.mpf(10) ** (6 * i / 499) for i in range(500)]
        assert len(xs) == 1000
        worst = mpmath.mpf(0)
        for x in xs:
            w = lambert_w(x)
            worst = max(worst, abs(w * mpmath.exp(w) - x))
        if worst > mpmath.mpf("1e-12"):
            failures.append(f"worst residual {mpmath.nstr(worst, 3)}")
    for n in range(1, 21):
        g = min_genus(n)
        for value in (H(g), H_by_lambert(g)):
            if abs(value - n) > 1e-9:
                failures.append(f"H({g}) = {value}, expected {n}")
    verdict(
        f"Lambert residual <= 1e-12 on 1000 points (worst {mpmath.nstr(worst, 2)}), "
        "H inverts min_genus for n = 1..20",
        failures,
    )


def test_criterion_09_figure_table_at_gmax_200(capsys):
    failures = []
    assert main(["figure", "--gmax", "200"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    if lines[0] != "g,f_lower,f_upper,f_exact,H,equality":
        failures.append("bad header")
    if len(lines) != 202:
        failures.append(f"{len(lines)} lines, expected 202")
    exact_seen = {}
    for line in lines[1:]:
        g_s, lo_s, hi_s, exact_s, h_s, flag = line.split(",")
        g, hi = int(g_s), int(hi_s)
        if hi > H(g) + 1e-9:
            failures.append(f"g={g}: f_upper {hi} above envelope")
        if (flag == "true") != (min_genus(decompose(g).n) == g):
            failures.append(f"g={g}: equality flag {flag}")
        if exact_s:
            exact_seen[g] = int(exact_s)
            if not int(lo_s) <= exact_seen[g] <= hi:
                failures.append(f"g={g}: exact outside bounds")
    for g, f in [(0, 1), (1, 2), (2, 1), (3, 2), (5, 3), (17, 4)]:
        if exact_seen.get(g) != f:
            failures.append(f"f({g}) = {exact_seen.get(g)}, expected {f}")
    verdict("figure CSV at gmax = 200: envelope, flags, known exact values", failures)


def test_criterion_10_polygon_surface_equals_tower_cover():
    failures = []
    for n in range(1, 9):
        C = build(polygon_boundary(n + 2))
        surface = (True, genus(C))  # orientable, with its genus
        B = presentation(n % 2 == 0, n // 2 if n % 2 == 0 else n)
        top_rank, rows = prop2_tower(B)[0]
        if top_rank != B.generator_count or top_rank != n:
            failures.append(f"n={n}: tower top has rank {top_rank}")
        cc = build_cover(B, rows)
        if cc.chi != euler_characteristic(C.K):
            failures.append(f"n={n}: chi {cc.chi} vs {euler_characteristic(C.K)}")
        if cc.components != 1:
            failures.append(f"n={n}: cover disconnected")
        if (cc.orientable, cc.genus) != surface:
            failures.append(f"n={n}: {(cc.orientable, cc.genus)} vs {surface}")
    verdict("rank-n tower cover matches the (n+2)-gon surface, n <= 8", failures)
