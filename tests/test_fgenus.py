"""Largest free 2-torus rank as a function of genus, and its envelope.

decompose is checked against a brute scan over all factorizations,
lambert_w against mpmath's own implementation at 40 and 60 digits, H
bit for bit against the float of mpmath's W at 80 digits, and the
resolver's certificates against the covers they are built from and
its rows against the greedy GF(2) completion of the orientation
character.
``oracle_lambert_w`` and ``oracle_H`` are the frozen form of lambert_w
and H's 40-digit route: the same Halley loop as mpf expressions under
``workdps(40)``, which ``src/`` must keep matching bit for bit, on the
known defect's genera too. Below 10^26 H runs its own fixed-point Halley
step on an int or float genus, which must give the same floats as the
lambert_w route on drawn genera, and the same floats or error as
``oracle_envelope_two_exponentials``, the route with mpmath's exp_fixed
for both exponentials; its int exponential must equal exp_fixed bit for
bit. The
equality genera are tied back to the cubical surfaces themselves at
the end: the polygon surface over m = n + 2 vertices realizes rank n
at exactly the predicted genus.
"""

import hashlib
import math
import re
import sys
from collections import Counter
from pathlib import Path

import mpmath
import pytest
from mpmath import libmp
from mpmath.libmp.libelefun import exp_fixed, ln2_fixed
from hypothesis import given, settings
from hypothesis import strategies as st

from involab import fgenus, gf2
from involab.action import max_free_rank
from involab.cover import CoverComplex
from involab.errors import CapError, CrossCheckError, ValidationError
from involab.fgenus import (
    MAX_FIGURE_G,
    H,
    _figure_row,
    decompose,
    equality_genera,
    f_exact,
    figure1_data,
    figure_lines,
    figure_rows,
    lambert_w,
    min_genus,
)
from involab.rzk import build, genus
from involab.scomplex import polygon_boundary

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (the bench's known-defect probe genera; needs the path above)

OMEGA = 0.5671432904097838  # W(1)


@pytest.mark.parametrize(
    "g,a,n",
    [
        (0, 1, 1),
        (1, 0, 2),
        (2, -1, 1),
        (3, -1, 2),
        (4, -3, 1),
        (5, -1, 3),
        (9, -2, 3),
        (17, -2, 4),
        (49, -3, 5),
    ],
)
def test_decompose_examples(g, a, n):
    dec = decompose(g)
    assert (dec.a, dec.n) == (a, n)
    assert dec.chi == 2 - 2 * g == a * 2**n
    assert dec.a_even == (a % 2 == 0)


def test_decompose_matches_brute_scan():
    for g in range(300):
        chi = 2 - 2 * g
        best = None
        for n in range(60):
            if chi % (1 << n) == 0:
                a = chi >> n
                if a <= 1 and n <= 2 - a:
                    best = (a, n)
        dec = decompose(g)
        assert (dec.a, dec.n) == best


def test_decompose_rejects_negative_genus():
    with pytest.raises(ValidationError):
        decompose(-1)


@pytest.mark.parametrize("g", [2.5, 2.0, "2", None])
def test_decompose_refuses_a_genus_that_is_not_an_int(g):
    for fn in (decompose, f_exact):
        with pytest.raises(ValidationError, match=f"genus must be an int, got {re.escape(repr(g))}"):
            fn(g)
    assert decompose(True) == decompose(1)  # a bool is an int


def test_f_bounds_shape():
    for g in range(200):
        fv = f_exact(g)
        dec = decompose(g)
        assert fv.f_upper == dec.n
        assert fv.f_upper - fv.f_lower == (0 if dec.a_even else 1)
        assert fv.f_exact is None or fv.f_lower <= fv.f_exact <= fv.f_upper


def test_f_exact_by_formula():
    for g, n in [(1, 2), (9, 3), (17, 4), (129, 6)]:
        fv = f_exact(g)
        assert (fv.f_exact, fv.method, fv.resolved) == (n, "formula", True)
        assert fv.certificate is None


@pytest.mark.parametrize(
    "g,value",
    [(0, 1), (2, 1), (3, 2), (4, 1), (5, 3), (6, 1), (7, 2), (49, 5)],
)
def test_f_exact_by_resolver(g, value):
    fv = f_exact(g)
    assert fv.method == "cover-resolver"
    assert fv.resolved and fv.f_exact == value
    assert (fv.f_lower, fv.f_upper) == (value - 1, value)


def test_resolver_certificate_for_genus_two():
    fv = f_exact(2)
    assert fv.certificate == {
        "phi": [[1, 1, 1]],
        "cover": {
            "n": 1,
            "base": {"orientable": False, "genus": 3},
            "chi": -2,
            "components": 1,
            "orientable": True,
            "genus": 2,
        },
    }


def test_resolver_certificates_name_the_right_cover():
    for g in (0, 3, 5, 7, 49):
        cert = f_exact(g).certificate
        assert cert is not None
        report = cert["cover"]
        assert report["orientable"] and report["components"] == 1
        assert report["genus"] == g
        assert len(cert["phi"]) == report["n"]


# the genera with odd a and a base of genus 2 - a <= 16: g = 1 - a 2^(n-1), 1 <= n <= 2 - a
RESOLVED_GENERA = [1 - a * (1 << (n - 1)) for a in range(1, -14, -2) for n in range(1, 3 - a)]


def greedy_completion(w: int, h: int, n: int) -> list[int]:
    """Complete {w} to n independent rows by the first e_i outside the span."""
    rows = [w]
    for i in range(h):
        if len(rows) == n:
            break
        if not gf2.in_span(1 << i, rows):
            rows.append(1 << i)
    return rows


def test_resolver_rows_are_the_greedy_completion():
    assert len(RESOLVED_GENERA) == len(set(RESOLVED_GENERA)) == 64
    assert max(RESOLVED_GENERA) == 212_993
    for g in RESOLVED_GENERA:
        dec = decompose(g)
        h = 2 - dec.a
        assert not dec.a_even and dec.n <= h <= fgenus.MAX_QUOTIENT_RANK
        fv = f_exact(g)
        assert fv.resolved and fv.f_exact == dec.n
        rows = [sum(bit << i for i, bit in enumerate(row)) for row in fv.certificate["phi"]]
        greedy = greedy_completion((1 << h) - 1, h, dec.n)
        assert len(greedy) == dec.n and rows == greedy


def test_resolver_certifies_exactly_the_small_bases():
    resolved = set(RESOLVED_GENERA)
    for g in range(20_001):
        fv = f_exact(g)
        if fv.method == "cover-resolver":
            assert fv.resolved == (g in resolved), g


def test_figure_rows_agree_with_the_decomposition():
    """A row calls neither f_exact nor min_genus; it must match both, on 58
    of the 64 resolved genera below 20,000 and on the 6 above it."""
    for row in figure1_data(20_000):
        fv, dec = f_exact(row.g), decompose(row.g)
        assert (row.f_lower, row.f_upper) == (fv.f_lower, fv.f_upper)
        assert row.f_exact == (fv.f_exact if fv.resolved else None)
        assert row.equality == (min_genus(dec.n) == row.g)
    above = [g for g in RESOLVED_GENERA if g > 20_000]
    assert len(above) == 6 and max(above) == 212_993
    for g in above:
        row, fv = _figure_row(g), f_exact(g)
        assert fv.resolved and row[:4] == fv[:4]
        assert row.equality == (min_genus(fv.f_upper) == g)


def test_a_figure_row_builds_its_cover_but_no_certificate(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fgenus, "build_cover", counted("build_cover", fgenus.build_cover))
    monkeypatch.setattr(fgenus, "presentation", counted("presentation", fgenus.presentation))
    monkeypatch.setattr(CoverComplex, "to_report", counted("to_report", CoverComplex.to_report))
    rows = figure1_data(300)
    resolved = [r.g for r in rows if r.f_exact is not None and r.f_lower < r.f_upper]
    assert len(resolved) == 37
    bases = {2 - decompose(g).a for g in resolved}
    assert len(bases) == 8  # one quotient base per h in a table, built anew for each table
    assert calls == {"build_cover": 37, "presentation": 8}
    figure1_data(300)
    assert calls == {"build_cover": 74, "presentation": 16}


def test_resolver_budgets(monkeypatch):
    # genus 18 needs a nonorientable base of genus 19
    assert fgenus.MAX_QUOTIENT_RANK == 16
    assert f_exact(18).resolved is False
    assert (f_exact(18).f_lower, f_exact(18).f_upper) == (0, 1)
    monkeypatch.setattr(fgenus, "MAX_QUOTIENT_RANK", 19)
    fv = f_exact(18)
    assert fv.resolved and fv.f_exact == 1
    assert fv.certificate["cover"]["genus"] == 18

    assert f_exact(5).resolved  # needs a base of genus 3
    monkeypatch.setattr(fgenus, "MAX_QUOTIENT_RANK", 2)
    squeezed = f_exact(5)
    assert not squeezed.resolved
    assert (squeezed.f_lower, squeezed.f_upper) == (2, 3)
    assert figure1_data(5)[5].f_exact is None  # the table reads the same budget


def test_min_genus_values():
    assert [min_genus(n) for n in range(1, 8)] == [0, 1, 5, 17, 49, 129, 321]
    with pytest.raises(ValidationError):
        min_genus(0)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
def test_min_genus_refuses_a_rank_that_is_not_an_int(n):
    with pytest.raises(ValidationError, match=f"rank must be an int, got {re.escape(repr(n))}"):
        min_genus(n)


def test_equality_genera():
    assert equality_genera(10_000) == [
        (1, 0), (2, 1), (3, 5), (4, 17), (5, 49), (6, 129),
        (7, 321), (8, 769), (9, 1793), (10, 4097), (11, 9217),
    ]
    assert equality_genera(0) == [(1, 0)]
    assert equality_genera(10_000)[1:][0] == (2, 1)
    with pytest.raises(ValidationError):
        equality_genera(-1)


def test_lambert_w_known_points():
    assert lambert_w(0) == 0
    assert isinstance(lambert_w(2), mpmath.mpf)
    assert float(lambert_w(1)) == pytest.approx(OMEGA, abs=1e-15)
    assert float(lambert_w(mpmath.e)) == pytest.approx(1.0, abs=1e-15)
    assert float(lambert_w(1e6)) == pytest.approx(11.383358086140053, abs=1e-12)
    # exact branch point maps to -1
    with mpmath.workdps(40):
        assert lambert_w(-mpmath.exp(-1)) == -1


def test_lambert_w_rejects_below_branch():
    with pytest.raises(ValidationError):
        lambert_w(-0.5)


def test_lambert_w_against_mpmath_grid():
    xs = [-0.367, -0.36, -0.3, -0.25, -0.1, -0.01, 0.01, 0.5, 1.0,
          2.0, 10.0, 100.0, 1e3, 1e6, 1e9]
    with mpmath.workdps(40):
        for x in xs:
            w = lambert_w(x)
            assert abs(w - mpmath.lambertw(x)) < 5e-13
            assert abs(w * mpmath.exp(w) - mpmath.mpf(x)) <= 1e-13


def test_lambert_w_residual_where_floats_cannot_reach():
    # at x = 1e6 the ulp of a float64 result already exceeds 1e-12
    with mpmath.workdps(40):
        w = lambert_w(1e6)
        assert abs(w * mpmath.exp(w) - mpmath.mpf(1e6)) <= 1e-12


def test_lambert_w_at_the_seed_switch_points_and_the_branch():
    """60-digit mpmath agreement where the start changes formula, at
    -0.27, 3 and the switch to the 40-digit branch series, and next to
    the branch point."""
    cut = fgenus._MP_SERIES_CUT
    xs = [-0.27, 3.0, -0.3665, cut]
    xs += [math.nextafter(x, d) for x in (-0.27, 3.0, cut) for d in (-1, 1)]
    with mpmath.workdps(60):
        for x in xs:
            w, ref = lambert_w(x), mpmath.lambertw(x).real
            assert abs(w - ref) <= 1e-35 * abs(ref), x
        # float(-1/e) lies 1.2e-17 below the branch point; it is taken as
        # the branch point itself, where W = -1
        assert mpmath.mpf(-1 / math.e) < -mpmath.exp(-1)
        assert lambert_w(-1 / math.e) == -1
        # dW/dx = 1/(e^W (1 + W)) blows up at the branch, so 40 digits
        # bound the error only by about 1e-41 / (1 + W) there
        x = -mpmath.exp(-1) + mpmath.mpf("1e-15")
        w, ref = lambert_w(x), mpmath.lambertw(x).real
        assert abs(w - ref) <= 1e-35 * abs(ref) + 1e-40 / abs(1 + ref)


SEED_REGIONS = {  # x grid, bound on |seed - W| / |W|
    "branch": ([fgenus._MP_SERIES_CUT + (-0.27 - fgenus._MP_SERIES_CUT) * k / 2000
                for k in range(2000)], 2e-14),
    "log1p": ([-0.27 + 3.27 * k / 4000 for k in range(4000)], 4e-16),
    "asymptotic": ([3 * 10 ** (25 * k / 4000) for k in range(4001)], 3e-16),
}


@pytest.mark.parametrize("region", SEED_REGIONS)
def test_float_seed_error_by_region(region):
    """The seed against 40-digit mpmath.lambertw on each start's range,
    from where lambert_w stops using the seed (p = 0.01) up to 7.5e25.
    The bounds are about 2 ulps from -0.27 on, and near the branch point
    floats resolve W + 1 only to about 1e-16 / p."""
    xs, bound = SEED_REGIONS[region]
    with mpmath.workdps(40):
        for x in xs:
            ref = mpmath.lambertw(x).real
            assert abs(fgenus._float_seed(x) - ref) <= bound * abs(ref), x


def test_float_seed_takes_at_most_three_steps(monkeypatch):
    """One exponential per float Halley step, counted at math.exp, on
    the x of every genus 2..10^4 that H and figure pass the seed."""
    calls = []
    exp = math.exp

    def counting_exp(w):
        calls.append(w)
        return exp(w)

    monkeypatch.setattr(math, "exp", counting_exp)
    steps = set()
    for g in range(2, 10**4 + 1):
        calls.clear()
        fgenus._float_seed((g - 1) * math.log(2) / 2)
        steps.add(len(calls))
    assert max(steps) <= 3


def test_lambert_w_takes_one_40_digit_step(monkeypatch):
    """The float start leaves one Halley step to go: one exp for the
    step and one for the residual test on every call, counted at
    mpmath.exp once a first call has built the cached constants."""
    lambert_w(1)
    calls = []
    exp = mpmath.exp

    def counting_exp(w):
        calls.append(w)
        return exp(w)

    monkeypatch.setattr(mpmath, "exp", counting_exp)
    for k in range(120):
        x = 1e-3 * (3e28) ** (k / 119)  # log-spaced over [1e-3, 3e25]
        calls.clear()
        lambert_w(x)
        assert len(calls) == 2, (x, len(calls))


def oracle_lambert_w(x) -> mpmath.mpf:
    """lambert_w as mpf expressions under workdps(40): the same start, stop
    rule and messages, with mpmath's objects doing the arithmetic."""
    with mpmath.workdps(40):
        branch = -mpmath.exp(-1)
        xm = mpmath.mpf(x)
        if xm < branch:
            if branch - xm < mpmath.mpf("1e-15"):
                xm = branch
            else:
                raise ValidationError(
                    f"lambert_w needs x >= -1/e = {float(branch)!r}, got {x!r}"
                )
        if xm == branch:
            return mpmath.mpf(-1)
        if xm == 0:
            return mpmath.mpf(0)
        if xm < fgenus._MP_SERIES_CUT:
            p = mpmath.sqrt(2 * (mpmath.e * xm + 1))
            w = -1 + p - p**2 / 3 + 11 * p**3 / 72
            w += -43 * p**4 / 540 + 769 * p**5 / 17280
        else:
            w = mpmath.mpf(fgenus._float_seed(float(xm)))
        for step in range(fgenus.LAMBERT_MAX_STEPS):
            ew = mpmath.exp(w)
            f = w * ew - xm
            if step and abs(f) <= mpmath.mpf(fgenus.LAMBERT_TOL):
                break
            wp1 = w + 1
            w = w - f / (ew * wp1 - (w + 2) * f / (2 * wp1))
        else:
            raise CrossCheckError(f"lambert_w failed to converge for x={x!r}")
        return +w


def oracle_H(g) -> float:
    """H with the equality genera listed and W from ``oracle_lambert_w``."""
    if g < 0:
        raise ValidationError(f"H needs g >= 0, got {g!r}")
    if isinstance(g, int) or (isinstance(g, float) and g.is_integer()):
        n, g_n = equality_genera(int(g))[-1]
        if g_n == g:
            return float(n)
    with mpmath.workdps(40):
        ln2 = mpmath.log(2)
        return float(oracle_lambert_w((mpmath.mpf(g) - 1) * ln2 / 2) / ln2 + 2)


def outcome(f, arg):
    """What f(arg) gives: its raw tuple or float, or its exception and message."""
    try:
        value = f(arg)
    except (CrossCheckError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, mpmath.mpf):
        return "mpf", value._mpf_
    return type(value).__name__, value


def test_lambert_w_matches_the_mpf_object_loop_bit_for_bit():
    """Same raw tuple, or same exception and message, on the branch point
    and below it down to -inf, the 40-digit series cut, the seed's switch
    points and log-spaced x up to 3e25 and past the known defect."""
    cut = fgenus._MP_SERIES_CUT
    e_inv = -1 / math.e
    xs = [e_inv, -0.27, 3.0, cut, 0, 0.0, "0", -0.0, mpmath.mpf(0), 1, -0.5, 1e27, 1e30,
          "0.25", mpmath.e, float("-inf"), -mpmath.inf]
    for x0 in (e_inv, -0.27, 3.0, cut):
        for d in (-1, 1):
            x = x0
            for _ in range(4):
                x = math.nextafter(x, d)
                xs.append(x)
    xs += [e_inv + 10.0**-k for k in range(1, 17)]
    xs += [cut + k * 1e-7 for k in range(-20, 21)]
    xs += [-0.3678 + k * 0.0073 for k in range(60)]
    xs += [1e-3 * (3e28) ** (k / 299) for k in range(300)]
    with mpmath.workdps(40):
        xs += [-mpmath.exp(-1), mpmath.mpf("-0.4"), mpmath.mpf(10) ** 26 / 3]
    with mpmath.workdps(60):  # rounded to 40 digits on the way in
        xs += [-mpmath.exp(-1) + mpmath.mpf("1e-15"), mpmath.mpf(1) / 3]
    for x in xs:
        assert outcome(lambert_w, x) == outcome(oracle_lambert_w, x), x


def test_H_matches_the_mpf_object_loop_bit_for_bit():
    genera = list(range(5001)) + [int(10 ** (26 * k / 399)) for k in range(400)]
    genera += [2.5, 17.0, 1e20, 10**26 + 1]
    for g in genera:
        assert outcome(H, g) == outcome(oracle_H, g), g


@pytest.mark.parametrize("seed", [1, 7, 41, 42])
def test_H_known_defect_onset_is_unchanged(seed):
    """On the genera the bench probes untimed, 1e26 to 1e30, H raises the
    oracle's CrossCheckError message or returns its float, genus by genus."""
    probes = [job.data["g"] for job in workloads.known_defect_probes("envelope", seed)]
    assert len(probes) == 16
    outcomes = [outcome(H, g) for g in probes]
    assert outcomes == [outcome(oracle_H, g) for g in probes]
    assert any(kind == "CrossCheckError" for kind, _ in outcomes)


def H_by_lambert(g) -> float:
    """H's lambert_w route, which H itself takes only from 10^26 on and
    never at the equality genera."""
    with mpmath.workdps(40):
        ln2 = mpmath.log(2)
        return float(lambert_w((mpmath.mpf(g) - 1) * ln2 / 2) / ln2 + 2)


EQUALITY_GENERA = [g for _, g in equality_genera(2**52)]
LOG_UNIFORM_GENERA = st.integers(1, 87).flatmap(
    lambda k: st.integers(1 << (k - 1), min((1 << k) - 1, fgenus.H_FIXED_POINT_BELOW - 1)))


@st.composite
def mpf_genera(draw) -> mpmath.mpf:
    """A 60-digit quotient below 10^26, rounded to 136 bits by H. H takes
    lambert_w's route on it, and the two-exponential oracle the
    fixed-point step, so the two routes are compared on it."""
    q = draw(st.integers(1, 10**20))
    p = draw(st.integers(0, min(10**45, q * fgenus.H_FIXED_POINT_BELOW - 1)))
    with mpmath.workdps(60):
        return mpmath.mpf(p) / q


FIXED_POINT_GENERA = st.one_of(
    st.just(0) | LOG_UNIFORM_GENERA,
    st.just(1e-300) | st.floats(5e-324, 1e-250),
    st.floats(0, 1, exclude_min=True, exclude_max=True),
    st.floats(1 - 1e-6, 1 + 1e-6).filter(lambda g: not g.is_integer()),
    st.floats(1, 1e26, exclude_max=True),  # the float 1e26 lies above 10^26
    st.tuples(st.sampled_from(EQUALITY_GENERA), st.sampled_from([-0.5, 0.5]))
    .map(lambda t: t[0] + t[1]).filter(lambda g: g >= 0),
)


@settings(max_examples=300, deadline=None)
@given(FIXED_POINT_GENERA)
def test_H_fixed_point_route_matches_the_lambert_route_bit_for_bit(g):
    assert H(g) == H_by_lambert(g), g


FIX = 160
LN2_FIX = ln2_fixed(FIX)  # mpmath's 160-bit ln2


def oracle_envelope_two_exponentials(g) -> float:
    """H below 10^26 as it was before the residual check reused the Halley
    step's exponential: g rounded to 136 bits by mpmath, and e^w from
    mpmath's exp_fixed both for the step and for the check."""
    if isinstance(g, int) or (isinstance(g, float) and g.is_integer()):
        if (n := _equality_rank_by_counting(int(g))) is not None:
            return float(n)
    _, man, exp, _ = libmp.mpf_pos(mpmath.mpf.mpf_convert_arg(g, 136, "n"), 136, "n")
    shift = exp + FIX
    g_fix = man << shift if shift >= 0 else man >> -shift
    one, ln2 = 1 << FIX, LN2_FIX
    x = (g_fix - one) * ln2 >> FIX + 1
    w = int(math.ldexp(fgenus._float_seed(x / one), FIX))
    ew = exp_fixed(w, FIX, ln2)
    f = (w * ew >> FIX) - x
    wp1 = w + one
    c = (w + 2 * one) * f // (2 * wp1)
    w -= (f << FIX) // ((ew * wp1 >> FIX) - c)
    f = (w * exp_fixed(w, FIX, ln2) >> FIX) - x
    if abs(f) > int(math.ldexp(fgenus.LAMBERT_TOL, FIX)):
        raise CrossCheckError(f"H's Halley step left |w e^w - x| = {abs(f) / one:.3g} "
                              f"above {fgenus.LAMBERT_TOL} for g={g!r}")
    return (w + 2 * ln2) / ln2


@settings(max_examples=400, deadline=None)
@given(FIXED_POINT_GENERA | mpf_genera())
def test_H_matches_the_two_exponential_route_bit_for_bit(g):
    assert outcome(H, g) == outcome(oracle_envelope_two_exponentials, g), g


def test_ln2_literal_is_mpmaths_ln2_fixed():
    assert fgenus._LN2_FIX == LN2_FIX


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.integers(-60 << FIX, 60 << FIX),
    st.integers(-60 << FIX, 0),
    st.integers(-1 << 100, 1 << 100),
    st.builds(lambda k, d: k * LN2_FIX + d, st.integers(-90, 90), st.integers(-4, 4)),
))
def test_exp_fixed_is_mpmaths_exp_fixed_bit_for_bit(x):
    assert fgenus._exp_fixed(x) == exp_fixed(x, FIX, LN2_FIX)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(1 << FIX - 9), 1 << FIX - 9))
def test_exp_series_of_a_small_step_is_within_eight_ulps(d):
    """e^-d for |d| < 2^-9, beyond the Halley step that H's residual check
    takes (about an ulp of the seed, or 1e-3 when the seed is biased).
    Each of the at most 7 terms of the even sum floors once, the odd sum's
    product with t once more, and the floors inside a term shrink by d^2."""
    with mpmath.workprec(400):
        exact = mpmath.exp(-mpmath.mpf(d) / 2**FIX) * 2**FIX
        assert abs(fgenus._exp_series(-d, FIX) - exact) <= 8


def test_H_calls_lambert_w_only_from_the_fixed_point_cut_on(monkeypatch):
    """An int or float genus calls lambert_w from the cut-off on, and an
    mpf genus always, once."""
    calls = []
    lambert = fgenus.lambert_w

    def counting_lambert_w(x):
        calls.append(x)
        return lambert(x)

    monkeypatch.setattr(fgenus, "lambert_w", counting_lambert_w)
    cut = fgenus.H_FIXED_POINT_BELOW
    for g in [2, 2.5, 0.25, 10**25, cut - 1, float(cut - 2**40)]:
        H(g)
    assert calls == []
    for g in (cut, cut + 1, mpmath.mpf(10) ** 20 / 3, mpmath.mpf(17)):
        calls.clear()
        H(g)
        assert len(calls) == 1, g


@pytest.mark.parametrize("g", [0.5, 2, 6, 100, 10**6 + 1, 10**20, 0.1 + 10**25, 10**26 - 1])
def test_H_fixed_point_residual_check_is_live(g, monkeypatch):
    """A float seed 1e-3 off leaves a residual near 1e-10 or more after
    one Halley step, so the check must refuse it, reporting the residual
    that a second exponential gives to three digits."""
    seed = fgenus._float_seed
    monkeypatch.setattr(fgenus, "_float_seed", lambda x: seed(x) + 1e-3)
    with pytest.raises(CrossCheckError, match="Halley step"):
        H(g)
    assert outcome(H, g) == outcome(oracle_envelope_two_exponentials, g)


def _equality_rank_by_counting(g: int) -> int | None:
    n = 1
    while (g_n := min_genus(n)) < g:
        n += 1
    return n if g_n == g else None


def test_equality_rank_matches_counting_up_from_one():
    genera = list(range(10**5 + 1))
    genera += [min_genus(n) + d for n in range(1, 201) for d in (-1, 0, 1) if min_genus(n) + d >= 0]
    for g in genera:
        dec = decompose(g)
        assert (dec.n if dec.n == 2 - dec.a else None) == _equality_rank_by_counting(g), g


def _H_reference(g) -> float:
    with mpmath.workdps(80):
        ln2 = mpmath.log(2)
        w = mpmath.lambertw((mpmath.mpf(g) - 1) * ln2 / 2).real
        return float(w / ln2 + 2)


def test_H_is_the_correctly_rounded_envelope():
    """H(g) equals the float of W/ln2 + 2 with W at 80 digits, bit for
    bit, on every genus up to 3000 and on 200 log-spaced ones up to
    1e26."""
    genera = list(range(3001))
    genera += [int(10 ** (26 * k / 199)) for k in range(200)]
    for g in genera:
        assert H(g) == _H_reference(g), g
    assert H(2) == 2.3833323479810615


def test_H_exact_integer_fast_path():
    # up to about 10^47: past 2^52 only the exact test reaches these genera,
    # and from about 10^27 the lambert_w route would raise
    for n in range(1, 151):
        assert H(min_genus(n)) == float(n), n
    assert H(float(17)) == 4.0
    assert H_by_lambert(17) == pytest.approx(4.0, abs=1e-12)


def test_H_of_an_mpf_equality_genus_is_its_rank():
    """An mpf genus takes lambert_w's route, with no exact-integer test,
    and still lands on n at every equality genus below 10^26."""
    assert min_genus(81) < fgenus.H_FIXED_POINT_BELOW < min_genus(82)
    for n in range(1, 82):
        assert H(mpmath.mpf(min_genus(n))) == float(n), n


def test_H_of_an_integral_float_is_H_of_the_int_bit_for_bit():
    """An integral float takes the int's route: every g <= 5000, and the
    stdout digest's 400 log-spaced genera, all exact floats below 10^26."""
    log_spaced = [int(10 ** (26 * k / 400)) for k in range(400)]
    assert all(float(g) == g < fgenus.H_FIXED_POINT_BELOW for g in log_spaced)
    for g in list(range(5001)) + log_spaced:
        assert H(float(g)) == H(g), g


def test_H_float_values():
    assert H(9) == pytest.approx(3.4569995591345917, abs=1e-12)
    assert H(6) == pytest.approx(3.136865946258992, abs=1e-12)
    assert H(100) == pytest.approx(5.730130511173242, abs=1e-12)


def test_H_is_monotone_and_dominates_f():
    values = [H(g) for g in range(120)]
    assert all(b > a for a, b in zip(values, values[1:]))
    for g in range(120):
        assert f_exact(g).f_upper <= H(g) + 1e-9


def test_H_rejects_negative():
    with pytest.raises(ValidationError):
        H(-2)


@pytest.mark.parametrize("g", [float("inf"), float("nan"), mpmath.inf, mpmath.nan])
def test_H_rejects_a_non_finite_genus_up_front(g, monkeypatch):
    monkeypatch.setattr(fgenus, "lambert_w", None)  # refused before any Halley step
    with pytest.raises(ValidationError, match="finite"):
        H(g)


@pytest.mark.parametrize("x", [float("inf"), float("nan"), mpmath.inf, mpmath.nan])
def test_lambert_w_rejects_a_non_finite_x(x, monkeypatch):
    monkeypatch.setattr(mpmath, "exp", None)  # refused before any Halley step
    with pytest.raises(ValidationError, match="finite"):
        lambert_w(x)


def test_figure_rows():
    rows = figure1_data(9)
    assert [r.g for r in rows] == list(range(10))
    r9 = rows[9]
    assert (r9.f_lower, r9.f_upper, r9.f_exact, r9.equality) == (3, 3, 3, False)
    assert rows[5].equality and rows[5].f_exact == 3
    assert rows[0].equality and rows[0].f_exact == 1


@pytest.mark.parametrize("gmax", [5.5, 5.0, "5", None])
def test_figure_refuses_a_gmax_that_is_not_an_int(gmax):
    for fn in (figure1_data, equality_genera):
        with pytest.raises(ValidationError, match=f"gmax must be an int, got {re.escape(repr(gmax))}"):
            fn(gmax)


def test_figure_H_column_prints_H_to_nine_decimals():
    """A row's H prints H(g)'s 9 decimals and lies within 1e-12 of it,
    though not always bit for bit; the figure's genera never reach H's
    lambert_w route."""
    assert MAX_FIGURE_G < fgenus.H_FIXED_POINT_BELOW
    rows = figure1_data(20_000)
    for row in rows:
        exact = H(row.g)
        assert f"{row.H:.9f}" == f"{exact:.9f}", row.g
        assert abs(row.H - exact) <= 1e-12, row.g
    assert [row.g for row in rows if row.equality] == [g for _, g in equality_genera(20_000)]


def test_a_figure_row_near_a_rounding_boundary_prints_H():
    """At g = 896163 the float route's value rounds up at the 9th decimal
    where H(g) rounds down; the row takes H's own route there."""
    assert f"{H(896163):.9f}" == "16.878265577"
    assert f"{_figure_row(896163).H:.9f}" == "16.878265577"


def test_a_figure_row_takes_H_s_route_only_near_a_rounding_boundary(monkeypatch):
    """The fixed-point route runs on exactly the rows whose float value lies
    within the margin of a 9-decimal boundary, 41 of them up to 20,000,
    and every other row keeps the float value. Rows 0 to 2 start W cold,
    and row g from the previous row's W = (H - 2) ln2 moved by its slope;
    W lies within 4e-16 relative of the cold start's, and no row lies on
    the other side of the margin from the cold start's value."""
    called = []
    envelope_fixed = fgenus._envelope_fixed

    def spy(g_fix, g):
        called.append(g)
        return envelope_fixed(g_fix, g)

    monkeypatch.setattr(fgenus, "_envelope_fixed", spy)
    rows = figure1_data(20_000)

    def near(h):
        return abs(h * 1e9 % 1 - 0.5) < fgenus._TABLE_MARGIN

    ln2 = math.log(2)
    floats = {}
    for g in range(20_001):
        x = (g - 1) * ln2 / 2
        w = cold = fgenus._float_seed(x)
        if g > 2:
            w0 = (rows[g - 1].H - 2) * ln2
            w = fgenus._float_seed(x, w0 + w0 / ((g - 2) * (1 + w0)))
        assert abs(w - cold) <= 4e-16 * abs(cold), g
        assert near(w / ln2 + 2) == near(cold / ln2 + 2), g
        floats[g] = w / ln2 + 2
    assert called == [g for g, h in floats.items() if near(h) and not rows[g].equality]
    assert len(called) == 41
    assert all(row.H == floats[row.g] for row in rows if not row.equality and row.g not in called)


def test_a_figure_row_takes_one_halley_step_past_g_172(monkeypatch):
    """One exponential per float Halley step, counted at math.exp while
    each row is made: at most 3 on any row up to 20,000 (a row near a
    rounding boundary adds the cold start of H's route), and exactly one
    on every other non-equality row from g = 173 on, where the start
    carried from the row before is within _SEED_SETTLED of W."""
    fixed = []
    envelope_fixed = fgenus._envelope_fixed

    def spy(g_fix, g):
        fixed.append(g)
        return envelope_fixed(g_fix, g)

    monkeypatch.setattr(fgenus, "_envelope_fixed", spy)
    calls = []
    exp = math.exp

    def counting_exp(w):
        calls.append(w)
        return exp(w)

    monkeypatch.setattr(math, "exp", counting_exp)
    steps = {}
    for row in figure_rows(20_000):
        steps[row.g] = len(calls), row.equality
        calls.clear()
    assert max(count for count, _ in steps.values()) <= 3
    more = [g for g, (count, equality) in steps.items()
            if count != 1 and not equality and g not in fixed]
    assert len(more) == 167 and max(more) == 172


def test_figure_table_to_100000_is_frozen():
    """Only rows up to 20,000 are compared with H one by one; the digest of
    the CSV to 10^5 pins every later row's last decimal too."""
    csv = "".join(figure_lines(figure_rows(100_000)))
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "2f84b3f62b7e1e0a9b8cf330a6dbe42ad2ff41ed072ea0482b9cdaadbb5b5a92")


def test_figure_cap_refuses_before_any_row(monkeypatch):
    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(fgenus, "_figure_row", no_row)
    for gmax in (MAX_FIGURE_G + 1, 10**10):
        with pytest.raises(CapError, match="figure cap"):
            figure1_data(gmax)
        with pytest.raises(CapError, match="figure cap"):
            figure_rows(gmax)  # before the first row is asked for
    with pytest.raises(AssertionError):
        figure1_data(MAX_FIGURE_G)  # at the cap, rows are computed


def test_figure_csv_frozen():
    assert "".join(figure_lines(figure1_data(9))) == (
        "g,f_lower,f_upper,f_exact,H,equality\n"
        "0,0,1,1,1.000000000,true\n"
        "1,2,2,2,2.000000000,true\n"
        "2,0,1,1,2.383332348,false\n"
        "3,1,2,2,2.641185745,false\n"
        "4,0,1,1,2.838713139,false\n"
        "5,2,3,3,3.000000000,true\n"
        "6,0,1,1,3.136865946,false\n"
        "7,1,2,2,3.256058659,false\n"
        "8,0,1,1,3.361819464,false\n"
        "9,3,3,3,3.456999559,false\n"
    )


def test_figure_csv_leaves_unresolved_cell_empty():
    line18 = "".join(figure_lines(figure1_data(18))).splitlines()[19]
    assert line18.startswith("18,0,1,,")
    assert line18.endswith(",false")


def test_equality_genera_are_realized_by_polygon_surfaces():
    """Tie the table back to the complexes: over an (n+2)-gon boundary the
    surface has the predicted minimal genus and free rank exactly n."""
    for n, g in equality_genera(10_000):
        if n > 8:
            break
        K = polygon_boundary(n + 2)
        assert genus(build(K)) == g
        assert max_free_rank(K)[0] == n
