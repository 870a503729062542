"""Arithmetic of the maximal free 2-torus rank on orientable surfaces.

Write chi(M_g) = 2 - 2g = a * 2^n with n as large as possible subject to
a <= 1 and n <= 2 - a (the genus-1 surface, chi = 0, takes a = 0 and
n = 2; the sphere takes a = 1, n = 1). The largest n with a free
(Z/2)^n action on M_g, called f(g) here, satisfies

    f(g) = n              when a is even,
    n - 1 <= f(g) <= n    when a is odd,

and the odd case is settled constructively: f(g) = n iff some GF(2)
epimorphism from the mod-2 homology of the nonorientable surface of
genus 2 - a onto (Z/2)^n yields an orientable connected cover, which is
then built and shipped as a certificate (see the cover module).

The smallest genus carrying a free rank-n action is 1 + 2^(n-1)(n-2);
inverting that over the reals gives the envelope

    H(g) = W((g-1) ln2 / 2) / ln2 + 2

with W the principal Lambert branch, so f(g) <= H(g) with equality
exactly at the genera 0, 1, 5, 17, 49, ... . Equality detection is done
in exact integers, never through floats. Below g = 10^26 (H_FIXED_POINT_BELOW)
H takes one Halley step for W from a float64 start in fixed-point Python
ints at scale 2^-160, with its own exponential and a 160-bit ln 2, and
rounds to float once; from there on it calls lambert_w, which iterates
in 40-digit mpmath arithmetic. Only lambert_w, and H on a genus that is
not an int or float below 10^26 (an mpf, say), import mpmath, so ``f``
and ``figure`` never load it.
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .cover import build_cover, presentation
from .errors import CapError, CrossCheckError, ValidationError

if TYPE_CHECKING:
    import mpmath

MAX_QUOTIENT_RANK = 16  # the resolver builds no base of nonorientable genus 2 - a above this
MAX_FIGURE_G = 10**6  # figure1_data refuses gmax above this; a row takes ~0.015-0.025 ms


class GenusDecomposition(NamedTuple):
    """chi = a * 2^n with n maximal under a <= 1 and n <= 2 - a."""

    g: int
    chi: int
    a: int
    n: int

    @property
    def a_even(self) -> bool:
        return self.a % 2 == 0


def decompose(g: int) -> GenusDecomposition:
    """The canonical decomposition of chi(M_g); g = 1 is the a = 0 case."""
    if g < 0:
        raise ValidationError(f"genus must be nonnegative, got {g}")
    chi = 2 - 2 * g
    if g == 1:
        return GenusDecomposition(1, 0, 0, 2)
    n = (chi & -chi).bit_length() - 1  # 2-adic valuation of chi
    while n >= 0:
        a = chi >> n
        if a <= 1 and n <= 2 - a:
            return GenusDecomposition(g, chi, a, n)
        n -= 1
    raise CrossCheckError(f"no valid decomposition for chi={chi}")  # unreachable


class FValue(NamedTuple):
    """Bounds (and possibly the exact value) of f at one genus.

    Its fields are the keys of ``f --exact``'s JSON, in print order, so
    ``_asdict()`` is that object. ``resolved`` is False when the resolver
    was needed but its budget was exceeded. ``method`` records how an
    exact value was, or would be, obtained: "formula" for the even-a
    case, "cover-resolver" for the odd one. ``certificate`` carries the
    witness matrix and the built cover's report for resolver successes.
    """

    g: int
    f_lower: int
    f_upper: int
    f_exact: int | None
    resolved: bool
    method: str
    certificate: dict | None = None


def f_bounds(g: int) -> FValue:
    """The decomposition bounds alone: [n, n] for even a, [n-1, n] for odd."""
    dec = decompose(g)
    if dec.a_even:
        return FValue(g, dec.n, dec.n, None, False, "formula")
    return FValue(g, dec.n - 1, dec.n, None, False, "cover-resolver")


def f_exact(g: int) -> FValue:
    """Exact f(g) where affordable.

    Even a: f = n outright. Odd a: phi has the rows w, e_0, ..., e_{n-2}
    over the h = 2 - a generators of the nonorientable base, w = 1...1
    its orientation character. Since n <= h these rows are independent,
    so the cover is connected, and w is among them, so it is orientable;
    the matrix is certified by building the cover and checking it is
    connected, orientable, and of genus g. Quotient genus h above
    MAX_QUOTIENT_RANK, which also bounds the deck group by 2^h, returns
    the bounds unresolved.
    """
    dec = decompose(g)
    if dec.a_even:
        return FValue(g, dec.n, dec.n, dec.n, True, "formula")
    n = dec.n
    h = 2 - dec.a
    if h > MAX_QUOTIENT_RANK:
        return FValue(g, n - 1, n, None, False, "cover-resolver")
    base = presentation(False, h)
    rows = [base.orientation_character] + [1 << i for i in range(n - 1)]
    cc = build_cover(base, rows)
    if not (cc.components == 1 and cc.orientable and cc.genus == g):
        raise CrossCheckError(
            f"resolver certificate failed for g={g}: {cc.to_report()}"
        )
    certificate = {
        "phi": [[(r >> i) & 1 for i in range(h)] for r in rows],
        "cover": cc.to_report(),
    }
    return FValue(g, n - 1, n, n, True, "cover-resolver", certificate)


def min_genus(n: int) -> int:
    """Smallest orientable genus carrying a free rank-n action: 1 + 2^(n-1)(n-2)."""
    if n < 1:
        raise ValidationError(f"rank must be >= 1, got {n}")
    return 1 + (1 << (n - 1)) * (n - 2)


def equality_genera(gmax: int) -> list[tuple[int, int]]:
    """All (n, min_genus(n)) with min_genus(n) <= gmax, from n = 1.

    The n = 1 entry is (1, 0), the sphere with the antipodal involution.
    """
    if gmax < 0:
        raise ValidationError(f"gmax must be nonnegative, got {gmax}")
    out = []
    n = 1
    while (g := min_genus(n)) <= gmax:
        out.append((n, g))
        n += 1
    return out


LAMBERT_TOL = 1e-13  # lambert_w stops once |w e^w - x| is at most this
LAMBERT_MAX_STEPS = 100  # and raises CrossCheckError after this many Halley steps
_BRANCH_SERIES_CUT = -0.27  # the seed comes from the branch-point series below this
_MP_SERIES_CUT = (0.01**2 / 2 - 1) / math.e  # p < 0.01 below this: series at 40 digits
_SEED_STEPS = 6  # at most; 2-4 settle within an ulp away from the branch


def _float_seed(x: float) -> float:
    """W(x) to about one ulp in float64, the start of lambert_w.

    Starts from the branch-point series -1 + p - p^2/3 + 11 p^3/72 with
    p = sqrt(2(e x + 1)) below -0.27, from ln(1+x) up to 3, and from
    L1 - L2 + L2/L1 with L1 = ln x, L2 = ln L1 above (Corless et al.,
    "On the Lambert W function", 1996), then takes Halley steps in
    floats until a step no longer moves W by more than an ulp.
    """
    if x < _BRANCH_SERIES_CUT:
        p = math.sqrt(2 * (math.e * x + 1))
        w = -1 + p - p * p / 3 + 11 * p**3 / 72
    elif x < 3:
        w = math.log1p(x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    for _ in range(_SEED_STEPS):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1
        step = f / (ew * wp1 - (w + 2) * f / (2 * wp1))
        w -= step
        if abs(step) <= 2.3e-16 * abs(w):
            break
    return w


@cache
def _mp_constants() -> tuple:
    """ln 2, W's branch point -1/e, the rounding slack below it and
    LAMBERT_TOL as 40-digit mpfs, built on first use."""
    import mpmath

    with mpmath.workdps(40):
        return (mpmath.log(2),
                -mpmath.exp(-1),  # W(-1/e) = -1
                mpmath.mpf("1e-15"),  # float(-1/e) lies 1.2e-17 below it
                mpmath.mpf(LAMBERT_TOL))


def lambert_w(x) -> mpmath.mpf:
    """Principal-branch Lambert W by Halley iteration.

    Works in 40-digit mpmath arithmetic and returns an mpf, so the
    defining residual w*e^w - x is driven far below float precision even
    for large x (a float64 result could not hold |residual| <= 1e-12 once
    x is big, its own ulp gets in the way). It imports mpmath when
    called. It starts from W to about one ulp in float64
    (``_float_seed``), and Halley triples the correct digits, so one
    40-digit step suffices; that step is always taken, since a
    float-accurate start would pass the residual test unrefined at small
    x. Where p = sqrt(2(e x + 1)) < 0.01 floats cannot resolve W + 1, so
    the start is the branch series to p^5 at 40 digits; there 40 digits
    pin W only to about 1e-41 / (1 + W). Stops once the residual is at
    most LAMBERT_TOL; raises CrossCheckError if that takes more than
    LAMBERT_MAX_STEPS steps, and ValidationError below -1/e, at inf and nan.
    """
    import mpmath

    with mpmath.workdps(40):  # an mpf x prints its 40 digits in the messages
        xm = mpmath.mpf(x)
        if not xm < mpmath.inf:  # +inf or nan; -inf fails the branch test below
            raise ValidationError(f"lambert_w needs a finite x, got {x!r}")
        _, branch, slack, tol = _mp_constants()
        if xm < branch:
            if branch - xm < slack:
                xm = branch  # rounding slack for callers handing us float(-1/e)
            else:
                raise ValidationError(
                    f"lambert_w needs x >= -1/e = {float(branch)!r}, got {x!r}"
                )
        if xm == branch:
            return mpmath.mpf(-1)
        if xm == 0:
            return mpmath.mpf(0)
        if xm < _MP_SERIES_CUT:
            p = mpmath.sqrt(2 * (mpmath.e * xm + 1))
            w = -1 + p - p**2 / 3 + 11 * p**3 / 72
            w += -43 * p**4 / 540 + 769 * p**5 / 17280
        else:
            w = mpmath.mpf(_float_seed(float(xm)))
        for step in range(LAMBERT_MAX_STEPS):
            ew = mpmath.exp(w)
            f = w * ew - xm
            if step and abs(f) <= tol:
                break
            wp1 = w + 1
            w = w - f / (ew * wp1 - (w + 2) * f / (2 * wp1))
        else:
            raise CrossCheckError(f"lambert_w failed to converge for x={x!r}")
        return w


# H takes the fixed-point route below this genus and lambert_w from it on,
# where lambert_w's absolute stop rule is the known defect (H raises from
# about g = 10^27). The split goes away once lambert_w's stop rule is fixed
# (ROADMAP items 1 and 8): the fixed-point route then takes every g.
H_FIXED_POINT_BELOW = 10**26
_FIX = 160  # fraction bits of H's fixed-point W; lambert_w works at 40 digits
_ONE = 1 << _FIX
_LN2_FIX = 0xB17217F7D1CF79ABC9E3B39803F2F6AF40F34326  # floor(ln2 2^160), mpmath's ln2_fixed(160)
_TOL_FIX = int(math.ldexp(LAMBERT_TOL, _FIX))
_HALVINGS = 12  # _exp_fixed sums its series at 12 extra bits and squares 12 times


def _exp_series(t: int, wp: int) -> int:
    """e^t at scale 2^-wp, for |t| well below 1, by the Taylor series
    split into its even terms and its odd terms over t."""
    s0 = s1 = 1 << wp
    a = t2 = t * t >> wp
    k = 2
    while a:
        a //= k
        s0 += a
        a //= k + 1
        s1 += a
        k += 2
        a = a * t2 >> wp
    return s0 + (s1 * t >> wp)


def _exp_fixed(x: int) -> int:
    """e^x at scale 2^-_FIX, bit for bit mpmath's exp_fixed(x, 160, ln2).

    x = n ln2 + t with 0 <= t < ln2. The series reads t at scale 2^-172,
    that is as t / 2^12, and 12 squarings of its sum give e^t.
    """
    n, t = divmod(x, _LN2_FIX)
    wp = _FIX + _HALVINGS
    s = _exp_series(t, wp)
    for _ in range(_HALVINGS):
        s = s * s >> wp
    s >>= _HALVINGS
    return s << n if n >= 0 else s >> -n


def _envelope_fixed(g_fix: int, g) -> float:
    """W((g-1) ln2 / 2)/ln2 + 2 in fixed-point ints at scale 2^-_FIX, for
    g_fix = floor(g 2^_FIX) of a genus g below H_FIXED_POINT_BELOW.

    One Halley step w1 = w0 - d from the float64 seed w0, then the
    residual check of lambert_w, |w1 e^w1 - x| <= LAMBERT_TOL, and one
    rounding to float by exact integer division. The check reuses the
    step's e^w0: e^w1 = e^w0 e^-d, where |d| is about an ulp of the seed,
    so the series of e^-d stops after its d^3 term.

    Here |x| < 3.5e25 and -ln2 <= w < 55. ``_exp_fixed`` reduces w0 by at
    most 79 multiples of a 160-bit ln2, each off by under an ulp, and its
    series and squarings add about 16 ulps, so e^w0 is within 2^-153
    relative; e^-d and the two truncated products add a few ulps. The
    computed residual is therefore within |x| 2^-153 + 2^-157 < 1e-20 of
    w1 e^w1 - x for the ints w1 and x (at most 7.5e-22 on 4000 drawn
    genera), far below LAMBERT_TOL.
    """
    x = (g_fix - _ONE) * _LN2_FIX >> _FIX + 1
    w = int(math.ldexp(_float_seed(x / _ONE), _FIX))
    ew = _exp_fixed(w)
    f = (w * ew >> _FIX) - x
    wp1 = w + _ONE  # w - d, d = f / (ew wp1 - c), c = (w + 2) f / (2 wp1)
    c = (w + 2 * _ONE) * f // (2 * wp1)
    d = (f << _FIX) // ((ew * wp1 >> _FIX) - c)
    w -= d
    f = (w * (ew * _exp_series(-d, _FIX) >> _FIX) >> _FIX) - x
    if abs(f) > _TOL_FIX:
        raise CrossCheckError(f"H's Halley step left |w e^w - x| = {abs(f) / _ONE:.3g} "
                              f"above {LAMBERT_TOL} for g={g!r}")
    return (w + 2 * _LN2_FIX) / _LN2_FIX


def H(g) -> float:
    """The envelope W((g-1) ln2 / 2)/ln2 + 2, as a float.

    For integer g of the form 1 + 2^(n-1)(n-2) the value is the integer n
    and is returned exactly: they are the g that ``decompose`` gives
    n = 2 - a (big-integer detection, no floats involved).
    Below H_FIXED_POINT_BELOW, W comes from one Halley step in 160-bit
    fixed point (``_envelope_fixed``). An int or float genus there is
    exact at 40 digits and goes to fixed point without mpmath; any other
    genus, and every genus from the cut-off on, is first rounded to
    mpmath.mpf(g) at 40 digits. From the cut-off on, W comes from
    lambert_w at 40 digits; below it both give the same floats.
    """
    if not 0 <= g < math.inf:  # also refuses nan
        raise ValidationError(f"H needs a finite g >= 0, got {g!r}")
    if isinstance(g, (int, float)):
        if g == int(g) and (dec := decompose(int(g))).n == 2 - dec.a:
            return float(dec.n)
        if g < H_FIXED_POINT_BELOW:  # below 2^87, so exact in 136 bits
            num, den = g.as_integer_ratio()
            return _envelope_fixed((num << _FIX) // den, g)
    import mpmath

    gm = mpmath.mpf(g, dps=40)
    if g < H_FIXED_POINT_BELOW:  # g's message prints at the caller's precision
        man, exp = gm.man_exp  # g = man * 2^exp >= 0
        shift = exp + _FIX
        return _envelope_fixed(man << shift if shift >= 0 else man >> -shift, g)
    ln2 = _mp_constants()[0]
    with mpmath.workdps(40):
        return float(lambert_w((gm - 1) * ln2 / 2) / ln2 + 2)


class FigureRow(NamedTuple):
    g: int
    f_lower: int
    f_upper: int
    f_exact: int | None
    H: float
    equality: bool


def _figure_row(g: int) -> FigureRow:
    fv = f_exact(g)  # g, f_lower, f_upper, f_exact lead both tuples
    return FigureRow(*fv[:4], H(g), min_genus(fv.f_upper) == g)


def figure1_data(gmax: int) -> list[FigureRow]:
    """Rows g = 0..gmax of the bounds/exact/envelope table."""
    if gmax < 0:
        raise ValidationError(f"gmax must be nonnegative, got {gmax}")
    if gmax > MAX_FIGURE_G:
        raise CapError(f"gmax={gmax} exceeds the figure cap {MAX_FIGURE_G}")
    return [_figure_row(g) for g in range(gmax + 1)]


def figure_csv(rows: list[FigureRow]) -> str:
    """Render rows as the fixed CSV: floats at 9 decimals, empty cell for
    an unresolved exact value, lowercase true/false flags."""
    lines = ["g,f_lower,f_upper,f_exact,H,equality"]
    for r in rows:
        exact = "" if r.f_exact is None else str(r.f_exact)
        flag = "true" if r.equality else "false"
        lines.append(f"{r.g},{r.f_lower},{r.f_upper},{exact},{r.H:.9f},{flag}")
    return "\n".join(lines) + "\n"
