"""Interval form of the renormalization on (0,2): expansions, whose digits
are the slow map's branches, the accelerated map, which reads the same branch
table and groups the runs of right branch 1 into middle branches, its one
walk `accel_walk` and its numpy form `accel_lanes`, invariant densities, a
sampler for the finite invariant measure, transfer-operator residuals and the
natural extension."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np

from .errors import Degenerate, Terminal, check_budget
from .exactnum import Number, Surd, _canon, is_exact
from .pet import Param
from .renorm import (
    FAMILIES, FAMILY_EDGES, MIDDLE, RIGHT, UNIT, BranchFamily, Mat2,
    ONE, family_coefficients, middle_image, slow_image,
)

LN6 = math.log(6)


def param_to_x(p: Param) -> Number:
    return p.theta + (0 if p.eps == -1 else 1)


def x_to_param(x: Number) -> Param:
    if not 0 <= x < 2:
        raise ValueError("x must lie in [0,2)")
    if x < 1:
        return Param(x, -1)
    return Param(x - 1, 1)


def _branch(x: Number, accelerated: bool):
    """(family, gap, 1/gap, n) of the branch at x: unit below 1, else right,
    or middle below 3/2 when `accelerated`. Terminal at x = 0 and 1, where
    theta = 0, and at x = 2: a float image can round up to it, and the end
    1 + 1/n of middle branch n lands on it; Degenerate where 1/x overflows."""
    if not 0 <= x < 2:
        if x == 2:
            raise Terminal("map undefined at x = 2")
        raise ValueError("x must lie in [0,2)")
    if x == 0 or x == 1:
        raise Terminal("renormalization undefined at theta = 0")
    # 2 x < 3 is x < 3/2 in every scalar type: a float doubles exactly
    fam = UNIT if x < 1 else MIDDLE if accelerated and 2 * x < 3 else RIGHT
    e = fam.gap(x)
    inv = 1 / e
    try:
        return fam, e, inv, math.floor(inv)
    except OverflowError:  # a subnormal float x: 1/x is inf
        raise Degenerate(f"1/theta overflows at theta = {x!r}") from None


@dataclass(frozen=True)
class Digit:
    n: int
    eps: int


@dataclass(frozen=True)
class Expansion:
    steps: list[Digit]
    status: str  # finite | periodic | truncated
    preperiod: int = 0
    period: int = 0


# Slow steps per expansion. On a 2-core VM an exact step near 1, as at
# 999999/1000000, costs about 16 us and keeps 270 bytes (tracemalloc: x in
# `seen` and its digit), so a walk refused here has run about 0.25 s; the
# CLI refuses it 0.5-0.6 s after it starts
EXPAND_STEP_BUDGET = 15_000


def expand(x: Number, max_steps: int = 1000) -> Expansion:
    """The digits (n, eps) of the slow map's branches along the orbit of x,
    the chain's levels at x_to_param(x). A float walk keeps the rounding of
    theta + 1 at every step, which walking S(q) would skip. A walk that
    neither ends nor closes up within EXPAND_STEP_BUDGET steps raises
    NotTerminated when more steps were asked, and a negative count ValueError."""
    if max_steps < 0:
        raise ValueError(f"depth must be at least 0, got {max_steps}")
    exact = is_exact(x)
    seen: dict = {}
    steps: list[Digit] = []
    for k in range(min(max_steps, EXPAND_STEP_BUDGET)):
        if exact:
            if x in seen:
                i = seen[x]
                return Expansion(steps, "periodic", i, k - i)
            seen[x] = k
        try:
            fam, _, inv, n = _branch(x, accelerated=False)
        except Terminal:
            return Expansion(steps, "finite")
        steps.append(Digit(n, -1 if fam is UNIT else 1))
        x = slow_image(inv, n)
    check_budget(max_steps, EXPAND_STEP_BUDGET, "slow steps")
    return Expansion(steps, "truncated")


# -- acceleration --------------------------------------------------------


class AccelStep(NamedTuple):
    m: int  # slow-map steps taken
    y: Number
    r_bold: Number
    M_bold: Mat2
    family: BranchFamily
    n: int

    def __repr__(self) -> str:  # without the family, which n and M_bold name
        return (f"AccelStep(m={self.m!r}, y={self.y!r}, r_bold={self.r_bold!r}, "
                f"M_bold={self.M_bold!r}, n={self.n!r})")


def accel(x: Number) -> AccelStep:
    """One step of the accelerated map, read off the branch table as
    `accel_lanes` reads it: the slow step, except on (1, 3/2), where middle
    branch n takes right branch 1 n - 1 times in one step (`middle_image`)."""
    fam, e, inv, n = _branch(x, accelerated=True)
    M = Mat2(*fam.M(n))
    if fam is MIDDLE:
        y, den = middle_image(e, n)
        return AccelStep(n - 1, y, 1 / den, M, fam, n)
    return AccelStep(1, slow_image(inv, n), inv, M, fam, n)


# By FAMILIES, the gap's rows (slope, const) off the table and (family, s, s c) in ints
_GAP_COEFFICIENTS = family_coefficients("gap")[:, 0]
_PQ_GAP = [(f, f.gap(1) - f.gap(0), (f.gap(1) - f.gap(0)) * f.gap(0)) for f in FAMILIES]
_UNIT_END, _MIDDLE_END, _RIGHT = map(np.array, (*FAMILY_EDGES, FAMILIES.index(RIGHT)))


class LaneScratch(tuple):
    """Arrays `accel_lanes` writes, allocated once a walk: outputs f, n and den,
    given, then y and temporaries, free between calls, which tuples may share."""

    def __new__(cls, f: np.ndarray, n: np.ndarray, den: np.ndarray):
        return super().__new__(cls, (f, n, den, *np.empty((2, f.size)),  # y e; inv t
                                     np.empty((2, f.size)), *np.empty((2, f.size), bool)))


def accel_lanes(x: np.ndarray, scratch: tuple | None = None):
    """`accel` on a float array of lanes, by ufuncs on arrays of their length and
    0-d constants, into the arrays of `scratch` (a new LaneScratch by default):
    (f, n, y, den), each lane's index f in FAMILIES, branch index, image and den
    = 1/r_bold, bit for bit where `accel` takes a step. f counts down from RIGHT
    by x < 1 and x < 3/2 (NaN is RIGHT): right branch 1, which `accel` takes as
    middle, is x < 3/2 in floats, where 1/(2 - x) rounds below 2. The gap's
    coefficients round it once, as x, x - 1 and 2 - x do; each lane keeps its
    family's image. No np.errstate is set: gaps of 2**-52 or more stay finite."""
    f, n, den, y, e, coef, unit, low = scratch or LaneScratch(
        np.empty(x.size, dtype=np.intp), *np.empty((2, x.size)))
    np.less(x, _UNIT_END, unit)
    np.subtract(np.subtract(_RIGHT, unit, f), np.less(x, _MIDDLE_END, low), f)
    inv, t = _GAP_COEFFICIENTS.take(f, axis=1, out=coef, mode="clip")  # slope, const
    np.add(np.multiply(inv, x, e), t, e)
    np.floor(np.divide(ONE, e, inv), n)
    middle_image(e, n, out=(y, den))
    np.less_equal(low, unit, low)  # not middle
    np.putmask(y, low, slow_image(inv, n, out=t))
    np.putmask(den, low, e)
    return f, n, y, den


def accel_walk(x: Number) -> Iterator[AccelStep]:
    """The accelerated steps of the orbit of x, on demand; Terminal where
    the orbit ends. A Surd steps in integers (`_surd_walk`)."""
    if type(x) is Surd:
        yield from _surd_walk(x)
    while True:
        st = accel(x)
        yield st
        x = st.y


def _surd_walk(x: Surd) -> Iterator[AccelStep]:
    """`accel` along a Surd's orbit in the PQa form x = (P + sqrt(D))/Q, Q | D - P^2:
    integer branch tests, and y = A(n).x and r_bold = 1/(c x + e) keep D."""
    if not 0 <= x < 2:
        raise ValueError("x must lie in [0,2)")
    k, d, sign = abs(x.q) * x.r, x.d, 1 if x.q > 0 else -1  # sqrt(D) = k sqrt(d)
    D, P, Q = k * k * d, sign * x.p * x.r, sign * x.r * x.r
    root, root2 = math.isqrt(D), math.isqrt(4 * D)
    while True:
        fam, s, sc = _PQ_GAP[0 if (root < Q - P) != (Q < 0)  # UNIT, MIDDLE, RIGHT
                             else 1 if (root2 < 3 * Q - 2 * P) != (Q < 0) else 2]
        pe = P + sc * Q  # the gap is (pe + sqrt(D))/(s Q)
        qi = (D - pe * pe) // (s * Q)
        n = (root - pe + (qi < 0)) // qi
        a, b, c, e = fam.A(n)
        det, u, v = a * e - b * c, a * P + b * Q, c * P + e * Q
        P, Q = det * (u * v - a * c * D) // Q, det * (v * v - c * c * D) // Q
        yield AccelStep(n - 1 if fam is MIDDLE else 1, _canon(P, k, Q, d),
                        _canon(det * v, -det * c * k, Q, d), Mat2(*fam.M(n)), fam, n)


def accel_orbit(x: Number, l: int) -> list[AccelStep]:
    return list(islice(accel_walk(x), max(l, 0)))


# -- invariant densities -------------------------------------------------


def density(which: str, x) -> float:
    """Closed-form invariant densities: 'nu' for the slow map (infinite
    mass), 'bold_nu' for the accelerated map (total mass ln 6)."""
    if not 0 < x < 2:
        raise ValueError("x must lie in (0,2)")
    if which == "nu":
        # the transfer operator fixes 1/(x-1) on (1,2), as the pointwise
        # branch sums confirm to machine precision
        return 1 / (x + 1) if x <= 1 else 1 / (x - 1)
    if which == "bold_nu":
        if x <= 1:
            return 1 / (1 + x)
        if x <= 1.5:
            return 1 / x
        return 1 / (x - 1)
    raise ValueError("which must be 'nu' or 'bold_nu'")


# -- transfer operator residuals -----------------------------------------


PAIR_TERMS = 20_000  # terms of each pair sum added before its digamma tail
PAIR_BLOCK = 4096  # of them made at once: 32 KiB arrays (see lyap.SERIES_BLOCK)
# Cephes' psi above 10 (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989) is ln x - 1/(2x) - z P(z), z = 1/x^2; P's coefficients:
_PSI_ASYMPTOTIC = (8.33333333333333333333e-2, -2.10927960927960927961e-2,
                   7.57575757575757575758e-3, -4.16666666666666666667e-3,
                   3.96825396825396825397e-3, -8.33333333333333333333e-3,
                   8.33333333333333333333e-2)


def _digamma(x: float) -> float:
    """scipy.special.digamma, which calls Cephes' psi, bit for bit above 10:
    the same operations in the same order. ValueError at x <= 10, where
    Cephes sums the harmonic series (x = 10) or recurs."""
    if not x > 10:
        raise ValueError("the asymptotic digamma needs x > 10")
    z, p = 1 / (x * x), 0.0
    for a in _PSI_ASYMPTOTIC:  # Horner's rule, highest coefficient first
        p = p * z + a
    return math.log(x) - 0.5 / x - z * p


def _pair_sum(alpha: float, beta: float, n_min: int, parity: int) -> float:
    """Sum of 1/(n+alpha) - 1/(n+beta) over n >= n_min with n % 2 == parity.

    Adds the first PAIR_TERMS terms directly and closes the remainder with
    `_digamma` values, so the result is exact up to rounding. The direct
    terms are summed left to right by np.add.accumulate, PAIR_BLOCK at a time
    from the sum so far, each rounded as the scalar expression rounds it (n <
    2**53 is an exact float), so the sum is bit for bit that of a term-by-term
    loop; np.sum, which sums pairwise, would change the last bits.
    """
    n = n_min if n_min % 2 == parity else n_min + 1
    if n + alpha == 0 or n + beta == 0:
        # alpha, beta >= -1 here: only the first term can have a zero pole
        raise ZeroDivisionError("float division by zero")
    total, end = 0.0, n + 2 * PAIR_TERMS
    for start in range(n, end, 2 * PAIR_BLOCK):
        k = np.arange(start, min(start + 2 * PAIR_BLOCK, end), 2, dtype=float)
        terms = 1.0 / (k + alpha)
        terms -= 1.0 / (k + beta)
        terms[0] += total
        total = np.add.accumulate(terms)[-1]
    m0 = (n - parity) // 2 + PAIR_TERMS  # tail starts at n = 2*m0 + parity
    total += 0.5 * (
        _digamma(m0 + (parity + beta) / 2) - _digamma(m0 + (parity + alpha) / 2)
    )
    return total


def transfer_residual(which: str, y: float) -> float:
    """|sum over inverse branches of density/|map'| - density(y)|, with
    certified digamma tails. Both densities jump at y = 1, where the branch
    sums take the right-hand limit (a pole for 'nu'), so y = 1 is refused
    with ValueError, as is y outside (0, 2), NaN included, before any sum.
    """
    if not 0 < y < 2:
        raise ValueError("y must lie in (0,2)")
    if y == 1:
        raise ValueError("the densities jump at y = 1; the residual is undefined")
    parity = 0 if y < 1 else 1
    t = y if y < 1 else y - 1
    if which == "nu":
        # left branches x=1/(t+n): weight 1/((t+n)(t+n+1));
        # right branches x=2-1/(t+n): weight 1/((t+n-1)(t+n))
        total = _pair_sum(t, t + 1, 1, parity)
        total += _pair_sum(t - 1, t, 1, parity)
    elif which == "bold_nu":
        total = _pair_sum(t, t + 1, 1, parity)
        # right branches: weight 1/((t+n-1)(t+n)), n >= 2
        total += _pair_sum(t - 1, t, 2, parity)
        if y > 1.5:
            # middle branches telescope: sum_{n>=2} of
            # 1/((n(y-1)+1)(n(y-1)-y+2)) = 1/(y(y-1))
            total += 1.0 / (y * (y - 1))
    else:
        raise ValueError("which must be 'nu' or 'bold_nu'")
    return abs(total - density(which, y))


# -- natural extension ---------------------------------------------------


def _mobius_y(a11, a12, a21, a22, y):
    """(p, -1 / (A . (-1/y))) for A = (a11, a12, a21, a22), numbers or arrays:
    (-1 : y) goes to (p : q) by A, and -q/p is the image; on numbers, p = 0 raises."""
    p = a11 * -1.0 + a12 * y
    q = a21 * -1.0 + a22 * y
    return p, -q / p


def natext_step(x: float, y: float) -> tuple[float, float]:
    st = accel(x)
    return st.y, _mobius_y(*st.family.A(st.n), y)[1]


def natext_steps(x: np.ndarray, y: np.ndarray):
    """`natext_step` on arrays of points: (x1, y1, ok), where ok is False on
    the points that `natural_extension_check` skips: x outside (0, 2), x = 1,
    or a zero projective denominator p, where the scalar step raises
    ZeroDivisionError. Elsewhere x1 and y1 are the scalar values, bit for bit.

    x1 is `accel_lanes`' image. A(n), read off FAMILIES family by family, has
    integer entries that floats hold exactly: below 2**53 in magnitude, or -n
    on unit branches beyond that. So `_mobius_y` rounds as on Python ints."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # on the skipped points and unit branches beyond 2**52 only
        f, n, x1, _ = accel_lanes(x)
        A = np.empty((4, x.size))
        for i, fam in enumerate(FAMILIES):
            A[:, f == i] = np.broadcast_arrays(*fam.A(n[f == i]))
        p, y1 = _mobius_y(*A, y)
    ok = (0 < x) & (x < 2) & (x != 1) & (p != 0)
    return x1, y1, ok


def in_theta_domain(x: float, y: float) -> bool:
    """Invariant domain of the two-sided accelerated map.

    The past coordinate lives on [0,1] over the unit interval, on [0,oo)
    over (1,3/2), and on (-oo,-1] u [0,oo) over (3/2,2); the last fiber is
    forced by the images of the accelerated middle branches and is exactly
    what makes dx dy/(1+xy)^2 integrate to the marginal 1/(x-1) there.
    Takes floats or numpy arrays (elementwise).
    """
    return (
        ((0 <= x) & (x <= 1) & (0 <= y) & (y <= 1))
        | ((1 < x) & (x <= 1.5) & (y >= 0))
        | ((1.5 < x) & (x <= 2) & ((y >= 0) | (y <= -1)))
    )


@dataclass(frozen=True)
class NatExtReport:
    samples: int
    stayed: int
    fiber_square_ok: bool
    fiber_middle_ok: bool
    disjoint_checked: int
    disjoint_ok: int


def _sample_theta_domain(rng: random.Random) -> tuple[float, float]:
    """Point of the invariant domain, fiber drawn by inverse CDF of the
    conditional density proportional to 1/(1+xy)^2."""
    piece = rng.randrange(3)
    u = min(max(rng.random(), 1e-12), 1 - 1e-12)
    if piece == 0:
        x = rng.random()
        return x, u / (1 + x - u * x)
    if piece == 1:
        x = 1 + rng.random() / 2
        return x, u / (x * (1 - u))
    x = 1.5 + rng.random() / 2
    if rng.random() < (x - 1) / x:  # mass of the positive half-fiber
        return x, u / (x * (1 - u))
    return x, (-(x - 1) / u - 1) / x


def fiber_integral_square(x: Fraction) -> Fraction:
    """Exact integral of 1/(1+x y)^2 dy over [0,1]; equals 1/(1+x)."""
    # antiderivative -1/(x (1+x y))
    return -1 / (x * (1 + x)) + 1 / x


def fiber_integral_halfline(x: Fraction) -> Fraction:
    """Exact integral of 1/(1+x y)^2 dy over [0, oo); equals 1/x."""
    return Fraction(1, 1) / x


def fiber_integral_right(x: Fraction) -> Fraction:
    """Exact integral of 1/(1+x y)^2 dy over (-oo,-1] u [0,oo).

    The antiderivative -1/(x(1+xy)) gives 1/(x(x-1)) on the negative ray
    and 1/x on the positive one; the sum is the marginal 1/(x-1)."""
    return 1 / (x * (x - 1)) + fiber_integral_halfline(x)


NATEXT_BATCH = 1 << 14  # sample points drawn and stepped together


def _natext_batch(rng: random.Random, count: int):
    """`count` points drawn one at a time by `_sample_theta_domain`, in
    order, and stepped together: (x1, y1, ok) as `natext_steps` gives them."""
    points = np.array([_sample_theta_domain(rng) for _ in range(count)], dtype=float)
    x, y = points.reshape(count, 2).T
    return natext_steps(x, y)


# Samples per natural-extension check: a sample costs about 0.85 us on a
# 2-core VM (10**6 take 0.83 s), so the budget is about 25 s of stepping;
# memory is bounded by NATEXT_BATCH
NATEXT_SAMPLE_BUDGET = 30_000_000


def natural_extension_check(samples: int = 100_000, seed: int = 0) -> NatExtReport:
    """Steps `samples` points of the invariant domain and counts those that
    stay in it; then checks the fiber integrals and, on 1000 more draws, that
    the branch images are disjoint. Each fiber integral, in Fractions, is
    compared with the marginal density("bold_nu", x) at points of its fiber.

    Points are drawn one at a time from random.Random(seed) and stepped in
    batches. A point the step skips is made up by a later draw, as in a
    loop over single points: each batch draws only the samples still
    missing, so the disjointness check starts from the same rng state.
    Raises NotTerminated, before the first batch, above NATEXT_SAMPLE_BUDGET."""
    if samples < 1:
        raise ValueError("samples must be positive")
    check_budget(samples, NATEXT_SAMPLE_BUDGET, "samples")
    rng = random.Random(seed)
    stayed = done = 0
    while done < samples:
        x1, y1, ok = _natext_batch(rng, min(samples - done, NATEXT_BATCH))
        done += int(np.count_nonzero(ok))
        stayed += int(np.count_nonzero(ok & in_theta_domain(x1, y1)))
    sq = all(fiber_integral_square(x) == density("bold_nu", x)
             for x in (Fraction(k, 10) for k in range(1, 10)))
    mid = all(
        fiber_integral_halfline(x) == density("bold_nu", x)
        and fiber_integral_right(r := x + Fraction(1, 2)) == density("bold_nu", r)
        for x in (Fraction(11, 10), Fraction(5, 4), Fraction(7, 5))
    )
    dch, dok = _disjointness_check(rng, 1000)
    return NatExtReport(done, stayed, sq, mid, dch, dok)


def _disjointness_check(rng: random.Random, count: int) -> tuple[int, int]:
    """Image points should have exactly one inverse-branch preimage in the
    domain: the branch images partition it. Returns (points checked, points
    with exactly one preimage) over the images of `count` draws that stay in
    the domain; `_preimage_hits` counts the preimages of all points at once."""
    x1, y1, ok = _natext_batch(rng, count)
    keep = ok & in_theta_domain(x1, y1)
    hits = _preimage_hits(x1[keep], y1[keep])
    return int(np.count_nonzero(keep)), int(np.count_nonzero(hits == 1))


NATEXT_MIN_BRANCHES = 80  # candidate branches n < 80 of each family, at least
NATEXT_CHUNK = 1 << 14  # branch indices per pass beyond those


def _branches_needed(y1: float) -> int:
    """Candidate branches n < n_need of each family hold every preimage of a
    point with past coordinate y1: the branch index of the unique preimage
    grows like 1/|y1| (and, for the middle family, like y1/(y1+1) as y1
    approaches -1)."""
    n_need = NATEXT_MIN_BRANCHES
    if y1 != 0:
        n_need = max(n_need, int(1 / abs(y1)) + 3)
    if y1 < -1:
        n_need = max(n_need, int(-y1 / (-y1 - 1)) + 3)
    return n_need


def _preimage_hits(x1: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Per image point (x1, y1): the number of candidate branches, n < n_need
    of each family (`_branches_needed`), whose inverse sends it to a point
    of the domain inside the branch's own domain.

    All points share one 2-D pass over the branches n < NATEXT_MIN_BRANCHES;
    a point that needs more runs alone over the rest in passes of
    NATEXT_CHUNK branch indices, so memory does not grow with n_need."""
    hits = _branch_hits(x1[:, None], y1[:, None], 0, NATEXT_MIN_BRANCHES)
    for i, y in enumerate(y1):
        n_need = _branches_needed(float(y))
        point = x1[i : i + 1, None], y1[i : i + 1, None]
        for lo in range(NATEXT_MIN_BRANCHES, n_need, NATEXT_CHUNK):
            hits[i] += _branch_hits(*point, lo, min(lo + NATEXT_CHUNK, n_need))[0]
    return hits


def _branch_hits(x1: np.ndarray, y1: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Hits of the points (x1, y1), columns, over the branches lo <= n < hi
    of each family. The arithmetic is the scalar one, operation by
    operation: the inverse of A(n) from its adjugate and determinant in
    int64 (exact for n below 3e9), x0 = inverse.x1, the test
    left < x0 <= right against the ends of the branch's domain, and y0 =
    `_mobius_y(*inverse, y1)` on the branches that pass it; a zero p raises
    ZeroDivisionError as the scalar one does."""
    hits = np.zeros(x1.shape[0], dtype=np.int64)
    for fam in FAMILIES:
        n = np.arange(max(lo, fam.first), hi)
        a11, a12, a21, a22 = fam.A(n)
        det = a11 * a22 - a12 * a21
        i11, i12, i21, i22 = a22 * det, -a12 * det, -a21 * det, a11 * det
        left, right = fam.ends(n)
        with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 raised below
            denom = i21 * x1 + i22
            x0 = (i11 * x1 + i12) / denom
            rows, cols = np.nonzero((denom != 0) & (left < x0) & (x0 <= right))
            p, y0 = _mobius_y(i11[cols], i12[cols], i21[cols], i22[cols], y1[rows, 0])
        if np.any(p == 0):
            raise ZeroDivisionError("float division by zero")
        inside = in_theta_domain(x0[rows, cols], y0)
        hits += np.bincount(rows[inside], minlength=hits.size)
    return hits
