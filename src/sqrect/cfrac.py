"""Interval form of the renormalization on (0,2): expansions, the folded
map, the accelerated map with its matrices, invariant densities, a sampler
for the finite invariant measure, transfer-operator residuals and the
natural extension."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import Terminal
from .exactnum import Number, is_exact, nfloor
from .pet import Param
from .renorm import (
    FAMILIES, FAMILY_EDGES, MIDDLE, RIGHT, UNIT, BranchFamily, Mat2,
    family_coefficients, odd, slow_image,
)
from .words import Substitution

LN6 = math.log(6)


def param_to_x(p: Param) -> Number:
    return p.theta + (0 if p.eps == -1 else 1)


def x_to_param(x: Number) -> Param:
    if not 0 <= x < 2:
        raise ValueError("x must lie in [0,2)")
    if x < 1:
        return Param(x, -1)
    return Param(x - 1, 1)


def _terminal(x: Number) -> bool:
    return x == 0 or x == 1 or x == 2


def _slow_branch(x: Number) -> tuple[BranchFamily, int, Number]:
    """(family, branch index n, 1/gap(x)) of the slow map's branch at x:
    a unit branch below 1, else a right branch."""
    if _terminal(x):
        raise Terminal(f"map undefined at x = {x}")
    fam = UNIT if x < 1 else RIGHT
    inv = 1 / fam.gap(x)
    return fam, nfloor(inv), inv


def _digit(fam: BranchFamily, n: int) -> tuple[int, int, Mat2]:
    return n, -1 if fam is UNIT else 1, Mat2(*fam.A(n))


def branch_data(x: Number) -> tuple[int, int, Mat2]:
    """(branch index n, side sign, Moebius matrix A with S(x) = A.x)."""
    return _digit(*_slow_branch(x)[:2])


def s_interval(x: Number) -> Number:
    """One step of the parameter map in interval coordinates."""
    _, n, inv = _slow_branch(x)
    return slow_image(inv, n)


@dataclass(frozen=True)
class Digit:
    n: int
    eps: int
    matrix: Mat2


@dataclass(frozen=True)
class Expansion:
    steps: list[Digit]
    status: str  # finite | periodic | truncated
    preperiod: int = 0
    period: int = 0


def expand(x: Number, max_steps: int = 1000) -> Expansion:
    exact = is_exact(x)
    seen: dict = {}
    steps: list[Digit] = []
    for k in range(max_steps):
        if _terminal(x):
            return Expansion(steps, "finite")
        if exact:
            if x in seen:
                i = seen[x]
                return Expansion(steps, "periodic", i, k - i)
            seen[x] = k
        fam, n, inv = _slow_branch(x)
        steps.append(Digit(*_digit(fam, n)))
        x = slow_image(inv, n)
    return Expansion(steps, "truncated")


# -- folded map ----------------------------------------------------------


def q_map(x: Number) -> Number:
    if x == 0:
        raise Terminal("map undefined at 0")
    inv = 1 / x
    n = nfloor(inv)
    frac = inv - n
    return frac if n % 2 == 0 else 1 - frac


# -- acceleration --------------------------------------------------------


@dataclass(frozen=True)
class AccelStep:
    m: int  # slow-map steps taken
    y: Number
    A_bold: Mat2
    r_bold: Number
    M_bold: Mat2
    family: BranchFamily = field(repr=False)
    n: int

    @cached_property
    def sigma_bold(self) -> Substitution:
        # built on demand: the letter images have length ~ branch index,
        # which can be astronomical for orbits close to the interval ends
        return self.family.sigma(self.n)


def accel(x: Number) -> AccelStep:
    """One step of the accelerated map: first exit from (1, 3/2)."""
    fam, n, inv = _slow_branch(x)
    if fam is UNIT or n > 1:
        return AccelStep(
            1, slow_image(inv, n), Mat2(*fam.A(n)), inv, Mat2(*fam.M(n)), fam, n
        )
    # x in (1, 3/2), where the slow map takes right branch 1 until the orbit
    # leaves: middle branch n takes it n - 1 times in one Moebius step
    n = nfloor(1 / MIDDLE.gap(x))
    A = Mat2(*MIDDLE.A(n))
    return AccelStep(
        n - 1, A.mobius(x), A, 1 / (A.m21 * x + A.m22), Mat2(*MIDDLE.M(n)), MIDDLE, n
    )


def accel_orbit(x: Number, l: int) -> list[AccelStep]:
    out = []
    for _ in range(l):
        st = accel(x)
        out.append(st)
        x = st.y
    return out


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


def _pair_sum(alpha: float, beta: float, n_min: int, parity: int, cutoff: int) -> float:
    """Sum of 1/(n+alpha) - 1/(n+beta) over n >= n_min with n % 2 == parity.

    Enumerates up to `cutoff` terms and closes the remainder with digamma
    values, so the result is exact up to rounding.
    """
    # imported here so that importing the package does not load scipy.special
    from scipy.special import digamma

    n = n_min if n_min % 2 == parity else n_min + 1
    total = 0.0
    direct_end = n + 2 * min(cutoff, 20_000)
    while n < direct_end:
        total += 1.0 / (n + alpha) - 1.0 / (n + beta)
        n += 2
    m0 = (n - parity) // 2  # tail starts at n = 2*m0 + parity
    total += 0.5 * (
        digamma(m0 + (parity + beta) / 2) - digamma(m0 + (parity + alpha) / 2)
    )
    return total


def transfer_residual(which: str, y: float, branch_cutoff: int = 10**6,
                      test_density=None) -> float:
    """|sum over inverse branches of density/|map'| - density(y)|.

    `test_density` substitutes an alternative density (negative controls);
    the default closed-form densities use certified digamma tails.
    """
    dens = test_density or (lambda t: density(which, t))
    parity = 0 if y < 1 else 1
    t = y if y < 1 else y - 1
    if which == "nu":
        if test_density is None:
            # left branches x=1/(t+n): weight 1/((t+n)(t+n+1));
            # right branches x=2-1/(t+n): weight 1/((t+n-1)(t+n))
            total = _pair_sum(t, t + 1, 1, parity, branch_cutoff)
            total += _pair_sum(t - 1, t, 1, parity, branch_cutoff)
        else:
            total = _generic_branch_sum("nu", dens, y)
        return abs(total - dens(y))
    if which == "bold_nu":
        if test_density is None:
            total = _pair_sum(t, t + 1, 1, parity, branch_cutoff)
            # right branches: weight 1/((t+n-1)(t+n)), n >= 2
            total += _pair_sum(t - 1, t, 2, parity, branch_cutoff)
            if y > 1.5:
                # middle branches telescope: sum_{n>=2} of
                # 1/((n(y-1)+1)(n(y-1)-y+2)) = 1/(y(y-1))
                total += 1.0 / (y * (y - 1))
        else:
            total = _generic_branch_sum("bold_nu", dens, y)
        return abs(total - dens(y))
    raise ValueError("which must be 'nu' or 'bold_nu'")


def _generic_branch_sum(which: str, dens, y: float, n_terms: int = 20_000) -> float:
    """Direct branch enumeration for an arbitrary candidate density."""
    # the inverse branches stay written out: from adj(A(n)) they round differently
    parity = 0 if y < 1 else 1
    t = y if y < 1 else y - 1
    total = 0.0
    n = 2 if parity == 0 else 1
    while n < n_terms:
        x = 1.0 / (t + n)
        total += x * x * dens(x)
        if which == "nu" or n >= 2:
            x = 2.0 - 1.0 / (t + n)
            total += (2.0 - x) ** 2 * dens(x)
        n += 2
    if which == "bold_nu" and y > 1.5:
        for n in range(2, n_terms):
            d = y * (n - 1) - n + 2
            x = (y * n - n + 1) / d
            total += dens(x) / (d * d)
    return total


# -- natural extension ---------------------------------------------------


def _mobius_y(A: Mat2, y: float) -> float:
    """-1 / (A . (-1/y)) computed projectively."""
    # -1/y = (-1 : y) as (p : q)
    p, q = -1.0, y
    p, q = A.m11 * p + A.m12 * q, A.m21 * p + A.m22 * q
    # -1/(p/q) = -q/p
    return -q / p


def natext_step(x: float, y: float) -> tuple[float, float]:
    st = accel(x)
    return float(st.A_bold.mobius(x)), _mobius_y(st.A_bold, y)


# Rows (slope, parity, const) by entries (gap, a11, a12, a21, a22) by
# FAMILIES: the gap and the Moebius matrix of each family, from the table
_NATEXT_COEFFICIENTS = np.concatenate(
    [family_coefficients(name, with_parity=True) for name in ("gap", "A")], axis=1
)


def natext_steps(x: np.ndarray, y: np.ndarray):
    """`natext_step` on arrays of points: (x1, y1, ok), where ok is False on
    the points that `natural_extension_check` skips: x outside (0, 2), x = 1,
    or a zero Moebius denominator, where the scalar step raises
    ZeroDivisionError. Elsewhere x1 and y1 are the scalar values, bit for bit.

    The branch is the one `accel` takes: a unit branch below 1, a middle one
    on [1, 3/2) and a right one from 3/2 on. (`accel` goes to the middle
    family where the slow map takes right branch 1, and in floats that is
    x < 3/2 exactly: there 1/(2 - x) rounds below 2.) Its A(n) comes from
    `family_coefficients`. Its entries are integers that float arithmetic
    holds exactly: below 2**53 in magnitude, or, on unit branches beyond
    that, an even n itself. So every product and sum rounds as the scalar
    one does with Python ints."""
    f = FAMILY_EDGES.searchsorted(x, "right")
    slope, par, const = _NATEXT_COEFFICIENTS.take(f, axis=2)
    gap = slope[0] * x + const[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        # on the skipped points only: x = 0 and the zero denominators
        n = np.floor(1.0 / gap)
        a11, a12, a21, a22 = slope[1:] * n + par[1:] * odd(n) + const[1:]
        den = a21 * x + a22
        x1 = (a11 * x + a12) / den
        # _mobius_y: -1/y as (-1 : y) through A, then -q/p
        p = a11 * -1.0 + a12 * y
        q = a21 * -1.0 + a22 * y
        y1 = -q / p
    ok = (0 < x) & (x < 2) & (x != 1) & (den != 0) & (p != 0)
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
    return 1 / (x * (x - 1)) + 1 / x


NATEXT_BATCH = 1 << 14  # sample points drawn and stepped together


def _natext_batch(rng: random.Random, count: int):
    """`count` points drawn one at a time by `_sample_theta_domain`, in
    order, and stepped together: (x1, y1, ok) as `natext_steps` gives them."""
    points = np.array([_sample_theta_domain(rng) for _ in range(count)], dtype=float)
    x, y = points.reshape(count, 2).T
    return natext_steps(x, y)


def natural_extension_check(samples: int = 100_000, seed: int = 0) -> NatExtReport:
    """Steps `samples` points of the invariant domain and counts those that
    stay in it; then checks the fiber integrals and, on 1000 more draws, that
    the branch images are disjoint.

    Points are drawn one at a time from random.Random(seed) and stepped in
    batches. A point the step skips is made up by a later draw, as in a
    loop over single points: each batch draws only the samples still
    missing, so the disjointness check starts from the same rng state."""
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = random.Random(seed)
    stayed = 0
    done = 0
    while done < samples:
        x1, y1, ok = _natext_batch(rng, min(samples - done, NATEXT_BATCH))
        done += int(np.count_nonzero(ok))
        stayed += int(np.count_nonzero(ok & in_theta_domain(x1, y1)))
    sq = all(
        fiber_integral_square(Fraction(k, 10)) == Fraction(1, 1) / (1 + Fraction(k, 10))
        for k in range(1, 10)
    )
    mid = all(
        fiber_integral_halfline(x) == 1 / x
        and fiber_integral_right(x + Fraction(1, 2)) == 1 / (x - Fraction(1, 2))
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
    left < x0 <= right against the ends of the branch's domain, and
    y0 = _mobius_y(inverse, y1) on the branches that pass it, where a zero
    projective denominator raises ZeroDivisionError as the scalar one does."""
    hits = np.zeros(x1.shape[0], dtype=np.int64)
    for fam in FAMILIES:
        n = np.arange(max(lo, fam.first), hi)
        a11, a12, a21, a22 = fam.A(n)
        det = a11 * a22 - a12 * a21
        i11, i12, i21, i22 = a22 * det, -a12 * det, -a21 * det, a11 * det
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = i21 * x1 + i22
            x0 = (i11 * x1 + i12) / denom
        left, right = fam.ends(n)
        rows, cols = np.nonzero((denom != 0) & (left < x0) & (x0 <= right))
        # _mobius_y: -1/y as (-1 : y), through the inverse, then -q/p
        p = i11[cols] * -1.0 + i12[cols] * y1[rows, 0]
        q = i21[cols] * -1.0 + i22[cols] * y1[rows, 0]
        if np.any(p == 0):
            raise ZeroDivisionError("float division by zero")
        inside = in_theta_domain(x0[rows, cols], -q / p)
        hits += np.bincount(rows[inside], minlength=hits.size)
    return hits
