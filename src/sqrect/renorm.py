"""Renormalization of the exchange map: the branch table of the accelerated
map, the parameter map S, similitudes, induction zones, first-return maps,
substitutions, incidence matrices and depth-l covers of the aperiodic set."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import Degenerate, NotInZone, NotTerminated, OnDiscontinuity, Terminal
from .exactnum import Number, is_exact, nfloor
from .pet import Param, Point, Rect, psi_inverse, psi_inverse_rect, step
from .words import Substitution, Word


@dataclass(frozen=True)
class Mat2:
    """Integer 2x2 matrix."""

    m11: int
    m12: int
    m21: int
    m22: int

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        return (
            self.m11 * v[0] + self.m12 * v[1],
            self.m21 * v[0] + self.m22 * v[1],
        )

    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def norm1_of(self, v: tuple[int, int]) -> int:
        a, b = self.apply(v)
        return abs(a) + abs(b)

    def __pow__(self, k: int) -> "Mat2":
        result, base = Mat2.identity(), self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def mobius(self, x: Number) -> Number:
        """Action (m11*x + m12)/(m21*x + m22)."""
        return (self.m11 * x + self.m12) / (self.m21 * x + self.m22)


# -- the branch table of the accelerated map -----------------------------


@dataclass(frozen=True)
class BranchFamily:
    """One family of branches of the accelerated map, indexed by n >= first.

    `gap(x)` is the distance from x to the end where the family's branches
    accumulate; the branch index is n = floor(1/gap(x)). `A(n)` gives the
    entries (m11, m12, m21, m22) of the Moebius matrix (branch n maps x to
    A(n).x), `M(n)` those of the cocycle matrix, `ends(n)` the ends of the
    domain of branch n, and `sigma(n)` its substitution. All but `sigma` are
    plain arithmetic, so they take exact numbers and Python ints as well as
    numpy float arrays.

    On unit and right branches the Moebius denominator is the gap itself,
    and A(n).x = 1/gap(x) - n + n % 2: see `slow_image`.
    """

    first: int
    gap: Callable
    A: Callable
    M: Callable
    ends: Callable
    sigma: Callable


# x in (0, 1): branch n on (1/(n+1), 1/n]
UNIT = BranchFamily(
    first=1,
    gap=lambda x: x,
    A=lambda n: (n % 2 - n, 1, 1, 0),
    M=lambda n: (2 * n - 1, 2, n, 1),
    ends=lambda n: (1 / (n + 1), 1 / n),
    sigma=lambda n: Substitution(Word("ab" + "aab" * (n - 1)), Word("aab")),
)
# x in (1, 3/2): branch n on (1 + 1/(n+1), 1 + 1/n] is right branch 1 taken
# n - 1 times, so A, M and sigma are those of right branch 1 to the n - 1
MIDDLE = BranchFamily(
    first=2,
    gap=lambda x: x - 1,
    A=lambda n: (2 - n, n - 1, 1 - n, n),
    M=lambda n: (1, 2 * (n - 1), 0, 1),
    ends=lambda n: (1 + 1 / (n + 1), 1 + 1 / n),
    sigma=lambda n: Substitution(Word("a"), Word("a" * (2 * (n - 1)) + "b")),
)
# x in [3/2, 2): branch n on [2 - 1/n, 2 - 1/(n+1)), left-closed so that it
# mirrors the unit branches through x -> 2 - x; the slow map also takes the
# right branch 1 on (1, 3/2)
RIGHT = BranchFamily(
    first=2,
    gap=lambda x: 2 - x,
    A=lambda n: (n - n % 2, 1 + 2 * (n % 2 - n), -1, 2),
    M=lambda n: (2 * n - 1, 2, n - 1, 1),
    ends=lambda n: (2 - 1 / n, 2 - 1 / (n + 1)),
    sigma=lambda n: Substitution(Word("a" + "aab" * (n - 1)), Word("aab")),
)
FAMILIES = (UNIT, MIDDLE, RIGHT)
# the lower ends of the middle and right families: for a float array x,
# np.searchsorted(FAMILY_EDGES, x, "right") is the index in FAMILIES of the
# family holding each x (x < 1, 1 <= x < 3/2, x >= 3/2)
FAMILY_EDGES = np.array([UNIT.ends(UNIT.first)[1], RIGHT.ends(RIGHT.first)[0]])


def family_coefficients(name: str, with_parity: bool = False) -> np.ndarray:
    """Coefficients of the table function `name` ("gap", "A" or "M") of all
    three families, for float kernels that step lanes of every family at
    once: an array c of shape (terms, entries, len(FAMILIES)) with

        FAMILIES[f].<name>(t)[i] = c[0, i, f] t + c[-1, i, f],

    plus c[1, i, f] (t % 2) when `with_parity` is set. The coefficients are
    read off the table at t = 0, 1, 2 in Python ints and checked at t = 3, 4
    and 5; a function of another shape raises ValueError."""
    rows = []
    for fam in FAMILIES:
        fn = getattr(fam, name)
        g = [v if isinstance(v, tuple) else (v,) for v in map(fn, range(6))]
        slope = [(b - a) // 2 for a, b in zip(g[0], g[2])]
        par = [b - s - a for a, b, s in zip(g[0], g[1], slope)]
        fits = all(
            g[t] == tuple(s * t + q * (t % 2) + a for s, q, a in zip(slope, par, g[0]))
            for t in (3, 4, 5)
        )
        if not fits or (any(par) and not with_parity):
            raise ValueError(f"{name} of the branch table is not of the affine form")
        rows.append((slope, par, g[0]) if with_parity else (slope, g[0]))
    return np.array(rows, dtype=float).transpose(1, 2, 0)


def odd(n):
    """n % 2 of branch indices n >= 0: 1 where n is odd. On float arrays it
    is np.fmod, which gives the same values as % there at a quarter of the
    cost."""
    return np.fmod(n, 2) if isinstance(n, np.ndarray) else n % 2


def slow_image(inv, n):
    """A(n).x on unit or right branch n, from inv = 1/gap(x): the fractional
    part of inv, plus 1 when n is odd. Float callers keep this form rather
    than A(n).mobius(x), which rounds differently."""
    return inv - n + odd(n)


# -- parameter map -------------------------------------------------------


def n_omega(p: Param) -> int:
    f = p.f(p.theta)
    if f == 0:
        raise Degenerate("f(theta) = 0")
    return nfloor(1 / f)


def renorm_step(p: Param) -> Param:
    if p.theta == 0:
        raise Terminal("renormalization undefined at theta = 0")
    n = n_omega(p)
    theta1 = 1 / p.f(p.theta) - n
    return Param(theta1, -1 if n % 2 == 0 else 1)


def ratio(p: Param) -> Number:
    """Expansion ratio of the similitude, 1/f(theta) > 1."""
    f = p.f(p.theta)
    if f == 0:
        raise Degenerate("f(theta) = 0")
    return 1 / f


def similitude_apply(p: Param, z: Point, direction: str = "fwd") -> Point:
    th = p.theta
    if direction == "fwd":
        if p.eps == -1:
            return Point(z.y / th, z.x / th)
        s = 1 - th
        return Point(z.x / s, (z.y - th) / s)
    if direction == "inv":
        x, y, _, _ = psi_inverse(th, p.eps, z.x, z.y)
        return Point(x, y)
    raise ValueError("direction must be 'fwd' or 'inv'")


def induction_zone(p: Param) -> tuple[Rect, Rect]:
    q = renorm_step(p)  # raises Terminal -> report as Degenerate
    th1 = q.theta
    c_ind = psi_inverse_rect(p, Rect(0, 0, 1, 1))
    r_ind = psi_inverse_rect(p, Rect(1, 0, th1, 1))
    return c_ind, r_ind


def return_times(p: Param) -> tuple[int, int]:
    """(return time on C^ind, return time on R^ind)."""
    n = n_omega(p)
    if p.eps == -1:
        return 3 * (n - 1) + 2, 3
    return 3 * (n - 1) + 1, 3


def first_return(p: Param, z: Point) -> tuple[Point, int]:
    return _first_return(p, z, induction_zone(p), return_times(p))


def _first_return(
    p: Param, z: Point, zone: tuple[Rect, Rect], times: tuple[int, int]
) -> tuple[Point, int]:
    """first_return with the zone and return times of p precomputed."""
    c_ind, r_ind = zone
    if c_ind.contains(z):
        k = times[0]
    elif r_ind.contains(z):
        k = times[1]
    else:
        raise NotInZone(f"({z.x}, {z.y}) not in the induction zone")
    w = z
    for _ in range(k):
        w = step(p, w)
    return w, k


@dataclass(frozen=True)
class VerifyReport:
    samples: int
    resampled: int
    max_error: float
    exact: bool


def _random_domain_point(q: Param, rng: random.Random, exact: bool) -> Point:
    """Random point of X_{theta(q)}, rational coordinates in exact mode."""
    width = float(1 + q.theta)
    while True:
        if exact:
            den = 1 << 24
            x = Fraction(rng.randrange(1, int(width * den)), den)
            y = Fraction(rng.randrange(1, den), den)
        else:
            x = rng.uniform(0, width)
            y = rng.random()
        if 0 < y < 1 and 0 < x < width and x != 1:
            return Point(x, y)


def induction_verify(
    p: Param, samples: int = 10_000, tol: float = 1e-9, seed: int = 0
) -> VerifyReport:
    """Check that the similitude conjugates the first-return map to the
    renormalized map: psi(T_ind(psi^inv(z))) = T_{S(omega)}(z)."""
    if samples < 1:
        # no sample would make an empty certificate of exactness
        raise ValueError(f"samples must be at least 1, got {samples}")
    q = renorm_step(p)
    zone, times = induction_zone(p), return_times(p)
    exact = is_exact(p.theta)
    rng = random.Random(seed)
    resampled = 0
    max_err = 0.0
    done = 0
    while done < samples:
        z1 = _random_domain_point(q, rng, exact)
        try:
            z = similitude_apply(p, z1, "inv")
            w, _ = _first_return(p, z, zone, times)
            lhs = similitude_apply(p, w, "fwd")
            rhs = step(q, z1)
        except OnDiscontinuity:
            resampled += 1
            continue
        if exact:
            if lhs != rhs:
                max_err = max(max_err, lhs.dist_max(rhs))
        else:
            max_err = max(max_err, lhs.dist_max(rhs))
        done += 1
    return VerifyReport(samples, resampled, max_err, exact)


# -- substitutions and matrices ------------------------------------------


def _family(p: Param) -> BranchFamily:
    """The slow map's family at p: theta is the unit gap when eps = -1 and
    1 - theta the right gap when eps = +1, so n_omega(p) is the branch."""
    return UNIT if p.eps == -1 else RIGHT


def substitution(p: Param) -> Substitution:
    return _family(p).sigma(n_omega(p))


def incidence_matrix(p: Param) -> Mat2:
    return Mat2(*_family(p).M(n_omega(p)))


def period_sequence(p: Param, k: int) -> list[int]:
    """Periods of the depth-i island orbits: ||M_1...M_{i-1} k_i||_1."""
    out = []
    M = Mat2.identity()
    q = p
    for i in range(k):
        seed = (1, 0) if q.eps == -1 else (1, 1)
        out.append(M.norm1_of(seed))
        if i < k - 1:
            M = M @ incidence_matrix(q)
            q = renorm_step(q)  # Terminal propagates
    return out


# -- covers --------------------------------------------------------------


@dataclass(frozen=True)
class CoverPiece:
    rect: Rect
    shape: str  # 'C' or 'R'
    ratio: Number  # linear contraction applied to the model shape
    orbit_index: int


def rect_branch(theta, eps: int, letter: str, x, y, w, h):
    """Image (x, y, w, h) of a rectangle under one step of the map, for a
    rectangle inside the square (letter 'a') or the rectangle ('b'). Exact
    numbers and numpy float arrays alike."""
    if letter == "b":
        return x - 1, 1 - (y + h), w, h
    return 1 + theta - (y + h), x if eps == -1 else 1 - (x + w), h, w


def param_chain(p: Param, l: int) -> list[Param]:
    """[p, S(p), ..., S^l(p)]: the parameters a depth-l cover is built over."""
    params = [p]
    for _ in range(l):
        params.append(renorm_step(params[-1]))
    return params


def cover_seed(theta) -> list[tuple[tuple, str]]:
    """Depth-0 cover as ((x, y, w, h), letter) rows: the square ('a') and the
    rectangle R_theta ('b'), which is empty at theta = 0."""
    seed = [((0, 0, 1, 1), "a"), ((1, 0, theta, 1), "b")]
    return seed if theta != 0 else seed[:1]


def piece_count(params: list[Param]) -> int:
    """Pieces of the cover built over params: the seed's letter counts
    pushed through the incidence matrices, ||M_0...M_{l-1} v||_1."""
    v = (1, len(cover_seed(params[-1].theta)) - 1)
    for q in reversed(params[:-1]):
        v = incidence_matrix(q).apply(v)
    return sum(v)


# exact CoverPieces take 0.43-0.49 KB each once built and 0.60-0.66 KB at
# the peak of `cover` (tracemalloc, 11k-46k pieces at three surd parameters),
# so this budget is about the 0.6 GB that the float budget's arrays take
EXACT_PIECE_BUDGET = 1 << 20


def check_budget(params: list[Param], budget: int) -> None:
    """Raise NotTerminated, before anything is allocated, when the cover
    over params has more than `budget` pieces."""
    n = piece_count(params)
    if n > budget:
        raise NotTerminated(f"{n} cover pieces, above the budget of {budget}")


def cover_level(q: Param, pieces: list[tuple[CoverPiece, str]]):
    """One level of the cover recursion on (piece, letter) pairs, the letter
    being the side, square 'a' or rectangle 'b', that the piece lies in. Each
    piece is pulled back through the similitude and spread along its return
    orbit: at step i it lies on side sigma_q(letter)[i] and takes its branch."""
    sigma = substitution(q)
    images = {"a": str(sigma.image_a), "b": str(sigma.image_b)}
    ratio_q = ratio(q)
    out = []
    for piece, letter in pieces:
        rect = piece.rect
        r = psi_inverse(q.theta, q.eps, rect.x, rect.y, rect.w, rect.h)
        contraction = piece.ratio / ratio_q
        word = images[letter]
        for i, side in enumerate(word):
            if i:
                r = rect_branch(q.theta, q.eps, word[i - 1], *r)
            out.append((CoverPiece(Rect(*r), piece.shape, contraction, i), side))
    return out


def cover(p: Param, l: int) -> list[CoverPiece]:
    """Depth-l cover of the aperiodic set by similitude images of the
    square and of the renormalized rectangle, piece by piece in orbit
    order. Depth 0 is [C, R_theta]; each level is a `cover_level`. Covers
    above EXACT_PIECE_BUDGET pieces raise NotTerminated."""
    params = param_chain(p, l)
    check_budget(params, EXACT_PIECE_BUDGET)
    pieces = [
        (CoverPiece(Rect(*r), "C" if letter == "a" else "R", 1, 0), letter)
        for r, letter in cover_seed(params[-1].theta)
    ]
    for q in reversed(params[:-1]):
        pieces = cover_level(q, pieces)
    return [piece for piece, _ in pieces]
