"""Renormalization of the exchange map: the branch table of the accelerated
map (the one slow step, which `cfrac` reads in interval form), the chain of
the parameter map S level by level, similitudes, the induction check, island
periods and depth-l covers of the aperiodic set."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial, reduce
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import Degenerate, OnDiscontinuity, Terminal, check_budget
from .exactnum import Number, _canon, is_exact
from .pet import Param, Point, Rect, _lift, _steps, psi_inverse_ints


class Mat2(NamedTuple):
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

    def __pow__(self, k: int) -> "Mat2":
        result, base = Mat2.identity(), self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result


# -- the branch table of the accelerated map -----------------------------


@dataclass(frozen=True)
class BranchFamily:
    """One family of branches of the accelerated map, indexed by n >= first.

    `gap(x)` is the distance from x to the end where the family's branches
    accumulate; the branch index is n = floor(1/gap(x)). `A(n)` gives the
    entries (m11, m12, m21, m22) of the Moebius matrix (branch n maps x to
    A(n).x), `M(n)` those of the cocycle matrix, `ends(n)` the ends of the
    domain of branch n, and `sigma(n)` its substitution, the images of `a`
    and `b` as a pair of strings. All but `sigma` are plain arithmetic, so
    they take exact numbers and Python ints as well as numpy float arrays.

    On unit and right branches the Moebius denominator is the gap itself,
    and A(n).x = 1/gap(x) - n + n % 2 (`slow_image`; middle: `middle_image`).
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
    sigma=lambda n: ("ab" + "aab" * (n - 1), "aab"),
)
# x in (1, 3/2): branch n on (1 + 1/(n+1), 1 + 1/n] is right branch 1 taken
# n - 1 times, so A, M and sigma are those of right branch 1 to the n - 1
MIDDLE = BranchFamily(
    first=2,
    gap=lambda x: x - 1,
    A=lambda n: (2 - n, n - 1, 1 - n, n),
    M=lambda n: (1, 2 * (n - 1), 0, 1),
    ends=lambda n: (1 + 1 / (n + 1), 1 + 1 / n),
    sigma=lambda n: ("a", "a" * (2 * (n - 1)) + "b"),
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
    sigma=lambda n: ("a" + "aab" * (n - 1), "aab"),
)
FAMILIES = (UNIT, MIDDLE, RIGHT)
# the lower ends 1 and 3/2 of the middle and right families, which hold x:
# x < 1 the unit family, 1 <= x < 3/2 the middle and x >= 3/2 the right
FAMILY_EDGES = np.array([UNIT.ends(UNIT.first)[1], RIGHT.ends(RIGHT.first)[0]])
# 1 and 2 as arrays, which a ufunc with `out` takes at 2/3 the cost of a number
ONE, TWO = np.array(1.0), np.array(2.0)


def family_coefficients(name: str) -> np.ndarray:
    """Coefficients of the table function `name` ("gap" or "M") of all three
    families, for float kernels that step lanes of every family at once: an
    array c of shape (2, entries, len(FAMILIES)) with

        FAMILIES[f].<name>(t)[i] = c[0, i, f] t + c[1, i, f].

    The rows are read off the table in Python ints, the slope as g(1) - g(0),
    and checked up to t = 5; a function of another shape, as A with its term
    in t % 2, raises ValueError."""
    rows = []
    for fam in FAMILIES:
        fn = getattr(fam, name)
        g = [v if isinstance(v, tuple) else (v,) for v in map(fn, range(6))]
        slope = [b - a for a, b in zip(g[0], g[1])]
        if g != [tuple(s * t + a for s, a in zip(slope, g[0])) for t in range(6)]:
            raise ValueError(f"{name} of the branch table is not of the affine form")
        rows.append((slope, g[0]))
    return np.array(rows, dtype=float).transpose(1, 2, 0)


def odd(n, out=None):
    """n % 2 of branch indices n >= 0: 1 where n is odd. On float arrays, np.fmod's
    values at every n, from n - 2 trunc(n/2), each step exact."""
    if not isinstance(n, np.ndarray):
        return n % 2
    t = np.divide(n, TWO, out)
    return np.subtract(n, np.multiply(np.trunc(t, t), TWO, t), t)


def slow_image(inv, n, out=None):
    """A(n).x on unit or right branch n, from inv = 1/gap(x): the fractional part of
    inv, plus 1 when n is odd. Float callers keep this form rather than the Moebius
    quotient, which rounds differently. An array `out` takes it; inv gets inv - n."""
    if out is None:
        return inv - n + odd(n)
    return np.add(np.subtract(inv, n, inv), odd(n, out), out)


def middle_image(e, n, out=None):
    """A(n).x on middle branch n from its gap e = x - 1, and its Moebius
    denominator (1 - n) x + n = 1 - (n - 1) e. In floats the Moebius quotient
    cancels at large n and can divide by 0. In the gap, for a float x in (1,
    3/2), den and den + e = 1 - (n - 2) e are exact and n <= 1/e keeps den at
    e or more, so the image rounds into (3/2, 2]. A pair `out` takes both."""
    if out is None:
        den = 1 - (n - 1) * e
        return (den + e) / den, den
    y, den = out
    np.subtract(ONE, np.multiply(np.subtract(n, ONE, den), e, den), den)
    return np.divide(np.add(den, e, y), den, y), den


# -- the renormalization chain -------------------------------------------


@dataclass(frozen=True)
class Level:
    """One level of the renormalization chain, worked out once: q, the
    ratio 1/f(theta) > 1 of its similitude, the branch n = floor(ratio) of
    the slow map's family at q (unit where theta is the unit gap, eps = -1;
    right where 1 - theta is, eps = +1), the incidence matrix M(n), the
    return times (M's column sums, the lengths of sigma's images) and the
    next parameter S(q). Terminal at theta = 0, where S is undefined."""

    q: Param
    ratio: Number = field(init=False)
    n: int = field(init=False)
    family: BranchFamily = field(init=False, repr=False)
    M: Mat2 = field(init=False)
    times: tuple[int, int] = field(init=False)
    next: Param = field(init=False)

    def __post_init__(self):
        q = self.q
        if q.theta == 0:
            raise Terminal("renormalization undefined at theta = 0")
        ratio = 1 / q.f(q.theta)
        try:
            n, family = math.floor(ratio), UNIT if q.eps == -1 else RIGHT
        except OverflowError:  # a subnormal float theta: 1/theta is inf
            raise Degenerate(f"1/theta overflows at theta = {q.theta!r}") from None
        M = Mat2(*family.M(n))
        # a frozen record's derived fields, set as cached_property sets values
        vars(self).update(
            ratio=ratio, n=n, family=family, M=M,
            times=(M.m11 + M.m21, M.m12 + M.m22),
            next=Param(ratio - n, -1 if n % 2 == 0 else 1),
        )

    @cached_property
    def sigma(self) -> tuple[str, str]:
        # built on demand: its images have about 3n letters
        return self.family.sigma(self.n)


def chain(p: Param) -> Iterator[Level]:
    """The levels of p, S(p), S^2(p), ... on demand; Terminal at theta = 0."""
    while True:
        level = Level(p)
        yield level
        p = level.next


def descend(p: Param, l: int, budget: int | None = None) -> tuple[list[Level], Param]:
    """The first l levels of the chain of p, and S^l(p) below them; with a
    budget, walked through `within_budget`. ValueError below depth 0."""
    if l < 0:
        raise ValueError(f"depth must be at least 0, got {l}")
    # range, unlike islice, takes a depth past sys.maxsize
    levels = (level for _, level in zip(range(l), chain(p)))
    levels = list(levels if budget is None else within_budget(levels, budget))
    return levels, levels[-1].next if levels else p


def renorm_step(p: Param) -> Param:
    return Level(p).next


def incidence_matrix(p: Param) -> Mat2:
    return Level(p).M


def similitude(p: Param, z: Point) -> Point:
    """psi, from the induction zone of p onto the domain of S(p)."""
    th = p.theta
    if p.eps == -1:
        return Point(z.y / th, z.x / th)
    s = 1 - th
    return Point(z.x / s, (z.y - th) / s)


@dataclass(frozen=True)
class VerifyReport:
    samples: int
    resampled: int
    max_error: float
    exact: bool


# Map steps per induction check, counted as samples times the longer return
# time. A counted step costs 0.2-2.5 us on a 2-core VM, exact and float alike,
# most at short return times. 10**6 samples at sqrt(2)-1, eps = +1 (return
# times 1 and 3) took 5.4-6.3 s, and the dearest admitted check, a float one
# there (0.4142135623730951, +1), 6.5-8.4 s
VERIFY_STEP_BUDGET = 3_000_000
_DEN = 1 << 24  # exact draws are numerators over 2**24


def _draw(rng: random.Random, width: float, exact: bool) -> tuple:
    """A random point of the open domain of the given width: in exact mode
    its numerators over 2**24, drawn and tested as ints; else floats."""
    while True:
        if exact:  # width * 2**24 is exact, as 2**24 is a power of two
            kx, ky = rng.randrange(1, int(width * _DEN)), rng.randrange(1, _DEN)
            if kx != _DEN:
                return kx, ky
        else:
            x, y = rng.uniform(0, width), rng.random()
            if 0 < y < 1 and 0 < x < width and x != 1:
                return x, y


def induction_verify(p: Param, samples: int = 10_000, seed: int = 0) -> VerifyReport:
    """Check that the similitude conjugates the first-return map to the
    renormalized map: psi(T_ind(psi^inv(z))) = T_{S(omega)}(z), every draw in
    `pet.walk`'s frame. Raises NotTerminated, before the first sample, above
    VERIFY_STEP_BUDGET.

    max_error is 0 at an exact parameter unless the conjugacy fails. At a
    float one it is at most (k + 6) 2**-52 / f(theta), k the longer return
    time, on draws whose float orbit takes the branches of the real one.
    With u = 2**-53, a rounded result r < 2 is off by at most u and by u|r|,
    so to first order, in the max norm: psi^-1 errs by u + 4u f(theta); each
    of the k steps adds 2u (1 + theta and a subtraction), an isometry passing
    earlier errors on; psi scales that by 1/f(theta) and adds 3u; theta(S(p))
    is off by 2u/f(theta) and its step adds 2u. In all (2k + 3) u/f(theta) + 9u."""
    if samples < 1:
        # no sample would make an empty certificate of exactness
        raise ValueError(f"samples must be at least 1, got {samples}")
    level = Level(p)
    q, longest = level.next, max(level.times)
    check_budget(samples * longest, VERIFY_STEP_BUDGET, "map steps")
    # theta(p) and theta(S(p)) lifted once, with draws as numerators over
    # D = 2**24 and every value over F; float ones as given, R = D = F = 1
    R, d, ((ta, tb), (ua, ub)), exact = _lift((p.theta, q.theta))
    D = _DEN if exact else 1
    F, pull = R * D, partial(psi_inverse_ints, (R, d, ta, tb), p.eps)
    value = (lambda a, b: _canon(a, b, F, d)) if exact else (lambda a, b: a)
    fp = (F, d, F + ta * D, tb * D, p.eps == 1, value, exact)
    fq = (F, d, F + ua * D, ub * D, q.eps == 1, value, exact)
    rng, width = random.Random(seed), float(1 + q.theta)
    resampled, max_err, done = 0, 0.0, 0
    while done < samples:
        x, y = _draw(rng, width, exact)
        # psi^-1 maps the square of S(p) onto C^ind and its rectangle onto
        # R^ind, so the drawn side gives the first-return time
        k = level.times[x > D]
        try:
            w = _steps(fp, *pull(D, x, 0, y, 0)[:4], k)
            z2 = _steps(fq, x * R, 0, y * R, 0, 1)
        except OnDiscontinuity:
            resampled += 1
            continue
        # psi is a bijection: T_ind(psi^-1 z1) against psi^-1(T_{S(p)} z1) in
        # integers; psi itself rounds in floats, so every float sample is measured
        if not exact or [a * R for a in w] != [*pull(F, *z2)[:4]]:
            lhs = similitude(p, Point(value(*w[:2]), value(*w[2:])))
            max_err = max(max_err, lhs.dist_max(Point(value(*z2[:2]), value(*z2[2:]))))
        done += 1
    return VerifyReport(samples, resampled, max_err, exact)


# -- island periods ------------------------------------------------------


def seed_periods(p: Param):
    """For q = S^k(p), k = 0, 1, ...: (q, period, level, M) with q's Level,
    M = M_0...M_k and the period at p of q's shortest orbit
    (`island_seed`): ||M_0...M_{k-1} v||_1 for its letter counts v, the
    square alone (1, 0) or the square and its image (1, 1). At theta = 0
    level and M are None; past it, Terminal."""
    levels, M, q = chain(p), Mat2.identity(), p
    while True:
        period = sum(M.apply((1, len(island_seed(q)) - 1)))
        if q.theta == 0:
            yield q, period, None, None
        level = next(levels)
        M = M @ level.M
        yield q, period, level, M
        q = level.next


def period_sequence(p: Param, k: int) -> list[int]:
    """Periods of the island orbits of depth 0..k-1 (`seed_periods`)."""
    return [period for _, period, _, _ in islice(seed_periods(p), max(k, 0))]


# -- covers --------------------------------------------------------------


class CoverPiece(NamedTuple):
    rect: Rect
    shape: str  # 'C' or 'R'
    ratio: Number  # linear contraction applied to the model shape


def rect_branch_ints(theta: tuple, eps: int, letter, xa, xb, ya, yb, wa, wb, ha, hb,
                     out=None):
    """Image (x, y, w, h) of a rectangle under one step of the map, for a
    rectangle inside the square (letter 'a') or the rectangle ('b'), in
    `pet.psi_inverse_ints`' frame: theta as (R, d, ta, tb) and x, y, w, h as
    pairs (a, b) meaning (a + b*sqrt(d))/R, or a + b*theta in (1, 0, 0, 1).
    In the given-values frame (1, 0, theta, 0) of float arrays, arrays `out`
    (x, y) take the a parts of x and y, each b part 0; w and h may be read
    from out's own arrays, each from the one it alone makes."""
    R, _, ta, tb = theta
    if out is not None:
        x, y = out
        if letter == "b":
            np.subtract(xa, R, x)
            np.subtract(R, np.add(ya, ha, y), y)
        else:
            np.subtract(R + ta, np.add(ya, ha, x), x)
            if eps == -1:
                y[...] = xa
            else:
                np.subtract(R, np.add(xa, wa, y), y)
        return out
    if letter == "b":
        return xa - R, xb, R - (ya + ha), -(yb + hb), wa, wb, ha, hb
    if eps == -1:
        return R + ta - (ya + ha), tb - (yb + hb), xa, xb, ha, hb, wa, wb
    return R + ta - (ya + ha), tb - (yb + hb), R - (xa + wa), -(xb + wb), ha, hb, wa, wb


def psi_inverse_lattice(n: int, eps: int, xi, xj, yi, yj, wi, wj, hi, hj) -> tuple:
    """`pet.psi_inverse_ints` of the level (n, eps) on the lattice: pairs
    (i, j) meaning i + j*theta(S(p)) pulled back as pairs meaning i + j*theta."""
    if eps == -1:  # theta*(i + j*theta') = j + (i - n*j)*theta, x and y swapped
        return yj, yi - n * yj, xj, xi - n * xj, hj, hi - n * hj, wj, wi - n * wj
    # (1 - theta)*(i + j*theta') = (i + (1 - n)*j) + (n*j - i)*theta, theta on y
    return (xi - (n - 1) * xj, n * xj - xi, yi - (n - 1) * yj, n * yj - yi + 1,
            wi - (n - 1) * wj, n * wj - wi, hi - (n - 1) * hj, n * hj - hi)


def cover_seed(theta) -> list[tuple[tuple, str]]:
    """Depth-0 cover as lattice rows ((xi, xj, yi, yj, wi, wj, hi, hj),
    letter), each pair meaning i + j*theta: the square [0, 1]^2 ('a') and
    the rectangle R_theta = [1, 1 + theta] x [0, 1] ('b'), empty at theta = 0."""
    seed = [((0, 0, 0, 0, 1, 0, 1, 0), "a"), ((1, 0, 0, 0, 0, 1, 1, 0), "b")]
    return seed if theta != 0 else seed[:1]


def island_seed(q: Param) -> list[tuple[tuple, str]]:
    """The shortest orbit at q as lattice rows, as `cover_seed`'s, in orbit
    order: where eps = -1 the square [theta, 1]^2 ('a'), which the map fixes
    and which at theta = 0 is [0, 1]^2 for either eps; else the square
    [0, theta]^2 and its image [1, 1 + theta] x [1 - theta, 1] ('b')."""
    if q.eps == -1 or q.theta == 0:
        return [((0, 1, 0, 1, 1, -1, 1, -1), "a")]
    return [((0, 0, 0, 0, 0, 1, 0, 1), "a"), ((1, 0, 1, -1, 0, 1, 0, 1), "b")]


# exact CoverPieces share their coordinates and take 0.19-0.22 KB each once
# built, 0.37-0.45 KB at the peak of `cover` (tracemalloc, 27k-70k pieces at
# four surd parameters): about 0.45 GB at this budget, near the float one's 0.6 GB
EXACT_PIECE_BUDGET = 1 << 20
# letters of sigma over a cover's levels: the float fold takes a Python step
# each, 6-9 us on a 2-core VM (unit branch 10**5, 300,002 of them, 1.8 s)
FOLD_STEP_BUDGET = 1_000_000


def within_budget(levels: Iterable[Level], budget: int) -> Iterator[Level]:
    """The levels one by one, each checked before the next is made:
    NotTerminated once their cover passes `budget` pieces, ||P_k v||_1 with
    P_k = M_0...M_{k-1} and v the seed's letter counts (`cover_seed`), or
    its fold 2 * budget piece-steps, ||S_k v||_1 with S_{k+1} = (S_k + I) M_k
    (the deepest surd covers admitted take 1.2-1.7 a piece), or FOLD_STEP_BUDGET
    steps, sum(level.times) summed. No count falls with depth, as M(n) (1, 1)
    >= (1, 1) and, on the last level before theta = 0, M(n) (1, 0) >= (1, 1):
    stopping early refuses exactly the covers whose counts at full depth pass."""
    a, b, c, d, steps = 1, 1, 0, 0, 0  # (a, b) = (1, 1) P_k, (c, d) = (1, 1) S_k
    for level in levels:
        m11, m12, m21, m22 = level.M
        a, b = a * m11 + b * m21, a * m12 + b * m22
        c, d = (c + 1) * m11 + (d + 1) * m21, (c + 1) * m12 + (d + 1) * m22
        steps += sum(level.times)
        rect = level.next.theta != 0  # the seed's rectangle, v = (1, rect)
        check_budget(a + b * rect, budget, "cover pieces")
        check_budget(c + d * rect, 2 * budget, "cover piece-steps")
        check_budget(steps, FOLD_STEP_BUDGET, "fold steps")
        yield level


def cover_level(level: Level, pull, push, blocks):
    """One level of the cover recursion. A block (rect, tag, letter) is one
    exact piece (`lift_blocks`), or all pieces of one letter as numpy float
    arrays (`fractal._fold`), its rect in pairs either way; the letter is
    the side, square 'a' or rectangle 'b', that its pieces lie in, and the
    tag (the piece shape of covers, the orbit depth of `pet.islands`) is
    carried untouched. Each block is pulled back, pull(*rect), and spread
    along its return orbit: at step i it lies on side sigma(letter)[i],
    yielded as (rect, tag, side), and takes its branch, push(side, *rect),
    each in the level's frame."""
    images = dict(zip("ab", level.sigma))
    for r, tag, letter in blocks:
        r = pull(*r)
        word = images[letter]
        for i, side in enumerate(word):
            if i:
                r = push(word[i - 1], *r)
            yield r, tag, side


def lift_blocks(theta, levels: list[Level], seeds: dict) -> list:
    """Blocks (rect, tag, letter) through `cover_level` up to depth 0 of the
    exact theta = theta_0, deepest first: seeds[k], rows of lattice pairs
    (i, j) meaning i + j*theta_k of S^k(p), join at depth k <= len(levels).
    The pairs are moved by `psi_inverse_lattice` and `rect_branch_ints` in
    the frame (1, 0, 0, 1), and each distinct pair is converted once, as
    i + j*theta_0."""
    blocks = list(seeds.get(len(levels), ()))
    for k, level in reversed([*enumerate(levels)]):
        pull = partial(psi_inverse_lattice, level.n, level.q.eps)
        push = partial(rect_branch_ints, (1, 0, 0, 1), level.q.eps)
        blocks = [*seeds.get(k, ()), *cover_level(level, pull, push, blocks)]
    # canonical surds; a rational theta's coordinates stay Fractions
    T, d, ((ta, tb),), _ = _lift((theta,))
    value = cache(lambda i, j: _canon(i * T + j * ta, j * tb, T, d) if d
                  else Fraction(i * T + j * ta, T))
    return [
        ((value(xi, xj), value(yi, yj), value(wi, wj), value(hi, hj)), tag, letter)
        for (xi, xj, yi, yj, wi, wj, hi, hj), tag, letter in blocks
    ]


def cover(p: Param, l: int) -> list[CoverPiece]:
    """Depth-l cover of the aperiodic set by similitude images of the
    square and of the renormalized rectangle, piece by piece in orbit
    order. Depth 0 is [C, R_theta]; each level is a `cover_level` on
    one-piece blocks of lattice pairs (`lift_blocks`). Covers above
    EXACT_PIECE_BUDGET (`within_budget`) raise NotTerminated; a float theta,
    ValueError (`fractal.cover_arrays` covers it)."""
    if not is_exact(p.theta):
        raise ValueError("an exact cover needs an exact parameter")
    levels, q = descend(p, l, EXACT_PIECE_BUDGET)
    seed = [(r, "CR"[letter == "b"], letter) for r, letter in cover_seed(q.theta)]
    contraction = reduce(lambda c, level: c / level.ratio, reversed(levels), 1)
    blocks = lift_blocks(p.theta, levels, {len(levels): seed})
    return [CoverPiece(Rect(*r), shape, contraction) for r, shape, _ in blocks]
