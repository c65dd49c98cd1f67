"""The square-rectangle exchange map, coding, periodic islands and
discontinuity segments.

The phase space is X = C ∪ R with C = [0,1]^2 and R = [1,1+theta]x[0,1].
The map rotates the square onto the right part of the domain and shifts
the rectangle back:

    (x, y) -> (1 + theta - y, f(x))   on the open square,
    (x, y) -> (x - 1, 1 - y)          on the open rectangle,

with f(x) = x for eps = -1 and f(x) = 1 - x for eps = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator, NamedTuple

from .errors import NotTerminated, OnDiscontinuity, OutOfDomain, check_budget
from .exactnum import Number, Surd, _canon, _sign, format_number, is_exact


@dataclass(frozen=True)
class Param:
    theta: Number
    eps: int

    def __post_init__(self):
        if self.eps not in (-1, 1):
            raise ValueError("eps must be -1 or +1")
        if not (0 <= self.theta < 1):
            raise ValueError("theta must lie in [0,1)")

    def f(self, x: Number) -> Number:
        return x if self.eps == -1 else 1 - x

    @property
    def width(self) -> Number:
        return 1 + self.theta

    def __str__(self) -> str:
        return f"({format_number(self.theta)},{self.eps:+d})"


class Point(NamedTuple):
    x: Number
    y: Number

    def dist_max(self, other: "Point") -> float:
        return max(abs(float(self.x - other.x)), abs(float(self.y - other.y)))


def _half(v: Number) -> Number:
    return Fraction(v, 2) if isinstance(v, int) else v / 2


class Rect(NamedTuple):
    x: Number
    y: Number
    w: Number
    h: Number

    @property
    def center(self) -> Point:
        return Point(self.x + _half(self.w), self.y + _half(self.h))

    def area(self) -> Number:
        return self.w * self.h


@dataclass(frozen=True)
class Cell:
    """A periodic island: a square of constant coding. The cells of one
    orbit share its code, each from its own offset."""

    rect: Rect
    code: str
    offset: int
    orbit_period: int

    @property
    def code_period(self) -> str:
        return self.code[self.offset :] + self.code[: self.offset]


# -- the map -------------------------------------------------------------


def _lift(values) -> tuple:
    """(R, d, pairs, exact): the values as integers (a, b) meaning
    (a + b*sqrt(d))/R when they are ints, Fractions and surds of one
    radicand d; else the given-values frame, each value as (v, 0) with
    R = 1 and d = 0, and exact False."""
    R, d, parts = 1, 0, []
    for v in values:
        if type(v) is Surd and d in (0, v.d):
            d, part = v.d, (v.p, v.q, v.r)
        elif type(v) is int or type(v) is Fraction:
            part = (v.numerator, 0, v.denominator)
        else:
            return 1, 0, [(v, 0) for v in values], False
        parts.append(part)
        R = math.lcm(R, part[2])
    return R, d, [(a * (R // r), b * (R // r)) for a, b, r in parts], True


def _steps(frame: tuple, xa, xb, ya, yb, k: int, letters: list | None = None):
    """k steps from (x, y) in a frame (R, d, wa, wb, flip, value, exact) of
    pairs (a, b) meaning (a + b*sqrt(d))/R, 1 + theta as (wa, wb), value(a,
    b) the number of a pair. Given values (R = 1, d = 0, every b 0) are
    compared, never subtracted, so a huge int meets a float. Returns the
    point; `letters` gets its letters, k + 1 when all k steps are taken. A
    point that leaves the open pieces earlier raises OnDiscontinuity on the
    closed domain and OutOfDomain off it. Past the first step an exact
    orbit is in the open domain, the image of the open pieces, and tested
    only at x = 1; given values can round onto its edge."""
    R, d, wa, wb, flip, value, exact = frame
    for i in range(k + (letters is not None)):
        cx = (-1 if xa < R else 1 if R < xa else 0) if not xb else _sign(xa - R, xb, d)
        if letters is not None:
            if xa == R and not xb:
                raise OnDiscontinuity("x = 1 is uncoded", step=i)
            letters.append("a" if cx < 0 else "b")
            if i == k:
                break
        inside = exact and i
        if inside or ((0 < ya < R) if not yb else _sign(ya, yb, d) > 0 > _sign(ya - R, yb, d)):
            if cx < 0 and (inside or (0 < xa if not xb else _sign(xa, xb, d) > 0)):  # the square
                if flip:
                    xa, xb = R - xa, -xb
                xa, xb, ya, yb = wa - ya, wb - yb, xa, xb  # onto the right
                continue
            if cx > 0 and (inside or (xa < wa if xb == wb else _sign(xa - wa, xb - wb, d) < 0)):
                xa, ya, yb = xa - R, R - ya, -yb  # the rectangle, back
                continue
        x, y = value(xa, xb), value(ya, yb)
        if 0 <= x <= value(wa, wb) and 0 <= y <= 1:
            raise OnDiscontinuity(
                f"({x}, {y}) lies on the discontinuity set",
                step=None if letters is None else i,
            )
        raise OutOfDomain(f"({x}, {y}) outside the domain")
    return xa, xb, ya, yb


def walk(p: Param, z: Point, k: int, letters: list | None = None) -> Point:
    """k steps of the map from z. Exact values of one field are lifted to
    integers (a, b) over one denominator R, each branch test is the sign of
    a + b*sqrt(d), and the point is converted back once; floats, a float
    beside an exact value and two radicands take the loop (`_steps`) as
    given, R = 1, where two radicands raise MixedSurdFields as they are
    first compared or combined. With a list `letters`, the letters of the
    k + 1 points are appended."""
    R, d, ((ta, tb), (xa, xb), (ya, yb)), exact = _lift((p.theta, z.x, z.y))
    if exact:
        # Fraction arithmetic keeps 1 + theta - y = 1 a Fraction, surds an int
        value = lambda a, b: _canon(a, b, R, d) if b or tb else Fraction(a, R)
    else:
        value = lambda a, b: a
    frame = (R, d, R + ta, tb, p.eps == 1, value, exact)
    xa, xb, ya, yb = _steps(frame, xa, xb, ya, yb, k, letters)
    return Point(value(xa, xb), value(ya, yb)) if k > 0 else z


def step(p: Param, z: Point) -> Point:
    return walk(p, z, 1)


# Letters of an orbit coding. On a 2-core VM an exact step at the silver
# mean costs 0.7-1.3 us (the full budget took 3.1 s) and a float one 0.4-0.8
# us; the coding peaks at 9 bytes per letter (tracemalloc), 36 MB at the budget
ORBIT_STEP_BUDGET = 4_000_000


def code_orbit(p: Param, z: Point, n: int) -> str:
    """The first n letters of the coding of z's orbit, read off `walk`. Raises
    ValueError below 0 and NotTerminated, before the first step, above
    ORBIT_STEP_BUDGET letters. A float theta or coordinate makes the surds among
    them floats, converted once; one beyond the float range is OutOfDomain."""
    if n < 0:
        raise ValueError(f"depth must be at least 0, got {n}")
    check_budget(n, ORBIT_STEP_BUDGET, "orbit steps")
    if not all(map(is_exact, (p.theta, *z))):
        try:
            th, x, y = (float(v) if isinstance(v, Surd) else v for v in (p.theta, *z))
        except OverflowError:
            raise OutOfDomain(f"({z.x}, {z.y}) outside the domain") from None
        p, z = Param(th, p.eps), Point(x, y)
    letters = []
    walk(p, z, n - 1, letters)
    return "".join(letters)


# -- periodic islands ----------------------------------------------------


def psi_inverse_ints(theta: tuple, eps: int, R: int, xa, xb, ya, yb,
                     wa=0, wb=0, ha=0, hb=0, out=None) -> tuple:
    """psi^-1 pulls the rectangle (x, y, w, h) of the renormalized domain
    back into this one; a point when w = h = 0. In `walk`'s integer frame:
    theta as (T, d, ta, tb), meaning (ta + tb*sqrt(d))/T, and x, y, w and h
    as pairs (a, b) over R; the image (x, y, w, h) as pairs over T*R. Floats
    and numpy float arrays take the given-values frame (1, 0, theta, 0); there
    arrays `out` (x, y) take the a parts of x and y, each b part 0."""
    T, d, ta, tb = theta
    if eps == -1:  # (theta*y, theta*x, theta*h, theta*w)
        ma, mb, oa, ob = ta, tb, 0, 0
        xa, xb, ya, yb, wa, wb, ha, hb = ya, yb, xa, xb, ha, hb, wa, wb
    else:  # (s*x, theta + s*y, s*w, s*h) with s = 1 - theta
        ma, mb, oa, ob = T - ta, -tb, ta * R, tb * R
    if out is not None:
        for o, a in zip(out, (xa, ya)):
            o[...] = a
            o *= ma
        out[1] += oa
        return out
    if not d:  # no sqrt(d) part, as (a + b*sqrt(0))/R is a/R
        return ma * xa, 0, oa + ma * ya, 0, ma * wa, 0, ma * ha, 0
    return (
        ma * xa + mb * xb * d, ma * xb + mb * xa,
        oa + ma * ya + mb * yb * d, ob + ma * yb + mb * ya,
        ma * wa + mb * wb * d, ma * wb + mb * wa,
        ma * ha + mb * hb * d, ma * hb + mb * ha,
    )


# Cells of one `islands` call, and the depths it walks. Lifting costs more
# per cell the deeper the orbit: on a 2-core VM the 9,900 cells of
# (1/100, +1) at max period 198 take 0.3 s and peak at 3.9 MiB, and one
# orbit of 9,998 cells at (1/3333, -1) takes 0.06 s and 4.2 MiB (tracemalloc)
ISLAND_CELL_BUDGET = 10_000


def islands(p: Param, max_period: int) -> list[Cell]:
    """All periodic cells of period <= max_period, for exact theta, orbit by
    orbit in order of depth. The orbit of depth k is the seed orbit of
    S^k(p) (`renorm.island_seed`) pulled back in pairs by
    `renorm.lift_blocks`. Its period comes from `renorm.seed_periods` first,
    so more than ISLAND_CELL_BUDGET cells raise NotTerminated before any is
    made, at the level where the periods summed so far pass it."""
    from .renorm import island_seed, lift_blocks, seed_periods

    if max_period < 1:  # no period is below 1: an empty list would certify nothing
        raise ValueError(f"max period must be at least 1, got {max_period}")
    if not is_exact(p.theta):
        raise ValueError("island enumeration needs an exact parameter")
    # depth of renormalization needed: any orbit pulled up from below level
    # k has period at least ||M_0 ... M_k (1,0)^t||_1
    levels, seeds, total = [], {}, 0
    for k, (q, period, level, M) in enumerate(seed_periods(p)):
        check_budget(k + 1, ISLAND_CELL_BUDGET, "renormalization levels")
        if period <= max_period:
            seeds[k] = [(r, k, side) for r, side in island_seed(q)]
            total += period
            check_budget(total, ISLAND_CELL_BUDGET, "cells")
        if level is None or M.m11 + M.m21 > max_period:
            break
        levels.append(level)

    blocks = lift_blocks(p.theta, levels, seeds)  # (rect, depth of its orbit, side)
    out = []
    for _, orbit in groupby(blocks, key=lambda block: block[1]):
        coords, _, sides = zip(*orbit)
        rects = [Rect(*r) for r in coords]
        # the cells come from the pair steps; one exact step checks the closure
        if step(p, rects[-1].center) != rects[0].center:
            raise NotTerminated("orbit did not close up at its computed period")
        code = "".join(sides)
        out.extend(Cell(r, code, i, len(rects)) for i, r in enumerate(rects))
    return out


# -- discontinuity segments ----------------------------------------------


def boundary_segments(p: Param) -> list[Rect]:
    """The 7 maximal boundary segments of the two pieces (x=1 once), each a
    Rect of height 0 (horizontal) or width 0 (vertical)."""
    th = p.theta
    segs = [Rect(0, 0, 1, 0), Rect(0, 1, 1, 0), Rect(0, 0, 0, 1), Rect(1, 0, 0, 1)]
    if th > 0:
        segs += [Rect(1, 0, th, 0), Rect(1, 1, th, 0), Rect(1 + th, 0, 0, 1)]
    return segs


def _pullback_segments(p: Param, segments: list[Rect]) -> Iterator[Rect]:
    """The inverse map on each segment, split at x = theta: the part over
    [0, theta] comes from the rectangle, the part over [theta, 1 + theta]
    from the square. A part is kept when it has length along x, or, with
    width 0, when the segment is vertical: one on x = theta maps to both."""
    th, top, flip = p.theta, 1 + p.theta, p.eps == 1
    for x, y, w, h in segments:
        x1 = x + w
        lo, hi = x, min(x1, th)
        if (wide := lo < hi) or h and not hi < lo:
            yield Rect(lo + 1, 1 - (y + h), hi - lo if wide else 0, h)
        lo, hi = max(x, th), x1
        if (wide := lo < hi) or h and not hi < lo:
            yield Rect(1 - (y + h) if flip else y, top - hi, h, hi - lo if wide else 0)


# Segments of one discontinuity set, counted as each level is added. On a
# 2-core VM an exact segment at the silver or golden mean costs 12-15 us to
# make and about 30 us made and drawn at --px 1000, and tracemalloc puts the
# set at 250-275 bytes a segment: the silver mean reaches the budget at depth
# 38,000, whose render takes 5.1-6.2 s and peaks at 92 MiB RSS
SEGMENT_BUDGET = 200_000


def discontinuity_segments(p: Param, depth: int) -> list[Rect]:
    """Segments of the union of inverse images of the boundary up to depth,
    or up to the first level that adds none. Raises NotTerminated once the
    levels hold more than SEGMENT_BUDGET segments, and ValueError below depth 0."""
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    level = boundary_segments(p)
    seen = dict.fromkeys(level)  # in order of insertion: the result
    for k in range(depth):
        if not level:
            break
        nxt = []
        for t in _pullback_segments(p, level):
            if t not in seen:
                seen[t] = None
                nxt.append(t)
        check_budget(len(seen), SEGMENT_BUDGET, f"segments by depth {k + 1}")
        level = nxt
    return list(seen)
