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

from dataclasses import dataclass
from typing import Optional

from .errors import NotTerminated, OnDiscontinuity, OutOfDomain
from .exactnum import Number, format_number, is_exact
from .words import Word


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


@dataclass(frozen=True)
class Point:
    x: Number
    y: Number

    def __iter__(self):
        return iter((self.x, self.y))

    def dist_max(self, other: "Point") -> float:
        return max(abs(float(self.x - other.x)), abs(float(self.y - other.y)))


@dataclass(frozen=True)
class Segment:
    """Axis-parallel segment from (x, y), extending `length` along
    `orientation` ('H' rightwards, 'V' upwards)."""

    x: Number
    y: Number
    length: Number
    orientation: str

    def __post_init__(self):
        if self.orientation not in ("H", "V"):
            raise ValueError("orientation must be 'H' or 'V'")

    @property
    def end(self) -> Point:
        if self.orientation == "H":
            return Point(self.x + self.length, self.y)
        return Point(self.x, self.y + self.length)


def _half(v: Number) -> Number:
    from fractions import Fraction

    return Fraction(v, 2) if isinstance(v, int) else v / 2


@dataclass(frozen=True)
class Rect:
    x: Number
    y: Number
    w: Number
    h: Number

    @property
    def center(self) -> Point:
        return Point(self.x + _half(self.w), self.y + _half(self.h))

    def area(self) -> Number:
        return self.w * self.h

    def contains(self, z: Point, closed: bool = True) -> bool:
        if closed:
            return self.x <= z.x <= self.x + self.w and self.y <= z.y <= self.y + self.h
        return self.x < z.x < self.x + self.w and self.y < z.y < self.y + self.h


@dataclass(frozen=True)
class Cell:
    """A periodic island: a square of constant coding."""

    rect: Rect
    code_period: Word
    orbit_period: int


# -- the map -------------------------------------------------------------


def _in_open(lo, v, hi) -> bool:
    return lo < v < hi


def step(p: Param, z: Point) -> Point:
    th = p.theta
    x, y = z.x, z.y
    if _in_open(0, y, 1):
        if _in_open(0, x, 1):
            return Point(1 + th - y, p.f(x))
        if _in_open(1, x, 1 + th):
            return Point(x - 1, 1 - y)
    if 0 <= x <= 1 + th and 0 <= y <= 1:
        raise OnDiscontinuity(f"({x}, {y}) lies on the discontinuity set")
    raise OutOfDomain(f"({x}, {y}) outside the domain")


def step_inverse(p: Param, z: Point) -> Point:
    th = p.theta
    x, y = z.x, z.y
    if _in_open(0, y, 1):
        if _in_open(th, x, 1 + th):
            return Point(p.f(y), 1 + th - x)
        if _in_open(0, x, th):
            return Point(x + 1, 1 - y)
    if 0 <= x <= 1 + th and 0 <= y <= 1:
        raise OnDiscontinuity(f"({x}, {y}) lies on the image partition boundary")
    raise OutOfDomain(f"({x}, {y}) outside the domain")


def sym(p: Param, z: Point) -> Point:
    """The reversing symmetry: conjugates the map to its inverse."""
    return Point(1 + p.theta - z.x, p.f(z.y))


def code_letter(z: Point) -> str:
    if z.x == 1:
        raise OnDiscontinuity("x = 1 is uncoded")
    return "a" if z.x < 1 else "b"


def code_orbit(p: Param, z: Point, n: int) -> Word:
    letters = []
    for k in range(n):
        try:
            letters.append(code_letter(z))
            if k < n - 1:
                z = step(p, z)
        except OnDiscontinuity as e:
            raise OnDiscontinuity(str(e), step=k) from None
    return Word("".join(letters))


def detect_period(p: Param, z: Point, max_n: int) -> Optional[int]:
    exact = is_exact(z.x) and is_exact(z.y) and is_exact(p.theta)
    w = z
    for k in range(1, max_n + 1):
        w = step(p, w)
        if (w == z) if exact else (w.dist_max(z) <= 1e-12):
            return k
    return None


# -- periodic islands ----------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    """One periodic orbit of cells, by a representative square."""

    rect: Rect
    code: Word  # coding along the orbit, starting at the representative
    period: int


def _seed_orbits(p: Param) -> list[Orbit]:
    th = p.theta
    if th == 0:
        return [Orbit(Rect(0, 0, 1, 1), Word("a"), 1)]
    if p.eps == -1:
        return [Orbit(Rect(th, th, 1 - th, 1 - th), Word("a"), 1)]
    return [Orbit(Rect(0, 0, th, th), Word("ab"), 2)]


def psi_inverse(theta, eps: int, x, y, w=0, h=0):
    """psi^-1 pulls the rectangle (x, y, w, h) of the renormalized domain
    back into this one; a point when w = h = 0. theta and the coordinates
    may be exact numbers or floats, the coordinates also numpy arrays."""
    if eps == -1:
        # psi(x, y) = (y, x)/theta; inverse (x, y) -> (theta*y, theta*x)
        return theta * y, theta * x, theta * h, theta * w
    # psi(x, y) = (x, y - theta)/(1 - theta)
    s = 1 - theta
    return s * x, theta + s * y, s * w, s * h


def psi_inverse_rect(p: Param, r: Rect) -> Rect:
    return Rect(*psi_inverse(p.theta, p.eps, r.x, r.y, r.w, r.h))


def _orbits(p: Param, max_period: int, cap: int) -> list[Orbit]:
    from .renorm import incidence_matrix, renorm_step, substitution

    # depth of renormalization needed: any orbit pulled up from depth l
    # has period at least ||M_0 ... M_{l-1} (1,0)^t||_1
    params = [p]
    while True:
        if len(params) > cap:
            raise NotTerminated("renormalization depth cap exceeded")
        last = params[-1]
        if last.theta == 0:
            break
        va, vb = 1, 0
        for q in reversed(params):
            M = incidence_matrix(q)
            va, vb = M.m11 * va + M.m12 * vb, M.m21 * va + M.m22 * vb
        if va + vb > max_period:
            break
        params.append(renorm_step(last))

    orbits = _seed_orbits(params[-1])
    for q in reversed(params[:-1]):
        sigma = substitution(q)
        M = incidence_matrix(q)
        lifted = _seed_orbits(q)
        for o in orbits:
            ca, cb = o.code.counts()
            period = (M.m11 + M.m21) * ca + (M.m12 + M.m22) * cb
            lifted.append(Orbit(psi_inverse_rect(q, o.rect), sigma(o.code), period))
        orbits = lifted
    return orbits


def _unfold(p: Param, o: Orbit) -> list[Cell]:
    cells = []
    z = o.rect.center
    half = _half(o.rect.w)
    for i in range(o.period):
        cells.append(
            Cell(
                Rect(z.x - half, z.y - half, o.rect.w, o.rect.h),
                o.code.rotate(i),
                o.period,
            )
        )
        z = step(p, z)
    if z != o.rect.center:
        raise NotTerminated("orbit did not close up at its computed period")
    return cells


def islands(p: Param, max_period: int, cap: int = 10_000) -> list[Cell]:
    """All periodic cells of period <= max_period, for exact theta."""
    if not is_exact(p.theta):
        raise ValueError("island enumeration needs an exact parameter")
    out = []
    for o in _orbits(p, max_period, cap):
        if o.period <= max_period:
            out.extend(_unfold(p, o))
        if len(out) > cap:
            raise NotTerminated("cell count cap exceeded")
    return out


# -- discontinuity segments ----------------------------------------------


def boundary_segments(p: Param) -> list[Segment]:
    """The 7 maximal boundary segments of the two pieces (x=1 once)."""
    th = p.theta
    segs = [
        Segment(0, 0, 1, "H"),
        Segment(0, 1, 1, "H"),
        Segment(0, 0, 1, "V"),
        Segment(1, 0, 1, "V"),
    ]
    if th > 0:
        segs += [
            Segment(1, 0, th, "H"),
            Segment(1, 1, th, "H"),
            Segment(1 + th, 0, 1, "V"),
        ]
    return segs


def _pullback_segment(p: Param, s: Segment) -> list[Segment]:
    """Apply the inverse map to a segment, splitting at x = theta."""
    th = p.theta
    out = []
    if s.orientation == "H":
        x0, x1, c = s.x, s.x + s.length, s.y
        # part over the image of the rectangle: x in [0, theta]
        lo, hi = x0, min(x1, th)
        if lo < hi:
            out.append(Segment(lo + 1, 1 - c, hi - lo, "H"))
        # part over the image of the square: x in [theta, 1+theta]
        lo, hi = max(x0, th), x1
        if lo < hi:
            out.append(Segment(p.f(c), 1 + th - hi, hi - lo, "V"))
    else:
        y0, y1, c = s.y, s.y + s.length, s.x
        if c <= th:
            out.append(Segment(c + 1, 1 - y1, y1 - y0, "V"))
        if c >= th:
            if p.eps == -1:
                out.append(Segment(y0, 1 + th - c, y1 - y0, "H"))
            else:
                out.append(Segment(1 - y1, 1 + th - c, y1 - y0, "H"))
    return out


def discontinuity_segments(p: Param, depth: int) -> list[Segment]:
    """Segments of the union of inverse images of the boundary up to depth."""
    level = boundary_segments(p)
    seen = {(s.orientation, s.x, s.y, s.length) for s in level}
    result = list(level)
    for _ in range(depth):
        nxt = []
        for s in level:
            for t in _pullback_segment(p, s):
                key = (t.orientation, t.x, t.y, t.length)
                if key not in seen:
                    seen.add(key)
                    nxt.append(t)
        result.extend(nxt)
        level = nxt
    return result
