import hashlib
import itertools
import math
import random
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sqrect import exactnum, pet, renorm
from sqrect.errors import NotTerminated, OnDiscontinuity, OutOfDomain
from sqrect.exactnum import Surd, is_exact, make_surd, parse_number
from sqrect.pet import (
    Cell,
    Param,
    Point,
    Rect,
    _half,
    boundary_segments,
    code_orbit,
    discontinuity_segments,
    islands,
    step,
    walk,
)
from sqrect.renorm import RIGHT, UNIT, Mat2, seed_periods
from oracle_maps import discontinuity_endpoints, psi_inverse
from test_words import apply

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)


# -- the inverse map, the reversing symmetry and a period finder ----------


def step_inverse(p: Param, z: Point) -> Point:
    th = p.theta
    x, y = z.x, z.y
    if 0 < y < 1:
        if th < x < 1 + th:
            return Point(p.f(y), 1 + th - x)
        if 0 < x < th:
            return Point(x + 1, 1 - y)
    if 0 <= x <= 1 + th and 0 <= y <= 1:
        raise OnDiscontinuity(f"({x}, {y}) lies on the image partition boundary")
    raise OutOfDomain(f"({x}, {y}) outside the domain")


def sym(p: Param, z: Point) -> Point:
    """The reversing symmetry: conjugates the map to its inverse."""
    return Point(1 + p.theta - z.x, p.f(z.y))


def detect_period(p: Param, z: Point, max_n: int) -> Optional[int]:
    exact = is_exact(z.x) and is_exact(z.y) and is_exact(p.theta)
    w = z
    for k in range(1, max_n + 1):
        w = step(p, w)
        if (w == z) if exact else (w.dist_max(z) <= 1e-12):
            return k
    return None


# -- the island recursion written by orbits, as an oracle for `islands` ---


# the parameter map as it was written before `renorm.Level`
def n_omega(p: Param) -> int:
    return math.floor(1 / p.f(p.theta))


def incidence_matrix(p: Param) -> Mat2:
    return Mat2(*(UNIT if p.eps == -1 else RIGHT).M(n_omega(p)))


def substitution(p: Param):
    return (UNIT if p.eps == -1 else RIGHT).sigma(n_omega(p))


def renorm_step(p: Param) -> Param:
    n = n_omega(p)
    return Param(1 / p.f(p.theta) - n, -1 if n % 2 == 0 else 1)


@dataclass(frozen=True)
class Orbit:
    """One periodic orbit of cells, by a representative square."""

    rect: Rect
    code: str  # coding along the orbit, starting at the representative


def _oracle_seed_orbits(p: Param) -> list[Orbit]:
    th = p.theta
    if p.eps == -1 or th == 0:  # at theta = 0 the square [theta, 1]^2 is [0, 1]^2
        return [Orbit(Rect(th, th, 1 - th, 1 - th), "a")]
    return [Orbit(Rect(0, 0, th, th), "ab")]


def _oracle_orbits(p: Param, max_period: int, cap: int) -> list[Orbit]:
    params = [p]
    M = Mat2.identity()
    while True:
        if len(params) > cap:
            raise NotTerminated(
                f"{len(params)} renormalization levels, above the budget of {cap}"
            )
        last = params[-1]
        if last.theta == 0:
            break
        M = M @ incidence_matrix(last)
        if M.m11 + M.m21 > max_period:
            break
        params.append(renorm_step(last))

    orbits = _oracle_seed_orbits(params[-1])
    for q in reversed(params[:-1]):
        sigma = substitution(q)
        lifted = _oracle_seed_orbits(q)
        for o in orbits:
            r = o.rect
            rect = Rect(*psi_inverse(q.theta, q.eps, r.x, r.y, r.w, r.h))
            lifted.append(Orbit(rect, apply(sigma, o.code)))
        orbits = lifted
    return orbits


def _oracle_unfold(p: Param, o: Orbit) -> list[Cell]:
    """The cells of an orbit by exact steps of the map from its
    representative's centre, which must come back after the period."""
    cells = []
    z = o.rect.center
    half = _half(o.rect.w)
    period = len(o.code)
    for i in range(period):
        cells.append(
            Cell(
                Rect(z.x - half, z.y - half, o.rect.w, o.rect.h),
                o.code,
                i,
                period,
            )
        )
        z = step(p, z)
    if z != o.rect.center:
        raise NotTerminated("orbit did not close up at its computed period")
    return cells


def oracle_islands(p: Param, max_period: int, cap: int = 10_000) -> list[Cell]:
    """`islands` by orbit representatives: each level's seed square is
    lifted alone through psi^-1 with its code through sigma, and its cells
    are unfolded at the top by exact steps."""
    out = []
    for o in _oracle_orbits(p, max_period, cap):
        if len(o.code) <= max_period:
            out.extend(_oracle_unfold(p, o))
        if len(out) > cap:
            raise NotTerminated(f"{len(out)} cells, above the budget of {cap}")
    return out

params = st.builds(
    Param,
    st.fractions(min_value=0, max_value=Fraction(39, 40), max_denominator=40),
    st.sampled_from([-1, 1]),
)


@st.composite
def param_point(draw):
    p = draw(params)
    den = 257
    x = Fraction(draw(st.integers(1, 256)), den) * (1 + p.theta)
    y = Fraction(draw(st.integers(1, 256)), den)
    assume(x != 1)
    return p, Point(x, y)


class TestStep:
    def test_square_maps_to_right_block(self):
        p = Param(Fraction(3, 5), -1)
        w = step(p, Point(Fraction(1, 4), Fraction(1, 2)))
        assert w == Point(Fraction(1 + Fraction(3, 5) - Fraction(1, 2)), Fraction(1, 4))

    def test_rectangle_translates_left_and_flips(self):
        p = Param(Fraction(3, 5), -1)
        w = step(p, Point(Fraction(11, 10), Fraction(1, 4)))
        assert w == Point(Fraction(1, 10), Fraction(3, 4))

    def test_point_is_a_pair(self):
        z = Point(Fraction(1, 3), Fraction(2, 7))
        x, y = z
        assert (x, y) == (z[0], z[1]) == (z.x, z.y) == z
        p = Param(SQRT2M1, -1)
        assert type(walk(p, z, 3)) is Point and type(step(p, z)) is Point
        assert type(walk(Param(0.4, 1), Point(0.3, 0.2), 2)) is Point
        assert Rect(0, 0, 1, SQRT2M1).center == Point(Fraction(1, 2), SQRT2M1 / 2)
        assert type(Rect(0, 0, 1, 1).center) is Point

    def test_eps_flips_second_coordinate(self):
        th = Fraction(3, 5)
        z = Point(Fraction(1, 4), Fraction(1, 2))
        wm = step(Param(th, -1), z)
        wp = step(Param(th, 1), z)
        assert wm.x == wp.x and wm.y == 1 - wp.y

    def test_discontinuity_raises(self):
        p = Param(Fraction(3, 5), -1)
        with pytest.raises(OnDiscontinuity):
            step(p, Point(1, Fraction(1, 2)))
        with pytest.raises(OnDiscontinuity):
            step(p, Point(Fraction(1, 2), 0))

    def test_out_of_domain_raises(self):
        p = Param(Fraction(3, 5), -1)
        with pytest.raises(OutOfDomain):
            step(p, Point(Fraction(17, 10), Fraction(1, 2)))

    @given(param_point())
    def test_inverse_roundtrip(self, pz):
        p, z = pz
        try:
            w = step(p, z)
        except OnDiscontinuity:
            assume(False)
        assert step_inverse(p, w) == z

    @given(param_point())
    def test_forward_of_inverse(self, pz):
        p, z = pz
        try:
            w = step_inverse(p, z)
        except OnDiscontinuity:
            assume(False)
        assert step(p, w) == z


class TestSymmetry:
    @given(param_point())
    def test_involution(self, pz):
        p, z = pz
        assert sym(p, sym(p, z)) == z

    @given(param_point())
    def test_conjugates_to_inverse(self, pz):
        p, z = pz
        try:
            lhs = sym(p, step(p, sym(p, z)))
            rhs = step_inverse(p, z)
        except OnDiscontinuity:
            assume(False)
        assert lhs == rhs


class TestCoding:
    def test_letters(self):
        p = Param(SQRT2M1, -1)
        w = code_orbit(p, Point(Fraction(1, 7), Fraction(2, 7)), 8)
        assert type(w) is str and w[0] == "a"
        assert set(w) <= {"a", "b"}

    def test_float_point_at_surd_param(self):
        # the surd theta is converted to a float once, before the first step
        w = code_orbit(Param(SQRT2M1, -1), Point(0.3, 0.2), 1000)
        digest = hashlib.sha256(w.encode()).hexdigest()
        assert digest.startswith("188d78595d2dd691")

    def test_float_point_converts_surds_of_any_field(self):
        theta, y = parse_number("2-sqrt(3)"), parse_number("sqrt(2)/3")
        w = code_orbit(Param(theta, 1), Point(0.25, y), 200)
        assert w == code_orbit(Param(float(theta), 1), Point(0.25, float(y)), 200)

    def test_float_conversion_beyond_float_range_is_out_of_domain(self):
        # a surd too large for a float lies outside the domain, as the same
        # point written as an int does
        huge = 10**400
        for x in (make_surd(huge, 1, 1, 2), huge):
            with pytest.raises(OutOfDomain):
                code_orbit(Param(0.5, -1), Point(x, Fraction(1, 2)), 5)

    def test_discontinuity_records_step(self):
        p = Param(Fraction(1, 2), -1)
        # x = 1 is uncoded immediately
        with pytest.raises(OnDiscontinuity) as exc:
            code_orbit(p, Point(1, Fraction(1, 3)), 5)
        assert exc.value.step == 0



# -- the map as it was stepped before `walk`: one Point per step ----------


def old_step(p: Param, z: Point) -> Point:
    th = p.theta
    x, y = z.x, z.y
    if 0 < y < 1:
        if 0 < x < 1:
            return Point(1 + th - y, p.f(x))
        if 1 < x < 1 + th:
            return Point(x - 1, 1 - y)
    if 0 <= x <= 1 + th and 0 <= y <= 1:
        raise OnDiscontinuity(f"({x}, {y}) lies on the discontinuity set")
    raise OutOfDomain(f"({x}, {y}) outside the domain")


def old_walk(p: Param, z: Point, k: int) -> Point:
    for _ in range(k):
        z = old_step(p, z)
    return z


def old_code_orbit(p: Param, z: Point, n: int) -> str:
    if not all(map(is_exact, (p.theta, *z))):
        try:
            th, x, y = (float(v) if isinstance(v, Surd) else v for v in (p.theta, *z))
        except OverflowError:
            raise OutOfDomain(f"({z.x}, {z.y}) outside the domain") from None
        p, z = Param(th, p.eps), Point(x, y)
    letters = []
    for k in range(n):
        try:
            if z.x == 1:
                raise OnDiscontinuity("x = 1 is uncoded")
            letters.append("a" if z.x < 1 else "b")
            if k < n - 1:
                z = old_step(p, z)
        except OnDiscontinuity as e:
            raise OnDiscontinuity(str(e), step=k) from None
    return "".join(letters)


def outcome(f, *args):
    """A result as the repr and type of each value, or an error as its type,
    message and step."""
    try:
        r = f(*args)
    except Exception as e:
        return type(e), str(e), getattr(e, "step", None)
    return [(repr(v), type(v)) for v in (r if isinstance(r, Point) else [str(r)])]


SQRT5 = make_surd(0, 1, 1, 5)
WALK_THETAS = st.one_of(
    st.fractions(0, Fraction(39, 40), max_denominator=40),
    st.builds(
        lambda t: t * SQRT2M1, st.fractions(Fraction(1, 40), 2, max_denominator=40)
    ),
    st.sampled_from([SQRT3M1, (SQRT5 - 1) / 2, 2 - make_surd(0, 1, 1, 3)]),
    st.floats(0, 1, exclude_max=True),
)


@st.composite
def walk_cases(draw):
    """A parameter and a point whose coordinates are each in theta's
    arithmetic, rational, of a second radicand, float, or on an edge."""
    th = draw(WALK_THETAS)
    p = Param(th, draw(st.sampled_from([-1, 1])))

    def coord(top, rational_top, other_top):
        t = Fraction(draw(st.integers(-2, 259)), 257)
        kind = draw(st.sampled_from(["theta", "rational", "radicand", "float", "edge"]))
        if kind == "theta":
            return t * top
        if kind == "rational":
            return t * rational_top
        if kind == "radicand":
            return t * other_top
        if kind == "float":
            return float(t * rational_top)
        return draw(st.sampled_from([0, 1, th, 1 + th, Fraction(1, 2)]))

    x = coord(1 + th, 2, SQRT5)
    y = coord(_half(1 + th), 1, SQRT5 / 3)
    return p, Point(x, y)


# a rational or surd 1 + theta - y = 1, a nan, and a Fraction next to a float
# edge that the float rounds onto
WALK_EXAMPLES = [
    (Param(Fraction(1, 3), -1), Point(Fraction(1, 2), Fraction(1, 3))),
    (Param(SQRT2M1, 1), Point(Fraction(1, 2), SQRT2M1)),
    (Param(0.5, -1), Point(math.nan, Fraction(1, 2))),
    (Param(0.5, -1), Point(Fraction(3, 2) - Fraction(1, 10**30), Fraction(1, 2))),
    (Param(0.5, 1), Point(make_surd(1, 1, 3, 2), Fraction(1, 3))),
    (Param(SQRT2M1, -1), Point(make_surd(2, 1, 3, 3), Fraction(1, 3))),
]


class TestWalk:
    @given(walk_cases(), st.integers(0, 80))
    @settings(max_examples=400, deadline=None)
    def test_walk_is_the_old_step_loop(self, case, k):
        p, z = case
        assert outcome(walk, p, z, k) == outcome(old_walk, p, z, k)
        assert outcome(step, p, z) == outcome(old_step, p, z)

    @given(walk_cases(), st.integers(0, 80))
    @settings(max_examples=400, deadline=None)
    def test_code_orbit_is_the_old_step_loop(self, case, n):
        p, z = case
        assert outcome(code_orbit, p, z, n) == outcome(old_code_orbit, p, z, n)

    @pytest.mark.parametrize("p, z", WALK_EXAMPLES)
    def test_examples(self, p, z):
        for k in range(4):
            assert outcome(walk, p, z, k) == outcome(old_walk, p, z, k)
            assert outcome(code_orbit, p, z, k) == outcome(old_code_orbit, p, z, k)

    def test_canonicalisations_do_not_grow_with_the_steps(self, monkeypatch):
        calls = []
        canon = exactnum._canon

        def counted(*args):
            calls.append(args)
            return canon(*args)

        monkeypatch.setattr(exactnum, "_canon", counted)
        monkeypatch.setattr(pet, "_canon", counted)
        SQRT2M1 - Fraction(1, 3)
        assert len(calls) == 1  # the wrapper counts

        def count(f, *args):
            calls.clear()
            f(*args)
            return len(calls)

        p, z = Param(SQRT2M1, -1), Point(Fraction(1, 3), Fraction(2, 7))
        assert count(code_orbit, p, z, 100) == count(code_orbit, p, z, 1000)
        level = renorm.Level(p)
        assert level.times == (5, 3)
        side = 1 + _half(level.next.theta)
        drawn = [(Fraction(1, 3), Fraction(2, 7)), (side, Fraction(1, 3))]
        pulled = [Point(*psi_inverse(p.theta, p.eps, x, y)[:2]) for x, y in drawn]
        # the first returns of the square and of the rectangle: x and y
        # converted back once, after 5 steps as after 3
        for w, k in zip(pulled, level.times):
            assert count(walk, p, w, k) == 2
        assert count(walk, p, z, 10) == count(walk, p, z, 1000) == 2

    @settings(max_examples=300)
    @given(st.integers(1, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6),
           st.sampled_from([0, 2, 3, 5, 13]), st.sampled_from([-1, 1]),
           st.integers(1, 1 << 24), st.lists(st.integers(-10**9, 10**9), min_size=8,
                                            max_size=8), st.booleans())
    def test_psi_inverse_ints_is_psi_inverse(self, ta, tb, T, d, eps, R, xywh, drawn):
        # theta (ta + tb sqrt d)/T, any sign; a draw of induction_verify, with
        # numerators over 2**24, as a point; or a rectangle of theta's field
        # over R, as the cover recursion pulls back
        theta = make_surd(ta, tb, T, d) if d else Fraction(ta, T)
        if drawn:
            R, (kx, ky) = 1 << 24, renorm._draw(random.Random(xywh[0]), 1.5, True)
            xywh = [kx, 0, ky, 0]
        elif not d:
            xywh[1::2] = [0] * 4
        value = lambda a, b, den: make_surd(a, b, den, d) if d else Fraction(a, den)
        rect = [value(a, b, R) for a, b in zip(xywh[::2], xywh[1::2])]
        (T, _, ((ta, tb),), _) = pet._lift((theta,))
        got = pet.psi_inverse_ints((T, d, ta, tb), eps, R, *xywh)
        want = psi_inverse(theta, eps, *rect)
        assert [value(a, b, T * R) for a, b in zip(got[::2], got[1::2])] == [*want]

    @settings(max_examples=300)
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(1, 10**6), st.sampled_from([-1, 1]), st.integers(1, 1 << 24),
           st.lists(st.integers(-10**9, 10**9), min_size=8, max_size=8), st.booleans())
    def test_psi_inverse_ints_without_sqrt_part(self, ta, tb, T, eps, R, xywh,
                                                rational):
        # at d = 0 a pair (a, b) means a, so the image is the full pair
        # formula's a parts with every b part 0; and at a rational theta,
        # every b 0, the full formula's tuple itself
        if rational:
            tb, xywh[1::2] = 0, [0] * 4
        d = 0
        if eps == -1:
            ma, mb, oa, ob = ta, tb, 0, 0
            xa, xb, ya, yb, wa, wb, ha, hb = (
                *xywh[2:4], *xywh[:2], *xywh[6:], *xywh[4:6])
        else:
            ma, mb, oa, ob = T - ta, -tb, ta * R, tb * R
            xa, xb, ya, yb, wa, wb, ha, hb = xywh
        full = (
            ma * xa + mb * xb * d, ma * xb + mb * xa,
            oa + ma * ya + mb * yb * d, ob + ma * yb + mb * ya,
            ma * wa + mb * wb * d, ma * wb + mb * wa,
            ma * ha + mb * hb * d, ma * hb + mb * ha,
        )
        got = pet.psi_inverse_ints((T, 0, ta, tb), eps, R, *xywh)
        assert got[::2] == full[::2] and got[1::2] == (0, 0, 0, 0)
        assert got == full or not rational


ISLAND_PARAMS = [
    ("-1+sqrt(2)", -1),
    ("-1+sqrt(3)", 1),
    ("(sqrt(7)-1)/3", 1),
    ("(-13+4*sqrt(13))/4", -1),
    ("3/8", -1),
    ("3/8", 1),
    ("(-1+sqrt(5))/2", -1),
    ("(-1+sqrt(5))/2", 1),
]


@st.composite
def exact_params(draw):
    """Parameters of the cover and island oracle tests: rationals with
    denominators up to 10**4, 0 included, whose chains reach theta = 0, or
    surds (a + b sqrt(d))/c mod 1 with d square-free, d <= 30; both eps."""
    if draw(st.booleans()):
        den = draw(st.integers(1, 10**4))
        theta = Fraction(draw(st.integers(0, den - 1)), den)
    else:
        d = draw(st.sampled_from([d for d in range(2, 31) if d % 4 and d % 9 and d % 25]))
        x = make_surd(draw(st.integers(-40, 40)), draw(st.integers(1, 6)) *
                      draw(st.sampled_from([-1, 1])), draw(st.integers(1, 12)), d)
        theta = x - math.floor(x)
    return Param(theta, draw(st.sampled_from([-1, 1])))


def assert_same_cells(cells, expected):
    """Equal cells in the same order, each rect coordinate of the same
    type too, so that the CLI prints them alike."""
    assert cells == expected
    for c, e in zip(cells, expected):
        assert [type(v) for v in c.rect._asdict().values()] == [
            type(v) for v in e.rect._asdict().values()
        ]


class TestIslands:
    def test_period_one_seed_geometry(self):
        p = Param(SQRT2M1, -1)
        cells = islands(p, max_period=1)
        assert len(cells) == 1
        cell = cells[0]
        th = p.theta
        assert cell.rect == Rect(th, th, 1 - th, 1 - th)
        assert cell.rect.area() == (1 - th) ** 2

    def test_period_two_seed_area(self):
        p = Param(SQRT3M1, 1)
        cells = islands(p, max_period=2)
        assert [c.orbit_period for c in cells] == [2, 2]
        assert sum(c.rect.area() for c in cells) == 2 * p.theta**2

    def test_periods_at_silver_mean(self):
        cells = islands(Param(SQRT2M1, -1), max_period=21)
        assert sorted(set(c.orbit_period for c in cells)) == [1, 5, 21]

    @pytest.mark.parametrize("theta, eps", [
        ("-2+sqrt(5)", -1),
        ("-1+sqrt(3)", 1),
        ("(-13+4*sqrt(13))/4", -1),
        ("(sqrt(7)-1)/3", 1),
        ("3/8", -1),
    ])
    def test_a_deeper_search_finds_no_other_cell(self, theta, eps):
        # the search stops once every deeper orbit is longer than
        # max_period; one made for longer periods finds the same short cells
        p = Param(parse_number(theta), eps)
        deep = islands(p, max_period=300)

        def cells(max_period):
            return sorted(
                (c.orbit_period, c.code_period, c.rect)
                for c in deep if c.orbit_period <= max_period
            )

        for max_period in (1, 2, 5, 13, 21, 60):
            assert cells(max_period) == sorted(
                (c.orbit_period, c.code_period, c.rect)
                for c in islands(p, max_period)
            )

    def test_center_period_matches(self):
        for cell in islands(Param(SQRT2M1, -1), max_period=5):
            assert detect_period(
                Param(SQRT2M1, -1), cell.rect.center, 6
            ) == cell.orbit_period

    def test_code_period_rotates_the_code(self):
        # each cell of an orbit reads the orbit's code from its own offset
        r = Rect(0, 0, 1, 1)
        assert [Cell(r, "abb", i, 3).code_period for i in range(3)] == [
            "abb", "bba", "bab",
        ]

    def test_coding_constant_on_cell(self):
        p = Param(SQRT2M1, -1)
        for cell in islands(p, max_period=5):
            w = code_orbit(p, cell.rect.center, cell.orbit_period)
            assert w == cell.code_period

    def test_cells_disjoint_and_inside(self):
        p = Param(SQRT2M1, -1)
        cells = islands(p, max_period=21)
        for i, a in enumerate(cells):
            assert 0 <= a.rect.x and a.rect.x + a.rect.w <= 1 + p.theta
            assert 0 <= a.rect.y and a.rect.y + a.rect.h <= 1
            for b in cells[i + 1 :]:
                sep_x = (
                    a.rect.x + a.rect.w <= b.rect.x
                    or b.rect.x + b.rect.w <= a.rect.x
                )
                sep_y = (
                    a.rect.y + a.rect.h <= b.rect.y
                    or b.rect.y + b.rect.h <= a.rect.y
                )
                assert sep_x or sep_y

    def test_float_parameter_rejected(self):
        for theta, eps, max_period in [
            (0.4142, -1, 1), (0.4142135623730951, -1, 21), (0.4142135623730951, 1, 5),
        ]:
            with pytest.raises(ValueError, match="exact parameter"):
                islands(Param(theta, eps), max_period)

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(pet, "ISLAND_CELL_BUDGET", 50)
        with pytest.raises(NotTerminated):
            islands(Param(SQRT2M1, -1), max_period=10**6)

    def test_cap_admits_exactly_cap_cells(self, monkeypatch):
        p = Param(SQRT2M1, -1)
        n = len(islands(p, max_period=21))
        monkeypatch.setattr(pet, "ISLAND_CELL_BUDGET", n)
        assert len(islands(p, max_period=21)) == n
        monkeypatch.setattr(pet, "ISLAND_CELL_BUDGET", n - 1)
        with pytest.raises(NotTerminated, match=f"{n} cells"):
            islands(p, max_period=21)

    def test_long_rational_chain_stays_small(self):
        # 99 levels of (1/100, +1) down to max period 198: lifted over one
        # denominator per level, whose product reached 100!, this peaked at
        # 10.8 MiB; lattice pairs keep to the 6.4 MiB it took before that
        p = Param(Fraction(1, 100), 1)
        islands(p, max_period=1)  # imports outside the measurement
        tracemalloc.start()
        try:
            cells = islands(p, max_period=198)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == 9_900 and peak <= 6.4 * 2**20

    def test_over_cap_refused_before_any_cell(self):
        # one orbit of period 29,999: unfolded with a rotated code per cell
        # it took 13 s and 900 MB before the cap was seen; the periods are
        # known from the matrix products, so the refusal comes first
        p = Param(Fraction(1, 10**4), -1)
        islands(p, max_period=1)  # imports outside the measurement
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(NotTerminated, match="30000 cells"):
                islands(p, max_period=10**5)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert elapsed < 0.1

    def test_cells_refused_while_periods_are_summed(self):
        # right branch 1 adds orbits of period 2, 4, 6, ...: the cells pass
        # the budget 100 levels in, where a check after the walk came only
        # after its 10,000 levels, refused by the level budget in 0.6 s
        p = Param(Fraction(1, 10**6), 1)
        islands(Param(SQRT2M1, -1), max_period=1)  # imports outside the measurement
        t0 = time.perf_counter()
        with pytest.raises(NotTerminated, match="cells"):
            islands(p, max_period=30_000)
        assert time.perf_counter() - t0 < 0.1

    def test_cells_of_an_orbit_share_its_code(self):
        # one orbit of 9,998 cells plus the fixed square: with a rotated copy
        # of the code per cell it peaked at 101 MiB
        p = Param(Fraction(1, 3333), -1)
        islands(p, max_period=1)  # imports outside the measurement
        tracemalloc.start()
        try:
            cells = islands(p, max_period=10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.orbit_period for c in cells[:2]] == [1, 9_998]
        assert all(c.code is cells[1].code for c in cells[1:])
        assert peak < 16 << 20

    @pytest.mark.parametrize("theta, eps", ISLAND_PARAMS)
    def test_matches_orbit_oracle(self, theta, eps):
        p = Param(parse_number(theta), eps)
        for max_period in (0, 1, 2, 5, 21, 100, 500):
            assert_same_cells(islands(p, max_period), oracle_islands(p, max_period))

    @settings(max_examples=80, deadline=None)
    @given(exact_params(), st.integers(0, 400))
    @example(Param(Fraction(0), -1), 5)  # theta = 0: one seed, no level
    @example(Param(Fraction(3, 8), 1), 400)  # the chain ends at theta = 0
    def test_matches_orbit_oracle_at_random_parameters(self, p, max_period):
        # within 2,000 cells, each coordinate of the oracle's type. The oracle
        # lifts every orbit's code through every level, cubic in the depth
        # (1/n, +1 walks n levels): at most 100 levels
        depth = next(k for k, (_, _, level, M) in enumerate(seed_periods(p))
                     if k > 100 or level is None or M.m11 + M.m21 > max_period)
        assume(depth <= 100)
        try:
            cells = islands(p, max_period)
        except NotTerminated:
            cells = None
        assume(cells is not None and len(cells) <= 2_000)
        assert_same_cells(cells, oracle_islands(p, max_period))

    def test_matches_orbit_oracle_on_surd_grid(self):
        # every 35th point of test_cfrac's surd grid, alternating eps, at
        # the CLI's default max period
        grid = itertools.product(range(1, 13), range(1, 13), range(1, 7), (2, 3, 5, 7))
        for i, (a, b, c, d) in enumerate(itertools.islice(grid, 0, None, 35)):
            x = make_surd(-a, b, c, d)
            p = Param(x - math.floor(x), (-1, 1)[i % 2])
            assert_same_cells(islands(p, 21), oracle_islands(p, 21))

    def test_orbit_that_does_not_close_raises(self, monkeypatch):
        # a lift whose square-branch images drift by 11*theta - 6, about
        # 0.035 at theta = (sqrt(7) - 1)/3, as the lattice pair (-6, 11): the
        # cells still come out on the pieces, but the last one no longer maps
        # onto the first
        branch = renorm.rect_branch_ints

        def drifting(theta, eps, letter, xi, xj, *rest):
            xi, xj, *rest = branch(theta, eps, letter, xi, xj, *rest)
            return *((xi - 6, xj + 11) if letter == "a" else (xi, xj)), *rest

        monkeypatch.setattr(renorm, "rect_branch_ints", drifting)
        with pytest.raises(NotTerminated, match="did not close"):
            islands(Param(make_surd(-1, 1, 3, 7), -1), max_period=5)


class TestSegments:
    def test_boundary_count(self):
        assert len(boundary_segments(Param(Fraction(3, 5), -1))) == 7
        assert len(boundary_segments(Param(0, -1))) == 4

    def test_depth_zero_is_boundary(self):
        p = Param(Fraction(3, 5), -1)
        assert discontinuity_segments(p, 0) == boundary_segments(p)

    def test_counts_nondecreasing(self):
        p = Param(Fraction(3, 5), -1)
        counts = [len(discontinuity_segments(p, d)) for d in range(5)]
        assert counts == sorted(counts)

    def test_segments_inside_domain(self):
        p = Param(Fraction(3, 5), -1)
        for x, y, w, h in discontinuity_segments(p, 12):
            for v, hi in ((x, p.width), (x + w, p.width), (y, 1), (y + h, 1)):
                assert 0 <= v <= hi

    def test_a_segment_is_a_rect_of_width_or_height_zero(self):
        for p in (Param(Fraction(3, 5), -1), Param(SQRT2M1, 1), Param(0.3, -1)):
            for s in discontinuity_segments(p, 30):
                assert isinstance(s, Rect)
                assert (s.w == 0) != (s.h == 0) and s.w >= 0 and s.h >= 0

    @staticmethod
    def endpoints(segs):
        return [(s.x, s.y, s.x + s.w, s.y + s.h) for s in segs]

    @settings(max_examples=60, deadline=None)
    @given(exact_params(), st.integers(0, 30))
    def test_matches_oriented_segment_oracle(self, p, depth):
        # the one step on rects gives the oriented pullback's end points,
        # value for value and in the same order
        got = self.endpoints(discontinuity_segments(p, depth))
        assert got == discontinuity_endpoints(p.theta, p.eps, depth)

    @pytest.mark.parametrize("theta, eps", [
        ("3/5", -1), ("3/8", -1), ("2/7", 1), ("1/2", 1), ("0", 1), ("0", -1),
        ("sqrt(2)-1", 1), ("sqrt(2)-1", -1), ("(sqrt(5)-1)/2", -1),
        ("(sqrt(7)-1)/3", 1), ("(-13+4*sqrt(13))/4", -1),
    ])
    def test_matches_oriented_segment_oracle_at_depth_60(self, theta, eps):
        p = Param(parse_number(theta), eps)
        got = self.endpoints(discontinuity_segments(p, 60))
        assert got == discontinuity_endpoints(p.theta, eps, 60)

    def test_bytes_per_segment(self):
        # a Rect of four fields, no per-segment dict: 244 B a kept segment
        # here on CPython 3.11, where the frozen dataclass with an
        # orientation field took 316
        p = Param(SQRT2M1, -1)
        tracemalloc.start()
        try:
            segs = discontinuity_segments(p, 1000)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept / len(segs) < 300

    def test_rational_parameter_stabilizes(self):
        # at a rational parameter the expansion terminates, so the backward
        # orbit of the boundary is eventually a fixed finite set
        p = Param(Fraction(3, 5), -1)
        deep = discontinuity_segments(p, 40)
        deeper = discontinuity_segments(p, 41)
        assert deep == deeper

    def test_walk_stops_at_the_first_empty_level(self):
        # the set at 3/8 stays at 239 segments from depth 100 on; each empty
        # level after that once cost a loop turn, 10**9 of them here
        p = Param(Fraction(3, 8), -1)
        start = time.perf_counter()
        segs = discontinuity_segments(p, 10**9)
        assert time.perf_counter() - start < 2
        assert len(segs) == 239 and segs == discontinuity_segments(p, 100)

    def test_segment_budget(self):
        # the silver mean adds about 5 segments a level without end
        p = Param(SQRT2M1, -1)
        start = time.perf_counter()
        with pytest.raises(NotTerminated, match="segments by depth"):
            discontinuity_segments(p, 10**9)
        assert time.perf_counter() - start < 30
        assert len(discontinuity_segments(p, 200)) == 1036
