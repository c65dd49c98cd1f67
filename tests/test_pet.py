import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sqrect.errors import NotTerminated, OnDiscontinuity, OutOfDomain
from sqrect.exactnum import make_surd, parse_number
from sqrect.pet import (
    Param,
    Point,
    Rect,
    boundary_segments,
    code_orbit,
    detect_period,
    discontinuity_segments,
    islands,
    step,
    step_inverse,
    sym,
)

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)

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
        assert str(w)[0] == "a"
        assert set(str(w)) <= {"a", "b"}

    def test_discontinuity_records_step(self):
        p = Param(Fraction(1, 2), -1)
        # x = 1 is uncoded immediately
        with pytest.raises(OnDiscontinuity) as exc:
            code_orbit(p, Point(1, Fraction(1, 3)), 5)
        assert exc.value.step == 0


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
                (c.orbit_period, str(c.code_period), c.rect)
                for c in deep if c.orbit_period <= max_period
            )

        for max_period in (1, 2, 5, 13, 21, 60):
            assert cells(max_period) == sorted(
                (c.orbit_period, str(c.code_period), c.rect)
                for c in islands(p, max_period)
            )

    def test_center_period_matches(self):
        for cell in islands(Param(SQRT2M1, -1), max_period=5):
            assert detect_period(
                Param(SQRT2M1, -1), cell.rect.center, 6
            ) == cell.orbit_period

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
        with pytest.raises(ValueError):
            islands(Param(0.4142, -1), max_period=1)

    def test_cap_raises(self):
        with pytest.raises(NotTerminated):
            islands(Param(SQRT2M1, -1), max_period=10**6, cap=50)


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
        for s in discontinuity_segments(p, 12):
            end = s.end
            for v, hi in ((s.x, p.width), (end.x, p.width), (s.y, 1), (end.y, 1)):
                assert 0 <= v <= hi

    def test_rational_parameter_stabilizes(self):
        # at a rational parameter the expansion terminates, so the backward
        # orbit of the boundary is eventually a fixed finite set
        p = Param(Fraction(3, 5), -1)
        deep = discontinuity_segments(p, 40)
        deeper = discontinuity_segments(p, 41)
        assert deep == deeper
