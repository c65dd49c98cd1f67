import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sqrect.errors import Terminal
from sqrect.exactnum import make_surd
from sqrect.cfrac import (
    accel,
    accel_orbit,
    branch_data,
    density,
    expand,
    fiber_integral_halfline,
    fiber_integral_right,
    fiber_integral_square,
    in_theta_domain,
    natext_step,
    natural_extension_check,
    param_to_x,
    q_map,
    s_interval,
    transfer_residual,
    x_to_param,
)
from sqrect.lyap import _sample_x
from sqrect.pet import Param
from sqrect.renorm import MIDDLE, RIGHT, Mat2, incidence_matrix, substitution
from sqrect.words import compose

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)

exact_xs = st.fractions(
    min_value=Fraction(1, 97), max_value=Fraction(193, 97), max_denominator=97
).filter(lambda q: q not in (0, 1, 2))


class TestCoordinates:
    @given(st.fractions(min_value=0, max_value=Fraction(96, 97), max_denominator=97))
    def test_param_roundtrip(self, th):
        for eps in (-1, 1):
            p = Param(th, eps)
            assert x_to_param(param_to_x(p)) == p

    def test_interval_halves(self):
        assert param_to_x(Param(Fraction(1, 3), -1)) == Fraction(1, 3)
        assert param_to_x(Param(Fraction(1, 3), 1)) == Fraction(4, 3)


class TestSlowMap:
    @given(exact_xs)
    def test_branch_matrix_is_mobius_action(self, x):
        n, side, A = branch_data(x)
        assert A.mobius(x) == s_interval(x)

    @given(exact_xs)
    def test_image_in_interval(self, x):
        y = s_interval(x)
        assert 0 <= y < 2

    def test_silver_mean_fixed(self):
        x = SQRT2M1
        assert s_interval(x) == x

    def test_plus_fixed_point(self):
        x = param_to_x(Param(SQRT3M1, 1))
        assert s_interval(x) == x


class TestExpand:
    def test_three_eighths_chain(self):
        e = expand(Fraction(3, 8))
        assert e.status == "finite"
        assert len(e.steps) == 3
        # the visited parameters are (2/3,-1), (1/2,+1), terminal (0,-1)
        xs = [Fraction(3, 8)]
        for _ in range(3):
            xs.append(s_interval(xs[-1]))
        assert [x_to_param(x) for x in xs[1:]] == [
            Param(Fraction(2, 3), -1),
            Param(Fraction(1, 2), 1),
            Param(0, -1),
        ]

    def test_sqrt2_over_2_eventually_periodic(self):
        e = expand(make_surd(0, 1, 2, 2))  # sqrt(2)/2
        assert e.status == "periodic"
        assert (e.preperiod, e.period) == (1, 2)

    def test_fixed_points_have_period_one(self):
        for x in (SQRT2M1, param_to_x(Param(SQRT3M1, 1))):
            e = expand(x)
            assert e.status == "periodic" and (e.preperiod, e.period) == (0, 1)

    @given(exact_xs)
    @settings(max_examples=60)
    def test_rationals_terminate(self, x):
        assert expand(x, max_steps=5000).status == "finite"

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 6),
        st.sampled_from([2, 3, 5, 7]),
    )
    @settings(max_examples=30)
    def test_surds_eventually_periodic(self, p, q, r, d):
        x = make_surd(-p, q, r, d)
        k = math.floor(x)
        x = x - k  # reduce into [0,2)
        assume(not isinstance(x, (int, Fraction)))
        assume(0 < x < 2 and x != 1)
        e = expand(x, max_steps=200)
        assert e.status == "periodic"

    def test_truncation_status(self):
        e = expand(math.pi - 3, max_steps=10)
        assert e.status == "truncated" and len(e.steps) == 10


class TestAcceleration:
    @given(exact_xs)
    def test_accel_is_iterated_slow_map(self, x):
        st_ = accel(x)
        y = x
        for _ in range(max(st_.m, 1)):
            y = s_interval(y)
        if 1 < x < Fraction(3, 2) and 1 / (x - 1) == int(1 / (x - 1)):
            # x = 1 + 1/n ends middle branch n: the slow orbit passes 3/2
            # onto 0, the branch's Moebius map sends x to 2; both are terminal
            assert (y, st_.y) == (0, 2)
        else:
            assert y == st_.y

    @given(exact_xs)
    def test_image_leaves_parabolic_zone(self, x):
        y = accel(x).y
        assert not (1 < y <= Fraction(3, 2)) or x <= 1 or x > Fraction(3, 2)

    @given(exact_xs)
    def test_substitution_matches_matrix(self, x):
        st_ = accel(x)
        assert st_.sigma_bold.abelianization() == (
            st_.M_bold.m11,
            st_.M_bold.m12,
            st_.M_bold.m21,
            st_.M_bold.m22,
        )

    @given(exact_xs)
    def test_ratio_expands(self, x):
        assert accel(x).r_bold > 1

    def test_terminal_raises(self):
        with pytest.raises(Terminal):
            accel(Fraction(0))
        with pytest.raises(Terminal):
            accel(Fraction(1))

    def test_orbit_length(self):
        assert len(accel_orbit(SQRT2M1, 7)) == 7


class TestBranchTable:
    @pytest.mark.parametrize("k", range(2, 41))
    def test_middle_is_right_one_to_the_k_minus_one(self, k):
        assert Mat2(*MIDDLE.A(k)) == Mat2(*RIGHT.A(1)) ** (k - 1)
        assert Mat2(*MIDDLE.M(k)) == Mat2(*RIGHT.M(1)) ** (k - 1)
        sigma = RIGHT.sigma(1)
        for _ in range(k - 2):
            sigma = compose(sigma, RIGHT.sigma(1))
        assert MIDDLE.sigma(k) == sigma

    @given(
        st.fractions(min_value=0, max_value=Fraction(96, 97), max_denominator=97),
        st.sampled_from([-1, 1]),
    )
    def test_renorm_rows_are_accel_rows(self, theta, eps):
        p = Param(theta, eps)
        x = param_to_x(p)
        assume(theta != 0 and not 1 < x < Fraction(3, 2))
        st_ = accel(x)
        assert incidence_matrix(p) == st_.M_bold
        assert substitution(p) == st_.sigma_bold


class TestDensities:
    @pytest.mark.parametrize("which", ["nu", "bold_nu"])
    @pytest.mark.parametrize("y", [0.17, 0.5, 0.83, 1.21, 1.47, 1.63, 1.9])
    def test_transfer_fixed_point(self, which, y):
        assert transfer_residual(which, y, branch_cutoff=10**5) <= 1e-7

    @pytest.mark.parametrize("y", [0.3, 0.7, 1.45, 1.8])
    def test_uniform_negative_control(self, y):
        res = transfer_residual("bold_nu", y, test_density=lambda x: 1.0)
        assert res > 1e-2

    def test_bold_nu_total_mass(self):
        # ln 2 + ln(3/2) + ln 2 = ln 6
        from scipy.integrate import quad

        total = sum(
            quad(lambda x: density("bold_nu", x), a, b)[0]
            for a, b in ((1e-12, 1.0), (1.0, 1.5), (1.5, 2 - 1e-12))
        )
        assert total == pytest.approx(math.log(6), abs=1e-6)

    def test_sampler_matches_mass(self):
        draws = _sample_x(np.random.default_rng(5), 20000)
        frac_low = sum(1 for v in draws if v <= 1) / len(draws)
        assert frac_low == pytest.approx(math.log(2) / math.log(6), abs=0.02)
        assert all(0 < v < 2 for v in draws)


class TestNaturalExtension:
    def test_fiber_integrals_closed_form(self):
        for k in range(1, 20):
            x = Fraction(k, 20)
            assert fiber_integral_square(x) == 1 / (1 + x)
            assert fiber_integral_halfline(x + 1) == Fraction(1, 1) / (x + 1)
        for k in range(1, 10):
            x = Fraction(3, 2) + Fraction(k, 20)
            assert fiber_integral_right(x) == 1 / (x - 1)

    def test_domain_membership(self):
        assert in_theta_domain(0.3, 0.5)
        assert not in_theta_domain(0.3, 1.5)
        assert in_theta_domain(1.2, 7.0)
        assert not in_theta_domain(1.2, -0.5)
        assert in_theta_domain(1.7, -1.5)
        assert not in_theta_domain(1.7, -0.5)

    def test_two_sided_step_stays(self):
        x, y = 0.37, 0.41
        for _ in range(500):
            try:
                x, y = natext_step(x, y)
            except Terminal:
                break  # float orbits eventually collapse onto an endpoint
            assert in_theta_domain(x, y)

    def test_check_report(self):
        rep = natural_extension_check(samples=3000, seed=2)
        assert rep.stayed == rep.samples
        assert rep.fiber_square_ok and rep.fiber_middle_ok
        assert rep.disjoint_ok == rep.disjoint_checked


class TestFoldedMap:
    @given(exact_xs)
    def test_q_map_in_unit_interval(self, x):
        assume(x != 0)
        y = q_map(min(x, 2 - x) if x != 1 else x)
        assert 0 <= y <= 1
