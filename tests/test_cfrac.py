import ast
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sqrect.errors import NotTerminated, Terminal
from sqrect.exactnum import Surd, make_surd
from sqrect import cfrac
from sqrect.cfrac import (
    NATEXT_BATCH,
    NATEXT_CHUNK,
    NATEXT_MIN_BRANCHES,
    _branches_needed,
    _preimage_hits,
    accel,
    accel_lanes,
    accel_orbit,
    accel_walk,
    density,
    expand,
    fiber_integral_halfline,
    fiber_integral_right,
    fiber_integral_square,
    in_theta_domain,
    natext_step,
    natext_steps,
    natural_extension_check,
    param_to_x,
    transfer_residual,
    x_to_param,
)
from sqrect.fractal import dimension_estimate
from sqrect.lyap import _sample_x, cocycle_product
from sqrect.pet import Param
from sqrect.renorm import (
    FAMILIES, MIDDLE, RIGHT, UNIT, Level, Mat2, incidence_matrix, slow_image,
)
from test_words import abelianization, compose
import oracle_maps

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)

exact_xs = st.fractions(
    min_value=Fraction(1, 97), max_value=Fraction(193, 97), max_denominator=97
).filter(lambda q: q not in (0, 1, 2))
float_xs = st.floats(min_value=2.0**-1000, max_value=2, exclude_max=True)


def slow_branch(x):
    """(family, branch index n, 1/gap(x)) of the slow map's branch at x,
    read off the branch table: a unit branch below 1, else a right branch.
    An oracle for the chain's levels, which it does not use."""
    if x in (0, 1, 2):
        raise Terminal(f"map undefined at x = {x}")
    fam = UNIT if x < 1 else RIGHT
    inv = 1 / fam.gap(x)
    return fam, math.floor(inv), inv


def s_interval(x):
    """One step of the slow map in interval coordinates (`slow_branch`)."""
    _, n, inv = slow_branch(x)
    return slow_image(inv, n)


class TestCoordinates:
    @given(st.fractions(min_value=0, max_value=Fraction(96, 97), max_denominator=97))
    def test_param_roundtrip(self, th):
        for eps in (-1, 1):
            p = Param(th, eps)
            assert x_to_param(param_to_x(p)) == p

    def test_interval_halves(self):
        assert param_to_x(Param(Fraction(1, 3), -1)) == Fraction(1, 3)
        assert param_to_x(Param(Fraction(1, 3), 1)) == Fraction(4, 3)


def mobius(A: Mat2, x):
    """The Moebius action (m11 x + m12)/(m21 x + m22) of A."""
    return (A.m11 * x + A.m12) / (A.m21 * x + A.m22)


class TestSlowMap:
    @given(exact_xs)
    def test_branch_matrix_is_mobius_action(self, x):
        fam, n, _ = slow_branch(x)
        assert mobius(Mat2(*fam.A(n)), x) == s_interval(x)

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

    def test_surds_eventually_periodic(self):
        # the whole grid p, q in 1..12, r in 1..6, d in {2, 3, 5, 7}, not a
        # sample of it: 49 of its points need more than 200 steps, and the
        # longest period, 390 at (1, 12, 6, 3), is pinned so that a change
        # in `expand` shows
        periods = {}
        for p, q, r, d in itertools.product(
            range(1, 13), range(1, 13), range(1, 7), (2, 3, 5, 7)
        ):
            x = make_surd(-p, q, r, d)
            x = x - math.floor(x)  # reduce into [0, 1)
            assert not isinstance(x, (int, Fraction)) and 0 < x < 1
            e = expand(x, max_steps=1000)
            assert e.status == "periodic", (p, q, r, d)
            periods[p, q, r, d] = (e.preperiod, e.period)
        assert max(period for _, period in periods.values()) == 390
        assert periods[1, 12, 6, 3] == (0, 390)

    def test_truncation_status(self):
        e = expand(math.pi - 3, max_steps=10)
        assert e.status == "truncated" and len(e.steps) == 10

    def test_step_budget_is_checked_as_the_walk_goes(self, monkeypatch):
        # 99/100 walks 99 slow steps down to 0: past a budget of 50 steps it
        # is refused when more were asked, and its periodic and finite
        # neighbours, which stop first, are not
        monkeypatch.setattr(cfrac, "EXPAND_STEP_BUDGET", 50)
        near_one = Fraction(99, 100)
        assert expand(near_one, max_steps=50).status == "truncated"
        with pytest.raises(NotTerminated, match="51 slow steps"):
            expand(near_one, max_steps=51)
        with pytest.raises(NotTerminated, match="a 100-bit number of slow steps"):
            expand(math.pi - 3, max_steps=10**30)
        assert expand(SQRT2M1, max_steps=10**18).status == "periodic"
        assert expand(Fraction(3, 8), max_steps=10**18).status == "finite"

    @given(st.one_of(exact_xs, float_xs))
    @settings(max_examples=300)
    def test_digits_are_slow_branches(self, x):
        # the chain's levels against the oracle, floats bit for bit
        e = expand(x, max_steps=80)
        for d in e.steps:
            fam, n, _ = slow_branch(x)
            assert (d.n, d.eps) == (n, -1 if fam is UNIT else 1)
            x = s_interval(x)
        if e.status == "finite":
            assert x in (0, 1, 2)


def _pin(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class TestFloatPins:
    # float orbits spread an ulp of difference into every later digit, so
    # these pins hold the interval form's float operations bit for bit
    P = Param(0.2718281828459045, 1)

    def test_expand_at_eps_plus_one(self):
        e = expand(param_to_x(self.P), max_steps=150)
        assert e.status == "truncated" and len(e.steps) == 150
        head = " ".join(f"{d.n}{d.eps:+d}" for d in e.steps[:6])
        assert head == "1+1 1+1 2+1 2-1 8-1 1-1"
        assert _pin(e) == "0992696e8418a4f1"

    def test_accel_orbit_with_middle_steps(self):
        orbit = accel_orbit(param_to_x(self.P), 40)
        assert sum(st.family is MIDDLE for st in orbit) == 11
        assert sum(st.m for st in orbit) == 65
        assert repr(orbit[-1].y) == "1.55733646683808"
        assert _pin(orbit) == "f096803a620b5301"

    def test_dimension_estimate(self):
        rep = dimension_estimate(self.P, 50)
        assert repr(rep.value) == "1.3265933318935283"
        assert repr(rep.diagnostics["spread"]) == "0.0038831204087006466"


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
        assert abelianization(st_.family.sigma(st_.n)) == (
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

    @given(float_xs)
    @example(1.0000000242678304)  # middle branch 41,206,815
    @example(1 + 2.252e-13)  # middle branch 4,441,419,750,858
    @example(1 + 2.0**-52)  # middle branch 2**52, which lands on 2
    @settings(max_examples=300)
    def test_float_steps_outside_middle_are_slow_steps(self, x):
        # bit for bit: the same operations as the oracle's slow step
        try:
            for st_ in islice(accel_walk(x), 60):
                if st_.family is not MIDDLE:
                    fam, n, inv = slow_branch(x)
                    assert (st_.family, st_.n, st_.r_bold, st_.y) == (
                        fam, n, inv, s_interval(x)
                    )
                    assert st_.M_bold == Mat2(*fam.M(n))
                x = st_.y
        except Terminal:
            assert x in (0, 1, 2)  # float orbits can end on an interval end

    def test_float_orbits_do_not_end_early(self):
        # a seventh of the starts lie within 1e-6 above 1, for long middle
        # runs; every orbit takes all its 30 steps
        rng = random.Random(19)
        for i in range(4000):
            x = 1 + rng.random() * 1e-6 if i % 7 == 0 else rng.uniform(0, 2)
            assert len(accel_orbit(x, 30)) == 30, x

    @given(float_xs)
    # middle branch 4,441,419,750,858: (1 - n) x + n rounds to 0 here
    @example(1 + 2.252e-13)
    # middle branch 41,206,815: the Moebius quotient cancels to 2.33 here
    @example(1.0000000242678304)
    @example(1 + 2.0**-52)
    @example(1.5)
    @example(math.nextafter(1.5, 0))
    @example(2 - 2.0**-52)
    def test_lanes_are_accel(self, x):
        # a lane steps as the scalar map does, bit for bit
        try:
            st_ = accel(x)
        except Terminal:
            return
        with np.errstate(divide="ignore", invalid="ignore"):
            # the middle image on unit lanes beyond 2**52, which np.where drops
            f, n, y, den = accel_lanes(np.array([x]))
        assert (FAMILIES[f[0]], n[0], y[0], 1 / den[0]) == (
            st_.family, st_.n, st_.y, st_.r_bold
        )
        if st_.family is MIDDLE:
            assert 1.5 < st_.y <= 2  # in the gap, the image rounds inside

    def test_orbit_length(self):
        assert len(accel_orbit(SQRT2M1, 7)) == 7
        assert accel_orbit(SQRT2M1, -1) == []


surd_xs = st.builds(
    make_surd, st.integers(-40, 40), st.integers(-12, 12).filter(bool),
    st.integers(1, 12), st.sampled_from([2, 3, 5, 7]),
).map(lambda x: x - 2 * math.floor(x / 2))  # into [0, 2)


# surds with coefficients up to 10**12 and radicands up to 9973, either sign
# of q, moved into [0, 2); and points 1 + 1/(n + u), u a surd in (0, 1),
# whose first step is middle branch n > 1000
big_surd_xs = st.builds(
    make_surd, st.integers(-10**12, 10**12),
    st.integers(-10**12, 10**12).filter(bool), st.integers(1, 10**12),
    st.integers(2, 9973),
).filter(lambda x: isinstance(x, Surd)).map(lambda x: x - 2 * math.floor(x / 2))
middle_surd_xs = st.builds(
    lambda n, u: 1 + 1 / (n + u - math.floor(u)), st.integers(1001, 10**12), big_surd_xs
)


def step_fields(s):
    return [(type(v), v) for v in (s.m, s.y, s.r_bold, s.M_bold, s.family, s.n)]


class TestSurdWalk:
    """A Surd walks in integers (`cfrac._surd_walk`), with `accel`, which
    steps on Surd arithmetic, as its oracle."""

    @given(st.one_of(big_surd_xs, middle_surd_xs, surd_xs))
    @example(SQRT2M1)
    @example(1 + 1 / (10**9 + SQRT2M1))
    @example(1 + 1 / (10**12 + make_surd(-4, 1, 1, 9973)))  # middle branch 10**12 + 95
    @example(make_surd(-1, 12, 6, 3) - 3)
    # 1/gap = (P' + sqrt(D))/Q' with Q' < 0 dividing P' + floor(sqrt(D)),
    # where the floor takes its other form: at the first and second step
    @example(make_surd(20, 1, 18, 3))
    @example(make_surd(29, -1, 32, 7))
    @settings(max_examples=60, deadline=None)
    def test_steps_match_accel(self, x):
        # every field of 300 steps, and its type
        want, y = [], x
        for _ in range(300):
            want.append(accel(y))
            y = want[-1].y
        got = list(islice(accel_walk(x), 300))
        assert [step_fields(s) for s in got] == [step_fields(s) for s in want]

    def test_calls_no_accel(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cfrac, "accel", seen.append)
        assert len(accel_orbit(SQRT3M1, 100)) == 100 and seen == []

    @pytest.mark.parametrize(
        "x", [SQRT2M1 + 2, SQRT2M1 - 1, -SQRT3M1, make_surd(0, 1, 1, 5)]
    )
    def test_outside_the_interval_raises(self, x):
        with pytest.raises(ValueError, match=r"\[0,2\)"):
            next(accel_walk(x))


def level_route(x):
    """One slow step the way the chain takes it: the level of x_to_param(x)
    and param_to_x of its next parameter. An oracle for `accel` and
    `expand`, which read the branch table instead."""
    level = Level(x_to_param(x))
    return level, param_to_x(level.next)


class TestLevelRoute:
    @given(st.one_of(exact_xs, surd_xs, float_xs))
    @example(SQRT2M1)
    @example(1.0000000242678304)
    @example(1 + 2.252e-13)
    @example(1 + 2.0**-52)
    @example(1.5)
    @example(math.nextafter(1.5, 0))
    @example(2 - 2.0**-52)
    @settings(max_examples=300)
    def test_accel_and_expand_take_the_level_route(self, x):
        # along the slow orbit: expand's digits are the levels', and accel's
        # unit and right steps are the levels' steps, floats bit for bit and
        # exact values in type too (repr holds both)
        e = expand(x, max_steps=60)
        for d in e.steps:
            level, y = level_route(x)
            assert (d.n, d.eps) == (level.n, level.q.eps)
            if level.family is UNIT or level.n > 1:
                st_ = accel(x)
                assert (st_.family, st_.n, st_.m, st_.M_bold) == (
                    level.family, level.n, 1, level.M
                )
                assert repr((st_.r_bold, st_.y)) == repr((level.ratio, y))
            x = y
        if e.status == "finite":
            assert x in (0, 1, 2)

    def test_no_level_is_built(self, monkeypatch):
        # accel and expand read the table; the chain's levels stay renorm's
        built = []
        init = Level.__post_init__
        monkeypatch.setattr(
            Level, "__post_init__", lambda self: built.append(init(self))
        )
        Level(Param(SQRT2M1, -1))
        assert len(built) == 1  # the wrapper counts
        accel_orbit(SQRT2M1, 200)
        expand(SQRT2M1, 200)
        cocycle_product(Param(SQRT2M1, -1), 50)
        assert len(built) == 1
        assert not hasattr(cfrac, "Level")


def test_only_cfrac_calls_accel():
    # every other module reads the accelerated map through one walk,
    # cfrac.accel_walk, so no second loop over its steps can drift from it
    callers = {
        path.stem
        for path in Path(cfrac.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] == "accel"
    }
    assert callers == {"cfrac"}


def test_only_cfrac_chooses_float_branches():
    # accel and accel_lanes hold the only branch choice on floats: no other
    # module reads the family edges or a branch image, which renorm defines
    names = {"FAMILY_EDGES", "slow_image", "middle_image"}
    readers = {
        path.stem
        for path in Path(cfrac.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
    }
    assert readers == {"cfrac"}


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
        assert Level(p).sigma == st_.family.sigma(st_.n)


def generic_branch_sum(which: str, dens, y: float, n_terms: int = 20_000) -> float:
    """Sum over the inverse branches at y of dens/|map'|, for an arbitrary
    candidate density, by direct branch enumeration: the negative control
    for the transfer residual. Refuses y = 1, where the densities jump."""
    if y == 1:
        raise ValueError("the densities jump at y = 1; the residual is undefined")
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


class TestDensities:
    @pytest.mark.parametrize("which", ["nu", "bold_nu"])
    @pytest.mark.parametrize("y", [0.17, 0.5, 0.83, 1.21, 1.47, 1.63, 1.9])
    def test_transfer_fixed_point(self, which, y):
        assert transfer_residual(which, y) <= 1e-7

    @staticmethod
    def _loop_pair_sum(alpha, beta, n_min, parity):
        # the scalar oracle: the direct terms added one by one, left to right
        from scipy.special import digamma

        n = n_min if n_min % 2 == parity else n_min + 1
        total = 0.0
        direct_end = n + 2 * cfrac.PAIR_TERMS
        while n < direct_end:
            total += 1.0 / (n + alpha) - 1.0 / (n + beta)
            n += 2
        m0 = (n - parity) // 2
        total += 0.5 * (
            digamma(m0 + (parity + beta) / 2) - digamma(m0 + (parity + alpha) / 2)
        )
        return total

    def test_pair_sum_equals_scalar_loop(self):
        # bit for bit: np.add.accumulate must add in order, on every numpy
        ys = [*np.random.default_rng(12).uniform(0, 2, 24), 1e-12, 1e-6,
              1 - 1e-9, 1.0, 1 + 1e-9, 1.5 - 1e-9, 1.5, 1.5 + 1e-9, 2 - 1e-9]
        for y in ys:
            t = y if y < 1 else y - 1
            for alpha, beta in ((t, t + 1), (t - 1, t)):
                for n_min, parity in itertools.product((1, 2), (0, 1)):
                    args = (alpha, beta, n_min, parity)
                    try:
                        expected = self._loop_pair_sum(*args)
                    except ZeroDivisionError:  # n = 1 at t = 0: a pole
                        with pytest.raises(ZeroDivisionError):
                            cfrac._pair_sum(*args)
                        continue
                    assert cfrac._pair_sum(*args) == expected, args

    @pytest.mark.parametrize("block", [1, 7, 4095, 20_000, 1 << 40])
    def test_pair_block_changes_no_bit(self, monkeypatch, block):
        # 1 << 40 is one block of every term, the whole-array form
        args = [(0.3, 1.3, 1, 0), (-0.7, 0.3, 2, 1), (0.999, 1.999, 1, 1)]
        expected = [cfrac._pair_sum(*a) for a in args]
        monkeypatch.setattr(cfrac, "PAIR_BLOCK", block)
        assert [cfrac._pair_sum(*a) for a in args] == expected

    def test_pair_sum_allocates_no_full_length_array(self):
        # a full-length temporary (160 KB) is mmapped, and page-faults on every
        # call until a larger array raises malloc's mmap threshold
        tracemalloc.start()
        try:
            cfrac._pair_sum(0.3, 1.3, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cfrac.PAIR_TERMS

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(min_value=10, max_value=1e17, exclude_min=True))
    @example(math.nextafter(10.0, 11.0))
    @example(19999.5)
    @example(1e17)
    def test_digamma_is_scipys(self, x):
        # Cephes' asymptotic series, operation for operation: bit for bit
        from scipy.special import digamma

        assert cfrac._digamma(x) == digamma(x)

    @pytest.mark.parametrize("x", [10.0, 9.999999999999998, 1.0, 0.0, -3.5, math.nan])
    def test_digamma_refused_at_or_below_ten(self, x):
        # Cephes sums the harmonic series at x = 10 and recurs below it
        with pytest.raises(ValueError):
            cfrac._digamma(x)

    def test_digamma_at_the_pair_sum_arguments(self, monkeypatch):
        # every argument _pair_sum builds at the bench's y values, read from
        # its float reference, and at the y values of the scalar-loop test
        from scipy.special import digamma

        ref = Path(__file__).resolve().parents[1] / "bench" / "reference" / "float.json"
        ys = {float(op["args"]["y"]) for op in json.loads(ref.read_text())["ops"].values()
              if "y" in op["args"]}
        ys |= {*np.random.default_rng(12).uniform(0, 2, 24), 1e-12, 1 + 1e-9, 2 - 1e-9}
        real, seen = cfrac._digamma, []
        monkeypatch.setattr(cfrac, "_digamma", lambda x: seen.append(x) or real(x))
        for y in sorted(ys):
            for which in ("nu", "bold_nu"):
                transfer_residual(which, y)
        assert len(seen) == 8 * len(ys)
        assert all(real(x) == digamma(x) for x in seen)

    @pytest.mark.parametrize("which", ["nu", "bold_nu"])
    @pytest.mark.parametrize("test_density", [None, lambda x: 1.0])
    def test_residual_refused_at_the_jump(self, which, test_density):
        # both densities jump at y = 1, where the branch sums would take the
        # right-hand limit, a pole for 'nu'
        with pytest.raises(ValueError):
            if test_density is None:
                transfer_residual(which, 1.0)
            else:
                generic_branch_sum(which, test_density, 1.0)

    @pytest.mark.parametrize("which", ["nu", "bold_nu"])
    @pytest.mark.parametrize("y", [0.0, 2.0, -0.5, 3.0, math.nan, math.inf])
    def test_residual_refuses_y_off_the_domain(self, which, y, monkeypatch):
        # before any sum: NaN once ran every pair sum and failed in _digamma
        monkeypatch.setattr(cfrac, "_pair_sum", None)
        with pytest.raises(ValueError, match=r"^y must lie in \(0,2\)$"):
            transfer_residual(which, y)

    @pytest.mark.parametrize("y", [0.3, 0.7, 1.45, 1.8])
    def test_uniform_negative_control(self, y):
        assert abs(generic_branch_sum("bold_nu", lambda x: 1.0, y) - 1.0) > 1e-2

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

    def test_samples_above_budget_fail_before_the_first_batch(self, monkeypatch):
        monkeypatch.setattr(cfrac, "NATEXT_SAMPLE_BUDGET", 3000)
        assert natural_extension_check(samples=3000, seed=2).samples == 3000

        def no_batch(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(cfrac, "_natext_batch", no_batch)
        for samples in (3001, 10**12):
            with pytest.raises(NotTerminated):
                natural_extension_check(samples=samples)

    def test_domain_membership_on_arrays(self):
        # the elementwise form against the scalar one, boundaries included
        xs = [-0.1, 0.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 2.1, math.nan]
        ys = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, math.nan]
        x, y = (a.ravel() for a in np.meshgrid(xs, ys))
        want = [_reference_in_domain(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert in_theta_domain(x, y).tolist() == want


def _reference_in_domain(x: float, y: float) -> bool:
    """`in_theta_domain` as it was written for scalars alone."""
    if 0 <= x <= 1:
        return 0 <= y <= 1
    if 1 <= x <= 1.5:
        return y >= 0
    if 1.5 <= x <= 2:
        return y >= 0 or y <= -1
    return False


def _candidates(n_need: int) -> list:
    """(A(n), left end, right end) of the branches n < n_need of each family."""
    return [
        (fam.A(n), *fam.ends(n)) for fam in FAMILIES for n in range(fam.first, n_need)
    ]


_CANDIDATES_80 = _candidates(80)


def _reference_hits(x1: float, y1: float) -> int:
    """The scalar candidate loop that `cfrac._preimage_hits` replaced: every
    branch n < n_need of each family, inverted in Python ints, and the past
    coordinate for each branch whose domain holds the preimage."""
    n_need = 80
    if y1 != 0:
        n_need = max(n_need, int(1 / abs(y1)) + 3)
    if y1 < -1:
        n_need = max(n_need, int(-y1 / (-y1 - 1)) + 3)

    hits = 0
    table = _CANDIDATES_80 if n_need == 80 else _candidates(n_need)
    for (a11, a12, a21, a22), lo, hi in table:
        det = a11 * a22 - a12 * a21
        i11, i12, i21, i22 = a22 * det, -a12 * det, -a21 * det, a11 * det
        denom = i21 * x1 + i22
        if denom == 0:
            continue
        x0 = (i11 * x1 + i12) / denom
        if not (lo < x0 <= hi):
            continue
        # _mobius_y(i11, i12, i21, i22, y1), written out
        p, q = i11 * -1.0 + i12 * y1, i21 * -1.0 + i22 * y1
        if _reference_in_domain(x0, -q / p):
            hits += 1
    return hits


def _image_points(monkeypatch, seed: int, samples: int = 2000):
    """The x1, y1 that natural_extension_check(samples, seed) hands to the
    disjointness kernel, with the kernel's per-point hit counts, as lists."""
    seen = []

    def record(x1, y1):
        hits = _preimage_hits(x1, y1)
        seen.append((x1, y1, hits))
        return hits

    monkeypatch.setattr(cfrac, "_preimage_hits", record)
    natural_extension_check(samples, seed)
    [(x1, y1, hits)] = seen
    return x1.tolist(), y1.tolist(), hits.tolist()


class TestDisjointnessKernel:
    @pytest.mark.parametrize("seed", range(10))
    def test_hits_match_scalar_loop(self, monkeypatch, seed):
        x1, y1, hits = _image_points(monkeypatch, seed)
        assert len(hits) == 1000
        assert hits == [_reference_hits(x, y) for x, y in zip(x1, y1)]

    def test_worst_point_of_heavy_seed(self, monkeypatch):
        x1, y1, hits = _image_points(monkeypatch, 885180465)
        i = max(range(len(y1)), key=lambda i: _branches_needed(y1[i]))
        assert _branches_needed(y1[i]) == 112_130  # spans several chunks
        assert hits[i] == _reference_hits(x1[i], y1[i]) == 1

    @pytest.mark.parametrize("n", [
        NATEXT_MIN_BRANCHES - 1,
        NATEXT_MIN_BRANCHES,
        NATEXT_MIN_BRANCHES + NATEXT_CHUNK - 1,
        NATEXT_MIN_BRANCHES + NATEXT_CHUNK,
    ])
    def test_preimage_at_pass_boundary(self, n):
        # a point on unit branch n: its image needs about n branches, and
        # its one preimage lies on either side of a boundary between passes
        x1, y1 = natext_step(1 / (n + 0.5), 0.5)
        assert n < _branches_needed(y1) <= n + 4
        got = _preimage_hits(np.array([x1]), np.array([y1]))
        assert got.tolist() == [_reference_hits(x1, y1)] == [1]

    def test_zero_projective_denominator_raises(self):
        # y1 = 0: the inverse of unit branch 2 sends (-1 : 0) to p = 0
        with pytest.raises(ZeroDivisionError):
            _reference_hits(0.5, 0.0)
        with pytest.raises(ZeroDivisionError):
            _preimage_hits(np.array([0.5]), np.array([0.0]))

    def test_memory_does_not_grow_with_branches(self):
        y1 = 1 / 1_999_997
        assert _branches_needed(y1) == 2_000_000
        tracemalloc.start()
        try:
            hits = _preimage_hits(np.array([0.5]), np.array([y1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits.tolist() == [1]
        # a pass over NATEXT_CHUNK branch indices peaks at about 2.4 MiB;
        # all 2 million branches of a family at once take 16 MB per array
        assert peak < 8 * 2**20


def _reference_natext(samples: int, seed: int):
    """The scalar loop that `natural_extension_check` batched, one point at a
    time: (samples, stayed, state of the rng after the last draw)."""
    rng = random.Random(seed)
    done = stayed = 0
    while done < samples:
        x, y = cfrac._sample_theta_domain(rng)
        if x in (0, 1, 2) or not 0 < x < 2:
            continue
        try:
            x1, y1 = natext_step(x, y)
        except (Terminal, ZeroDivisionError):
            continue
        done += 1
        stayed += bool(in_theta_domain(x1, y1))
    return done, stayed, rng.getstate()


def _batched_natext(monkeypatch, samples: int, seed: int):
    """natural_extension_check's report, and its (samples, stayed) with the
    state of the rng that it hands on to the disjointness check."""
    states = []
    check = cfrac._disjointness_check

    def record(rng, count):
        states.append(rng.getstate())
        return check(rng, count)

    monkeypatch.setattr(cfrac, "_disjointness_check", record)
    rep = natural_extension_check(samples, seed)
    return rep, (rep.samples, rep.stayed, states[0])


# reports of natural_extension_check as the scalar sample loop gave them
NATEXT_REPORT = (
    "NatExtReport(samples={}, stayed={}, fiber_square_ok=True,"
    " fiber_middle_ok=True, disjoint_checked=1000, disjoint_ok=1000)"
)


def _kernel_lanes():
    """Lanes for the kernel's oracle: random ones; every branch end up to n =
    1000 and middle branch up to 2**52, each with its neighbours; and what
    natext_steps feeds it, points of the domain and off it: negatives, values
    of 2 and more, +-0, +-inf, NaN and subnormals."""
    rng = random.Random(12)
    ends = [e for fam in FAMILIES for n in range(fam.first, 1001) for e in fam.ends(n)]
    ends += [1 + 2.0**-k for k in range(1, 53)]
    off = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 2.0**-53, 1e-300, -1e-300,
           -0.5, -1.0, -3.0, -1e300, 1.0, 2.0, 2.5, 3.0, 4.0, 1e300,
           math.inf, -math.inf, math.nan]
    return np.array([
        *(rng.uniform(-0.5, 2.5) for _ in range(4000)),
        *(math.nextafter(e, to) for e in ends for to in (0, e, 2)),
        *(cfrac._sample_theta_domain(rng)[0] for _ in range(4000)),
        *off, *(2 - x for x in off), *(1 + x for x in off[:10]),
    ])


class TestLaneKernel:
    def test_kernel_is_the_searchsorted_and_fmod_form(self):
        # bit for bit, NaN included, with fresh arrays and through one scratch,
        # and on the lanes reversed, so each meets other neighbours
        x = _kernel_lanes()
        scratch = cfrac.LaneScratch(np.empty(x.size, np.intp), *np.empty((2, x.size)))
        with np.errstate(all="ignore"):
            for lanes, out in ((x, None), (x, scratch), (x[::-1].copy(), scratch)):
                want = oracle_maps.accel_lanes(lanes)
                for a, b in zip(accel_lanes(lanes, out), want):
                    assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


class TestNatextKernel:
    def test_steps_match_scalar(self):
        rng = random.Random(5)
        points = [cfrac._sample_theta_domain(rng) for _ in range(10_000)]
        points += [
            (0.0, 0.5), (1.0, 0.5), (2.0, 0.5), (-0.5, 0.5),  # off the domain
            (0.75, 0.0),  # unit branch 1 sends (-1 : 0) to p = 0
            (2.0**-53, 0.3), (1e-300, 0.5),  # unit branches n >= 2**53
            (1 + 2.0**-52, 0.3),  # middle branch 2**52, which steps to x1 = 2
            (2 - 2.0**-52, 0.4), (2 - 2.0**-52, -3.0),
            (1.5, 0.2), (math.nextafter(1.5, 0), 0.2), (1.25, 7.0), (4 / 3, 1.0),
        ]
        x, y = np.array(points).T
        x1, y1, ok = natext_steps(x, y)
        skipped = 0
        for i, (a, b) in enumerate(points):
            try:
                if a in (0, 1, 2) or not 0 < a < 2:
                    raise Terminal("skipped by natural_extension_check")
                want = natext_step(a, b)
            except (Terminal, ZeroDivisionError):
                skipped += 1
                assert not ok[i]
            else:
                assert ok[i] and (x1[i], y1[i]) == want
        assert skipped == 5
        assert natext_step(1 + 2.0**-52, 0.3)[0] == 2.0

    def test_one_y_action(self, monkeypatch):
        # the scalar step, its array form and the disjointness check each move
        # the past coordinate by cfrac._mobius_y, and by nothing else
        calls, mobius = [], cfrac._mobius_y

        def counting(*args):
            calls.append(args)
            return mobius(*args)

        monkeypatch.setattr(cfrac, "_mobius_y", counting)
        rng = random.Random(7)
        x, y = np.array([cfrac._sample_theta_domain(rng) for _ in range(50)]).T
        x1, y1, ok = natext_steps(x, y)
        for step in (lambda: natext_step(x[0], y[0]), lambda: natext_steps(x, y),
                     lambda: _preimage_hits(x1[ok], y1[ok])):
            calls.clear()
            step()
            assert calls

    def test_steps_through_a_reused_scratch(self):
        # a walk reuses one LaneScratch from step to step: accel_lanes gives
        # the bits of a fresh one each call, and natext_steps, whose scratch
        # is its own, returns arrays that a later call leaves as they are
        rng = random.Random(6)
        x, y = np.array([cfrac._sample_theta_domain(rng) for _ in range(1000)]).T
        kept = natext_steps(x, y)
        want = [a.copy() for a in kept]
        natext_steps(2 - x, y)
        assert all(np.array_equal(a, b) for a, b in zip(kept, want))
        scratch = cfrac.LaneScratch(np.empty(x.size, np.intp), *np.empty((2, x.size)))
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(20):
                fresh = [a.copy() for a in accel_lanes(x)]
                got = accel_lanes(x, scratch)
                assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, fresh))
                x = got[2].copy()

    @pytest.mark.parametrize("seed", [*range(10), 885180465])
    def test_reports_match_scalar_loop(self, monkeypatch, seed):
        rep, got = _batched_natext(monkeypatch, 2000, seed)
        assert got == _reference_natext(2000, seed)
        assert repr(rep) == NATEXT_REPORT.format(2000, 2000)

    def test_cli_default_report(self, monkeypatch):
        rep, got = _batched_natext(monkeypatch, 100_000, 1)
        assert got == _reference_natext(100_000, 1)
        assert repr(rep) == NATEXT_REPORT.format(100_000, 100_000)

    def test_redraws_across_batches(self, monkeypatch):
        # points the step skips, made up by later draws, across a batch end
        draw = cfrac._sample_theta_domain

        def with_skips(rng):
            x, y = draw(rng)
            k = int(x * 1e6)
            if k % 97 == 0:
                return 1.0, y  # Terminal
            if k % 89 == 0:
                return 0.75, 0.0  # ZeroDivisionError
            return x, y

        monkeypatch.setattr(cfrac, "_sample_theta_domain", with_skips)
        batches = []
        steps = cfrac.natext_steps

        def count(x, y):
            batches.append(x.size)
            return steps(x, y)

        monkeypatch.setattr(cfrac, "natext_steps", count)
        samples = NATEXT_BATCH + 10
        _, got = _batched_natext(monkeypatch, samples, 3)
        assert got == _reference_natext(samples, 3)
        assert got[:2] == (samples, samples)
        # a full batch, at least two rounds of redraws, the disjointness draws
        assert batches[0] == NATEXT_BATCH and len(batches) >= 4
        assert batches[-1] == 1000

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            natural_extension_check(0)


def q_map(x):
    """The folded map: 1/x mod 1, reflected on odd branches."""
    if x == 0:
        raise Terminal("map undefined at 0")
    inv = 1 / x
    n = math.floor(inv)
    frac = inv - n
    return frac if n % 2 == 0 else 1 - frac


class TestFoldedMap:
    @given(exact_xs)
    def test_q_map_in_unit_interval(self, x):
        assume(x != 0)
        y = q_map(min(x, 2 - x) if x != 1 else x)
        assert 0 <= y <= 1
