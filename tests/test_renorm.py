import ast
import math
import random
import time
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sqrect import exactnum, fractal, pet, renorm
from sqrect.fractal import box_count_deep, cover_arrays
from sqrect.errors import Degenerate, NotTerminated, OnDiscontinuity, OutOfDomain, Terminal
from sqrect.exactnum import Surd, is_exact, make_surd, parse_number
from sqrect.pet import (
    Param, Point, Rect, _lift, code_orbit, islands, psi_inverse_ints, step, walk,
)
from sqrect.renorm import (
    EXACT_PIECE_BUDGET,
    FAMILIES,
    FAMILY_EDGES,
    RIGHT,
    UNIT,
    CoverPiece,
    Level,
    Mat2,
    cover,
    cover_level,
    cover_seed,
    descend,
    family_coefficients,
    incidence_matrix,
    induction_verify,
    lift_blocks,
    odd,
    period_sequence,
    psi_inverse_lattice,
    renorm_step,
    similitude,
    slow_image,
)
from oracle_maps import piece_count, psi_inverse, rect_branch, seed_values
from test_pet import assert_same_cells, exact_params, oracle_islands
from test_words import abelianization, apply

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)

params = st.builds(
    Param,
    st.fractions(
        min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40
    ),
    st.sampled_from([-1, 1]),
)


class TestFamilyCoefficients:
    @pytest.mark.parametrize("name", ["gap", "M"])
    def test_reproduces_the_table(self, name):
        # in Python ints, at indices up to 2**51 as well as small ones
        slope, const = family_coefficients(name).astype(int).tolist()
        for f, fam in enumerate(FAMILIES):
            for t in (0, 1, 2, 5, 6, 999, 1000, 2**40 + 1, 2**51):
                want = getattr(fam, name)(t)
                got = [s[f] * t + c[f] for s, c in zip(slope, const)]
                assert got == list(want if isinstance(want, tuple) else (want,))

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            family_coefficients("A")  # A has a term in n % 2

    def test_odd_is_fmod_on_float_indices(self):
        # n - 2 trunc(n/2) against np.fmod(n, 2): integers from 0 up to
        # 2**53 + 2, their negatives, +-inf and NaN. Values only: at an even
        # n < 0 fmod gives -0.0 and odd +0.0, which n's fractional part, the
        # one term they are added to, does not see
        rng = np.random.default_rng(8)
        n = np.concatenate([
            np.arange(10_000.0),
            [2.0**k + d for k in range(1, 54) for d in (-2, -1, 0, 1, 2)],
            np.floor(rng.uniform(0, 2**53, 10_000)),
            [2.0**53 + 2, 2.0**60, 1e300],
        ])
        n = np.concatenate([n, -n, [math.inf, -math.inf, math.nan]])
        out = np.empty_like(n)
        with np.errstate(invalid="ignore"):
            want = np.fmod(n, 2)
            for got in (odd(n), odd(n, out)):
                assert np.array_equal(got, want, equal_nan=True)

    def test_slow_image_on_lanes(self):
        # the out= form on float arrays against inv - n + fmod(n, 2), at n up to
        # 2**53 and past it, and at inv = inf, which natext_steps meets at x = 0
        rng = np.random.default_rng(9)
        inv = np.concatenate([
            rng.uniform(1, 3, 10_000), rng.uniform(1, 2.0**53, 10_000),
            [2.0**k + d for k in range(1, 60) for d in (-1.5, -1, -0.5, 0, 1, 2)],
            [math.inf],
        ])
        n = np.floor(inv)
        with np.errstate(invalid="ignore"):
            want = inv - n + np.fmod(n, 2)
            got = slow_image(inv.copy(), n, out=np.empty_like(inv))
            assert np.array_equal(got, want, equal_nan=True)

    def test_edges_index_the_families(self):
        below_1, below_3_2 = np.nextafter(1.0, 0), np.nextafter(1.5, 0)
        x = np.array([0.25, below_1, 1.0, 1.25, below_3_2, 1.5, 1.9])
        assert FAMILY_EDGES.searchsorted(x, "right").tolist() == [0, 0, 1, 1, 1, 2, 2]


class TestParameterMap:
    def test_silver_mean_fixed(self):
        p = Param(SQRT2M1, -1)
        assert renorm_step(p) == p

    def test_plus_family_fixed(self):
        p = Param(SQRT3M1, 1)
        assert renorm_step(p) == p

    def test_rational_chain(self):
        p = Param(Fraction(3, 8), -1)
        q1 = renorm_step(p)
        assert q1 == Param(Fraction(2, 3), -1)
        q2 = renorm_step(q1)
        assert q2 == Param(Fraction(1, 2), 1)
        q3 = renorm_step(q2)
        assert q3 == Param(0, -1)
        with pytest.raises(Terminal):
            renorm_step(q3)

    @given(params)
    def test_ratio_expands(self, p):
        assume(p.f(p.theta) != 0)
        assert Level(p).ratio > 1

    @given(params)
    def test_next_theta_in_range(self, p):
        assume(p.f(p.theta) != 0)
        q = renorm_step(p)
        assert 0 <= q.theta < 1


class TestSimilitude:
    @given(params)
    def test_roundtrip(self, p):
        z = Point(Fraction(1, 3), Fraction(2, 7))
        assert similitude(p, pull_back(p, z)) == z

    @given(params)
    def test_contraction_factor(self, p):
        assume(p.f(p.theta) != 0)
        a = pull_back(p, Point(0, 0))
        b = pull_back(p, Point(1, 1))
        r = Level(p).ratio
        assert abs(float(b.x - a.x)) * float(r) == pytest.approx(1.0, abs=1e-12)

    def test_zone_inside_domain(self):
        p = Param(SQRT2M1, -1)
        c_ind, r_ind = zone(Level(p))
        for rect in (c_ind, r_ind):
            assert 0 <= float(rect.x) and float(rect.x + rect.w) <= float(p.width)
            assert 0 <= float(rect.y) and float(rect.y + rect.h) <= 1


def pull_back(p: Param, z: Point) -> Point:
    """psi^-1 of a point: the point form of `psi_inverse`."""
    return Point(*psi_inverse(p.theta, p.eps, *z)[:2])


# -- the zone test: the oracle of induction_verify's choice of return time ---


def zone(level):
    """(C^ind, R^ind): psi^-1 of the square and the rectangle of S(q)."""
    th, eps = level.q.theta, level.q.eps
    c_ind = Rect(*psi_inverse(th, eps, 0, 0, 1, 1))
    return c_ind, Rect(*psi_inverse(th, eps, 1, 0, level.next.theta, 1))


def contains(rect, z):
    return rect.x <= z.x <= rect.x + rect.w and rect.y <= z.y <= rect.y + rect.h


def return_time(level, z):
    """The return time of the first of (C^ind, R^ind) whose closure holds z."""
    for rect, k in zip(zone(level), level.times):
        if contains(rect, z):
            return k
    raise ValueError(f"({z.x}, {z.y}) not in the induction zone")


def first_return(level, z):
    """T_ind(z), the first return to the induction zone, and its time."""
    k = return_time(level, z)
    return walk(level.q, z, k), k


surd_params = st.builds(
    Param,
    st.sampled_from([SQRT2M1, SQRT3M1, parse_number("(sqrt(5)-1)/2"),
                     parse_number("(sqrt(7)-1)/3"), parse_number("2-sqrt(3)")]),
    st.sampled_from([-1, 1]),
)
unit_fractions = st.fractions(0, 1, max_denominator=1 << 24).filter(lambda t: 0 < t < 1)


class TestFirstReturn:
    def test_return_times_match_digit(self):
        level = Level(Param(SQRT2M1, -1))  # n = 2
        assert level.n == 2
        assert level.times == (5, 3)

    def test_plus_return_times(self):
        level = Level(Param(SQRT3M1, 1))  # n = 3 in the plus family
        assert level.times == (3 * (level.n - 1) + 1, 3)

    def test_outside_zone_raises(self):
        level = Level(Param(SQRT2M1, -1))
        with pytest.raises(ValueError, match="not in the induction zone"):
            first_return(level, Point(Fraction(99, 100), Fraction(99, 100)))

    def test_return_lands_in_zone(self):
        level = Level(Param(SQRT2M1, -1))
        c_ind, r_ind = zone(level)
        z = Point(
            c_ind.x + c_ind.w / 3,
            c_ind.y + c_ind.h / 3,
        )
        w, k = first_return(level, z)
        assert k == 5
        assert contains(c_ind, w) or contains(r_ind, w)

    @settings(max_examples=200)
    @given(st.one_of(params, surd_params), unit_fractions, unit_fractions,
           st.booleans(), st.integers(0, 2**32))
    def test_drawn_side_gives_the_zone_time(self, p, s, t, rect, seed):
        # induction_verify takes the return time from the side of the drawn
        # point z1 in the domain of S(p); the zone test of psi^-1(z1) agrees,
        # on drawn exact points and on those of the sampler itself
        level = Level(p)
        q = level.next
        assume(q.theta != 0 or not rect)
        z1 = Point(1 + s * q.theta if rect else s, t)
        drawn = random_domain_point(q, random.Random(seed), True)
        for z in (z1, drawn):
            want = return_time(level, pull_back(p, z))
            assert level.times[z.x > 1] == want


def random_domain_point(q: Param, rng: random.Random, exact: bool) -> Point:
    """induction_verify's draw as a Point: in exact mode, the numerators of
    `renorm._draw` over 2**24."""
    x, y = renorm._draw(rng, float(1 + q.theta), exact)
    return Point(Fraction(x, 1 << 24), Fraction(y, 1 << 24)) if exact else Point(x, y)


def old_induction_verify(p: Param, samples: int = 10_000, seed: int = 0):
    """induction_verify as it was, every sample on Points: the oracle of the
    integer frame. It reads renorm.Level and renorm.random when called, so
    a test patches both alike."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    level = renorm.Level(p)
    q, longest = level.next, max(level.times)
    steps = samples * longest
    if steps > renorm.VERIFY_STEP_BUDGET:
        shown = steps if steps < 10**20 else f"a {steps.bit_length()}-bit number of"
        raise NotTerminated(
            f"{shown} map steps, above the budget of {renorm.VERIFY_STEP_BUDGET}"
        )
    exact = is_exact(p.theta)
    rng = renorm.random.Random(seed)
    resampled = 0
    max_err = 0.0
    done = 0
    while done < samples:
        z1 = old_random_domain_point(q, rng, exact)
        try:
            w = walk(p, pull_back(p, z1), level.times[z1.x > 1])
            lhs = similitude(p, w)
            rhs = step(q, z1)
        except OnDiscontinuity:
            resampled += 1
            continue
        if lhs != rhs:
            max_err = max(max_err, lhs.dist_max(rhs))
        done += 1
    return renorm.VerifyReport(samples, resampled, max_err, exact)


class CoarseRandom(random.Random):
    """A seeded Random whose randrange keeps multiples of 2**21 (or its
    start): exact draws on a grid of eighths, x = 1 among them."""

    def randrange(self, start, stop):
        v = super().randrange(start, stop)
        return max(start, v - v % (1 << 21))


def later_times(extra):
    """A Level whose return times are `extra` steps too long."""

    class Later(Level):
        def __post_init__(self):
            super().__post_init__()
            vars(self)["times"] = tuple(t + extra for t in self.times)

    return Later


def verify_outcome(f, p, samples, seed):
    try:
        return repr(astuple(f(p, samples, seed)))
    except (Degenerate, NotTerminated, Terminal, ValueError) as exc:
        return type(exc).__name__, str(exc)


verify_params = st.builds(
    Param,
    st.one_of(
        st.integers(2, 12).flatmap(
            lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))
        ),
        st.sampled_from([SQRT2M1, SQRT3M1, parse_number("(sqrt(5)-1)/2"),
                         parse_number("(sqrt(7)-1)/3"), parse_number("2-sqrt(3)"),
                         parse_number("(sqrt(13)-3)/2"), Fraction(1, 10**9), 0]),
        # float parameters: dyadic ones, where draws meet edges, and the ends
        st.floats(0, 1, exclude_min=True, exclude_max=True),
        st.integers(1, 7).map(lambda k: k / 8),
        st.sampled_from([0.4142135623730951, 1e-3, 1 - 1e-3]),
    ),
    st.sampled_from([-1, 1]),
)


class TestInductionVerify:
    def test_exact_mode_zero_error(self):
        rep = induction_verify(Param(SQRT2M1, -1), samples=300, seed=3)
        assert rep.exact and rep.max_error == 0.0

    def test_float_mode_small_error(self):
        rep = induction_verify(Param(0.4142135623730951, -1), samples=300, seed=3)
        assert not rep.exact and rep.max_error <= 1e-9

    def test_rational_parameter(self):
        rep = induction_verify(Param(Fraction(2, 7), 1), samples=300, seed=3)
        assert rep.max_error == 0.0

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        # exactness certified from no sample would be vacuous
        with pytest.raises(ValueError):
            induction_verify(Param(SQRT2M1, -1), samples=samples)

    def test_step_budget_counts_the_longer_return_time(self, monkeypatch):
        # return times (5, 3) at the silver mean: 10 samples are 50 steps
        monkeypatch.setattr(renorm, "VERIFY_STEP_BUDGET", 50)
        assert induction_verify(Param(SQRT2M1, -1), samples=10).max_error == 0.0
        with pytest.raises(NotTerminated):
            induction_verify(Param(SQRT2M1, -1), samples=11)
        with pytest.raises(NotTerminated):  # return time about 3 * 10^9
            induction_verify(Param(Fraction(1, 10**9), -1), samples=1)

    @settings(max_examples=250, deadline=None)
    @given(verify_params, st.integers(1, 60), st.integers(0, 2**32),
           st.sampled_from([0, 0, 1, 2, 3, 5]), st.booleans())
    @example(Param(Fraction(1, 3), 1), 200, 1, 3, True)  # 24 resampled
    # psi^-1 of T_{S(p)} z1 equals T_ind(psi^-1 z1) in floats, yet psi of the
    # latter is 2**-53 off T_{S(p)} z1: a float sample is measured all the same
    @example(Param(0.5, 1), 1, 4049654480, 0, False)
    # a return time past 10**20 steps: refused by the bit length of the count
    @example(Param(1.663472251167883e-147, -1), 1, 0, 0, False)
    def test_frame_path_is_the_point_oracle(self, p, samples, seed, extra, coarse):
        # reports equal field by field, errors alike; return times made too
        # long and draws on a grid of eighths make errors and resamples
        with pytest.MonkeyPatch.context() as mp:
            if extra:
                mp.setattr(renorm, "Level", later_times(extra))
            if coarse:
                mp.setattr(renorm, "random", SimpleNamespace(Random=CoarseRandom))
            got = verify_outcome(induction_verify, p, samples, seed)
            assert got == verify_outcome(old_induction_verify, p, samples, seed)

    @pytest.mark.parametrize("theta, eps", [
        (0.4142135623730951, 1), (0.4142135623730951, -1), (0.375, 1),
        (SQRT2M1, 1), (Fraction(3, 8), -1),
    ])
    def test_one_path_for_exact_and_float(self, monkeypatch, theta, eps):
        # float and exact draws alike run the frame loop and no Point walk
        assert not {"walk", "step", "similitude_inverse"} & vars(renorm).keys()
        p = Param(theta, eps)
        want = old_induction_verify(p, 300, 5)

        def refuse(*args):
            raise AssertionError("induction_verify took a Point walk")

        monkeypatch.setattr(pet, "walk", refuse)
        monkeypatch.setattr(pet, "step", refuse)
        assert induction_verify(p, 300, 5) == want

    @settings(max_examples=150, deadline=None)
    @given(st.floats(1e-4, 1 - 1e-4), st.sampled_from([-1, 1]), st.integers(0, 2**32))
    @example(2e-5, -1, 0)  # max_error 2.3e-7 in 2 samples, 0.14 of the bound
    @example(0.5096815754577556, 1, 0)  # the nearest to the bound measured, 0.24 of it
    def test_float_error_within_the_rounding_bound(self, theta, eps, seed):
        # induction_verify's bound (k + 6) 2**-52 / f(theta); a draw above it
        # means its derivation is wrong, not that the draw is
        p = Param(theta, eps)
        k = max(Level(p).times)
        rep = induction_verify(p, max(1, min(2000, 300_000 // k)), seed)
        assert rep.max_error <= (k + 6) * 2**-52 / p.f(theta)

    @pytest.mark.parametrize("theta, eps", [
        (SQRT2M1, 1), (SQRT2M1, -1), (Fraction(2, 7), 1), (Fraction(3, 8), -1),
    ])
    def test_a_failed_conjugacy_is_seen(self, monkeypatch, theta, eps):
        # return times one step too long break the conjugacy on every sample
        monkeypatch.setattr(renorm, "Level", later_times(1))
        p = Param(theta, eps)
        rep = induction_verify(p, samples=50, seed=4)
        assert rep.max_error > 0 and rep == old_induction_verify(p, 50, 4)

    @pytest.mark.parametrize("theta, eps", [
        (SQRT2M1, 1), (SQRT2M1, -1), (Fraction(3, 8), -1), (0.4142135623730951, 1),
    ])
    def test_a_draw_outside_the_domain_raises(self, monkeypatch, theta, eps):
        # no draw of a valid parameter leaves the closed domain, so both
        # bodies' first draw is stubbed to (1/2, 100), whose pull-back lies
        # outside the domain of p at either eps. A body that took it for a
        # resample would go on to real draws and return a report
        def first(outside, real):
            calls = []

            def draw(*args):
                calls.append(args)
                return outside if len(calls) == 1 else real(*args)

            return draw

        exact = is_exact(theta)
        monkeypatch.setattr(renorm, "_draw", first(
            (1 << 23, 100 << 24) if exact else (0.5, 100.0), renorm._draw
        ))
        monkeypatch.setitem(globals(), "old_random_domain_point", first(
            Point(Fraction(1, 2), 100) if exact else Point(0.5, 100.0),
            old_random_domain_point,
        ))
        p = Param(theta, eps)
        with pytest.raises(OutOfDomain, match="outside the domain") as got:
            induction_verify(p, 5, 0)
        with pytest.raises(OutOfDomain) as want:
            old_induction_verify(p, 5, 0)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("theta, eps", [
        (SQRT2M1, 1), (Fraction(3, 8), -1), (parse_number("(sqrt(7)-1)/3"), 1),
    ])
    def test_exact_samples_build_no_numbers(self, monkeypatch, theta, eps):
        # the integer frame canonicalises and builds Fractions once per call;
        # its denominator R of theta(p) and theta(S(p)) is 2, 24 and 3 here
        calls = {"canon": 0, "fraction": 0}
        canon, new = exactnum._canon, Fraction.__new__

        def counted_canon(*args):
            calls["canon"] += 1
            return canon(*args)

        def counted_new(cls, *args, **kwargs):
            calls["fraction"] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(exactnum, "_canon", counted_canon)
        monkeypatch.setattr(pet, "_canon", counted_canon)
        monkeypatch.setattr(renorm, "_canon", counted_canon)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        SQRT2M1 - Fraction(1, 3)
        assert calls == {"canon": 1, "fraction": 1}  # the wrappers count

        def count(samples):
            calls.update(canon=0, fraction=0)
            assert induction_verify(Param(theta, eps), samples, seed=9).max_error == 0
            return dict(calls)

        assert count(200) == count(2000)


def old_random_domain_point(q: Param, rng: random.Random, exact: bool) -> Point:
    """The sample draw as it was, a Fraction per draw."""
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


class ScriptedRandom(random.Random):
    """A seeded Random whose first randrange calls return set values."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def randrange(self, *args):
        return self.script.pop(0) if self.script else super().randrange(*args)


class TestRandomDomainPoint:
    @pytest.mark.parametrize("theta", [SQRT2M1, Fraction(2, 7), 0, 0.4142135623730951])
    @pytest.mark.parametrize("exact", [True, False])
    def test_same_draws_and_points_as_the_old_body(self, theta, exact):
        q = Param(theta, 1)
        for seed in range(300):
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(10):
                got = random_domain_point(q, new, exact)
                assert repr(got) == repr(old_random_domain_point(q, old, exact))
            assert new.getstate() == old.getstate()

    def test_x_equal_to_one_is_redrawn(self):
        # 2**24 / 2**24 = 1 is rejected by both, and the next draw taken
        q, den = Param(SQRT2M1, -1), 1 << 24
        got = random_domain_point(q, ScriptedRandom(5, [den, 7]), True)
        want = old_random_domain_point(q, ScriptedRandom(5, [den, 7]), True)
        assert repr(got) == repr(want)
        assert got.x != 1 and got.y != Fraction(7, den)


class TestSubstitutionMatrix:
    @given(params)
    def test_abelianization_is_incidence(self, p):
        assume(p.f(p.theta) != 0)
        assert abelianization(Level(p).sigma) == (
            incidence_matrix(p).m11,
            incidence_matrix(p).m12,
            incidence_matrix(p).m21,
            incidence_matrix(p).m22,
        )

    @given(params)
    def test_determinant_is_eps(self, p):
        assume(p.f(p.theta) != 0)
        M = incidence_matrix(p)
        assert M.m11 * M.m22 - M.m12 * M.m21 == p.eps

    @given(params)
    def test_entries_nonnegative(self, p):
        assume(p.f(p.theta) != 0)
        M = incidence_matrix(p)
        assert min(M.m11, M.m12, M.m21, M.m22) >= 0

    def test_period_sequence_silver_mean(self):
        assert period_sequence(Param(SQRT2M1, -1), 3) == [1, 5, 21]

    @given(params, st.integers(2, 6))
    def test_period_sequence_monotone(self, p, k):
        try:
            ps = period_sequence(p, k)
        except (Terminal, Degenerate):
            assume(False)
        assert ps == sorted(ps)


    @pytest.mark.parametrize("theta, eps", [
        ("1/3", -1), ("2/5", 1), ("5/13", -1), ("0", 1),
        *((theta, eps) for theta in ("3/8", "2/5", "5/13") for eps in (-1, 1)),
    ])
    def test_period_sequence_matches_island_periods(self, theta, eps):
        # run down to theta = 0, where the shortest orbit is the unit square
        # alone at either eps
        p = Param(parse_number(theta), eps)
        k = 1
        while True:
            try:
                period_sequence(p, k + 1)
            except Terminal:
                break
            k += 1
        ps = period_sequence(p, k)
        cells = islands(p, max_period=ps[-1])
        assert ps == sorted({c.orbit_period for c in cells})


class TestCodingCommutation:
    @pytest.mark.parametrize(
        "theta,eps",
        [(SQRT2M1, -1), (SQRT3M1, 1), (Fraction(2, 7), 1), (Fraction(5, 13), -1)],
    )
    def test_substitution_commutes_with_coding(self, theta, eps):
        p = Param(theta, eps)
        level = Level(p)
        q, sigma = level.next, level.sigma
        rng = random.Random(7)
        done = 0
        while done < 3:
            z1 = Point(
                Fraction(rng.randrange(1, 2**20), 2**20) * (1 + q.theta),
                Fraction(rng.randrange(1, 2**20), 2**20),
            )
            if z1.x == 1:
                continue
            z = pull_back(p, z1)
            try:
                w_up = code_orbit(p, z, 400)
                w_dn = code_orbit(q, z1, 200)
            except OnDiscontinuity:
                continue
            img = apply(sigma, w_dn)
            n = min(len(img), 300)
            assert img[:n] == w_up[:n]
            done += 1


COVER_PARAMS = [
    *((f"-{n}+sqrt({n * n + 1})", -1) for n in (1, 2, 3)),
    *((f"-{n}+sqrt({n * (n + 2)})", 1) for n in (1, 2, 3)),
    ("(-13+4*sqrt(13))/4", -1),
    ("(sqrt(7)-1)/3", 1),
]


def _depth_within(p, pieces):
    """The deepest cover of p with at most `pieces` pieces, short of the
    depth where p renormalizes to 0."""
    l = 1
    while descend(p, l)[1].theta != 0 and piece_count(*descend(p, l + 1)) <= pieces:
        l += 1
    return l


# The parameter map as it was written before `Level`, one helper per
# quantity, each working out f(theta) and 1/f again.
def n_omega(p):
    f = p.f(p.theta)
    if f == 0:
        raise Degenerate("f(theta) = 0")
    return math.floor(1 / f)


def ratio(p):
    f = p.f(p.theta)
    if f == 0:
        raise Degenerate("f(theta) = 0")
    return 1 / f


def substitution(p):
    return (UNIT if p.eps == -1 else RIGHT).sigma(n_omega(p))


def param_chain(p, l):
    params = [p]
    for _ in range(l):
        q = params[-1]
        if q.theta == 0:
            raise Terminal("renormalization undefined at theta = 0")
        n = n_omega(q)
        params.append(Param(1 / q.f(q.theta) - n, -1 if n % 2 == 0 else 1))
    return params


# The cover recursion as it was written piece by piece, a CoverPiece and a
# division per piece and level: the oracle of `cover`'s pieces and order.
def _oracle_cover_level(q, pieces):
    images = dict(zip("ab", substitution(q)))
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
            out.append((CoverPiece(Rect(*r), piece.shape, contraction), side))
    return out


def _oracle_cover(p, l):
    params = param_chain(p, l)
    th = params[-1].theta
    pieces = [
        (CoverPiece(Rect(*seed_values(th, r)), "C" if letter == "a" else "R", 1), letter)
        for r, letter in cover_seed(th)
    ]
    for q in reversed(params[:-1]):
        pieces = _oracle_cover_level(q, pieces)
    return [piece for piece, _ in pieces]


def _assert_same_cover(got, want):
    def fields(c):
        r = c.rect
        return [(type(v), v) for v in (r.x, r.y, r.w, r.h, c.ratio)], c.shape

    assert [fields(c) for c in got] == [fields(c) for c in want]


def test_psi_inverse_and_the_rectangle_step_written_once():
    # psi^-1 and the rectangle step of the map are defined once, in pairs:
    # the float fold binds those, and no src function turns values into
    # lattice pairs
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in Path(renorm.__file__).parent.glob("*.py")
    }
    defined = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert not defined & {"psi_inverse", "rect_branch"}
    bound = {
        alias.asname or alias.name
        for node in ast.walk(trees["fractal"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {"psi_inverse_ints", "rect_branch_ints"} <= bound
    # the lattice psi^-1 is defined once, and the lattice takes the one
    # rectangle step in the frame (1, 0, 0, 1) rather than a copy of it
    names = [
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    ]
    assert names.count("psi_inverse_lattice") == 1
    assert [n for n in names if "rect" in n and "branch" in n] == ["rect_branch_ints"]
    lift = next(
        node for node in trees["renorm"].body
        if isinstance(node, ast.FunctionDef) and node.name == "lift_blocks"
    )
    named = {node.id for node in ast.walk(lift) if isinstance(node, ast.Name)}
    assert {"psi_inverse_lattice", "rect_branch_ints"} <= named
    # both seeds are rows of integer literals, and lift_blocks lifts theta
    # alone, to convert the pairs it made
    for name in ("cover_seed", "island_seed"):
        seed = next(
            node for node in trees["renorm"].body
            if isinstance(node, ast.FunctionDef) and node.name == name
        )
        rows = [node for node in ast.walk(seed) if isinstance(node, ast.Tuple)
                and len(node.elts) == 8]
        assert rows and all(
            type(v) is int for row in rows for v in ast.literal_eval(row)
        )
    lifted = [
        ast.unparse(node) for node in ast.walk(lift)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_lift"
    ]
    assert lifted == ["_lift((theta,))"]


@st.composite
def lattice_levels(draw):
    """(n, eps, theta, theta') with theta in the interval of branch n of
    eps's family and theta' = theta(S(theta, eps)): 0, a rational or a surd."""
    n, eps = draw(st.integers(1, 10**6)), draw(st.sampled_from([-1, 1]))
    u = draw(st.one_of(
        st.fractions(0, 1, max_denominator=10**6),
        st.builds(make_surd, st.integers(-10**6, 10**6),
                  st.integers(-99, 99).filter(bool), st.integers(1, 10**6),
                  st.sampled_from([2, 3, 5, 13, 9973])),
    ))
    u -= math.floor(u)
    theta = 1 / (n + u) if eps == -1 else 1 - 1 / (n + u)
    assume(0 < theta < 1)  # u = 0 at n = 1 gives theta = 1 or 0
    return n, eps, theta, u


@settings(max_examples=200, deadline=None)
@given(lattice_levels(), st.lists(st.integers(-10**9, 10**9), min_size=8, max_size=8))
@example((2, 1, Fraction(5, 8), Fraction(2, 3)), [3, -1, 0, 2, 7, 5, -4, 1])
def test_lattice_psi_inverse_is_psi_inverse_ints(case, ij):
    # each pair (i, j) of the lattice psi^-1, evaluated as i + j*theta, is
    # the value psi_inverse_ints gives for the values i + j*theta' in the
    # integer frame of theta
    n, eps, theta, u = case
    level = Level(Param(theta, eps))
    assert (level.n, level.next.theta) == (n, u)
    values = [i + j * u for i, j in zip(ij[::2], ij[1::2])]
    R, d, ((ta, tb), *pairs), exact = _lift((theta, *values))
    want = psi_inverse_ints((R, d, ta, tb), eps, R, *sum(pairs, ()))
    got = psi_inverse_lattice(n, eps, *ij)
    assert exact and [i + j * theta for i, j in zip(got[::2], got[1::2])] == [
        exactnum._canon(a, b, R * R, d) if d else Fraction(a, R * R)
        for a, b in zip(want[::2], want[1::2])
    ]


class TestCover:
    def test_depth_zero(self):
        p = Param(SQRT2M1, -1)
        pieces = cover(p, 0)
        assert len(pieces) == 2
        assert pieces[0].shape == "C" and pieces[1].shape == "R"

    def test_counts_follow_matrix_product(self):
        p = Param(SQRT2M1, -1)
        M = Mat2.identity()
        for l in range(1, 5):
            M = M @ incidence_matrix(p)
            assert len(cover(p, l)) == sum(M.apply((1, 1)))

    def test_pieces_inside_domain(self):
        p = Param(SQRT2M1, -1)
        for c in cover(p, 3):
            r = c.rect
            assert 0 <= float(r.x) and float(r.x + r.w) <= float(p.width) + 1e-12
            assert 0 <= float(r.y) and float(r.y + r.h) <= 1 + 1e-12

    def test_area_complement_identity_exact(self):
        # the depth-l cover tiles the complement of all islands whose period
        # is below the next entry of the period sequence -- exactly
        p = Param(SQRT2M1, -1)
        ps = period_sequence(p, 5)
        cells = islands(p, max_period=ps[4] - 1)
        for l in range(1, 4):
            cover_area = sum(c.rect.w * c.rect.h for c in cover(p, l))
            isl_area = sum(
                c.rect.area() for c in cells if c.orbit_period < ps[l]
            )
            assert cover_area + isl_area == 1 + p.theta

    def test_area_complement_identity_deep(self):
        p = Param(SQRT2M1, -1)
        ps = period_sequence(p, 7)
        cells = islands(p, max_period=ps[6] - 1)
        for l in (5, 6):
            cover_area = sum(c.rect.w * c.rect.h for c in cover(p, l))
            isl_area = sum(
                c.rect.area() for c in cells if c.orbit_period < ps[l]
            )
            assert float(cover_area + isl_area - (1 + p.theta)) == 0.0

    @pytest.mark.parametrize("theta, eps", COVER_PARAMS)
    def test_carried_letter_is_geometric_side(self, theta, eps):
        # the letters come from the substitutions alone; the exact geometry
        # must agree at every level: 'a' pieces lie in the square, 'b'
        # pieces in the rectangle
        p = Param(parse_number(theta), eps)
        l = _depth_within(p, 500)
        levels, last = descend(p, l)
        seed = [(r, "CR"[letter == "b"], letter) for r, letter in cover_seed(last.theta)]
        checked = 0
        for k in reversed(range(l)):  # the cover at depth k of the levels' chain
            blocks = lift_blocks(levels[k].q.theta, levels[k:], {l - k: seed})
            for (x, _, w, _), _, letter in blocks:
                assert (x + w <= 1) if letter == "a" else (x >= 1)
            checked += len(blocks)
        assert l >= 2 and checked == sum(
            piece_count(levels[i:], last) for i in range(l)
        )

    @pytest.mark.parametrize("theta, eps", [*COVER_PARAMS, ("3/8", -1)])
    def test_matches_piecewise_recursion(self, theta, eps):
        # every piece, in orbit order, with the scalar type of each
        # coordinate and of the contraction; 3/8 renormalizes to 0 at
        # depth 3
        p = Param(parse_number(theta), eps)
        for l in range(_depth_within(p, 500) + 1):
            _assert_same_cover(cover(p, l), _oracle_cover(p, l))

    @settings(max_examples=80, deadline=None)
    @given(exact_params(), st.integers(0, 30))
    @example(Param(Fraction(0), 1), 0)
    @example(Param(Fraction(3, 8), -1), 3)  # the depth where the chain reaches 0
    def test_matches_piecewise_recursion_at_random_parameters(self, p, l):
        # depth l or less: at most 2,000 pieces, down to a chain's end at
        # theta = 0
        depth = 0
        while depth < l and descend(p, depth)[1].theta != 0 and (
            piece_count(*descend(p, depth + 1)) <= 2_000
        ):
            depth += 1
        _assert_same_cover(cover(p, depth), _oracle_cover(p, depth))

    @pytest.mark.parametrize("theta, eps, l, max_period", [
        ("-1+sqrt(2)", -1, 6, 500), ("(-1+sqrt(5))/2", 1, 7, 200),
        ("(sqrt(7)-1)/3", 1, 5, 200), ("(-13+4*sqrt(13))/4", -1, 4, 500),
    ])
    def test_one_path_for_covers_and_islands(self, monkeypatch, theta, eps, l, max_period):
        # the oracles' results first; then Surd arithmetic raises while
        # lift_blocks runs, which does all the per-piece and per-cell work,
        # and its conversions back are counted: at most one per distinct
        # coordinate
        p = Param(parse_number(theta), eps)
        want = _oracle_cover(p, l), oracle_islands(p, max_period)
        lifting, calls = [], []
        lift, canon = renorm.lift_blocks, renorm._canon

        def lift_counted(*args):
            lifting.append(True)
            try:
                return lift(*args)
            finally:
                lifting.pop()

        def canon_counted(*args):
            calls.append(args)
            return canon(*args)

        monkeypatch.setattr(renorm, "lift_blocks", lift_counted)
        monkeypatch.setattr(renorm, "_canon", canon_counted)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
            def refuse(*args, op=getattr(Surd, name), name=name):
                if lifting:
                    raise AssertionError(f"Surd.{name} in the pair lift")
                return op(*args)

            monkeypatch.setattr(Surd, name, refuse)
        for f, arg, oracle, same in zip(
            (cover, islands), (l, max_period), want, (_assert_same_cover, assert_same_cells)
        ):
            got = f(p, arg)
            same(got, oracle)
            rects = [c.rect for c in got]
            distinct = {(type(v), v) for r in rects for v in tuple(r)}
            assert 0 < len(calls) <= len(distinct) < 4 * len(rects)
            calls.clear()

    def test_terminal_seed_drops_rectangle(self):
        # 3/8 -> 2/3 -> 1/2 -> 0: the depth-3 cover grows from the square
        # alone, and the area identity still holds exactly at every depth
        p = Param(Fraction(3, 8), -1)
        levels, last = descend(p, 3)
        assert [level.q.theta for level in levels] + [last.theta] == [
            Fraction(3, 8), Fraction(2, 3), Fraction(1, 2), 0
        ]
        assert cover_seed(0) == [((0, 0, 0, 0, 1, 0, 1, 0), "a")]
        ps = period_sequence(p, 4)
        cells = islands(p, max_period=ps[3] - 1)
        for l, n in enumerate((2, 8, 21, 37)):
            pieces = cover(p, l)
            assert len(pieces) == piece_count(*descend(p, l)) == n
            cover_area = sum(c.rect.w * c.rect.h for c in pieces)
            isl_area = sum(
                c.rect.area() for c in cells if c.orbit_period < ps[l]
            )
            assert cover_area + isl_area == 1 + p.theta

    def test_exact_cover_above_budget_fails_fast(self):
        # depth 12 of the silver mean has 63,245,986 pieces, about 40 GB as
        # exact CoverPieces: refused from the piece count alone
        p = Param(SQRT2M1, -1)
        assert piece_count(*descend(p, 12)) > EXACT_PIECE_BUDGET
        start = time.perf_counter()
        with pytest.raises(NotTerminated):
            cover(p, 12)
        assert time.perf_counter() - start < 2.0

    @settings(max_examples=150, deadline=None)
    @given(exact_params(), st.integers(0, 40))
    @example(Param(Fraction(3, 8), -1), 3)  # unit 2, unit 1, right 2, theta = 0
    @example(Param(Fraction(1, 100), 1), 40)  # right branch 1: 2 pieces a level
    @example(Param(Fraction(1, 7), 1), 40)  # right 1 five times, right 2, theta = 0
    def test_descent_counts_its_cover_as_it_walks(self, p, l):
        # each check of within_budget against the oracle: the pieces of the
        # cover down to that level, the work of the fold, the pieces of all
        # its stages, and the fold's steps. The descent stops where the chain
        # reaches 0
        levels, last, counts = [], p, []
        while len(levels) < l and last.theta != 0:
            levels.append(Level(last))
            last = levels[-1].next
        depth = len(levels)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(renorm, "check_budget", lambda count, *_: counts.append(count))
            assert descend(p, depth, 1) == (levels, last)
        pieces, work, steps = counts[::3], counts[1::3], counts[2::3]
        assert pieces == [piece_count(levels[:k], levels[k - 1].next)
                          for k in range(1, depth + 1)]
        assert work == [sum(piece_count(levels[i:k], levels[k - 1].next) for i in range(k))
                        for k in range(1, depth + 1)]
        # the fold's steps, one a letter of each level's substitution images
        assert steps == [sum(len(a + b) for a, b in (lv.sigma for lv in levels[:k]))
                         for k in range(1, depth + 1)]
        assert pieces == sorted(pieces) and work == sorted(work)
        # at the least budget that admits both counts the cover is made, one
        # below it refused: at the deepest level, 1 or more, whose cover has
        # at most 2,000 pieces, as no count falls along the chain
        depth = sum(count <= 2_000 for count in pieces)
        if not depth:
            return  # no level, or 2,000 pieces passed at the first
        least = max(pieces[depth - 1], -(-work[depth - 1] // 2))
        for module, name, make, size in (
            (renorm, "EXACT_PIECE_BUDGET", cover, len),
            (fractal, "PIECE_BUDGET", cover_arrays, lambda arrays: arrays[0].size),
        ):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, name, least)
                assert size(make(p, depth)) == pieces[depth - 1]
                mp.setattr(module, name, least - 1)
                with pytest.raises(NotTerminated):
                    make(p, depth)

    @pytest.mark.parametrize("l", [0, 3])
    def test_float_parameter_rejected(self, l):
        # exact covers need an exact theta; float covers are fractal.cover_arrays
        with pytest.raises(ValueError, match="exact parameter"):
            cover(Param(0.4142135623730951, -1), l)

    def test_ratio_matches_depth(self):
        p = Param(SQRT2M1, -1)
        r = Level(p).ratio
        for c in cover(p, 2):
            assert c.ratio * r * r == 1


class TestChain:
    """Each level of the chain is worked out once per public call: one
    `Level` per parameter walked, and one in all at a fixed point."""

    @pytest.fixture
    def built(self, monkeypatch):
        made = []
        post_init = Level.__post_init__

        def counting(level):
            made.append(level.q)
            post_init(level)

        monkeypatch.setattr(Level, "__post_init__", counting)
        return made

    def test_cover(self, built):
        cover(Param(SQRT2M1, -1), 8)
        assert len(built) == 8

    def test_cover_arrays(self, built):
        cover_arrays(Param(SQRT2M1, -1), 9)
        assert len(built) == 9

    def test_box_count_deep_reuses_one_level(self, built, monkeypatch):
        # 1000 pieces a chunk: 33 chunks, none of which works out a level
        monkeypatch.setattr(fractal, "DEEP_PIECES", 1000)
        p = Param(SQRT2M1, -1)
        box_count_deep(p, 8, 1e-3, base_l=4)
        assert built == [p]

    @pytest.mark.parametrize("theta, eps, max_period", [
        ("1/100", 1, 40), ("-1+sqrt(2)", -1, 500), ("5/13", -1, 100),
    ])
    def test_islands(self, built, theta, eps, max_period):
        # the search walks down to the first level whose product bounds every
        # deeper period above max_period, or to theta = 0
        p = Param(parse_number(theta), eps)
        walked, M = param_chain(p, 0), Mat2.identity()
        while walked[-1].theta != 0:
            q = walked[-1]
            M = M @ Mat2(*(UNIT if q.eps == -1 else RIGHT).M(n_omega(q)))
            if M.m11 + M.m21 > max_period:
                break
            walked = param_chain(p, len(walked))
        islands(p, max_period)
        assert built == [q for q in walked if q.theta != 0]

    def test_period_sequence(self, built):
        period_sequence(Param(Fraction(5, 13), -1), 4)
        assert built == param_chain(Param(Fraction(5, 13), -1), 2)

    def test_induction_verify(self, built):
        induction_verify(Param(SQRT2M1, -1), samples=20)
        assert len(built) == 1

    def test_negative_depth_is_refused(self, built):
        # a depth below 0 covers nothing: refused before any level is made
        p = Param(SQRT2M1, -1)
        for call in (lambda: cover(p, -1), lambda: cover_arrays(p, -2),
                     lambda: descend(p, -1, EXACT_PIECE_BUDGET)):
            with pytest.raises(ValueError, match="depth must be at least 0"):
                call()
        assert period_sequence(p, -1) == [] and built == []

    @pytest.mark.parametrize("call", [
        lambda: cover(Param(Fraction(3, 8), -1), 5),
        lambda: cover_arrays(Param(Fraction(3, 8), -1), 4),
        lambda: induction_verify(Param(0, -1), samples=1),
        lambda: induction_verify(Param(0, 1), samples=1),
    ])
    def test_terminal_where_the_chain_reaches_zero(self, call):
        # 3/8 -> 2/3 -> 1/2 -> 0: no level below depth 3
        with pytest.raises(Terminal):
            call()
