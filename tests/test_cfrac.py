import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sqrect.errors import Terminal
from sqrect.exactnum import make_surd
from sqrect import cfrac
from sqrect.cfrac import (
    NATEXT_BATCH,
    NATEXT_CHUNK,
    NATEXT_MIN_BRANCHES,
    _branches_needed,
    _preimage_hits,
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
    natext_steps,
    natural_extension_check,
    param_to_x,
    q_map,
    s_interval,
    transfer_residual,
    x_to_param,
)
from sqrect.lyap import _sample_x
from sqrect.pet import Param
from sqrect.renorm import (
    FAMILIES, MIDDLE, RIGHT, Mat2, incidence_matrix, substitution,
)
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
        # _mobius_y(Mat2(i11, i12, i21, i22), y1), written out
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


class TestNatextKernel:
    def test_steps_match_scalar(self):
        rng = random.Random(5)
        points = [cfrac._sample_theta_domain(rng) for _ in range(10_000)]
        points += [
            (0.0, 0.5), (1.0, 0.5), (2.0, 0.5), (-0.5, 0.5),  # off the domain
            (0.75, 0.0),  # unit branch 1 sends (-1 : 0) to p = 0
            (2.0**-53, 0.3), (1e-300, 0.5),  # unit branches n >= 2**53
            (1 + 2.0**-52, 0.3),  # middle branch 2**52: (1 - n) x + n rounds to 0
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
        assert skipped == 6

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


class TestFoldedMap:
    @given(exact_xs)
    def test_q_map_in_unit_interval(self, x):
        assume(x != 0)
        y = q_map(min(x, 2 - x) if x != 1 else x)
        assert 0 <= y <= 1
