import functools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import spence

from sqrect.errors import NotTerminated
from sqrect.exactnum import make_surd
from sqrect.pet import Param
from sqrect.renorm import FAMILIES, MIDDLE, RIGHT, UNIT, Mat2, slow_image
from sqrect import cfrac, lyap
from sqrect.cfrac import accel, accel_lanes, density
from sqrect.fractal import dimension_estimate, selfsimilar_parameter
from sqrect.words import tower_stats
from sqrect.lyap import (
    ACCEL_STEP_BUDGET,
    MASTER_SEED,
    EXPANSION_TERMS,
    LANE_BUDGET,
    LANE_STEP_BUDGET,
    STEP_BUDGET,
    TERM_BUDGET,
    WALK_BLOCK,
    _lane_blocks,
    _middle_lnr_branches,
    _sample_x,
    _sanitize,
    birkhoff_estimate,
    cocycle_product,
    integral_ln_M,
    integral_ln_r,
    lower_bound_f,
)
import oracle_maps
from oracle_maps import lane_states, vector_step

SQRT2M1 = make_surd(-1, 1, 1, 2)

params = st.builds(
    Param,
    st.fractions(
        min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40
    ),
    st.sampled_from([-1, 1]),
)


def slow_norm_integral(delta: float) -> float:
    """Integral of ln of the l1 matrix norm of the slow-step matrix against
    the slow invariant density over (1+delta, 3/2).

    The slow matrix there is constant with column sums 1 and 3, and the
    density is 1/(x-1), so the value is ln 3 * ln(1/(2 delta)): it diverges
    as delta -> 0, which is why the acceleration is needed."""
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    return math.log(3) * math.log(1 / (2 * delta))


def divergence_profile(k_max: int = 30) -> list[float]:
    """Truncated integrals at delta = 2^-k, k = 1..k_max: strictly
    increasing and unbounded."""
    return [slow_norm_integral(2.0**-k) for k in range(1, k_max + 1)]


def rho(x: float) -> float:
    return density("bold_nu", x)


class TestCocycleProduct:
    @given(params, st.integers(0, 12))
    @settings(max_examples=40)
    def test_determinant_and_positivity(self, p, l):
        from sqrect.errors import Terminal

        try:
            M, _ = cocycle_product(p, l)
        except Terminal:
            return  # rational parameters may run out of digits
        assert abs(M.m11 * M.m22 - M.m12 * M.m21) == 1
        assert min(M.m11, M.m12, M.m21, M.m22) >= 0

    def test_log_norm_matches_exact(self):
        p = Param(SQRT2M1, -1)
        for l in (0, 3, 10, 30):
            M, log_norm = cocycle_product(p, l)
            exact = math.log(sum(M.apply((1, 1))))
            assert log_norm == pytest.approx(exact, rel=1e-12)

    def test_no_overflow_at_great_depth(self):
        _, log_norm = cocycle_product(Param(SQRT2M1, -1), 100_000)
        assert math.isfinite(log_norm) and log_norm > 100_000

    @pytest.mark.parametrize("walk", [
        lambda steps: cocycle_product(Param(SQRT2M1, -1), steps - 1),
        lambda steps: dimension_estimate(Param(SQRT2M1, -1), steps),
        lambda steps: tower_stats(Param(SQRT2M1, -1), steps - 1),
    ], ids=["cocycle_product", "dimension_estimate", "tower_stats"])
    def test_walk_above_step_budget_fails_fast(self, walk, monkeypatch):
        # refused before the first step; the depth above takes 100,001
        assert ACCEL_STEP_BUDGET >= 100_001
        # a surd walk steps in `_surd_walk`, any other in `accel`
        steps = []
        monkeypatch.setattr(cfrac, "accel", steps.append)
        monkeypatch.setattr(cfrac, "_surd_walk", steps.append)
        with pytest.raises(NotTerminated):
            walk(ACCEL_STEP_BUDGET + 1)
        assert steps == []

    @pytest.mark.parametrize(
        "theta,eps",
        [
            (SQRT2M1, -1),
            (make_surd(-1, 1, 1, 3), 1),
            (make_surd(-2, 1, 1, 5), -1),
            (make_surd(-1, 1, 2, 3), 1),
            (make_surd(-3, 1, 1, 10), -1),
        ],
    )
    @pytest.mark.parametrize("l", [5, 20, 50])
    def test_sandwich_inequalities(self, theta, eps, l):
        p = Param(theta, eps)
        M, _ = cocycle_product(p, l)
        M2, _ = cocycle_product(p, l - 2)
        n_all = sum(M.apply((1, 1)))
        n_a = sum(M.apply((1, 0)))
        n_b = sum(M.apply((0, 1)))
        n_prev = sum(M2.apply((1, 1)))
        assert n_prev <= n_a <= n_all
        assert n_b <= n_all


class TestVectorStep:
    def test_lanes_match_scalar_accel(self):
        # bit for bit, on random lanes, on every branch end up to n = 1000
        # and its neighbours, and on middle branches up to n = 2**52
        ends = [e for fam in FAMILIES for n in range(fam.first, 1001) for e in fam.ends(n)]
        ends += [1 + 2.0**-k for k in range(1, 53)]
        x = np.concatenate([
            np.random.default_rng(3).uniform(1e-3, 2 - 1e-3, 4000),
            [math.nextafter(e, to) for e in ends for to in (0, e, 2)],
        ])
        x = x[x != 1]  # where accel is Terminal
        f, n, y, den = accel_lanes(x)
        rows = []
        for u1, u2 in ((1.0, 0.0), (0.0, 1.0)):
            log_norm, lnR = np.zeros_like(x), np.zeros_like(x)
            _, v1, v2 = vector_step(
                x, np.full_like(x, u1), np.full_like(x, u2), log_norm, lnR
            )
            rows.append((v1, v2, log_norm))
            # lnR accumulates ln r_bold = -ln den
            assert lnR.tolist() == (-np.log(den)).tolist()
        for i, xi in enumerate(x.tolist()):
            st_ = accel(xi)
            assert (FAMILIES[f[i]], n[i], y[i], 1 / den[i]) == (
                st_.family, st_.n, st_.y, st_.r_bold
            )
            F = st_.M_bold
            matrix_rows = ((F.m11, F.m12), (F.m21, F.m22))
            for (v1, v2, log_norm), (a, b) in zip(rows, matrix_rows):
                assert (v1[i], v2[i]) == (a / (a + b), b / (a + b))
                assert log_norm[i] == np.log(float(a + b))


def _reference_sanitize(x):
    """`lyap._sanitize` as it was written with np.clip."""
    np.clip(x, 1e-12, 2 - 1e-12, out=x)
    x[np.abs(x - 1.0) < 1e-12] = 1.0 + 1e-12
    x[np.abs(x - 1.5) < 1e-15] = 1.5 + 1e-14
    return x


def _reference_step(x, u1, u2, log_norm, lnR):
    """The masked step that the one-pass kernel replaced: a
    boolean-mask gather of each family's lanes, its own formulas on them,
    and a masked scatter of the results."""
    left = x < 1.0
    right = x >= RIGHT.ends(RIGHT.first)[0]
    midd = ~(left | right)
    m11, m12, m21, m22, lnr, x1 = (np.empty_like(x) for _ in range(6))
    for fam, mask in ((UNIT, left), (MIDDLE, midd), (RIGHT, right)):
        gap = fam.gap(x[mask])
        inv = 1.0 / gap
        n = np.floor(inv)
        m11[mask], m12[mask], m21[mask], m22[mask] = fam.M(n)
        if fam is MIDDLE:
            den = np.maximum(1.0 - (n - 1) * gap, 1e-300)
            x1[mask] = (1.0 - (n - 2) * gap) / den
        else:
            den = gap
            x1[mask] = slow_image(inv, n)
        lnr[mask] = -np.log(den)
    v1 = u1 * m11 + u2 * m21
    v2 = u1 * m12 + u2 * m22
    s = v1 + v2
    log_norm += np.log(s)
    lnR += lnr
    return _reference_sanitize(x1), v1 / s, v2 / s


# lanes on and next to the branch ends, where a family or a digit could
# flip: the first step takes them as they are, later ones sanitized
EDGE_LANES = [
    e for n in (2, 3, 7, 1000, 10**6) for e in (1 / n, 1 + 1 / n, 2 - 1 / n)
] + [
    1.5, math.nextafter(1.5, 0), math.nextafter(1.5, 2),
    1 - 1e-12, 1 + 1e-12, 1e-12, 2 - 1e-12,
]


def _moves(x, l: int) -> np.ndarray:
    """Where `_sanitize` moves the image of each lane at each of l steps of the
    step-by-step walk from x: a (l, lanes) bool array."""
    moved = np.empty((l, x.size), bool)
    for step in range(l):
        with np.errstate(all="ignore"):  # x as given may sit on a branch end
            image = oracle_maps.accel_lanes(x)[2]
        x = _sanitize(image.copy())
        moved[step] = (x != image) & ~np.isnan(image)
    return moved


# lanes p/q, which reach a branch end after a few steps, unless rounding
# takes them past it
_RATIONALS = np.array([p / q for q in range(2, 200) for p in range(1, 2 * q)
                       if math.gcd(p, q) == 1])


@functools.cache
def _lane_first_moved_at(step: int) -> float:
    """A lane whose image `_sanitize` first moves at this step."""
    moved = _moves(_RATIONALS, step + 1)
    first = moved.any(axis=0) & ~moved[:-1].any(axis=0)
    return float(_RATIONALS[first.argmax()]) if first.any() else math.nan


def _family(x):
    """Index in FAMILIES of each lane as `_reference_step` masks it."""
    return np.where(x < 1.0, 0, np.where(x >= RIGHT.ends(RIGHT.first)[0], 2, 1))


class TestOnePassKernel:
    @pytest.mark.parametrize("seed, rows", [
        *[pytest.param(seed, None, id=str(seed)) for seed in range(10)],
        *[(seed, rows) for seed in range(10) for rows in (1, 7)],
    ])
    def test_lanes_match_masked_reference(self, seed, rows, monkeypatch):
        # the blocked walk, `rows` steps a block (None: WALK_BLOCK's), against
        # the masked step: each step's lanes x and families, and u and both
        # log sums at each block end
        x = np.concatenate([_sample_x(np.random.default_rng(seed), 200), EDGE_LANES])
        if rows:
            monkeypatch.setattr(lyap, "WALK_BLOCK", rows * x.size)
        K = lyap.WALK_BLOCK // x.size
        stepped, block = [], {}

        def recording(x, scratch):
            # a step stepped again overwrites its first try, which the walk drops
            out = accel_lanes(x, scratch)
            block[id(scratch)] = (x.copy(), out[0].copy())
            return out

        monkeypatch.setattr(lyap, "accel_lanes", recording)
        ones, zeros = np.ones(x.size), np.zeros(x.size)
        state = [x.copy(), ones, ones, zeros.copy(), zeros.copy()]
        reference = []
        for _ in range(300):
            lanes = state[0]
            state[:3] = _reference_step(*state)
            reference.append((lanes, [state[1], state[2]], [state[3].copy(), state[4].copy()]))
        ends = []
        for steps, u, sums in _lane_blocks(x.copy(), 300):
            _, want_u, want_sums = reference[steps - 1]
            assert np.array_equal(u, want_u) and np.array_equal(sums, want_sums)
            ends.append(steps)
            stepped += block.values()  # in row order, the order of first tries
            block.clear()
        assert ends == [*range(K, 300, K), 300]
        assert len(stepped) == 300
        for (lanes, f), (want, _, _) in zip(stepped, reference):
            assert np.array_equal(lanes, want) and np.array_equal(f, _family(want))

    @settings(max_examples=25, deadline=None)
    @given(
        lanes=st.integers(1, 3 * WALK_BLOCK),
        at=st.sampled_from(["0", "1", "K-1", "K", "K+1", "3K+1"]),
        edges=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lanes=1, at="K+1", edges=False, seed=0)
    @example(lanes=1, at="3K+1", edges=True, seed=1)
    @example(lanes=200, at="3K+1", edges=False, seed=904876487)
    @example(lanes=WALK_BLOCK + 1, at="K+1", edges=True, seed=2)
    def test_blocked_walk_is_the_step_by_step_oracle(self, lanes, at, edges, seed):
        # every block end and the estimate, bit for bit, as the walk stepped
        # one step at a time gives them, with the block's end on either side
        x = _sample_x(np.random.default_rng(seed), lanes)
        if edges:
            x = np.concatenate([x, EDGE_LANES])
        K = max(1, WALK_BLOCK // x.size)
        l = {"0": 0, "1": 1, "K-1": K - 1, "K": K, "K+1": K + 1, "3K+1": 3 * K + 1}[at]
        want = {steps: sums.copy() for steps, _, sums in lane_states(x.copy(), l)}
        ends = []
        for steps, _, sums in _lane_blocks(x.copy(), l):
            assert np.array_equal(sums, want[steps])
            ends.append(steps)
        assert ends == ([*range(K, l, K), l] if l else [])
        if l:
            est = birkhoff_estimate(seed, lanes, l)
            with mock.patch.object(lyap, "_lane_blocks", lane_states):
                assert repr(est) == repr(birkhoff_estimate(seed, lanes, l))

    @pytest.mark.parametrize("K", [1, 7, None])
    @pytest.mark.parametrize("where", ["row 0", "mid-block", "last row", "past the end"])
    def test_redo_from_the_first_moved_row(self, K, where, monkeypatch):
        # one lane whose image _sanitize first moves at the given row, among
        # sampled lanes it never moves, K rows a block (None: WALK_BLOCK's):
        # every block end as the step-by-step walk gives it, bit for bit
        lanes = 1000
        if K:
            monkeypatch.setattr(lyap, "WALK_BLOCK", K * lanes)
        K = lyap.WALK_BLOCK // lanes
        step = {"row 0": 0, "mid-block": K // 2, "last row": K - 1,
                "past the end": K}[where]  # past: the first row of the next block
        x = np.append(_sample_x(np.random.default_rng(step), lanes - 1),
                      _lane_first_moved_at(step))
        l = 3 * K + 1
        moved = _moves(x, l)
        assert moved.any(axis=1).argmax() == step
        want = {steps: (u.copy(), sums.copy()) for steps, u, sums in lane_states(x.copy(), l)}
        ends = []
        for steps, u, sums in _lane_blocks(x.copy(), l):
            assert np.array_equal(u, want[steps][0]) and np.array_equal(sums, want[steps][1])
            ends.append(steps)
        assert ends == [*range(K, l, K), l]

    @pytest.mark.parametrize("K", [1, 7])
    def test_only_the_steps_after_a_moved_row_run_twice(self, K, monkeypatch):
        # a block that _sanitize leaves as it is takes each step once; one it
        # moves steps every row after its first moved row twice, no other
        x = np.append(_sample_x(np.random.default_rng(K), 200), _lane_first_moved_at(3))
        monkeypatch.setattr(lyap, "WALK_BLOCK", K * x.size)
        rows, calls, row_of = [], [], {}

        def counting(x, scratch):
            # a step's scratch is its own; the first block meets them in row order
            calls.append(row_of.setdefault(id(scratch), len(row_of)))
            return accel_lanes(x, scratch)

        monkeypatch.setattr(lyap, "accel_lanes", counting)
        l = 6 * K + 1
        for steps, _, _ in _lane_blocks(_sanitize(x), l):
            rows.append(sorted(calls))
            calls.clear()
        blocks = set()
        moves = _moves(_sanitize(x), l).any(axis=1)
        for start, got in zip(range(0, l, K), rows):
            moved = moves[start : start + K]
            r = moved.argmax() if moved.any() else len(moved)
            blocks.add("none" if r == len(moved) else "last" if r == len(moved) - 1 else "redo")
            assert got == sorted([*range(len(moved)), *range(r + 1, len(moved))])
        assert {"none", "redo" if K > 1 else "last"} <= blocks

    def test_no_warning_from_a_step_that_is_stepped_again(self):
        # the first try steps from images at 0, 1, 3/2 and 2 exactly, and the
        # walk starts from those ends sanitized: no RuntimeWarning escapes
        x = np.array([0.5, 1 / 3, 2 / 3, 1.25])
        assert oracle_maps.accel_lanes(x)[2].tolist() == [0.0, 1.0, 1.5, 2.0]
        x = np.concatenate([x, _sanitize(np.array([0.0, 1.0, 1.5, 2.0]))])
        want = [sums.copy() for _, _, sums in lane_states(x.copy(), 20)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for K in (1, 7):
                with mock.patch.object(lyap, "WALK_BLOCK", K * x.size):
                    for steps, _, sums in _lane_blocks(x.copy(), 20):
                        assert np.array_equal(sums, want[steps - 1])

    def test_sanitize_matches_clip(self):
        x = np.array([
            -1.0, 0.0, 1e-13, 1e-12, 0.5, 1 - 1e-12, math.nextafter(1.0, 0), 1.0,
            math.nextafter(1.0, 2), 1 + 1e-12, 1.5 - 1e-15, 1.5, 1.5 + 1e-15,
            1.5 + 1e-14, 2 - 1e-12, 2.0, 3.0, math.inf, -math.inf, math.nan,
        ])
        want = _reference_sanitize(x.copy())
        assert np.array_equal(_sanitize(x.copy()), want, equal_nan=True)

    def test_pinned_estimates(self):
        # captured from the masked kernel: the one-pass kernel keeps every bit
        est = birkhoff_estimate(MASTER_SEED, 1000, 10_000)  # criterion 07
        assert repr(est) == (
            "CocycleEstimate(lambda_hat=3.177764760828581, lnR_hat=2.467662401158322,"
            " s_hat=1.287763171873485, l=10000, trials=1000, seed=24301,"
            " stderr_lambda=0.0005966001727006189, stderr_lnR=0.0005414130720197999,"
            " stderr_s=6.319976759344419e-05)"
        )
        est = birkhoff_estimate(904876487, 200, 2000)  # a bench float op
        assert repr(est) == (
            "CocycleEstimate(lambda_hat=3.1759154616767966, lnR_hat=2.46592407241324,"
            " s_hat=1.2879210261201328, l=2000, trials=200, seed=904876487,"
            " stderr_lambda=0.0032035887475716854, stderr_lnR=0.002892100362883748,"
            " stderr_s=0.0003235169739257244)"
        )

    def test_peak_bytes_per_lane(self):
        # LANE_BUDGET's comment rests on this peak: at most 200 bytes a lane
        lanes = 50_000
        tracemalloc.start()
        try:
            birkhoff_estimate(MASTER_SEED, lanes, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * lanes

    def test_lanes_above_budget_fail_fast(self):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(NotTerminated):
                birkhoff_estimate(trials=2**40, l=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert peak < 2**20  # nothing lane-sized was allocated
        with pytest.raises(NotTerminated):
            birkhoff_estimate(trials=LANE_BUDGET + 1, l=1)

    @pytest.mark.parametrize("trials, l", [
        (1, STEP_BUDGET + 1),
        (1, 10**12),
        (LANE_STEP_BUDGET // 1000 + 1, 1000),
        (LANE_BUDGET, LANE_STEP_BUDGET // LANE_BUDGET + 1),
    ])
    def test_steps_above_budget_fail_fast(self, trials, l):
        t0 = time.perf_counter()
        with pytest.raises(NotTerminated):
            birkhoff_estimate(trials=trials, l=l)
        assert time.perf_counter() - t0 < 1.0


class TestPinnedOutputs:
    def test_bench_reference_bits(self):
        # values of bench/reference/*.json: a refactor must keep every bit
        assert repr(lower_bound_f(10_000).value) == "2.577436104147107"
        assert repr(lower_bound_f(100_000).value) == "2.6876222049200873"
        assert repr(lower_bound_f(300_000).value) == "2.7120091480625304"
        est = birkhoff_estimate(904876487, 200, 2000)
        assert repr(est.lambda_hat) == "3.1759154616767966"
        p = selfsimilar_parameter("minus", 1)
        assert repr(cocycle_product(p, 50)[1]) == "74.26432575308104"
        assert repr(dimension_estimate(p, 50).value) == "1.6524364094947066"


class TestBirkhoffEstimate:
    def test_deterministic_given_seed(self):
        e1 = birkhoff_estimate(seed=MASTER_SEED, trials=40, l=300)
        e2 = birkhoff_estimate(seed=MASTER_SEED, trials=40, l=300)
        assert e1 == e2

    def test_small_run_in_plausible_range(self):
        est = birkhoff_estimate(seed=7, trials=60, l=800)
        assert 2.5 < est.lambda_hat < 4.0
        assert 2.2 < est.lnR_hat < 2.8
        assert 1.0 < est.s_hat < 1.6

    def test_stderr_shrinks_with_trials(self):
        few = birkhoff_estimate(seed=3, trials=30, l=400)
        many = birkhoff_estimate(seed=3, trials=240, l=400)
        assert many.stderr_lambda < few.stderr_lambda

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            birkhoff_estimate(trials=0)
        with pytest.raises(ValueError):
            birkhoff_estimate(l=0)


class TestSeriesAgainstQuadrature:
    """Each certified series is rechecked by adaptive quadrature of the
    integrand over the same branch set."""

    B = 300

    def test_integral_ln_M_oracle(self):
        series = integral_ln_M(self.B).value
        total = 0.0
        for n in range(1, self.B + 1):
            total += quad(
                lambda x: math.log(2 * math.floor(1 / x) + 1) * rho(x),
                1 / (n + 1),
                1 / n,
            )[0]
        for k in range(2, self.B + 1):
            total += quad(
                lambda x: math.log(2 * math.floor(1 / (x - 1)) - 1) * rho(x),
                1 + 1 / (k + 1),
                1 + 1 / k,
            )[0]
            total += quad(
                lambda x: math.log(2 * math.floor(1 / (2 - x)) + 1) * rho(x),
                2 - 1 / k,
                2 - 1 / (k + 1),
            )[0]
        assert series == pytest.approx(total, abs=1e-6)

    def test_integral_ln_r_oracle(self):
        series = integral_ln_r(self.B).value
        total = quad(lambda x: -math.log(x) * rho(x), 0, 1, points=[0])[0]
        total += quad(lambda x: -math.log(2 - x) * rho(x), 1.5, 2, points=[2])[0]
        for k in range(2, self.B + 1):
            total += quad(
                lambda x: -math.log(k - (k - 1) * x) * rho(x),
                1 + 1 / (k + 1),
                1 + 1 / k,
            )[0]
        assert series == pytest.approx(total, abs=1e-6)

    def test_lower_bound_f_oracle(self):
        N = 30
        series = lower_bound_f(N * N).value

        def f_ln(M: Mat2) -> float:
            return math.log(
                math.sqrt(M.m11 * M.m22) + math.sqrt(M.m12 * M.m21)
            )

        # branch tables: (inverse of the branch map, matrix, image piece)
        def left(n):
            shift = n - n % 2
            return (
                lambda y: 1 / (y + shift),
                Mat2(2 * n - 1, 2, n, 1),
                "unit" if n % 2 == 0 else "upper",
            )

        def middle(k):
            return (
                lambda y: (k * y + 1 - k) / ((k - 1) * y + 2 - k),
                Mat2(1, 2 * (k - 1), 0, 1),
                "right",
            )

        def right(m):
            shift = m - m % 2
            return (
                lambda y: (2 * y + 2 * shift - 1) / (y + shift),
                Mat2(2 * m - 1, 2, m - 1, 1),
                "unit" if m % 2 == 0 else "upper",
            )

        preds = (
            [left(n) for n in range(1, N + 1)]
            + [middle(k) for k in range(2, N + 1)]
            + [right(m) for m in range(2, N + 1)]
        )
        succs = (
            [("unit", (1 / (n + 1), 1 / n), Mat2(2 * n - 1, 2, n, 1))
             for n in range(1, N + 1)]
            + [("mid", (1 + 1 / (k + 1), 1 + 1 / k), Mat2(1, 2 * (k - 1), 0, 1))
               for k in range(2, N + 1)]
            + [("right", (2 - 1 / k, 2 - 1 / (k + 1)), Mat2(2 * k - 1, 2, k - 1, 1))
               for k in range(2, N + 1)]
        )
        total = 0.0
        for inv, M1, image in preds:
            for piece, (lo, hi), M2 in succs:
                if image == "unit" and piece != "unit":
                    continue
                if image == "right" and piece != "right":
                    continue
                if image == "upper" and piece == "unit":
                    continue
                a, b = sorted((inv(lo), inv(hi)))
                mass = quad(rho, a, b)[0]
                # the inverse branch maps must agree with the forward map
                xm = inv((lo + hi) / 2)
                assert lo - 1e-9 <= accel(xm).y <= hi + 1e-9
                total += f_ln(M1 @ M2) * mass
        assert series == pytest.approx(total / 2, abs=1e-6)



def _reference_branches(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The middle-branch loop before its per-lane cut-off: all
    EXPANSION_TERMS terms of the geometric expansion on every lane, and the
    truncation bound from q**EXPANSION_TERMS on every lane."""
    k = np.arange(2, terms + 1.0)
    a, b = 1.0 / k, 2.0 / (k + 1.0)

    def prim(t, j):
        return t ** (j + 1) * (-(j + 1) * np.log(t) + 1) / (j + 1) ** 2

    acc = np.zeros_like(k)
    scale = 1.0 / k
    for j in range(EXPANSION_TERMS):
        acc += scale * (prim(b, j) - prim(a, j))
        scale /= k
    q = b / k
    trunc = (1.0 / k) * (q**EXPANSION_TERMS / (1 - q)) * (-np.log(a)) * (b - a)
    return acc, trunc


class TestMiddleBranchSeries:
    def test_lanes_match_full_loop(self):
        acc, trunc = _middle_lnr_branches(40_000)
        ref_acc, ref_trunc = _reference_branches(40_000)
        assert np.array_equal(acc, ref_acc)
        assert np.array_equal(trunc, ref_trunc)

    def test_branches_against_dilogarithm(self):
        # the integral of -ln t/(k - t) over [a, b] is F(b) - F(a) with
        # F(t) = ln k ln(1 - t/k) - spence(t/k), spence(z) = Li2(1 - z).
        # Each F value is good to a few ulps of its size, near pi^2/6, while
        # the branch integral is near ln k/k^2, so the difference is good to
        # about 16 eps (|F(a)| + |F(b)|): 9e-10 relative at k = 2000.
        k = np.arange(2, 2001.0)
        acc, trunc = _middle_lnr_branches(2000)

        def F(t):
            return np.log(k) * np.log1p(-t / k) - spence(t / k)

        fa, fb = F(1.0 / k), F(2.0 / (k + 1.0))
        tol = trunc + 16 * np.finfo(float).eps * (np.abs(fa) + np.abs(fb))
        assert np.all(np.abs(acc - (fb - fa)) <= tol)

    def test_pinned_bits(self):
        # captured before the per-lane cut-off: it must keep every bit
        pinned = {
            10: (2.2030152817452624, 0.3302585092994046),
            400: (2.450941735566966, 0.017478661367769953),
            10_000: (2.466418829943388, 0.0010210340371976183),
            40_000: (2.467120851455588, 0.0002899158683274018),
            100_000: (2.4672798356495846, 0.00012512925464970229),
            300_000: (2.4673570163335965, 4.537179251212779e-05),
            2_000_000: (2.467393539095995, 7.75432886926211e-06),
        }
        for terms, want in pinned.items():
            sv = integral_ln_r(terms)
            assert repr((sv.value, sv.tail_bound)) == repr(want)


class TestSeriesValues:
    def test_ln_r_bracket(self):
        sv = integral_ln_r(2_000_000)
        assert 2.46 <= sv.value <= sv.value + sv.tail_bound <= 2.47

    def test_ln_M_upper(self):
        sv = integral_ln_M(2_000_000)
        assert sv.value + sv.tail_bound <= 3.8

    def test_f_bound_exceeds_requirement(self):
        sv = lower_bound_f(2_000_000)
        assert sv.value >= 2.66

    @settings(max_examples=40, deadline=None)
    @given(st.integers(10, 10**5))
    @example(300_000)
    @example(2_000_000)
    @example(TERM_BUDGET)
    def test_f_bound_is_the_two_end_oracle(self, terms):
        # F at each shared cylinder end once and the products by one matmul,
        # against F at both ends of every branch and the products entry by
        # entry, bit for bit, up to the largest products the budget admits
        assert lower_bound_f(terms).value == oracle_maps.lower_bound_f(terms)

    def test_neighbouring_branches_share_an_end(self):
        # the lower end of branch n is the upper end of n + 1, bit for bit
        # (right branches: the other way round), which lower_bound_f takes once
        for fam in FAMILIES:
            n = np.arange(fam.first, 3000.0)
            (lo, hi), (lo1, hi1) = fam.ends(n), fam.ends(n + 1)
            assert np.array_equal(hi1, lo) != np.array_equal(lo1, hi), fam

    def test_values_monotone_in_terms(self):
        assert integral_ln_M(4000).value > integral_ln_M(400).value
        assert lower_bound_f(4000).value > lower_bound_f(400).value

    def test_tail_shrinks(self):
        assert integral_ln_r(40_000).tail_bound < integral_ln_r(400).tail_bound

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            integral_ln_M(5)
        with pytest.raises(ValueError):
            lower_bound_f(5)

    @pytest.mark.parametrize("series", [integral_ln_M, integral_ln_r, lower_bound_f])
    def test_block_size_changes_no_bit(self, series, monkeypatch):
        # one block of 2**40 terms is the whole-array expression; the
        # others cut every series, and every row of the two-step cylinders,
        # at many places
        want = {terms: series(terms) for terms in (10_000, 40_001)}
        for block in (7, 1000, 2**40):
            monkeypatch.setattr(lyap, "SERIES_BLOCK", block)
            for terms, sv in want.items():
                assert repr(series(terms)) == repr(sv), block

    @pytest.mark.parametrize("series", [integral_ln_M, integral_ln_r, lower_bound_f])
    def test_bytes_per_term(self, series):
        # one full-length array of terms (two for integral_ln_r's branches
        # and bounds), filled block by block: 48, 104 and 64 bytes a term
        # when every temporary was full-length
        terms = 1_000_000
        series(terms)
        tracemalloc.start()
        try:
            series(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * terms

    @pytest.mark.parametrize("series", [integral_ln_M, integral_ln_r, lower_bound_f])
    @pytest.mark.parametrize("terms", [TERM_BUDGET + 1, 10**12])
    def test_terms_above_budget_rejected_before_allocating(self, series, terms):
        tracemalloc.start()
        try:
            with pytest.raises(NotTerminated):
                series(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestSlowDivergence:
    def test_closed_form_matches_quadrature(self):
        for delta in (0.25, 0.05, 0.001):
            oracle = quad(lambda x: math.log(3) / (x - 1), 1 + delta, 1.5)[0]
            assert slow_norm_integral(delta) == pytest.approx(oracle, rel=1e-10)

    def test_profile_strictly_increasing_and_unbounded(self):
        prof = divergence_profile(30)
        assert all(b > a for a, b in zip(prof, prof[1:]))
        assert prof[-1] > 20

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            slow_norm_integral(0.0)
        with pytest.raises(ValueError):
            slow_norm_integral(0.7)
