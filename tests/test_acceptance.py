"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import functools
import math
import random
import sys
from fractions import Fraction

import pytest
from scipy.integrate import quad

from sqrect.exactnum import make_surd
from sqrect.pet import Param, Point, code_orbit, islands
from sqrect.renorm import (
    Level,
    incidence_matrix,
    induction_verify,
    period_sequence,
)
from sqrect.cfrac import (
    density,
    expand,
    fiber_integral_halfline,
    fiber_integral_square,
    natural_extension_check,
    param_to_x,
    transfer_residual,
    x_to_param,
)
from sqrect.words import complexity, limit_word, tower_stats
from sqrect.lyap import (
    MASTER_SEED,
    birkhoff_estimate,
    cocycle_product,
    integral_ln_M,
    integral_ln_r,
    lower_bound_f,
)
from sqrect.fractal import (
    box_count_deep,
    dimension_estimate,
    radius_sequence,
    selfsimilar_dimension,
)
from sqrect.render import (
    render_cover,
    render_discontinuities,
    render_islands,
)
from oracle_maps import psi_inverse
from test_cfrac import generic_branch_sum, s_interval
from test_lyap import divergence_profile, slow_norm_integral
from test_render import pixel_set_distance
from test_words import abelianization, apply

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"CRITERION {num:2d}: FAIL  {desc}", file=sys.__stdout__)
                raise
            print(f"CRITERION {num:2d}: PASS  {desc}", file=sys.__stdout__)

        return run

    return wrap


@criterion(1, "self-similar dimension table to 1e-5")
def test_criterion_01_dimension_table():
    expected = {
        ("minus", 1): 1.637938,
        ("minus", 2): 1.450998,
        ("minus", 3): 1.370279,
        ("minus", 4): 1.325467,
        ("minus", 5): 1.296563,
        ("plus", 1): 1.338499,
        ("plus", 2): 1.300488,
        ("plus", 3): 1.276470,
        ("plus", 4): 1.259479,
        ("plus", 5): 1.246613,
    }
    for (family, n), value in expected.items():
        assert selfsimilar_dimension(family, n).value == pytest.approx(
            value, abs=1e-5
        )


@criterion(2, "dimension estimator within 2e-2 of closed forms at depth 50")
def test_criterion_02_estimator_convergence():
    for family, p in (
        ("minus", Param(SQRT2M1, -1)),
        ("plus", Param(SQRT3M1, 1)),
    ):
        closed = selfsimilar_dimension(family, 1).value
        assert dimension_estimate(p, 50).value == pytest.approx(closed, abs=2e-2)


@criterion(3, "induction conjugacy at 20 parameters x 10^4 samples")
def test_criterion_03_induction_conjugacy():
    exact_params = [
        Param(make_surd(-math.isqrt(d), 1, 1, d), eps)
        for d, eps in zip(
            (2, 3, 5, 6, 7, 8, 10, 11, 12, 13),
            (-1, 1, -1, 1, -1, 1, -1, 1, -1, 1),
        )
    ]
    for p in exact_params:
        rep = induction_verify(p, samples=10_000, seed=17)
        assert rep.exact and rep.max_error == 0.0
    rng = random.Random(17)
    for _ in range(10):
        p = Param(rng.uniform(0.05, 0.95), rng.choice((-1, 1)))
        rep = induction_verify(p, samples=10_000, seed=17)
        assert not rep.exact and rep.max_error <= 1e-9


@criterion(4, "substitution-coding commutation on 10^3-letter prefixes")
def test_criterion_04_commutation():
    test_params = [
        Param(SQRT2M1, -1),
        Param(SQRT3M1, 1),
        Param(make_surd(-2, 1, 1, 5), -1),
        Param(make_surd(-2, 1, 1, 6), 1),
        Param(make_surd(-2, 1, 1, 7), -1),
        Param(make_surd(-1, 1, 2, 3), 1),
        Param(Fraction(2, 7), 1),
        Param(Fraction(5, 13), -1),
        Param(Fraction(3, 11), -1),
        Param(Fraction(7, 16), 1),
    ]
    rng = random.Random(11)
    for p in test_params:
        level = Level(p)
        q, sigma = level.next, level.sigma
        done = 0
        while done < 1:
            z1 = Point(
                Fraction(rng.randrange(1, 2**20), 2**20) * (1 + q.theta),
                Fraction(rng.randrange(1, 2**20), 2**20),
            )
            if z1.x == 1:
                continue
            z = Point(*psi_inverse(p.theta, p.eps, *z1)[:2])
            try:
                w_up = code_orbit(p, z, 1400)
                w_dn = code_orbit(q, z1, 1000)
            except Exception:
                continue
            img = apply(sigma, w_dn)
            assert img[:1000] == w_up[:1000]
            done += 1


@criterion(5, "expansions: rational chains, periodic surds, fixed points")
def test_criterion_05_expansions():
    e = expand(Fraction(3, 8))
    assert e.status == "finite" and len(e.steps) == 3
    xs = [Fraction(3, 8)]
    for _ in range(3):
        xs.append(s_interval(xs[-1]))
    assert [x_to_param(x) for x in xs[1:]] == [
        Param(Fraction(2, 3), -1),
        Param(Fraction(1, 2), 1),
        Param(0, -1),
    ]
    e = expand(make_surd(0, 1, 2, 2))  # sqrt(2)/2
    assert e.status == "periodic" and (e.preperiod, e.period) == (1, 2)
    for p in (Param(SQRT2M1, -1), Param(SQRT3M1, 1)):
        x = param_to_x(p)
        assert s_interval(x) == x
        e = expand(x)
        assert e.status == "periodic" and (e.preperiod, e.period) == (0, 1)
    rng = random.Random(23)
    for _ in range(100):
        num = rng.randrange(1, 400)
        den = rng.randrange(num + 1, 401)
        assert expand(Fraction(num, den), max_steps=10_000).status == "finite"
    count = 0
    while count < 20:
        d = rng.choice((2, 3, 5, 6, 7, 10, 13))
        x = make_surd(-rng.randrange(0, 4), rng.randrange(1, 5), rng.randrange(1, 4), d)
        k = math.floor(x)
        x = x - k
        if isinstance(x, (int, Fraction)) or not (0 < x < 2) or x == 1:
            continue
        assert expand(x, max_steps=200).status == "periodic"
        count += 1


@criterion(6, "certified integrals with quadrature oracles")
def test_criterion_06_integrals():
    rho = lambda x: density("bold_nu", x)
    ln_r = integral_ln_r(2_000_000)
    assert 2.46 <= ln_r.value <= ln_r.value + ln_r.tail_bound <= 2.47
    ln_M = integral_ln_M(2_000_000)
    assert ln_M.value + ln_M.tail_bound <= 3.8
    f_low = lower_bound_f(2_000_000)
    assert f_low.value >= 2.66
    # oracles at matched truncation depth
    B = 300
    total = 0.0
    for n in range(1, B + 1):
        total += quad(
            lambda x: math.log(2 * math.floor(1 / x) + 1) * rho(x),
            1 / (n + 1), 1 / n,
        )[0]
    for k in range(2, B + 1):
        total += quad(
            lambda x: math.log(2 * math.floor(1 / (x - 1)) - 1) * rho(x),
            1 + 1 / (k + 1), 1 + 1 / k,
        )[0]
        total += quad(
            lambda x: math.log(2 * math.floor(1 / (2 - x)) + 1) * rho(x),
            2 - 1 / k, 2 - 1 / (k + 1),
        )[0]
    assert integral_ln_M(B).value == pytest.approx(total, abs=1e-6)
    total = quad(lambda x: -math.log(x) * rho(x), 0, 1, points=[0])[0]
    total += quad(lambda x: -math.log(2 - x) * rho(x), 1.5, 2, points=[2])[0]
    for k in range(2, B + 1):
        total += quad(
            lambda x: -math.log(k - (k - 1) * x) * rho(x),
            1 + 1 / (k + 1), 1 + 1 / k,
        )[0]
    assert integral_ln_r(B).value == pytest.approx(total, abs=1e-6)


@criterion(7, "Monte-Carlo exponents at trials=10^3, depth=10^4")
def test_criterion_07_monte_carlo():
    est = birkhoff_estimate(seed=MASTER_SEED, trials=1000, l=10_000)
    assert 2.66 <= est.lambda_hat <= 3.8
    assert 2.46 <= est.lnR_hat <= 2.47
    assert 1.07 <= est.s_hat <= 1.55
    assert est.stderr_s < 0.01


@criterion(8, "Sturmian factor counts n+1 for n <= 50")
def test_criterion_08_sturmian():
    quadratics = [
        (SQRT2M1, -1),
        (SQRT3M1, 1),
        (make_surd(-2, 1, 1, 5), -1),
        (make_surd(-1, 1, 2, 3), -1),
        (make_surd(-3, 1, 1, 10), -1),
    ]
    for theta, eps in quadratics:
        w = limit_word(Param(theta, eps), 2000)
        for n in range(1, 51):
            assert complexity(w, n) == n + 1


@criterion(9, "invariant densities, negative control, natural extension")
def test_criterion_09_densities():
    points = [0.05 + 0.09 * i for i in range(20)]
    points = [y if abs(y - 1.0) > 0.04 else y + 0.05 for y in points]
    for which in ("nu", "bold_nu"):
        for y in points:
            assert transfer_residual(which, y) <= 1e-8
    for y in (0.3, 0.7, 1.45, 1.8):
        assert abs(generic_branch_sum("bold_nu", lambda x: 1.0, y) - 1.0) > 1e-2
    for k in range(1, 20):
        x = Fraction(k, 20)
        assert fiber_integral_square(x) == 1 / (1 + x)
        assert fiber_integral_halfline(1 + x) == Fraction(1, 1) / (1 + x)
    rep = natural_extension_check(samples=100_000, seed=1)
    assert rep.stayed == rep.samples == 100_000


@criterion(10, "structural identity property suite")
def test_criterion_10_structural():
    rng = random.Random(31)
    for _ in range(40):
        p = Param(Fraction(rng.randrange(1, 39), 40), rng.choice((-1, 1)))
        if p.f(p.theta) == 0:
            continue
        M = incidence_matrix(p)
        assert M.m11 * M.m22 - M.m12 * M.m21 == p.eps
        assert abelianization(Level(p).sigma) == (M.m11, M.m12, M.m21, M.m22)
    p = Param(SQRT2M1, -1)
    for l in (2, 4, 6):
        M, _ = cocycle_product(p, l)
        prefix_len = max(400_000, 200 * sum(M.apply((1, 1))))
        ts = tower_stats(p, l, prefix_len=prefix_len)
        assert abs(ts.N_a * ts.alpha + ts.N_b * ts.beta - 1.0) <= 2 / prefix_len
    for l in (10, 30, 50):
        M, _ = cocycle_product(p, l)
        M2, _ = cocycle_product(p, l - 2)
        assert sum(M2.apply((1, 1))) <= sum(M.apply((1, 1)))
        assert sum(M.apply((1, 0))) <= sum(M.apply((1, 1)))
        assert sum(M.apply((0, 1))) <= sum(M.apply((1, 1)))
    # seed island areas
    for theta, eps in ((Fraction(2, 7), -1), (SQRT2M1, -1), (SQRT3M1, 1)):
        q = Param(theta, eps)
        cells = islands(q, max_period=2)
        a1 = sum(float(c.rect.area()) for c in cells if c.orbit_period == 1)
        a2 = sum(float(c.rect.area()) for c in cells if c.orbit_period == 2)
        th = float(theta)
        if eps == -1:
            assert a1 == pytest.approx((1 - th) ** 2, abs=1e-12)
        else:
            assert a2 == pytest.approx(2 * th * th, abs=1e-12)
    assert period_sequence(Param(SQRT2M1, -1), 3) == [1, 5, 21]
    # covering numbers at the natural radius never exceed the piece count:
    # every depth-l piece fits in one side-R^(l) box, so the pieces are
    # themselves a covering by N^(l) boxes; an axis-aligned grid box count
    # can overestimate that minimal covering by at most a factor of four
    # (each piece straddles at most two grid lines per axis)
    radii = radius_sequence(p, 12)
    from sqrect.fractal import cover_arrays

    for l in (2, 5, 8):
        arrays = cover_arrays(p, l)
        assert float(max(arrays[2].max(), arrays[3].max())) <= radii[l - 1] * (
            1 + 1e-9
        )
    for l in (4, 8, 12):
        M, _ = cocycle_product(p, l - 1)
        n_pieces = sum(M.apply((1, 1)))
        boxes = box_count_deep(p, l, radii[l - 1])
        assert boxes <= 4 * n_pieces
        assert n_pieces <= 4 * boxes  # and the pieces genuinely fill them


@criterion(11, "slow-map norm integral diverges as the cutoff shrinks")
def test_criterion_11_divergence():
    prof = divergence_profile(30)
    assert len(prof) == 30
    assert all(b > a for a, b in zip(prof, prof[1:]))
    assert prof[-1] > 2 * prof[9]
    assert slow_norm_integral(2.0**-30) == pytest.approx(
        math.log(3) * math.log(2**29), rel=1e-12
    )


@criterion(12, "deterministic figure regeneration and self-convergence")
def test_criterion_12_figures():
    disc_p = Param(Fraction(3, 5), -1)
    a = render_discontinuities(disc_p, 20, 1000).to_p6()
    b = render_discontinuities(disc_p, 20, 1000).to_p6()
    assert a == b
    isl_p = Param(SQRT2M1, -1)
    a = render_islands(isl_p, [1, 5, 21], 1000).to_p6()
    b = render_islands(isl_p, [1, 5, 21], 1000).to_p6()
    assert a == b
    a = render_cover(isl_p, 8, 1000).to_p6()
    b = render_cover(isl_p, 8, 1000).to_p6()
    assert a == b
    # self-convergence between consecutive depths
    d1 = render_discontinuities(disc_p, 19, 1000)
    d2 = render_discontinuities(disc_p, 20, 1000)
    assert pixel_set_distance(d1, d2) < 3.0
    c1 = render_cover(isl_p, 7, 1000)
    c2 = render_cover(isl_p, 8, 1000)
    assert pixel_set_distance(c1, c2) < 3.0
