"""Cocycle products along the accelerated expansion, Monte-Carlo Lyapunov
estimates, certified series values of the associated integrals, Birkhoff
contraction coefficients and limit directions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfrac import LN6, accel, param_to_x
from .errors import NotTerminated
from .pet import Param
from .renorm import (
    FAMILIES, FAMILY_EDGES, MIDDLE, RIGHT, UNIT, Mat2, family_coefficients, slow_image,
)

MASTER_SEED = 0x5EED


@dataclass(frozen=True)
class CocycleEstimate:
    lambda_hat: float
    lnR_hat: float
    s_hat: float
    l: int
    trials: int
    seed: int
    stderr_lambda: float
    stderr_lnR: float
    stderr_s: float


@dataclass(frozen=True)
class SeriesValue:
    value: float
    tail_bound: float
    terms: int


# -- cocycle products ----------------------------------------------------


def cocycle_product(p: Param, l: int) -> tuple[Mat2, float]:
    """Product of the first l+1 accelerated matrices along the orbit.

    Returns the exact integer product and ln of the l1-norm of the product
    applied to (1,1), accumulated with per-step renormalization of a float
    row vector so the log stays finite for any depth.
    """
    M = Mat2.identity()
    log_norm = 0.0
    for st, log_norm in cocycle_walk(param_to_x(p), l + 1):
        M = M @ st.M_bold
    return M, log_norm


def cocycle_walk(x, steps: int):
    """Yield each of `steps` accelerated steps from x with the running ln of
    the l1-norm of (1,1) times the product of their matrices, kept in a
    float row vector renormalized at every step."""
    u1 = u2 = 1.0
    log_norm = 0.0
    for _ in range(steps):
        st = accel(x)  # Terminal propagates
        F = st.M_bold
        u1, u2 = u1 * F.m11 + u2 * F.m21, u1 * F.m12 + u2 * F.m22
        s = u1 + u2
        log_norm += math.log(s)
        u1 /= s
        u2 /= s
        yield st, log_norm
        x = st.y


def contraction(M: Mat2) -> float:
    """Birkhoff contraction coefficient of a nonnegative matrix in the
    Hilbert projective metric: tanh of a quarter of |ln| of the
    cross-ratio of the entries; 1 when some entry vanishes."""
    if min(M.m11, M.m12, M.m21, M.m22) <= 0:
        return 1.0
    return math.tanh(0.25 * abs(math.log(M.m11 * M.m22 / (M.m12 * M.m21))))


def limit_direction(p: Param, l: int) -> tuple[float, float]:
    """Direction of the depth-l product applied to (1,1), summing to 1."""
    M, _ = cocycle_product(p, l)
    a, b = M.apply((1, 1))
    return a / (a + b), b / (a + b)


# -- Monte-Carlo estimation ----------------------------------------------


def _sample_x(rng: np.random.Generator, trials: int) -> np.ndarray:
    """Draws from the accelerated invariant density, normalized by ln 6."""
    u = rng.random(trials)
    v = rng.random(trials)
    p0 = math.log(2) / LN6
    p1 = math.log(1.5) / LN6
    return np.where(
        v < p0,
        np.exp2(u) - 1,
        np.where(v < p0 + p1, 1.5**u, 1 + 0.5 * np.exp2(u)),
    )


def _sanitize(x: np.ndarray) -> np.ndarray:
    """Keep lanes strictly inside the branch intervals; float round-off can
    park an iterate exactly on an endpoint where the next digit blows up."""
    np.maximum(x, 1e-12, out=x)
    np.minimum(x, 2 - 1e-12, out=x)
    x[np.abs(x - 1.0) < 1e-12] = 1.0 + 1e-12
    x[np.abs(x - 1.5) < 1e-15] = 1.5 + 1e-14
    return x


# Rows (slope, const) by entries (gap, m11, m12, m21, m22) by FAMILIES: the
# gap and the cocycle matrix of each family, read off the branch table
_STEP_COEFFICIENTS = np.concatenate(
    [family_coefficients(name) for name in ("gap", "M")], axis=1
)
_MIDDLE = FAMILIES.index(MIDDLE)


def _vector_step(x, u1, u2, log_norm, lnR):
    """One accelerated step applied to every lane, updating the
    renormalized row vectors and both log accumulators in place.

    All lanes go through one pass, whatever their family. The family index f
    of each lane comes from FAMILY_EDGES, and its coefficient rows (a, b)
    from `family_coefficients`, read once off the branch table: gap(x) is
    a[0] x + b[0], and the entries of M(n) are a[1:] n + b[1:]. The result
    is bit for bit that of each family's own formulas on its own lanes. The
    coefficients are small integers, so a[0] x + b[0] rounds once, as x,
    x - 1 and 2 - x do. The entries of M(n) are integers below 2**53 (n is
    at most 1e12 on sanitized lanes), which float arithmetic holds exactly.
    The middle and slow images are both taken on every lane, and np.where
    keeps the family's own. On the other lanes the middle formula stays
    finite, so no lane raises a floating-point warning: its denominator is
    clamped to 1e-300, and its numerator lies in (0, 2]."""
    f = FAMILY_EDGES.searchsorted(x, "right")
    a, b = _STEP_COEFFICIENTS.take(f, axis=2)
    gap = a[0] * x + b[0]
    inv = 1.0 / gap
    n = np.floor(inv)
    M = a[1:] * n + b[1:]  # rows m11, m12, m21, m22
    # A(n).x and its denominator n - (n-1)x cancel catastrophically on the
    # middle branches for large n; these forms in the gap e = x - 1 are stable
    mid_den = np.maximum(1.0 - (n - 1) * gap, 1e-300)
    mid_x1 = (1.0 - (n - 2) * gap) / mid_den
    middle = f == _MIDDLE
    x1 = np.where(middle, mid_x1, slow_image(inv, n))
    lnR -= np.log(np.where(middle, mid_den, gap))

    v = u1 * M[:2] + u2 * M[2:]  # the row (u1, u2) times M
    s = v[0] + v[1]
    log_norm += np.log(s)
    v /= s
    return _sanitize(x1), v[0], v[1]


# Monte-Carlo lanes per estimate: tracemalloc puts the peak of
# birkhoff_estimate at 249 bytes per lane, so this is about 0.6 GB
LANE_BUDGET = 2_400_000


def birkhoff_estimate(
    seed: int = MASTER_SEED, trials: int = 1000, l: int = 10_000
) -> CocycleEstimate:
    """Time averages of the matrix growth and the expansion ratio along
    `trials` independent orbits of depth `l`, scaled by the invariant mass
    ln 6 so they estimate the un-normalized integrals."""
    if trials < 1 or l < 1:
        raise ValueError("trials and l must be positive")
    if trials > LANE_BUDGET:
        raise NotTerminated(
            f"{trials} lanes exceed the budget of {LANE_BUDGET} (about 0.6 GB)"
        )
    rng = np.random.default_rng(seed)
    x = _sanitize(_sample_x(rng, trials))
    u1 = np.ones(trials)
    u2 = np.ones(trials)
    log_norm = np.zeros(trials)
    lnR = np.zeros(trials)
    for _ in range(l):
        x, u1, u2 = _vector_step(x, u1, u2, log_norm, lnR)
    lam = LN6 * log_norm / l
    lnr = LN6 * lnR / l
    lambda_hat = float(lam.mean())
    lnR_hat = float(lnr.mean())
    s_hat = lambda_hat / lnR_hat
    se_l = float(lam.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    se_r = float(lnr.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    if trials > 1:
        cov = float(np.cov(lam, lnr)[0, 1]) / trials
        var_s = (
            (se_l / lnR_hat) ** 2
            + (lambda_hat * se_r / lnR_hat**2) ** 2
            - 2 * lambda_hat * cov / lnR_hat**3
        )
        se_s = math.sqrt(max(var_s, 0.0))
    else:
        se_s = 0.0
    return CocycleEstimate(
        lambda_hat, lnR_hat, s_hat, l, trials, seed, se_l, se_r, se_s
    )


# -- series values of the integrals --------------------------------------


def _log_tail(c: float, n_over: int) -> float:
    """Certified bound for sum over n > N of ln(c n)/n^2."""
    return (math.log(c * n_over) + 1.0) / n_over


def _mass_unit(n: np.ndarray) -> np.ndarray:
    """Invariant mass of the n-th branch interval inside (0,1)."""
    return np.log((n + 1) ** 2 / (n * (n + 2)))


def _mass_right(n: np.ndarray) -> np.ndarray:
    """Invariant mass of the n-th branch interval inside (3/2,2)."""
    return np.log(n * n / ((n - 1.0) * (n + 1.0)))


def _matrix(fam, n: np.ndarray) -> tuple:
    """Cocycle matrix entries of branches n, each an array of n's shape."""
    return tuple(np.broadcast_to(np.asarray(m, dtype=float), n.shape) for m in fam.M(n))


def _log_max_row_sum(fam, n: np.ndarray) -> np.ndarray:
    m11, m12, _, _ = fam.M(n)  # the first row has the larger sum
    return np.log(m11 + m12)


def _f(m11, m12, m21, m22):
    """The super-multiplicative function f(M) = sqrt(m11 m22) + sqrt(m12 m21)."""
    return np.sqrt(m11 * m22) + np.sqrt(m12 * m21)


def integral_ln_M(terms: int) -> SeriesValue:
    """Integral of ln of the max row sum of the accelerated matrix against
    the un-normalized invariant density, as three branch series (a middle
    branch has the invariant mass of the unit branch of the same index)."""
    if terms < 10:
        raise ValueError("terms must be at least 10")
    n = np.arange(UNIT.first, terms + 1.0)
    s1 = float(np.sum(_log_max_row_sum(UNIT, n) * _mass_unit(n)))
    k = np.arange(MIDDLE.first, terms + 1.0)
    s2 = float(np.sum(_log_max_row_sum(MIDDLE, k) * _mass_unit(k)))
    k = np.arange(RIGHT.first, terms + 1.0)
    s3 = float(np.sum(_log_max_row_sum(RIGHT, k) * _mass_right(k)))
    tail = 3 * _log_tail(3.0, terms)
    return SeriesValue(s1 + s2 + s3, tail, terms)


EXPANSION_TERMS = 60  # terms of the geometric expansion per middle branch


def _geometric_remainder(k, a, b, j: int):
    """Certified bound for the terms j, j+1, ... of branch k's expansion:
    on [a, b] each t^i / k^(i+1) is at most q^i / k with q = b/k, and
    -ln t is at most -ln a."""
    q = b / k
    return (1.0 / k) * (q**j / (1 - q)) * (-np.log(a)) * (b - a)


def _middle_lnr_branches(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Per middle branch k = 2..terms: the integral of -ln t / (k - t) over
    t in [a, b] = [1/k, 2/(k+1)], from the first EXPANSION_TERMS terms of the
    geometric expansion of 1/(k - t) in t/k, and the certified bound on the
    terms left out.

    Lane k stops taking terms at the first j where the bound on its terms
    j, j+1, ... falls below a quarter ulp of its sum: each of those terms,
    rounding included, is then under half an ulp and leaves the sum as it
    is, so every lane ends bit-identical to one that takes all the terms.
    (The bound is carried from j to j + 1 by one product with q; its few
    roundings are far inside the factor of 2 the quarter ulp leaves.) The
    terms shrink with k, so the lanes still taking terms are a prefix
    (dead lanes inside it keep taking terms, which changes nothing). Both
    arrays stay at full length, so that the caller's pairwise np.sum adds
    in the same order."""
    k = np.arange(MIDDLE.first, terms + 1.0)
    a = 1.0 / k
    b = 2.0 / (k + 1.0)
    q = b / k
    ln_a, ln_b = np.log(a), np.log(b)

    def prim(t, ln_t, j):
        # integral of -t^j ln t
        return t ** (j + 1) * (-(j + 1) * ln_t + 1) / (j + 1) ** 2

    acc = np.zeros_like(k)
    scale = 1.0 / k
    rem = _geometric_remainder(k, a, b, 0)  # bound on the terms j, j+1, ...
    live = k.size
    for j in range(EXPANSION_TERMS):
        kept = np.flatnonzero(rem[:live] >= np.spacing(acc[:live]) / 4)
        if not kept.size:
            break
        live = kept[-1] + 1
        h = slice(live)
        acc[h] += scale[h] * (prim(b[h], ln_b[h], j) - prim(a[h], ln_a[h], j))
        scale[h] /= k[h]
        rem[h] *= q[h]
    # q**EXPANSION_TERMS underflows to +0 once q = b/k < 2**-18, and q falls
    # with k, so only that head of the bounds can be nonzero
    head = np.count_nonzero(q >= 2.0**-18)
    trunc = np.zeros_like(k)
    trunc[:head] = _geometric_remainder(k[:head], a[:head], b[:head], EXPANSION_TERMS)
    return acc, trunc


def integral_ln_r(terms: int) -> SeriesValue:
    """Integral of ln of the expansion ratio against the un-normalized
    invariant density: pi^2/12 from the unit interval, a certified branch
    series from the middle, and (ln 2)^2/2 + pi^2/12 from the right piece."""
    if terms < 10:
        raise ValueError("terms must be at least 10")
    first = math.pi**2 / 12
    third = math.log(2) ** 2 / 2 + math.pi**2 / 12
    mid, trunc = _middle_lnr_branches(terms)
    # tail over k > terms: ln r <= ln k on the branch, mass <= 1/k^2
    tail = _log_tail(1.0, terms) + float(np.sum(trunc))
    return SeriesValue(first + float(np.sum(mid)) + third, tail, terms)


def lower_bound_f(terms: int, depth: int = 2) -> SeriesValue:
    """Lower bound for the top Lyapunov integral via the super-
    multiplicative function f(M) = sqrt(m11 m22) + sqrt(m12 m21).

    depth=1 evaluates f on the single-step matrices: the middle branches
    have an off-diagonal zero there and contribute ln 1 = 0, which makes
    the bound weak.  depth=2 evaluates (1/2) ln f on two-step products,
    which are strictly positive; truncation only drops nonnegative terms,
    so the partial sum stays a certified lower bound.
    """
    if terms < 10:
        raise ValueError("terms must be at least 10")
    if depth == 1:
        n = np.arange(UNIT.first, terms + 1.0)
        s1 = float(np.sum(np.log(_f(*UNIT.M(n))) * _mass_unit(n)))
        k = np.arange(RIGHT.first, terms + 1.0)
        s3 = float(np.sum(np.log(_f(*RIGHT.M(k))) * _mass_right(k)))
        tail = 2 * _log_tail(3.0, terms)
        return SeriesValue(s1 + s3, tail, terms)
    if depth != 2:
        raise ValueError("depth must be 1 or 2")
    return _lower_bound_f_pairs(max(int(math.isqrt(terms)), 10))


def _succ_table(fam, N: int):
    """Successor data on one family: domain ends and matrix entries."""
    n = np.arange(fam.first, N + 1.0)
    lo, hi = fam.ends(n)
    return lo, hi, _matrix(fam, n)


def _pair_block(pred_inv, F, M1, succ) -> float:
    """Sum of ln f(M1 M2) weighted by the invariant mass of the two-step
    cylinder, for one predecessor family against one successor table."""
    lo2, hi2, M2 = succ
    x0a = pred_inv(lo2[None, :])
    x0b = pred_inv(hi2[None, :])
    w = np.abs(F(x0b) - F(x0a))
    a11, a12, a21, a22 = (m[:, None] for m in M1)
    b11, b12, b21, b22 = (m[None, :] for m in M2)
    c11 = a11 * b11 + a12 * b21
    c12 = a11 * b12 + a12 * b22
    c21 = a21 * b11 + a22 * b21
    c22 = a21 * b12 + a22 * b22
    return float(np.sum(np.log(_f(c11, c12, c21, c22)) * w))


def _lower_bound_f_pairs(N: int) -> SeriesValue:
    F_unit = np.log1p
    F_mid = np.log
    F_right = lambda x: np.log(x - 1)  # noqa: E731

    succ_u = _succ_table(UNIT, N)
    succ_m = _succ_table(MIDDLE, N)
    succ_r = _succ_table(RIGHT, N)

    # The predecessor maps below stay written out: deriving them from
    # adj(A(n)) moves the last bit of lower_bound_f(10_000).
    total = 0.0
    # left predecessors: even digits return to the unit piece, odd ones
    # land anywhere in (1,2)
    n = np.arange(UNIT.first, N + 1.0)
    npar = n % 2
    M1 = _matrix(UNIT, n)
    even, odd = npar == 0, npar == 1

    def sub(M, mask):
        return tuple(m[mask] for m in M)

    shift = (n - npar)[even]
    total += _pair_block(
        lambda x1: 1 / (x1 + shift[:, None]), F_unit, sub(M1, even), succ_u
    )
    shift = (n - npar)[odd]
    for succ in (succ_m, succ_r):
        total += _pair_block(
            lambda x1: 1 / (x1 + shift[:, None]), F_unit, sub(M1, odd), succ
        )

    # middle predecessors always exit into (3/2,2)
    k = np.arange(MIDDLE.first, N + 1.0)[:, None]
    M1 = _matrix(MIDDLE, k[:, 0])
    total += _pair_block(
        lambda x1: (k * x1 + 1 - k) / ((k - 1) * x1 + 2 - k), F_mid, M1, succ_r
    )

    # right predecessors mirror the left ones
    m = np.arange(RIGHT.first, N + 1.0)
    mpar = m % 2
    M1 = _matrix(RIGHT, m)
    even, odd = mpar == 0, mpar == 1
    shift = (m - mpar)[even]
    total += _pair_block(
        lambda x1: (2 * x1 + 2 * shift[:, None] - 1) / (x1 + shift[:, None]),
        F_right,
        sub(M1, even),
        succ_u,
    )
    shift = (m - mpar)[odd]
    for succ in (succ_m, succ_r):
        total += _pair_block(
            lambda x1: (2 * x1 + 2 * shift[:, None] - 1) / (x1 + shift[:, None]),
            F_right,
            sub(M1, odd),
            succ,
        )

    # one-sided truncation: omitted cylinders contribute >= 0, and at most
    # (ln 4 + ln|M1| + ln|M2|) x their mass; both factors give a series
    # tail of the usual ln(cN)/N shape
    tail = 3 * _log_tail(3.0, N) + 2 * LN6 * math.log(4.0) / N
    return SeriesValue(total / 2, tail, N * N)


# -- non-integrability of the slow cocycle -------------------------------


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
