"""Cocycle products along the accelerated expansion, Monte-Carlo Lyapunov
estimates and certified series values of the associated integrals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .cfrac import LN6, LaneScratch, accel_lanes, accel_walk, param_to_x
from .errors import check_budget
from .pet import Param
from .renorm import FAMILIES, MIDDLE, RIGHT, UNIT, Mat2, family_coefficients

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


# Accelerated steps per walk. An exact matrix product gains a few bits a
# step, so its steps cost more the deeper they are: on a 2-core VM the
# silver mean's cocycle_product takes 4.7-5.4 s at 10**5 steps and 18-19 s
# at 2 * 10**5, and tower_stats walks the same product; dimension_estimate,
# which keeps no exact product, takes 1.2 s there
ACCEL_STEP_BUDGET = 200_000


def cocycle_walk(x, steps: int):
    """Yield each of `steps` accelerated steps from x with the running ln of
    the l1-norm of (1,1) times the product of their matrices, kept in a
    float row vector renormalized at every step. Raises NotTerminated,
    before the first step, above ACCEL_STEP_BUDGET steps."""
    check_budget(steps, ACCEL_STEP_BUDGET, "accelerated steps")
    u1 = u2 = 1.0
    log_norm = 0.0
    for st in islice(accel_walk(x), max(steps, 0)):  # Terminal propagates
        F = st.M_bold
        u1, u2 = u1 * F.m11 + u2 * F.m21, u1 * F.m12 + u2 * F.m22
        s = u1 + u2
        log_norm += math.log(s)
        u1 /= s
        u2 /= s
        yield st, log_norm


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


# _sanitize's bounds, and (point, radius, moved) of the lanes it moves off 1, 3/2
_LOW, _HIGH = np.array(1e-12), np.array(2 - 1e-12)
_NEAR = [tuple(map(np.array, r))  # 0-d: a ufunc takes a (1,) array at twice the cost
         for r in ((1.0, 1e-12, 1 + 1e-12), (1.5, 1e-15, 1.5 + 1e-14))]


def _sanitize(x: np.ndarray, t=None, near=None, out=None) -> np.ndarray:
    """Keep lanes strictly inside the branch intervals, where round-off can park one
    on an end; into out, with temporaries t and near (each new if not given)."""
    t, near = (np.empty_like(x), np.empty(x.shape, bool)) if t is None else (t, near)
    out = np.minimum(np.maximum(x, _LOW, out=out), _HIGH, out=out)
    for point, radius, moved in _NEAR:
        np.less(np.abs(np.subtract(out, point, t), t), radius, near)
        np.copyto(out, moved, where=near)
    return out


# Rows (slope, const) by entries (m11, m12, m21, m22) by FAMILIES: the
# cocycle matrix of each family, read off the branch table
_M_COEFFICIENTS = family_coefficients("M")

# Monte-Carlo lanes per estimate: tracemalloc puts the peak of birkhoff_estimate
# at 163 bytes per lane at 2 * 10**5 lanes (179 at 5 * 10**4), so about 0.39 GB
LANE_BUDGET = 2_400_000
# Steps and lane-steps per estimate. On a 2-core VM a step costs about 17-20 us
# of numpy dispatch (27-29 at one lane) plus 35-45 ns per lane: the slowest run both
# budgets admit, 200 lanes of 10**6 steps, took 27 s, and the default 1000 lanes
# of 10,000 steps take 0.7-0.9 s
STEP_BUDGET = 1_000_000
LANE_STEP_BUDGET = 200_000_000
# Lane-steps a block of the walk takes its matrices and logs for, 72 bytes each: 2**11
# to 2**15 ran within 10 % of it at 50 to 5,000 lanes (2-core VM)
WALK_BLOCK = 1 << 13


def _lane_blocks(x: np.ndarray, l: int):
    """Step every lane l times from x (overwritten) by `accel_lanes`, K steps a
    block kept as rows, and yield after each block (steps so far, u, sums),
    arrays the next block overwrites: the row vector (u1, u2), renormalized
    each step, and the sums (log_norm, lnR) of ln s, the l1-norm of u times
    the step's M, and of ln r_bold = -ln den. M's entries a[f] n + b[f] are
    integers below 2**53 (n <= 1e12 on sanitized lanes), exact in floats. A
    step's calls take 1-D rows viewed once a walk, and one reduction, looping
    along the rows, adds a block's logs to the sums in step order."""
    K = max(1, min(WALK_BLOCK // x.size, l))
    f, buf = np.empty((K, x.size), dtype=np.intp), np.empty((6, K, x.size))
    n, b, M = buf[0], buf[1], buf[2:]  # M: m11 m12 m21 m22
    logs = np.zeros((K + 1, 2, x.size))  # the sums so far, then (s, den) a step
    y, _, (_, t), _, near = temps = LaneScratch(f[0], n[0], logs[1, 1])[3:]
    steps = [(*out, *temps) for out in zip(f, n, logs[1:, 1])]
    rows_u = list(zip(logs[1:, 0], *M))
    u1, u2 = u = np.ones((2, x.size))
    sums = np.empty((2, x.size))
    for first in range(0, l, K):
        rows = min(K, l - first)
        for scratch in steps[:rows]:
            accel_lanes(x, scratch)
            _sanitize(y, t, near, x)
        fs, ns, bs = f[:rows], n[:rows], b[:rows]
        for m, (slope, const) in zip(M[:, :rows], _M_COEFFICIENTS.transpose(1, 0, 2)):
            slope.take(fs, out=m, mode="clip")
            np.add(np.multiply(m, ns, m), const.take(fs, out=bs, mode="clip"), m)
        for s, m11, m12, m21, m22 in rows_u[:rows]:
            np.add(np.multiply(m11, u1, m11), np.multiply(m21, u2, m21), m11)
            np.add(np.multiply(m12, u1, m12), np.multiply(m22, u2, m22), m12)
            np.divide(m11, np.add(m11, m12, s), u1)
            np.divide(m12, s, u2)
        np.log(block := logs[1 : rows + 1], block)
        np.negative(block[:, 1], block[:, 1])
        logs[0] = np.add.reduce(logs[: rows + 1], axis=0, out=sums)
        yield first + rows, u, sums


def birkhoff_estimate(
    seed: int = MASTER_SEED, trials: int = 1000, l: int = 10_000
) -> CocycleEstimate:
    """Time averages of the matrix growth and the expansion ratio along
    `trials` independent orbits of depth `l`, scaled by the invariant mass
    ln 6 so they estimate the un-normalized integrals."""
    if trials < 1 or l < 1:
        raise ValueError("trials and l must be positive")
    check_budget(trials, LANE_BUDGET, "lanes")
    check_budget(l, STEP_BUDGET, "steps per lane")
    check_budget(trials * l, LANE_STEP_BUDGET, "lane-steps")
    rng = np.random.default_rng(seed)
    for _, _, (log_norm, lnR) in _lane_blocks(_sanitize(_sample_x(rng, trials)), l):
        pass  # the sums after the last block
    lam = LN6 * log_norm / l
    lnr = LN6 * lnR / l
    lambda_hat = float(lam.mean())
    lnR_hat = float(lnr.mean())
    s_hat = lambda_hat / lnR_hat
    se_l = se_r = se_s = 0.0
    if trials > 1:
        se_l = float(lam.std(ddof=1) / math.sqrt(trials))
        se_r = float(lnr.std(ddof=1) / math.sqrt(trials))
        cov = float(np.cov(lam, lnr)[0, 1]) / trials
        var_s = (
            (se_l / lnR_hat) ** 2
            + (lambda_hat * se_r / lnR_hat**2) ** 2
            - 2 * lambda_hat * cov / lnR_hat**3
        )
        se_s = math.sqrt(max(var_s, 0.0))
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


# a middle branch has the invariant mass of the unit branch of the same index
_MASS = {UNIT: _mass_unit, MIDDLE: _mass_unit, RIGHT: _mass_right}


def _matrix(fam, n: np.ndarray) -> np.ndarray:
    """Cocycle matrices of branches n: entry (i, j) of branch k at [i, j, k]."""
    return np.array(np.broadcast_arrays(*fam.M(n)), dtype=float).reshape(2, 2, -1)


# series terms: tracemalloc puts the peak at this budget at 8.1, 16.2 and 8.3
# bytes per term (integral_ln_M, integral_ln_r, lower_bound_f), so about 77 MiB
TERM_BUDGET = 5_000_000
# Terms a series computes at once, into the one full-length array its np.sum
# reads. 64 KiB blocks come from malloc's heap. Larger ones are mmapped, and
# page-fault on every call until a larger free raises glibc's threshold: a first
# integral_ln_M(300_000) took 24 ms at 2**15, not 9 (2-core VM)
SERIES_BLOCK = 1 << 13


def _blocks(first: int, stop: int, width: int = 1):
    """Slices of a full-length array of the indices first, ..., stop - 1,
    SERIES_BLOCK // width a block, each with its indices as floats."""
    step = max(SERIES_BLOCK // width, 1)
    for lo in range(first, stop, step):
        hi = min(lo + step, stop)
        yield slice(lo - first, hi - first), np.arange(lo, hi, dtype=float)


def _check_terms(terms: int) -> None:
    """ValueError below 10 terms, NotTerminated above TERM_BUDGET."""
    if terms < 10:
        raise ValueError("terms must be at least 10")
    check_budget(terms, TERM_BUDGET, "terms")


def integral_ln_M(terms: int) -> SeriesValue:
    """Integral of ln of the max row sum of the accelerated matrix against
    the un-normalized invariant density, as one branch series per family."""
    _check_terms(terms)
    total = 0.0
    buffer = np.empty(terms)  # one array for the three families' terms
    for fam in FAMILIES:
        series = buffer[: terms + 1 - fam.first]
        for s, n in _blocks(fam.first, terms + 1):
            m11, m12, _, _ = fam.M(n)  # the first row has the larger sum
            series[s] = np.log(m11 + m12) * _MASS[fam](n)
        total += float(np.sum(series))
    return SeriesValue(total, len(FAMILIES) * _log_tail(3.0, terms), terms)


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
    in the same order. Lanes are independent, so they are taken in
    `_blocks`, each block with its own prefix of live lanes."""

    def prim(t, ln_t, j):
        # integral of -t^j ln t
        return t ** (j + 1) * (-(j + 1) * ln_t + 1) / (j + 1) ** 2

    acc = np.zeros(terms + 1 - MIDDLE.first)
    trunc = np.zeros_like(acc)
    for s, k in _blocks(MIDDLE.first, terms + 1):
        a, b = 1.0 / k, 2.0 / (k + 1.0)
        q = b / k
        ln_a, ln_b = np.log(a), np.log(b)
        block = acc[s]
        scale = 1.0 / k
        rem = _geometric_remainder(k, a, b, 0)  # bound on the terms j, j+1, ...
        live = k.size
        for j in range(EXPANSION_TERMS):
            kept = np.flatnonzero(rem[:live] >= np.spacing(block[:live]) / 4)
            if not kept.size:
                break
            live = kept[-1] + 1
            h = slice(live)
            block[h] += scale[h] * (prim(b[h], ln_b[h], j) - prim(a[h], ln_a[h], j))
            scale[h] /= k[h]
            rem[h] *= q[h]
        # q**EXPANSION_TERMS underflows to +0 once q = b/k < 2**-18, and q
        # falls with k, so only that head of the bounds can be nonzero
        h = slice(np.count_nonzero(q >= 2.0**-18))
        trunc[s][h] = _geometric_remainder(k[h], a[h], b[h], EXPANSION_TERMS)
    return acc, trunc


def integral_ln_r(terms: int) -> SeriesValue:
    """Integral of ln of the expansion ratio against the un-normalized
    invariant density: pi^2/12 from the unit interval, a certified branch
    series from the middle, and (ln 2)^2/2 + pi^2/12 from the right piece."""
    _check_terms(terms)
    first = math.pi**2 / 12
    third = math.log(2) ** 2 / 2 + math.pi**2 / 12
    mid, trunc = _middle_lnr_branches(terms)
    # tail over k > terms: ln r <= ln k on the branch, mass <= 1/k^2
    tail = _log_tail(1.0, terms) + float(np.sum(trunc))
    return SeriesValue(first + float(np.sum(mid)) + third, tail, terms)


# Per predecessor family: the CDF of the invariant density on it, its inverse
# branch x0 = pred(c, x1) from the image x1, and the successor families of its
# branches. Unit and right branches are split by parity: even ones return to
# the unit piece with c = n, odd ones land anywhere in (1,2) with c = n - 1.
# Middle branches (parity None, c = n) always exit into (3/2,2). The maps stay
# written out: deriving them from adj(A(n)) moves the last bit of
# lower_bound_f(10_000).
_BY_PARITY = ((0, (UNIT,)), (1, (MIDDLE, RIGHT)))
_PREDECESSORS = (
    (UNIT, np.log1p, lambda c, x1: 1 / (x1 + c), _BY_PARITY),
    (MIDDLE, np.log, lambda c, x1: (c * x1 + 1 - c) / ((c - 1) * x1 + 2 - c),
     ((None, (RIGHT,)),)),
    (RIGHT, lambda x: np.log(x - 1),
     lambda c, x1: (2 * x1 + 2 * c - 1) / (x1 + c), _BY_PARITY),
)


def _pair_block(pred, c, F, A, succ) -> float:
    """Sum of ln f(M1 M2) weighted by the invariant mass of the two-step
    cylinder, for predecessor branches (column c; rows (m11, m12) of M1 in
    A[0], (m21, m22) in A[1]) against one successor table: branch k lies on
    ends[k], ends[k + 1], and G = F(pred(c, ends)), taken once per row and
    end, gives its weight |G[:, k + 1] - G[:, k]|, the same float either way
    round. A block's one matmul with B gives (c11 | c12) and (c22 | c21), then
    f goes into it through `out=`. The entries are integers below 2**26 at
    TERM_BUDGET, so they, c11 c22 and c12 c21 are exact in any order: each term
    is bit for bit that of `tests/oracle_maps.pair_block`."""
    ends, B = succ
    K = ends.size - 1
    series = np.empty((len(c), K))
    blocks = list(_blocks(0, len(c), K))
    C = np.empty((2, blocks[0][0].stop, 2 * K))
    for s, _ in blocks:
        G = F(pred(c[s], ends[None, :]))
        w = np.abs(np.subtract(G[:, 1:], G[:, :-1], series[s]), series[s])
        p = np.matmul(A[:, s], B, out=C[:, : s.stop - s.start])
        p = np.sqrt(np.multiply(p[0], p[1], p[0]), p[0])  # sqrt(c11 c22) | sqrt(c12 c21)
        f = np.add(p[:, :K], p[:, K:], p[:, :K])
        np.multiply(np.log(f, f), w, w)
    return float(np.sum(series))


def lower_bound_f(terms: int) -> SeriesValue:
    """Lower bound for the top Lyapunov integral via the super-
    multiplicative function f(M) = sqrt(m11 m22) + sqrt(m12 m21), as
    (1/2) ln f on the two-step products M1 M2 over the first N = sqrt(terms)
    branches of each family, weighted by the invariant mass of their
    cylinders. The products are strictly positive (one-step middle matrices
    have an off-diagonal zero), and truncation only drops nonnegative terms,
    so the partial sum stays a certified lower bound. Each successor family's
    N - first + 2 branch ends are made once: neighbouring branches share one."""
    _check_terms(terms)
    N = max(int(math.isqrt(terms)), 10)
    succ = {}
    for fam in FAMILIES:
        n = np.arange(fam.first, N + 2.0)
        # branch n's lower end is n + 1's upper one (right: the other way round)
        lo, hi = fam.ends(n)
        M = _matrix(fam, n[:-1])  # B: (b11 | b12; b21 | b22), (b12 | b11; b22 | b21)
        succ[fam] = (hi if lo[0] == hi[1] else lo, np.stack([M, M[:, ::-1]]).reshape(2, 2, -1))
    total = 0.0
    for fam, F, pred, splits in _PREDECESSORS:
        n = np.arange(fam.first, N + 1.0)
        A = _matrix(fam, n).transpose(0, 2, 1)
        for parity, targets in splits:
            rows = slice(None) if parity is None else n % 2 == parity
            c = (n[rows] - (parity or 0))[:, None]
            for target in targets:
                total += _pair_block(pred, c, F, A[:, rows], succ[target])
    # one-sided truncation: omitted cylinders contribute >= 0, and at most
    # (ln 4 + ln|M1| + ln|M2|) x their mass; both factors give a series
    # tail of the usual ln(cN)/N shape
    tail = 3 * _log_tail(3.0, N) + 2 * LN6 * math.log(4.0) / N
    return SeriesValue(total / 2, tail, N * N)

