"""Hausdorff-dimension computations: closed forms at the self-similar
parameters, the matrix-growth/contraction-ratio estimator, analytic box
counting over depth-l covers, and local measure scaling certificates."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, DegenerateFit, DepthMismatch
from .cfrac import param_to_x
from .exactnum import make_surd
from .lyap import cocycle_walk
from .pet import Param, psi_inverse
from .renorm import (
    check_budget, cover_seed, param_chain, rect_branch, renorm_step, substitution
)
from .words import default_prefix_len, tower_stats


@dataclass(frozen=True)
class DimensionReport:
    method: str  # closed_form | ratio_sequence | box_count | local_scaling
    value: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"method": self.method, "value": self.value, **self.diagnostics}
        )


# -- closed forms --------------------------------------------------------


def selfsimilar_parameter(family: str, n: int) -> Param:
    """The fixed parameter of the renormalization in each family."""
    if n < 1:
        raise ValueError("n must be positive")
    if family == "minus":
        return Param(make_surd(-n, 1, 1, n * n + 1), -1)
    if family == "plus":
        return Param(make_surd(-n, 1, 1, n * (n + 2)), 1)
    raise ValueError("family must be 'minus' or 'plus'")


def selfsimilar_dimension(family: str, n: int) -> DimensionReport:
    """Dimension at the self-similar parameters: ratio of the log of the
    Perron eigenvalue of the fixed matrix to the log of the contraction."""
    if n < 1:
        raise ValueError("n must be positive")
    if family == "minus":
        growth = 2 * n + math.sqrt(4 * n * n + 1)
        ratio = math.sqrt(n * n + 1) - n
    elif family == "plus":
        growth = 2 * n + 1 + 2 * math.sqrt(n * (n + 1))
        ratio = n + 1 - math.sqrt(n * (n + 2))
    else:
        raise ValueError("family must be 'minus' or 'plus'")
    return DimensionReport(
        "closed_form",
        -math.log(growth) / math.log(ratio),
        {"family": family, "n": n, "growth": growth, "ratio": ratio},
    )


def dimension_table(n_max: int = 5) -> list[str]:
    """CSV rows family,n,value for both families."""
    rows = ["family,n,value"]
    for family in ("minus", "plus"):
        for n in range(1, n_max + 1):
            rows.append(f"{family},{n},{selfsimilar_dimension(family, n).value:.6f}")
    return rows


# -- ratio-sequence estimator --------------------------------------------


def _orbit_logs(p: Param, l: int):
    """Per-depth ln N (total entry sum of the matrix product) and ln R
    (accumulated log contraction) along the accelerated orbit."""
    ln_R = 0.0
    out = []
    for st, log_norm in cocycle_walk(param_to_x(p), l):
        ln_R += math.log(float(st.r_bold))
        out.append((log_norm, ln_R))
    return out


def dimension_estimate(p: Param, l: int) -> DimensionReport:
    """The sequence ln N / (-ln R) at successive depths; the value is the
    deepest entry and the spread of the last three is reported since the
    finite-depth values oscillate at non-fixed parameters."""
    if l < 1:
        raise ValueError("l must be positive")
    logs = _orbit_logs(p, l)
    seq = [n / r for n, r in logs]
    last3 = seq[-3:]
    return DimensionReport(
        "ratio_sequence",
        seq[-1],
        {
            "l": l,
            "spread": max(last3) - min(last3),
            "sequence_tail": [round(v, 9) for v in last3],
        },
    )


def radius_sequence(p: Param, l: int) -> list[float]:
    """Contraction radii R at depths 1..l: strictly decreasing."""
    return [math.exp(-r) for _, r in _orbit_logs(p, l)]


# -- covers as flat arrays -----------------------------------------------


PIECE_BUDGET = 1 << 24  # float cover pieces, about 0.6 GB of arrays


def _fold(qs, arrays):
    """`renorm.cover_level` for each q of qs, deepest first, on arrays
    (x, y, w, h, is_square, letter == 'a'): the pieces of letter L go out
    together, step by step of their return orbit, and at step i all take
    the branch sigma_q(L)[i]. Each group is written into its output slice."""
    for q in reversed(qs):
        x, y, w, h, sq, side = arrays
        th = float(q.theta)
        sigma = substitution(q)
        x, y, w, h = psi_inverse(th, q.eps, x, y, w, h)
        groups = ((str(sigma.image_a), side), (str(sigma.image_b), ~side))
        size = sum(len(word) * int(np.count_nonzero(m)) for word, m in groups)
        arrays = tuple(np.empty(size, a.dtype) for a in (x, y, w, h, sq, side))
        hi = 0
        for word, mask in groups:
            rect, s = tuple(a[mask] for a in (x, y, w, h)), sq[mask]
            for i, letter in enumerate(word):
                if i:
                    rect = rect_branch(th, q.eps, word[i - 1], *rect)
                lo, hi = hi, hi + s.size
                for o, a in zip(arrays, (*rect, s, letter == "a")):
                    o[lo:hi] = a
    return arrays


def _cover(params):
    """The cover over params as arrays (x, y, w, h, is_square, letter == 'a'),
    after a check of its piece count against PIECE_BUDGET."""
    check_budget(params, PIECE_BUDGET)
    seed = cover_seed(float(params[-1].theta))
    rects = np.array([r for r, _ in seed], dtype=float).T
    letters = np.array([letter == "a" for _, letter in seed])
    return _fold(params[:-1], (*rects, letters, letters))


def cover_arrays(p: Param, l: int):
    """Depth-l cover as float arrays (x, y, w, h, is_square)."""
    return _cover(param_chain(p, l))[:5]


def _as_arrays(pieces):
    if isinstance(pieces, tuple):
        return pieces[:4]
    x = np.array([float(c.rect.x) for c in pieces])
    y = np.array([float(c.rect.y) for c in pieces])
    w = np.array([float(c.rect.w) for c in pieces])
    h = np.array([float(c.rect.h) for c in pieces])
    return x, y, w, h


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Distinct values of a 1-D array in increasing order. Sorts `a` in
    place, so pass a temporary. A sort plus an adjacent-difference mask:
    np.unique may take a hash path that is many times slower."""
    a.sort()
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _box_codes(arrays, r: float, stride: int) -> np.ndarray:
    """Grid-cell codes ix*stride+iy met by the rectangles, deduplicated by
    sorting, so they come out strictly increasing."""
    x, y, w, h = arrays[:4]
    eps = 1e-12
    ix0 = np.floor((x + eps) / r).astype(np.int64)
    ix1 = np.floor((x + w - eps) / r).astype(np.int64)
    iy0 = np.floor((y + eps) / r).astype(np.int64)
    iy1 = np.floor((y + h - eps) / r).astype(np.int64)
    parts = []
    span_x = int((ix1 - ix0).max(initial=0)) + 1
    span_y = int((iy1 - iy0).max(initial=0)) + 1
    for dx in range(span_x):
        cx = np.minimum(ix0 + dx, ix1)
        for dy in range(span_y):
            cy = np.minimum(iy0 + dy, iy1)
            parts.append(cx * stride + cy)
    return _sorted_unique(np.concatenate(parts))


def _grid_stride(r: float) -> int:
    return int(math.ceil(2.5 / r)) + 2


def box_count(pieces, r: float) -> int:
    """Number of side-r grid boxes meeting at least one cover piece,
    computed analytically from the rectangle extents."""
    if r <= 0:
        raise ValueError("box side must be positive")
    arrays = _as_arrays(pieces)
    stride = _grid_stride(r)
    seen = np.empty(0, dtype=np.int64)
    chunk = 1 << 22
    for lo in range(0, arrays[0].size, chunk):
        part = tuple(a[lo : lo + chunk] for a in arrays)
        codes = _box_codes(part, r, stride)
        if seen.size:
            codes = _sorted_unique(np.concatenate([seen, codes]))
        seen = codes
    return int(seen.size)


def box_count_deep(p: Param, l: int, r: float, base_l: int = 9) -> int:
    """Box count of a deep cover at a renormalization fixed point, without
    materializing the cover: subtrees rooted at the depth-base_l pieces are
    expanded chunk by chunk. Each chunk's grid codes come out sorted, so
    they split by value into buckets with searchsorted; each bucket is then
    deduplicated by sorting."""
    if renorm_step(p) != p:
        raise Degenerate("deep streaming requires a fixed parameter")
    if l <= base_l:
        return box_count(cover_arrays(p, l), r)
    arrays = _cover(param_chain(p, base_l))
    stride = _grid_stride(r)
    n_buckets = 256
    shift = max(int(stride * stride // n_buckets), 1)
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_buckets)]
    chunk = 60_000
    for lo in range(0, arrays[0].size, chunk):
        part = tuple(a[lo : lo + chunk] for a in arrays)
        part = _fold([p] * (l - base_l), part)
        codes = _box_codes(part, r, stride)
        idx = np.minimum(codes // shift, n_buckets - 1)
        bounds = np.searchsorted(idx, np.arange(n_buckets + 1))
        for b in range(n_buckets):
            if bounds[b + 1] > bounds[b]:
                buckets[b].append(codes[bounds[b] : bounds[b + 1]])
    total = 0
    for parts in buckets:
        if parts:
            total += int(_sorted_unique(np.concatenate(parts)).size)
            parts.clear()
    return total


def slope_fit(radii, counts) -> DimensionReport:
    """Least-squares slope of ln count against -ln r."""
    lx = -np.log(np.asarray(radii, dtype=float))
    ly = np.log(np.asarray(counts, dtype=float))
    if lx.size < 2:
        raise DegenerateFit("need at least two radii")
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r2 < 0.99:
        raise DegenerateFit(f"R^2 = {r2:.4f} below 0.99")
    return DimensionReport(
        "box_count",
        float(slope),
        {"r_squared": r2, "points": int(lx.size), "intercept": float(intercept)},
    )


def box_dimension(p: Param, l_min: int = 4, l_max: int = 10) -> DimensionReport:
    """Slope of the box counts of depth-l covers at their natural radii."""
    radii = radius_sequence(p, l_max)[l_min - 1 :]
    counts = [box_count(cover_arrays(p, l), r) for l, r in enumerate(radii, l_min)]
    report = slope_fit(radii, counts)
    return DimensionReport(
        "box_count", report.value, {**report.diagnostics, "l_max": l_max}
    )


# -- local measure scaling -----------------------------------------------


def local_scaling(p: Param, points: int, radii) -> DimensionReport:
    """Frostman-style certificate: ln of the measure of a ball over ln of
    its radius at cover-piece centers, with the depth-l pieces carrying
    masses alpha (square pieces) and beta (rectangle pieces)."""
    radii = [float(r) for r in radii]
    if not radii or points < 1:
        raise ValueError("need at least one point and one radius")
    # match the cover depth to the smallest radius
    l = 1
    seq = radius_sequence(p, 24)
    while l < len(seq) and seq[l - 1] > min(radii) / 2:
        l += 1
    if seq[l - 1] > min(radii) / 2:
        raise DepthMismatch("radii finer than the deepest available cover")
    use = [r for r in radii if r > seq[l - 1]]
    if not use:
        raise DepthMismatch("no radius coarser than the deepest cover level")
    params = param_chain(p, l)
    check_budget(params, PIECE_BUDGET)
    # the cover at depth l can be huge; materialize only the deepest base_l
    # levels and push the remaining pull-backs chunk by chunk, since each
    # piece expands independently of the others
    base_l = min(l, 8)
    base = _cover(params[l - base_l :])
    rest = params[: l - base_l]
    growth = 1
    for sigma in map(substitution, rest):
        growth *= max(len(sigma.image_a), len(sigma.image_b))
    # the depth-l cover has one piece per letter of the index-(l-1) matrix
    # product, so the piece masses come from the index-(l-1) tower
    ts = tower_stats(p, l - 1, prefix_len=default_prefix_len(p, l - 1))
    alpha, beta = ts.alpha, ts.beta
    rng = np.random.default_rng(points)
    # centers of full-depth pieces, drawn from a few expanded subtrees
    idx = rng.choice(base[0].size, size=min(points, base[0].size), replace=False)
    deep = _fold(rest, tuple(a[idx] for a in base))
    cidx = rng.choice(deep[0].size, size=min(points, deep[0].size), replace=False)
    cx = deep[0][cidx] + deep[2][cidx] / 2
    cy = deep[1][cidx] + deep[3][cidx] / 2
    mu = np.zeros((cx.size, len(use)))
    chunk = max(1, 2_000_000 // growth)
    for lo in range(0, base[0].size, chunk):
        x, y, w, h, sq, _ = _fold(rest, tuple(a[lo : lo + chunk] for a in base))
        mass = np.where(sq, alpha, beta)
        for i in range(cx.size):
            for j, r in enumerate(use):
                hit = (
                    (x < cx[i] + r)
                    & (x + w > cx[i] - r)
                    & (y < cy[i] + r)
                    & (y + h > cy[i] - r)
                )
                mu[i, j] += float(mass[hit].sum())
    ests = np.log(mu) / np.log(2 * np.asarray(use))
    return DimensionReport(
        "local_scaling",
        float(ests.min()),
        {
            "points": int(cx.size),
            "radii": len(use),
            "mean": float(ests.mean()),
            "depth": l,
        },
    )
