"""Hausdorff-dimension computations: closed forms at the self-similar
parameters, the matrix-growth/contraction-ratio estimator, analytic box
counting over depth-l covers, and local measure scaling certificates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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


BOX_CHUNK = 1 << 22  # pieces coded at once by box_count
DEEP_PIECES = 1 << 18  # at most this many pieces expanded at once by box_count_deep
DEEP_BUCKETS = 256  # code ranges that box_count_deep sorts one at a time


class _Window(NamedTuple):
    """The grid cells [ix, ix + nx) x [iy, iy + ny). Cell (i, j) has the
    code (i - ix) * ny + (j - iy): uint32 below 2**32 cells, else int64."""

    ix: int
    iy: int
    nx: int
    ny: int

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint32 if self.nx * self.ny < 1 << 32 else np.int64)

    def holds(self, other: _Window) -> bool:
        return (
            self.ix <= other.ix
            and other.ix + other.nx <= self.ix + self.nx
            and self.iy <= other.iy
            and other.iy + other.ny <= self.iy + self.ny
        )


def _window(arrays, r: float, pad: int = 0) -> _Window:
    """The smallest window holding every cell met by the rectangles, widened
    by pad cells on each side. Rounding and floor are monotone, so the
    extreme cells are those of the extreme edges."""
    x, y, w, h = arrays[:4]
    eps = 1e-12
    ends = [
        (float(x.min()) + eps) / r,
        (float((x + w).max()) - eps) / r,
        (float(y.min()) + eps) / r,
        (float((y + h).max()) - eps) / r,
    ]
    # below 2**51 every index and difference of indices is an exact float
    if not all(abs(v) < 2.0**51 for v in ends):
        raise ValueError("rectangles must be finite, with cell indices below 2**51")
    lo_x, hi_x, lo_y, hi_y = (math.floor(v) for v in ends)
    ix, iy = lo_x - pad, lo_y - pad
    window = _Window(ix, iy, hi_x + pad + 1 - ix, hi_y + pad + 1 - iy)
    if window.nx * window.ny >= 1 << 63:
        raise ValueError("the rectangles span 2**63 grid cells or more")
    return window


def _box_codes(arrays, r: float, window: _Window) -> np.ndarray:
    """Window codes of the side-r cells met by the rectangles, one per
    (rectangle, cell) pair, unsorted: a rectangle meets the cells
    floor((x + 1e-12) / r) .. floor((x + w - 1e-12) / r), and likewise in
    y. Offset (dx, dy) from a rectangle's first cell is emitted only for
    the rectangles with ix0 + dx <= ix1 and iy0 + dy <= iy1."""
    x, y, w, h = arrays[:4]
    eps = 1e-12
    cells = np.empty((4, x.size))
    ix0, sx, iy0, sy = cells
    np.add(x, eps, out=ix0)
    np.add(x, w, out=sx)
    np.add(y, eps, out=iy0)
    np.add(y, h, out=sy)
    cells[1::2] -= eps
    cells /= r
    np.floor(cells, out=cells)
    sx -= ix0
    sy -= iy0
    if sx.min(initial=0) < 0 or sy.min(initial=0) < 0:
        # rectangles thinner than the inset meet no cell
        ix0, sx, iy0, sy = cells = cells[:, (sx >= 0) & (sy >= 0)]
    ix0 -= window.ix
    iy0 -= window.iy
    dt = window.dtype
    base = ix0.astype(dt)
    base *= dt.type(window.ny)
    base += iy0.astype(dt)
    sx, sy = sx.astype(dt), sy.astype(dt)
    del cells, ix0, iy0  # the float cell ranges go before the codes come
    # a rectangle's (sx + 1) * (sy + 1) cells lie in the window
    codes = np.empty(int(np.sum((sx + 1) * (sy + 1), dtype=np.int64)), dt)
    hi = 0
    for dx in range(int(sx.max(initial=0)) + 1):
        keep = sx >= dx
        if not keep.all():
            base, sx, sy = base[keep], sx[keep], sy[keep]
        b, s = base, sy
        for dy in range(int(s.max(initial=0)) + 1):
            keep = s >= dy
            if not keep.all():
                b, s = b[keep], s[keep]
            lo, hi = hi, hi + b.size
            np.add(b, dt.type(dx * window.ny + dy), out=codes[lo:hi])
    return codes


def _distinct(a: np.ndarray) -> int:
    """Number of distinct values of a sorted array."""
    return int(a.size and 1 + np.count_nonzero(a[1:] != a[:-1]))


def _compact(a: np.ndarray) -> np.ndarray:
    """Distinct values of a sorted array."""
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def box_count(pieces, r: float) -> int:
    """Number of side-r grid boxes meeting at least one rectangle, computed
    from the rectangle extents. Exact for any finite rectangles, wherever
    they lie; ValueError if a cell index reaches 2**51 or the rectangles
    span 2**63 cells or more.

    A box is coded by its place in the window of cells the rectangles span
    (`_Window`): uint32 below 2**32 cells, else int64. Each rectangle emits
    one code per cell it meets; the codes are sorted in place and their
    distinct values counted. Above BOX_CHUNK pieces, each chunk's distinct
    codes are merged into those of the chunks before. Beyond the pieces, a
    call holds 32 bytes per piece of cell ranges while it takes first cells
    and spans, then 12 bytes per piece of those and the codes: at a cover's
    natural radius, about 3.6 uint32 codes per piece, the peak is about 45
    bytes per piece."""
    if r <= 0:
        raise ValueError("box side must be positive")
    arrays = _as_arrays(pieces)
    n = arrays[0].size
    if n == 0:
        return 0
    window = _window(arrays, r)
    if n <= BOX_CHUNK:
        codes = _box_codes(arrays, r, window)
        codes.sort()
        return _distinct(codes)
    seen = np.empty(0, window.dtype)
    for lo in range(0, n, BOX_CHUNK):
        codes = _box_codes(tuple(a[lo : lo + BOX_CHUNK] for a in arrays), r, window)
        codes.sort()
        # two sorted runs: the stable sort (timsort) merges them in linear time
        seen = np.concatenate([seen, _compact(codes)])
        seen.sort(kind="stable")
        seen = _compact(seen)
    return int(seen.size)


def box_count_deep(p: Param, l: int, r: float, base_l: int = 9) -> int:
    """Box count of a deep cover at a renormalization fixed point, without
    materializing the cover: the subtrees of the depth-base_l pieces are
    expanded at most DEEP_PIECES pieces at a time. Their cells are coded in
    the window of the base cover, whose pieces contain their subtrees,
    widened by one cell for the rounding of the pulled-back edges. Each
    chunk's distinct codes split by value into DEEP_BUCKETS code ranges,
    and each range is sorted and counted on its own. What is kept costs
    about 4 bytes per box (8 above 2**32 cells), plus a box's code again
    for each further chunk that meets it."""
    if r <= 0:
        raise ValueError("box side must be positive")
    if renorm_step(p) != p:
        raise Degenerate("deep streaming requires a fixed parameter")
    if l <= base_l:
        return box_count(cover_arrays(p, l), r)
    base = _cover(param_chain(p, base_l))
    window = _window(base, r, pad=1)
    width = -(-window.nx * window.ny // DEEP_BUCKETS)
    edges = (np.arange(1, DEEP_BUCKETS) * width).astype(window.dtype)
    buckets: list[list[np.ndarray]] = [[] for _ in range(DEEP_BUCKETS)]
    sigma = substitution(p)
    growth = max(len(sigma.image_a), len(sigma.image_b)) ** (l - base_l)
    chunk = max(1, DEEP_PIECES // growth)
    for lo in range(0, base[0].size, chunk):
        part = _fold([p] * (l - base_l), tuple(a[lo : lo + chunk] for a in base))
        if not window.holds(_window(part, r)):
            raise RuntimeError("a subtree left the cell window of the base cover")
        codes = _box_codes(part, r, window)
        codes.sort()
        codes = _compact(codes)
        for runs, run in zip(buckets, np.split(codes, np.searchsorted(codes, edges))):
            if run.size:
                runs.append(run)
    total = 0
    for runs in buckets:
        if runs:
            codes = np.concatenate(runs)
            runs.clear()
            codes.sort()
            total += _distinct(codes)
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
