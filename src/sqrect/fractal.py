"""Hausdorff-dimension computations: closed forms at the self-similar
parameters, the matrix-growth/contraction-ratio estimator and analytic box
counting over depth-l covers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import Degenerate, check_budget
from .cfrac import param_to_x
from .exactnum import make_surd
from .lyap import cocycle_walk
from .pet import Param, psi_inverse_ints
from .renorm import (
    Level, cover_level, cover_seed, descend, rect_branch_ints, within_budget,
)


@dataclass(frozen=True)
class DimensionReport:
    method: str  # closed_form | ratio_sequence
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
    Perron eigenvalue of the fixed matrix to the log of the contraction.
    The contraction is written without a difference of near-equal terms,
    which would cancel at large n."""
    if n < 1:
        raise ValueError("n must be positive")
    if family == "minus":
        growth = 2 * n + math.sqrt(4 * n * n + 1)
        ratio = 1 / (math.sqrt(n * n + 1) + n)
    elif family == "plus":
        growth = 2 * n + 1 + 2 * math.sqrt(n * (n + 1))
        ratio = 1 / (n + 1 + math.sqrt(n * (n + 2)))
    else:
        raise ValueError("family must be 'minus' or 'plus'")
    return DimensionReport(
        "closed_form",
        -math.log(growth) / math.log(ratio),
        {"family": family, "n": n, "growth": growth, "ratio": ratio},
    )


# rows of dimension_table: the CLI takes about 550 bytes of RSS and 3 us per
# row (json or csv; 10**6 rows in 2.9 s and 580 MB on a 2-core VM), so this
# is about the 0.55 GB of the other budgets
TABLE_ROW_BUDGET = 1_000_000


def dimension_table(n_max: int = 5) -> list[str]:
    """CSV rows family,n,value for both families. ValueError below n_max = 1
    and NotTerminated above TABLE_ROW_BUDGET rows, before the first row."""
    if n_max < 1:
        raise ValueError("n must be positive")
    check_budget(2 * n_max, TABLE_ROW_BUDGET, "table rows")
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


def _fold(levels, arrays):
    """`renorm.cover_level` for each of levels, deepest first, on arrays
    (x, y, w, h, is_square, letter == 'a'), one block per letter: the blocks
    go out letter by letter, step by step of their return orbit, each step
    into its output slice. The blocks are pairs in the given-values frame
    (1, 0, theta, 0), each sqrt(d) part the scalar 0."""
    for level in reversed(levels):
        x, y, w, h, sq, side = arrays
        blocks = [
            ((x[m], 0, y[m], 0, w[m], 0, h[m], 0), sq[m], letter)
            for m, letter in ((side, "a"), (~side, "b"))
        ]
        n_a, n_b = (s.size for _, s, _ in blocks)
        t_a, t_b = level.times
        dtypes = [a.dtype for a in arrays]
        del x, y, w, h, sq, side, arrays  # the inputs go before the outputs come
        arrays = tuple(np.empty(t_a * n_a + t_b * n_b, t) for t in dtypes)
        hi = 0
        theta, eps = (1, 0, float(level.q.theta), 0), level.q.eps
        pull = partial(psi_inverse_ints, theta, eps, 1)
        push = partial(rect_branch_ints, theta, eps)
        for r, s, letter in cover_level(level, pull, push, blocks):
            lo, hi = hi, hi + s.size
            for o, a in zip(arrays, (*r[::2], s, letter == "a")):
                o[lo:hi] = a
    return arrays


def _cover(levels, q):
    """The cover over levels down to q as arrays (x, y, w, h, is_square,
    letter == 'a'); its callers check the levels against PIECE_BUDGET."""
    seed = cover_seed(q.theta)
    # the lattice rows i + j*theta at the float theta: i, j are 0 or 1, so exact
    rows = np.array([r for r, _ in seed], dtype=float)
    rects = (rows[:, ::2] + rows[:, 1::2] * float(q.theta)).T
    letters = np.array([letter == "a" for _, letter in seed])
    return _fold(levels, (*rects, letters, letters))


def cover_arrays(p: Param, l: int):
    """Depth-l cover as float arrays (x, y, w, h, is_square); NotTerminated
    above PIECE_BUDGET (`renorm.within_budget`)."""
    return _cover(*descend(p, l, PIECE_BUDGET))[:5]


BOX_CHUNK = 1 << 22  # pieces coded at once by box_count
BOX_BLOCK = 1 << 16  # pieces floored at once by the box coder, in one scratch
DEEP_PIECES = 1 << 18  # at most this many pieces expanded at once by box_count_deep
DEEP_BUCKETS = 256  # code ranges that _count_chunks sorts one at a time


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


class _Blocks:
    """The rectangles of arrays in the fewest blocks of one size up to
    BOX_BLOCK, each floored in turn into one float scratch as the rows (ix0,
    sx, iy0, sy) of its rectangles that meet a cell: a rectangle meets cells
    ix0 = floor(x0) .. ix0 + sx = floor(x1), x0 = (x + 1e-12) / r and x1 =
    (x + w - 1e-12) / r, and likewise in y; one thinner than the inset meets
    none. Rounding and floor are monotone, so the extreme cells are those of
    the extreme (x0, y0) and (x1, y1)."""

    def __init__(self, arrays, r: float):
        self.arrays, self.r, n = arrays[:4], r, arrays[0].size
        self.starts = range(0, n, size := -(-n // -(-n // BOX_BLOCK)))
        self.scratch = np.empty((4, size))
        self.low, self.high = np.full(2, np.inf), np.full(2, -np.inf)

    def _floor(self, lo: int) -> np.ndarray:
        x, y, w, h = (a[lo : lo + self.scratch.shape[1]] for a in self.arrays)
        cells = self.scratch[:, : x.size]
        ix0, sx, iy0, sy = cells
        np.add(x, 1e-12, out=ix0)
        np.add(x, w, out=sx)
        np.add(y, 1e-12, out=iy0)
        np.add(y, h, out=sy)
        cells[1::2] -= 1e-12
        with np.errstate(over="ignore"):  # refused below
            cells /= self.r
        np.minimum(self.low, cells[::2].min(axis=1), out=self.low)
        np.maximum(self.high, cells[1::2].max(axis=1), out=self.high)
        # below 2**51 every index and difference of indices is an exact float
        if not (abs(np.r_[self.low, self.high]) < 2.0**51).all():
            raise ValueError("rectangles must be finite, with cell indices below 2**51")
        np.floor(cells, out=cells)
        sx -= ix0
        sy -= iy0
        if sx.min() < 0 or sy.min() < 0:
            cells = cells[:, (sx >= 0) & (sy >= 0)]
        return cells

    def scan(self, pad: int = 0) -> tuple[_Window, int]:
        """Pass 1, first block to last: the smallest window holding every cell
        met, widened by pad cells on each side, and the number of `codes`."""
        count = 0
        for lo in self.starts:
            _, sx, _, sy = self.cells = self._floor(lo)
            mx, my = sx.max(initial=0) - 1, sy.max(initial=0) - 1
            if mx > 0 or my > 0:
                fx, fy = np.minimum(sx, mx) + 2, np.minimum(sy, my) + 2
                count += int((fx * fy).sum())
            else:  # spans up to 1: every piece emits the same number of codes
                count += sx.size * int((mx + 2) * (my + 2))
        ix, iy, jx, jy = map(math.floor, (*self.low, *self.high))
        window = _Window(ix - pad, iy - pad, jx - ix + 2*pad + 1, jy - iy + 2*pad + 1)
        if window.nx * window.ny >= 1 << 63:
            raise ValueError("the rectangles span 2**63 grid cells or more")
        return window, count

    def codes(self, window: _Window | None = None) -> np.ndarray:
        """Sorted window codes of the side-r cells met by the rectangles, in
        their own window or in window; RuntimeError if they leave it. Pass 2
        goes last block to first, so the last is floored once. At each offset
        (dx, dy) up to a block's largest spans, each of its rectangles with
        sx >= dx - 1 and sy >= dy - 1 emits base + min(dx, sx) * ny +
        min(dy, sy): every cell it meets, some twice, at most (sx + 2) *
        (sy + 2) codes in all, and 4 where the block's largest spans are 1."""
        own, count = self.scan()
        if not (window := window or own).holds(own):
            raise RuntimeError("the rectangles leave the cell window of the count")
        dt = window.dtype
        ny = dt.type(window.ny)
        codes = np.empty(count, dt)
        hi = 0
        back = chain([self.cells], map(self._floor, self.starts[-2::-1]))
        for ix0, sx, iy0, sy in back:
            mx, my = int(sx.max(initial=0)), int(sy.max(initial=0))
            base = (ix0 - window.ix).astype(dt) * ny + (iy0 - window.iy).astype(dt)
            sx, sy = sx.astype(dt), sy.astype(dt)
            for dx in range(mx + 1):
                if dx > 1:
                    keep = sx >= dx - 1
                    base, sx, sy = base[keep], sx[keep], sy[keep]
                row, s = base + _clip(sx, dx, mx) * ny, sy
                for dy in range(my + 1):
                    if dy > 1:
                        keep = s >= dy - 1
                        row, s = row[keep], s[keep]
                    lo, hi = hi, hi + s.size
                    np.add(row, _clip(s, dy, my), out=codes[lo:hi])
        codes.sort()
        return codes


def _clip(s: np.ndarray, d: int, top: int):
    """min(s, d) for spans s whose largest is top."""
    return s if d == top else np.minimum(s, d) if d else 0


def _distinct(a: np.ndarray) -> int:
    """Number of distinct values of a sorted array."""
    return int(a.size and 1 + np.count_nonzero(a[1:] != a[:-1]))


def _compact(a: np.ndarray) -> np.ndarray:
    """Distinct values of a sorted array."""
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _subtrees(levels, base, budget: int):
    """The pieces of base pulled back through levels (deepest first), in
    chunks of budget // growth base pieces, where growth is the product of
    the longest return times (the lengths of the substitution images): each
    chunk holds at most about budget pieces, since every piece expands
    independently of the others."""
    growth = math.prod(max(level.times) for level in levels)
    chunk = max(1, budget // growth)
    for lo in range(0, base[0].size, chunk):
        yield _fold(levels, tuple(a[lo : lo + chunk] for a in base))


def _count_chunks(chunks, r: float, window: _Window) -> int:
    """Number of side-r boxes met by the rectangles of all chunks, each
    coded in window: a chunk's distinct codes split by value into
    DEEP_BUCKETS code ranges, and each range is sorted and counted on its
    own. RuntimeError if a chunk leaves the window. What is kept costs
    about 4 bytes per box (8 above 2**32 cells), plus a box's code again
    for each further chunk that meets it."""
    width = -(-window.nx * window.ny // DEEP_BUCKETS)
    edges = (np.arange(1, DEEP_BUCKETS) * width).astype(window.dtype)
    buckets: list[list[np.ndarray]] = [[] for _ in range(DEEP_BUCKETS)]
    for part in chunks:
        codes = _compact(_Blocks(part, r).codes(window))
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


def box_count(arrays, r: float) -> int:
    """Number of side-r grid boxes meeting at least one of the rectangles
    (x, y, w, h, ...) of arrays, computed from their extents. Exact for
    any finite rectangles, wherever they lie; ValueError if a cell index
    reaches 2**51 or the rectangles span 2**63 cells or more.

    A box is coded by its place in the window of cells the rectangles span
    (`_Window`): uint32 below 2**32 cells, else int64. The block coder
    (`_Blocks`) counts the codes in one pass over the rectangles, at most
    BOX_BLOCK at a time, and writes them in a second; they are sorted in
    place and their distinct values counted. Above BOX_CHUNK pieces, the
    chunks are counted together by code range (`_count_chunks`). At a
    cover's natural radius each piece emits 4 uint32 codes: tracemalloc puts
    the peak beyond the pieces at 20.6 bytes per piece at 832,040 pieces."""
    if r <= 0:
        raise ValueError("box side must be positive")
    arrays = arrays[:4]
    n = arrays[0].size
    if n == 0:
        return 0
    if n <= BOX_CHUNK:
        return _distinct(_Blocks(arrays, r).codes())
    chunks = (tuple(a[lo : lo + BOX_CHUNK] for a in arrays)
              for lo in range(0, n, BOX_CHUNK))
    return _count_chunks(chunks, r, _Blocks(arrays, r).scan()[0])


def box_count_deep(p: Param, l: int, r: float, base_l: int = 9) -> int:
    """Box count of a deep cover at a renormalization fixed point, without
    materializing the cover: one level, reused at every depth. The
    subtrees of the depth-base_l pieces are expanded at most DEEP_PIECES
    pieces at a time (`_subtrees`) and counted together by code range
    (`_count_chunks`). Their cells are coded in the window of the base
    cover, whose pieces contain their subtrees, widened by one cell for
    the rounding of the pulled-back edges."""
    if r <= 0:
        raise ValueError("box side must be positive")
    level = Level(p)
    if level.next != p:
        raise Degenerate("deep streaming requires a fixed parameter")
    base = _cover([*within_budget([level] * min(l, base_l), PIECE_BUDGET)], p)
    if l <= base_l:
        return box_count(base, r)
    chunks = _subtrees([level] * (l - base_l), base, DEEP_PIECES)
    return _count_chunks(chunks, r, _Blocks(base, r).scan(pad=1)[0])
