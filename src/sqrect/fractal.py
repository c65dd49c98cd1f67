"""Hausdorff-dimension computations: closed forms at the self-similar
parameters, the matrix-growth/contraction-ratio estimator and analytic box
counting over depth-l covers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


PIECE_BUDGET = 1 << 24  # float cover pieces, 0.6 GB at the fold's and box_count's peaks
TURNS = (np.uint8([0, 1, 2]), np.uint8([0, 2, 1]))  # kinds after a step from 'b', from 'a'


def _fold(levels, arrays):
    """`renorm.cover_level` for each of levels, deepest first, on a cover
    (x, y, kind, size, letter == 'a'), one block per letter: the blocks,
    copies of (x, y, kind), go out letter by letter, step by step of their
    return orbit, into one set of arrays sized from the letter counts
    (sigma(a) has m11 a's and m21 b's). Each pull and push writes its step
    (`out=`) straight into the slices after the step yielded last, so a level
    allocates only its blocks: x and y in the given-values frame (1, 0,
    theta, 0), every sqrt(d) part 0, after a push has gathered there the h
    (and w) it reads from size, which psi^-1 scales once a level. The
    arrays passed in are only read."""
    n_a, n_b = (np.count_nonzero(s) for s in (arrays[4], ~arrays[4]))
    for m11, m12, m21, m22 in (level.M for level in reversed(levels)):
        n_a, n_b = m11 * n_a + m12 * n_b, m21 * n_a + m22 * n_b
    out = [np.empty(n_a + n_b, t) for t in (float, float, np.uint8, bool)]
    for level in reversed(levels):
        x, y, kind, size, side = arrays
        blocks = [((x[m], y[m], kind[m]), None, letter)
                  for m, letter in ((side, "a"), (~side, "b"))]
        (t_a, t_b), (n_a, n_b) = level.times, (r[2].size for r, _, _ in blocks)
        n = t_a * n_a + t_b * n_b
        theta, eps = (1, 0, float(level.q.theta), 0), level.q.eps
        w, h = size.T
        size = np.column_stack(psi_inverse_ints(theta, eps, 1, 0, 0, 0, 0, w, 0, h, 0)[4::2])
        arrays = (*(o[:n] for o in out[:3]), size, out[3][:n])
        hi = 0
        at = lambda k: [o[hi : hi + k.size] for o in out[:3]]

        def pull(x, y, k):
            *xy, kinds = at(k)
            kinds[...] = k
            return (*psi_inverse_ints(theta, eps, 1, x, 0, y, 0, out=xy), kinds)

        def push(c, x, y, k):
            *xy, kinds = at(k)
            h = size[:, 1].take(k, out=xy[c == "b"], mode="clip")
            w = size[:, 0].take(k, out=xy[1], mode="clip") if c == "a" and eps == 1 else 0
            TURNS[c == "a"].take(k, out=kinds, mode="clip")
            return (*rect_branch_ints(theta, eps, c, x, 0, y, 0, w, 0, h, 0, out=xy), kinds)

        for r, _, letter in cover_level(level, pull, push, blocks):
            lo, hi = hi, hi + r[2].size
            out[3][lo:hi] = letter == "a"
        del blocks  # before the next level's copies are made
    return arrays


def _cover(levels, q):
    """The cover over levels down to q as (x, y, kind, size, letter == 'a');
    its callers check the levels against PIECE_BUDGET."""
    seed = cover_seed(q.theta)
    # the lattice rows i + j*theta at the float theta: i, j are 0 or 1, so exact
    rows = np.array([r for r, _ in seed], dtype=float)
    x, y, w, h = (rows[:, ::2] + rows[:, 1::2] * float(q.theta)).T
    size = np.array([(w[0], h[0]), (w[-1], h[-1]), (h[-1], w[-1])])
    letters = np.array([letter == "a" for _, letter in seed])
    return _fold(levels, (x, y, np.arange(x.size, dtype=np.uint8), size, letters))


def cover_arrays(p: Param, l: int, budget: int | None = None):
    """Depth-l cover (x, y, kind, size): piece i at (x[i], y[i]) of (w, h)
    size[kind[i]], the square at kind 0. NotTerminated above `budget` pieces
    (`renorm.within_budget`), before any array; PIECE_BUDGET, read at the call."""
    return _cover(*descend(p, l, PIECE_BUDGET if budget is None else budget))[:4]


BOX_CHUNK = 1 << 22  # pieces keyed at once by box_count
BOX_BLOCK = 1 << 16  # pieces floored, or keys counted, at once by the box coder
DEEP_PIECES = 1 << 18  # at most this many pieces expanded at once by box_count_deep
DEEP_BUCKETS = 256  # column ranges that _count_chunks sorts one at a time
# depth-l pieces of box_count_deep, about 0.53 GB: at the natural radius, 5.3 bytes
# and 80 ns a piece (silver mean, depth 12: 63.2M pieces, 336 MB traced, 5 s, 2-core VM)
DEEP_BUDGET = 100_000_000


class _Window(NamedTuple):
    """The grid cells [ix, ix + nx) x [iy, iy + ny). Cell (i, j) has the code
    (i - ix) * ny + (j - iy), and the run of one or two cells up its column
    from it the key 2 * code + length - 1: uint32 below 2**31 cells, else uint64."""

    ix: int
    iy: int
    nx: int
    ny: int

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint32 if self.nx * self.ny < 1 << 31 else np.uint64)

    def holds(self, other: _Window) -> bool:
        return (
            self.ix <= other.ix
            and other.ix + other.nx <= self.ix + self.nx
            and self.iy <= other.iy
            and other.iy + other.ny <= self.iy + self.ny
        )


def _window(arrays, r: float, pad: int = 0) -> _Window:
    """The smallest window holding every side-r cell that the rectangles
    meet (`_keys`), and the cells of those thinner than the inset, widened
    by pad cells on each side. Rounding and floor are monotone, so its
    corners are the cells of the least x and y and of the greatest x + w
    and y + h: nothing is floored. ValueError if a cell index reaches 2**51
    or the window 2**63 cells."""
    x, y, kind, size = arrays[:4]
    blocks = [slice(lo, lo + BOX_BLOCK) for lo in range(0, x.size, BOX_BLOCK)]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        corners = np.array([x.min(), y.min(), *(_top_end(a, size[:, i], kind, blocks)
                                                 for a, i in ((x, 0), (y, 1)))])
        low, high = (corners[:2] + 1e-12) / r, (corners[2:] - 1e-12) / r
    if (high < low - 1).any() and np.isfinite(corners).all():
        return _Window(0, 0, 0, 0)  # r < 2e-12: the insets pass a cell, none is met
    # below 2**51 every index and difference of indices is an exact float
    if not (abs(np.r_[low, high]) < 2.0**51).all():
        raise ValueError("rectangles must be finite, with cell indices below 2**51")
    ix, iy, jx, jy = map(math.floor, (*low, *high))
    window = _Window(ix - pad, iy - pad, jx - ix + 2*pad + 1, jy - iy + 2*pad + 1)
    if window.nx * window.ny >= 1 << 63:
        raise ValueError("the rectangles span 2**63 grid cells or more")
    return window


def _top_end(a, side, kind, blocks):
    """The greatest a + side[kind] (NaN kept) from the pieces not below max(a) -
    ptp(side) rounded up: rounding is monotone, and no float is between v and fl(v)."""
    low = a.max() - np.nextafter(np.ptp(side), np.inf)
    near = [~(a[s] < low) for s in blocks]  # NaN < low and a < NaN are False
    return np.max([np.max(a[s][m] + side.take(kind[s][m], mode="clip"), initial=-np.inf)
                   for s, m in zip(blocks, near)])


def _keys(arrays, r: float, window: _Window) -> np.ndarray:
    """Sorted keys (`_Window`) of runs covering the side-r cells met by the
    rectangles, in window, which must hold them. Each rectangle is floored
    once, in the fewest blocks of one size up to BOX_BLOCK, in one scratch:
    it meets cells ix0 = floor(x0) .. ix0 + sx = floor(x1), x0 = (x + 1e-12)
    / r and x1 = (x + w - 1e-12) / r, and likewise in y; one thinner than
    the inset meets none. In column ix0 + dx for each dx up to the block's
    largest sx (ix0 + min(dx, sx) at dx <= 1) it emits a key for each pair
    of rows iy0 + 2k, 2k <= sy: 2 keys a rectangle where the block's spans
    are at most 1, into one array of that size, grown only past it."""
    n, dt, size = arrays[0].size, window.dtype, arrays[3]
    two, four, col = dt.type(2), dt.type(4), dt.type(2 * window.ny)
    keys, hi = np.empty(2 * n, dt), 0
    scratch = np.empty((4, block := -(-n // -(-n // BOX_BLOCK))))
    for lo in range(0, n, block):
        x, y, kind = (a[lo : lo + block] for a in arrays[:3])
        ix0, sx, iy0, sy = cells = scratch[:, : x.size]
        for a, i, start, end in ((x, 0, ix0, sx), (y, 1, iy0, sy)):
            np.add(a, 1e-12, out=start)
            np.add(a, size[:, i].take(kind, out=end, mode="clip"), out=end)
        cells[1::2] -= 1e-12
        with np.errstate(over="ignore"):  # only past a far negative w or h: no cell
            cells /= r
        np.floor(cells, out=cells)
        sx -= ix0
        sy -= iy0
        cells[::2] -= [[window.ix], [window.iy]]  # exact: integers below 2**52
        if sx.min() < 0 or sy.min() < 0:
            ix0, sx, iy0, sy = cells[:, (sx >= 0) & (sy >= 0)]
        mx, my = int(sx.max(initial=0)), int(sy.max(initial=0))
        base = ix0.astype(dt) * col + iy0.astype(dt) * two
        sx, sy = sx.astype(dt), sy.astype(dt)
        for dx in range(mx + 1):
            if dx > 1:
                keep = sx >= dx
                base, sx, sy = base[keep], sx[keep], sy[keep]
            row, s = base + _clip(sx, dx, mx) * col if dx else base, sy
            for k in range(my // 2 + 1):
                if k:
                    keep = s >= 2
                    row, s = row[keep] + four, s[keep] - two
                if hi + s.size > keys.size:
                    keys = np.concatenate((keys[:hi], np.empty(keys.size, dt)))
                hi += s.size
                np.add(row, _clip(s, 1, my - 2 * k), out=keys[hi - s.size : hi])
    keys[:hi].sort()
    return keys[:hi]


def _clip(s: np.ndarray, d: int, top: int):
    """min(s, d) for spans s whose largest is top."""
    return s if top <= d else np.minimum(s, d)


def _ends(keys: np.ndarray) -> np.ndarray:
    """The end code + length of each run key, (key + 3) // 2."""
    return (keys + keys.dtype.type(3)) >> keys.dtype.type(1)


def _run_count(keys: np.ndarray) -> int:
    """Number of cells in the runs of sorted keys, BOX_BLOCK keys at a time.
    In key order the runs start no lower, at the same start are no
    shorter, and are at most 2 long, so their ends e never fall: run k
    adds min(length, e_k - e_{k-1}) cells, the first its length."""
    total, last, one = 0, keys.dtype.type(0), keys.dtype.type(1)
    for lo in range(0, keys.size, BOX_BLOCK):
        e = _ends(k := keys[lo : lo + BOX_BLOCK])
        total += int(np.minimum(np.diff(e, prepend=last), e - (k >> one)).sum())
        last = e[-1]
    return total


def _compact(keys: np.ndarray) -> np.ndarray:
    """The sorted keys without the runs that add no cell (`_run_count`)."""
    return keys[np.diff(_ends(keys), prepend=keys.dtype.type(0)) > 0]


def _subtrees(levels, base, budget: int):
    """The pieces of base pulled back through levels (deepest first), in
    chunks of budget // growth base pieces, where growth is the product of
    the longest return times (the lengths of the substitution images): each
    chunk holds at most about budget pieces, since every piece expands
    independently of the others."""
    growth = math.prod(max(level.times) for level in levels)
    chunk = max(1, budget // growth)
    for lo in range(0, base[0].size, chunk):
        s = slice(lo, lo + chunk)
        yield _fold(levels, (*(a[s] for a in base[:3]), base[3], base[4][s]))


def _count_chunks(chunks, r: float, window: _Window) -> int:
    """Number of side-r boxes met by the rectangles of all chunks, in
    window, counted in DEEP_BUCKETS column ranges, as no run crosses a
    column. A chunk is keyed from the first column of the range it starts
    in; its keys that add a cell (`_compact`) are kept by range, from the
    range's first column. RuntimeError if a chunk leaves the window. What
    is kept costs at most 4 bytes per box below 2**31 cells a range, plus a
    key again for each further chunk that meets a box."""
    width = -(-window.nx // DEEP_BUCKETS)
    dt = window._replace(nx=width).dtype
    buckets: list[list[np.ndarray]] = [[] for _ in range(DEEP_BUCKETS)]
    for part in chunks:
        if not (own := _window(part, r)).nx * own.ny:
            continue
        if not window.holds(own):
            raise RuntimeError("the rectangles leave the cell window of the count")
        ix = window.ix + (first := (own.ix - window.ix) // width) * width
        sub = window._replace(ix=ix, nx=own.ix + own.nx - ix)
        keys = _keys(part, r, sub)
        del part  # before the keys are compacted and the next chunk folded
        keys = _compact(keys)
        starts = range(0, 2 * sub.nx * sub.ny, 2 * width * sub.ny)
        parts = np.split(keys, np.searchsorted(keys, np.array(starts[1:], sub.dtype)))
        for runs, start, run in zip(buckets[first:], starts, parts):
            if run.size:
                runs.append((run - keys.dtype.type(start)).astype(dt))
    total = 0
    for runs in buckets:
        if runs:
            keys = np.concatenate(runs)
            runs.clear()
            keys.sort()
            total += _run_count(keys)
    return total


def box_count(arrays, r: float) -> int:
    """Number of side-r grid boxes meeting at least one of the rectangles
    of a cover (x, y, kind, size, ...) (`cover_arrays`), computed from their
    extents; any n rectangles are (x, y, np.arange(n), np.column_stack((w,
    h))). Exact for any finite rectangles, wherever they lie; ValueError if
    a cell index reaches 2**51 or the rectangles span 2**63 cells or more.

    The window of cells the rectangles span comes from their extremes
    (`_window`). Each rectangle is floored once and emits a key, a run of
    one or two cells, for each column and pair of rows it meets (`_keys`).
    The keys are sorted in place and the cells of their runs counted
    (`_run_count`); above BOX_CHUNK pieces, chunk by chunk, by column range
    (`_count_chunks`). At a cover's natural radius each piece emits 2
    uint32 keys: tracemalloc puts the peak beyond the pieces at 12.3 bytes
    per piece at 832,040 pieces."""
    if r <= 0:
        raise ValueError("box side must be positive")
    x, y, kind, size = arrays[:4]
    window = _window(arrays, r) if x.size else _Window(0, 0, 0, 0)
    if not window.nx * window.ny:
        return 0
    if x.size <= BOX_CHUNK:
        return _run_count(_keys(arrays, r, window))
    chunks = ((x[s], y[s], kind[s], size) for s in
              (slice(lo, lo + BOX_CHUNK) for lo in range(0, x.size, BOX_CHUNK)))
    return _count_chunks(chunks, r, window)


def box_count_deep(p: Param, l: int, r: float, base_l: int = 9) -> int:
    """Box count of a deep cover at a renormalization fixed point, without
    materializing the cover: one level, reused at every depth. The
    subtrees of the depth-base_l pieces are expanded at most DEEP_PIECES
    pieces at a time (`_subtrees`) and counted together by column range
    (`_count_chunks`). Their cells are keyed in the window of the base
    cover, whose pieces contain their subtrees, widened by one cell for
    the rounding of the pulled-back edges. NotTerminated, before the first
    fold, above DEEP_BUDGET depth-l pieces (`renorm.within_budget`)."""
    if r <= 0:
        raise ValueError("box side must be positive")
    level = Level(p)
    if level.next != p:
        raise Degenerate("deep streaming requires a fixed parameter")
    levels = [*within_budget((level for _ in range(l)), DEEP_BUDGET)]
    base = _cover([*within_budget(levels[:base_l], PIECE_BUDGET)], p)
    if l <= base_l:
        return box_count(base, r)
    chunks = _subtrees(levels[base_l:], base, DEEP_PIECES)
    return _count_chunks(chunks, r, _window(base, r, pad=1))
