import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sqrect.errors import Degenerate, NotTerminated
from sqrect.exactnum import make_surd, parse_number
from sqrect.pet import Param
from sqrect.renorm import (
    RIGHT,
    UNIT,
    Level,
    cover,
    cover_seed,
    descend,
    incidence_matrix,
    renorm_step,
)
from sqrect.lyap import cocycle_product
from sqrect import fractal
from sqrect.fractal import (
    DEEP_BUDGET,
    PIECE_BUDGET,
    _compact,
    _cover,
    _fold,
    _keys,
    _run_count,
    _window,
    box_count,
    box_count_deep,
    cover_arrays,
    dimension_estimate,
    dimension_table,
    radius_sequence,
    selfsimilar_dimension,
    selfsimilar_parameter,
)
from oracle_maps import piece_count, psi_inverse, rect_branch, seed_values
from test_pet import exact_params

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)


class TestClosedForms:
    @pytest.mark.parametrize("family", ["minus", "plus"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_parameter_is_renormalization_fixed_point(self, family, n):
        p = selfsimilar_parameter(family, n)
        assert renorm_step(p) == p

    @pytest.mark.parametrize("family", ["minus", "plus"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_value_matches_perron_eigenvalue(self, family, n):
        p = selfsimilar_parameter(family, n)
        M = incidence_matrix(p)
        lam = max(abs(np.linalg.eigvals([[M.m11, M.m12], [M.m21, M.m22]])))
        oracle = math.log(lam) / math.log(float(Level(p).ratio))
        assert selfsimilar_dimension(family, n).value == pytest.approx(
            oracle, abs=1e-12
        )

    def test_silver_mean_value(self):
        # ln(2 + sqrt 5) / ln(1 + sqrt 2)
        expected = math.log(2 + math.sqrt(5)) / math.log(1 + math.sqrt(2))
        assert selfsimilar_dimension("minus", 1).value == pytest.approx(
            expected, abs=1e-12
        )
        assert selfsimilar_dimension("minus", 1).value == pytest.approx(
            1.637938, abs=1e-6
        )

    @pytest.mark.parametrize("family", ["minus", "plus"])
    @pytest.mark.parametrize("n", [10**4, 10**7, 10**8])
    def test_ratio_matches_exact_surd_at_large_n(self, family, n):
        # the contraction is the surd a + b sqrt(d), here from 256 bits of
        # sqrt(d); a float a + b sqrt(d) cancels to 4 digits at n = 10^7 and
        # to 0 at n = 10^8
        a, b, d = (-n, 1, n * n + 1) if family == "minus" else (n + 1, -1, n * (n + 2))
        root = math.isqrt(d << 512)  # floor(sqrt(d) * 2**256)
        exact = float(Fraction((a << 256) + b * root, 1 << 256))
        rep = selfsimilar_dimension(family, n)
        assert rep.diagnostics["ratio"] == pytest.approx(exact, rel=1e-15)
        growth = rep.diagnostics["growth"]
        assert rep.value == pytest.approx(-math.log(growth) / math.log(exact), rel=1e-14)

    def test_dimensions_decrease_toward_one(self):
        for family in ("minus", "plus"):
            vals = [selfsimilar_dimension(family, n).value for n in range(1, 30)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert 2 > vals[0] > vals[-1] > 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            selfsimilar_dimension("minus", 0)
        with pytest.raises(ValueError):
            selfsimilar_dimension("other", 1)
        with pytest.raises(ValueError):
            selfsimilar_parameter("other", 1)

    def test_table_size_checked_before_the_first_row(self):
        with pytest.raises(ValueError):
            dimension_table(0)
        t0 = time.perf_counter()
        with pytest.raises(NotTerminated):
            dimension_table(fractal.TABLE_ROW_BUDGET // 2 + 1)
        with pytest.raises(NotTerminated):
            dimension_table(10**12)
        assert time.perf_counter() - t0 < 0.1

    def test_table_rows(self):
        rows = dimension_table(5)
        assert rows[0] == "family,n,value"
        assert len(rows) == 11
        for row in rows[1:]:
            family, n, value = row.split(",")
            assert float(value) == pytest.approx(
                selfsimilar_dimension(family, int(n)).value, abs=1e-6
            )


class TestRatioSequenceEstimator:
    def test_matches_closed_form_at_fixed_points(self):
        # both fixed points sit in the n=1 slot of their family
        for family, p in (
            ("minus", Param(SQRT2M1, -1)),
            ("plus", Param(SQRT3M1, 1)),
        ):
            closed = selfsimilar_dimension(family, 1).value
            est = dimension_estimate(p, 50)
            assert est.value == pytest.approx(closed, abs=2e-2)
            assert est.diagnostics["spread"] < 1e-3

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            dimension_estimate(Param(SQRT2M1, -1), 0)

    def test_radius_sequence_decreasing_and_geometric(self):
        seq = radius_sequence(Param(SQRT2M1, -1), 12)
        assert all(b < a for a, b in zip(seq, seq[1:]))
        r = float(Level(Param(SQRT2M1, -1)).ratio)
        for l, val in enumerate(seq, start=1):
            assert val == pytest.approx(r ** (-l), rel=1e-9)


# the six self-similar parameters, which the bench covers, first
FOLD_PARAMS = [
    *((f"-{n}+sqrt({n * n + 1})", -1) for n in (1, 2, 3)),
    *((f"-{n}+sqrt({n * (n + 2)})", 1) for n in (1, 2, 3)),
    ("(-13+4*sqrt(13))/4", -1),
    ("(sqrt(7)-1)/3", 1),
    ("3/8", -1),
    (0.3183098861837907, 1),
    (0.4142135623730951, -1),
    (0.4142135623730951, 1),
]


# The parameter chain and substitutions as they were written before
# `renorm.Level`, each working out f(theta) and 1/f again.
def n_omega(p):
    return math.floor(1 / p.f(p.theta))


def substitution(p):
    return (UNIT if p.eps == -1 else RIGHT).sigma(n_omega(p))


def param_chain(p, l):
    params = [p]
    for _ in range(l):
        q = params[-1]
        n = n_omega(q)
        params.append(Param(1 / q.f(q.theta) - n, -1 if n % 2 == 0 else 1))
    return params


# The float cover level as it was written beside `renorm.cover_level`, on
# whole arrays, letter by letter: the oracle of `_fold`'s arrays and order.
def _oracle_fold(qs, arrays):
    for q in reversed(qs):
        x, y, w, h, sq, side = arrays
        th = float(q.theta)
        sigma = substitution(q)
        x, y, w, h = psi_inverse(th, q.eps, x, y, w, h)
        groups = ((sigma[0], side), (sigma[1], ~side))
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


def _oracle_cover_arrays(p, l):
    """The depth-l cover of p as `_cover`'s six arrays, by `_oracle_fold`."""
    params = param_chain(p, l)
    th = float(params[-1].theta)
    seed = cover_seed(th)
    rects = np.array([seed_values(th, r) for r, _ in seed], dtype=float).T
    letters = np.array([letter == "a" for _, letter in seed])
    return _oracle_fold(params[:-1], (*rects, letters, letters))


def _assert_same_arrays(got, want):
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestCoverArrays:
    def test_matches_exact_cover(self):
        p = Param(SQRT2M1, -1)
        for l in range(0, 4):
            pieces = cover(p, l)
            arrays = cover_arrays(p, l)
            assert arrays[0].size == len(pieces)
            # sort on rounded keys so float noise cannot reorder near-ties
            key = lambda t: tuple(round(v, 9) for v in t)
            exact = sorted(
                (
                    (float(c.rect.x), float(c.rect.y), float(c.rect.w), float(c.rect.h))
                    for c in pieces
                ),
                key=key,
            )
            got = sorted(
                zip(arrays[0], arrays[1], arrays[2], arrays[3]), key=key
            )
            assert np.allclose(np.array(got), np.array(exact), atol=1e-9)

    def test_terminal_seed_matches_exact(self):
        # 3/8 renormalizes to 0 in three steps, so the depth-3 cover grows
        # from the square alone; the float pieces, shapes included, agree
        # with the exact ones at every depth
        p = Param(Fraction(3, 8), -1)
        for l in range(4):
            x, y, w, h, sq = cover_arrays(p, l)
            # sort on rounded keys so float noise cannot reorder near-ties
            key = lambda t: tuple(round(float(v), 9) for v in t)
            exact = sorted(
                (
                    (float(c.rect.x), float(c.rect.y), float(c.rect.w),
                     float(c.rect.h), c.shape == "C")
                    for c in cover(p, l)
                ),
                key=key,
            )
            got = sorted(zip(x, y, w, h, sq), key=key)
            assert len(got) == len(exact) == piece_count(*descend(p, l))
            assert [g[4] for g in got] == [e[4] for e in exact]
            assert np.allclose(np.array(got), np.array(exact), atol=1e-12)

    @pytest.mark.parametrize("theta, eps", FOLD_PARAMS)
    def test_matches_letter_major_fold(self, theta, eps):
        # all six arrays, dtype and bits, at every depth up to 10**6 pieces,
        # the bench's largest cover
        p = Param(parse_number(theta) if isinstance(theta, str) else theta, eps)
        l = 0
        while True:
            _assert_same_arrays(_cover(*descend(p, l)), _oracle_cover_arrays(p, l))
            if descend(p, l)[1].theta == 0 or piece_count(*descend(p, l + 1)) > 10**6:
                break
            l += 1
        assert l >= 3

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.builds(
                Param,
                st.floats(0, 1, exclude_max=True, allow_subnormal=False),
                st.sampled_from([-1, 1]),
            ),
            exact_params(),
        ),
        st.integers(0, 20),
    )
    def test_matches_plain_number_fold_at_random_parameters(self, p, l):
        # depth l or less: at most 20,000 pieces, down to a chain's end at
        # theta = 0
        depth = 0
        while depth < l and descend(p, depth)[1].theta != 0 and (
            piece_count(*descend(p, depth + 1)) <= 20_000
        ):
            depth += 1
        _assert_same_arrays(cover_arrays(p, depth), _oracle_cover_arrays(p, depth)[:5])

    def test_fold_leaves_its_inputs_untouched(self):
        # each level reads its arrays only through the copies of its blocks
        # and writes every step into its own output: the base cover keeps its
        # bits through the folds of the slices that _subtrees passes in
        p = selfsimilar_parameter("minus", 1)
        base = _cover(*descend(p, 3))
        before = [a.copy() for a in base]
        chunks = list(fractal._subtrees([Level(p)] * 3, base, 1000))
        assert sum(c[0].size for c in chunks) == cover_arrays(p, 6)[0].size
        assert not any(np.shares_memory(c[0], a) for c in chunks for a in base)
        _assert_same_arrays(base, before)

    def test_fold_peak_bytes_per_piece(self):
        # the fold allocates its output, 34 bytes a piece, and per level the
        # copies of that level's blocks, and nothing per step: 42.1 bytes a
        # piece in all at depth 9 of the silver mean, where one temporary
        # array of a step would add 0.9
        p = Param(SQRT2M1, -1)
        tracemalloc.start()
        try:
            arrays = cover_arrays(p, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arrays[0].size == 832_040 and peak <= 42.5 * arrays[0].size

    def test_piece_budget(self):
        p = Param(SQRT2M1, -1)
        assert piece_count(*descend(p, 11)) <= PIECE_BUDGET
        assert piece_count(*descend(p, 12)) == 63_245_986
        with pytest.raises(NotTerminated):
            cover_arrays(p, 12)

    def test_piece_count_follows_cocycle(self):
        p = Param(SQRT3M1, 1)
        for l in (1, 2, 4, 6):
            M, _ = cocycle_product(p, l - 1)
            arrays = cover_arrays(p, l)
            assert arrays[0].size == sum(M.apply((1, 1)))


# rectangles (x, y, w, h) on both sides of the axes; w and h up to 0.6
# span several cells at r >= 0.02
RECT = st.tuples(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(1e-6, 0.6), st.floats(1e-6, 0.6)
)


# rectangles (i r, j r, w r, h r) at r = 0.01: on grid lines, where one
# thinner than the 1e-12 inset meets no cell, with spans 0, 1 and above
CELL_RECT = st.tuples(
    st.integers(-300, 300),
    st.integers(-300, 300),
    st.sampled_from([1e-13, 0.3, 0.999, 1.0, 1.7, 3.2]),
    st.sampled_from([1e-13, 0.5, 1.0, 2.4]),
)


# CELL_RECT's rectangles with spans up to 10, each perhaps with a copy or a
# rectangle nested inside it, off the grid lines
WIDE_RECT = st.tuples(
    st.tuples(
        st.integers(-300, 300),
        st.integers(-300, 300),
        st.sampled_from([1e-13, 0.5, 1.0, 2.4, 7.0, 10.0]),
        st.sampled_from([1e-13, 0.5, 1.0, 3.0, 6.5, 10.0]),
    ),
    st.sampled_from(["", "copy", "nested"]),
)

# rectangles (x, y, w, h) as RECT, some thinner than the 1e-12 inset
THIN_OR_RECT = st.tuples(
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.one_of(st.just(0.0), st.just(1e-13), st.floats(1e-6, 0.6)),
    st.one_of(st.just(0.0), st.just(1e-13), st.floats(1e-6, 0.6)),
)


def _columns(rects):
    return tuple(np.array(col, dtype=float) for col in zip(*rects))


def _brute_force_cells(rects, r):
    """Grid cells (ix, iy) met by the rectangles, one rectangle at a time,
    with box_count's 1e-12 inset of the rectangle edges."""
    eps = 1e-12
    cells = set()
    for x, y, w, h in rects:
        xs = range(math.floor((x + eps) / r), math.floor((x + w - eps) / r) + 1)
        ys = range(math.floor((y + eps) / r), math.floor((y + h - eps) / r) + 1)
        cells.update((ix, iy) for ix in xs for iy in ys)
    return cells


def _spans(rect, r):
    """A rectangle's spans (sx, sy): it meets sx + 1 columns and sy + 1 rows
    of cells (-1: none)."""
    x, y, w, h = rect
    eps = 1e-12
    return tuple(
        math.floor((a + b - eps) / r) - math.floor((a + eps) / r)
        for a, b in ((x, w), (y, h))
    )


class TestBoxCount:
    def test_unit_square_oracle(self):
        square = (
            np.array([0.0]),
            np.array([0.0]),
            np.array([1.0]),
            np.array([1.0]),
            np.array([True]),
        )
        for k in (1, 3, 7, 20):
            assert box_count(square, 1 / k) == k * k

    def test_monotone_in_radius(self):
        arrays = cover_arrays(Param(SQRT2M1, -1), 5)
        counts = [box_count(arrays, r) for r in (0.2, 0.1, 0.05, 0.02)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            box_count(cover_arrays(Param(SQRT2M1, -1), 2), 0.0)

    def test_no_pieces_count_zero(self):
        assert box_count(tuple(np.empty(0) for _ in range(5)), 0.1) == 0

    @given(
        rects=st.lists(RECT, min_size=1, max_size=30).flatmap(
            lambda rs: st.lists(st.sampled_from(rs), max_size=5).map(
                lambda dups: rs + dups
            )
        ),
        r=st.floats(0.02, 0.5),
    )
    def test_matches_brute_force_cells(self, rects, r):
        arrays = tuple(np.array(col) for col in zip(*rects))
        assert box_count(arrays, r) == len(_brute_force_cells(rects, r))

    @pytest.mark.parametrize(
        "rects",
        [
            [(0.1, 3.6, 0.01, 0.01), (0.6, 0.1, 0.01, 0.01)],
            [(0.6, -0.4, 0.01, 0.01), (0.1, 3.2, 0.01, 0.01)],
        ],
    )
    def test_disjoint_squares_far_from_the_unit_square(self, rects):
        # cells in different columns whose row offsets differ by a column
        # height of a grid sized to the domain: each must be its own box
        assert box_count(_columns(rects), 0.5) == 2
        assert len(_brute_force_cells(rects, 0.5)) == 2

    def test_rectangles_thinner_than_the_inset_meet_no_cell(self):
        rects = [(0.3, 0.3, 1e-13, 0.2), (0.3, 0.6, 0.2, 1e-13), (0.7, 0.7, 0.1, 0.1)]
        assert box_count(_columns(rects), 0.05) == 4 == len(
            _brute_force_cells(rects, 0.05)
        )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e30])
    def test_rejects_rectangles_beyond_exact_cell_indices(self, bad):
        rects = [(0.0, 0.0, 0.1, 0.1), (bad, 0.0, 0.1, 0.1)]
        with pytest.raises(ValueError):
            box_count(_columns(rects), 0.1)

    def test_rejects_a_window_of_two_to_the_63_cells(self):
        # cell indices up to 10**14 are exact, but the window is 10**28 cells
        rects = [(0.0, 0.0, 1.0, 1.0), (1e14, 1e14, 1.0, 1.0)]
        with pytest.raises(ValueError):
            box_count(_columns(rects), 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        cells=st.lists(WIDE_RECT, min_size=1, max_size=30),
        far=st.sampled_from([0, 2**15, 2**17]),
    )
    @example(cells=[((0, 0, 10.0, 10.0), "nested"), ((5, 5, 1.0, 7.0), "copy")], far=2**15)
    def test_run_count_matches_brute_force_cells(self, cells, far):
        # far: two more squares, far cells out, make a window of 2**31 cells
        # or more, keyed in uint64
        r = 0.01
        grid = []
        for (i, j, w, h), extra in cells:
            grid.append((i, j, w, h))
            if extra == "copy":
                grid.append((i, j, w, h))
            if extra == "nested":
                grid.append((i + w / 4, j + h / 4, w / 2, h / 2))
        if far:
            grid += [(-far, -far // 2, 0.5, 0.5), (far, far // 2, 0.5, 0.5)]
        rects = [(i * r, j * r, w * r, h * r) for i, j, w, h in grid]
        arrays = _columns(rects)
        window = _window(arrays, r)
        assert window.dtype == (np.uint64 if far else np.uint32)
        assert (window.nx * window.ny >= 2**31) == bool(far)
        want = len(_brute_force_cells(rects, r))
        assert _run_count(_keys(arrays, r, window)) == want == box_count(arrays, r)

    @given(
        rects=st.lists(THIN_OR_RECT, min_size=1, max_size=30),
        r=st.floats(0.02, 0.5),
        pad=st.integers(0, 2),
    )
    def test_window_from_extremes_is_the_floored_window(self, rects, r, pad):
        # every rectangle floored, thin ones included
        eps = 1e-12
        ix = min(math.floor((x + eps) / r) for x, _, _, _ in rects)
        iy = min(math.floor((y + eps) / r) for _, y, _, _ in rects)
        jx = max(math.floor((x + w - eps) / r) for x, _, w, _ in rects)
        jy = max(math.floor((y + h - eps) / r) for _, y, _, h in rects)
        want = (ix - pad, iy - pad, jx - ix + 1 + 2 * pad, jy - iy + 1 + 2 * pad)
        assert _window(_columns(rects), r, pad) == want

    @pytest.mark.parametrize(
        "column, bad",
        [(c, b) for c in range(4) for b in (math.nan, math.inf, 1e30)]
        + [(0, -math.inf), (1, -math.inf)],
    )
    def test_window_refuses_nan_and_huge_coordinates(self, column, bad):
        rect = [0.0, 0.0, 0.1, 0.1]
        rect[column] = bad
        arrays = _columns([(0.0, 0.0, 0.1, 0.1), tuple(rect)])
        for count in (lambda: _window(arrays, 0.1), lambda: box_count(arrays, 0.1)):
            with pytest.raises(ValueError, match=r"cell indices below 2\*\*51"):
                count()

    def test_code_dtype_follows_the_window(self):
        small = _window(_columns([(0.0, 0.0, 1.0, 1.0)]), 1e-4)
        large = _window(_columns([(0.0, 0.0, 1.0, 1.0)]), 1e-5)
        assert (small.nx * small.ny, small.dtype) == (10**8, np.uint32)
        assert (large.nx * large.ny, large.dtype) == (10**10, np.uint64)

    def test_codes_strictly_increasing(self):
        p = Param(SQRT2M1, -1)
        for l, r in ((3, 0.05), (6, radius_sequence(p, 6)[5])):
            arrays = cover_arrays(p, l)
            codes = _compact(_keys(arrays, r, _window(arrays, r)))
            assert codes.size > 1 and np.all(np.diff(codes.astype(np.int64)) > 0)

    @given(rects=st.lists(RECT, min_size=1, max_size=30), r=st.floats(0.02, 0.5))
    def test_run_keys_cover_each_cell_once_per_column_and_row_pair(self, rects, r):
        arrays = _columns(rects)
        window = _window(arrays, r)
        keys = _keys(arrays, r, window)
        codes, lengths = np.divmod(keys.astype(np.int64), 2)
        lengths += 1
        ix, iy = np.divmod(codes, window.ny)
        # a run of two cells stays in its column
        assert np.all(iy + lengths <= window.ny)
        cells = set(zip((ix + window.ix).tolist(), (iy + window.iy).tolist()))
        cells |= set(zip((ix + window.ix)[lengths == 2].tolist(),
                         (iy + window.iy + 1)[lengths == 2].tolist()))
        assert cells == _brute_force_cells(rects, r)
        # the window is the smallest that holds every cell
        xs, ys = zip(*cells)
        assert (window.ix, window.iy) == (min(xs), min(ys))
        assert (window.nx, window.ny) == (max(xs) + 1 - min(xs), max(ys) + 1 - min(ys))
        # a rectangle emits one key for each column and pair of rows it
        # meets, and column 0 again where its sx is 0 and another's is not:
        # 2 keys a rectangle where every span is at most 1 and some sx is 1
        spans = [_spans(rect, r) for rect in rects]
        mx = min(1, max(sx for sx, _ in spans))
        assert keys.size == sum((max(sx, mx) + 1) * (sy // 2 + 1) for sx, sy in spans)
        assert _run_count(keys) == len(cells)

    @pytest.mark.parametrize("family, n, l", [("minus", 1, 6), ("plus", 2, 5), ("plus", 3, 3)])
    def test_two_keys_a_piece_at_the_natural_radius(self, family, n, l):
        # every span of a cover at its natural radius is 0 or 1, and each
        # block has pieces of span 1 both ways
        p = selfsimilar_parameter(family, n)
        arrays = cover_arrays(p, l)
        r = radius_sequence(p, l)[l - 1]
        spans = {_spans(rect, r) for rect in zip(*(a.tolist() for a in arrays[:4]))}
        assert {0, 1} == {s for pair in spans for s in pair}
        keys = _keys(arrays, r, _window(arrays, r))
        assert keys.size == 2 * arrays[0].size and keys.dtype == np.uint32

    @settings(max_examples=60, deadline=None)
    @given(cells=st.lists(CELL_RECT, min_size=1, max_size=40), far=st.booleans())
    @example(cells=[(0, 0, 1e-13, 2.4), (3, 4, 0.3, 0.5), (-2, 7, 3.2, 1.0)], far=True)
    def test_block_size_changes_no_count(self, cells, far):
        # far: two more squares, 2**17 cells out on each side, make a window
        # of 2**36 cells, keyed in uint64
        r = 0.01
        cells = cells + [(-(2**17), -(2**17), 0.5, 0.5), (2**17, 2**17, 0.5, 0.5)][: 2 * far]
        rects = [(i * r, j * r, w * r, h * r) for i, j, w, h in cells]
        want = len(_brute_force_cells(rects, r))
        arrays = _columns(rects)
        if want:
            assert _window(arrays, r).dtype == (np.uint64 if far else np.uint32)
        for block in (1, 3, 64, fractal.BOX_BLOCK):
            with mock.patch.object(fractal, "BOX_BLOCK", block):
                assert box_count(arrays, r) == want

    def test_peak_bytes_per_piece(self):
        # box_count's docstring rests on this peak: 12.3 bytes a piece above
        # the cover at the natural radius (8 of them keys), and 14 with margin
        p = selfsimilar_parameter("minus", 1)
        arrays = cover_arrays(p, 9)
        r = radius_sequence(p, 9)[8]
        tracemalloc.start()
        try:
            box_count(arrays, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arrays[0].size == 832_040 and peak <= 14 * arrays[0].size

    def test_chunked_merge_matches_one_chunk(self, monkeypatch):
        p = Param(SQRT2M1, -1)
        rng = np.random.default_rng(9)
        corners, sides = rng.uniform(-3, 3, (2, 500)), rng.uniform(1e-3, 0.3, (2, 500))
        arrays = tuple(
            np.concatenate(pair)
            for pair in zip(cover_arrays(p, 6), (*corners, *sides))
        )
        for r in (radius_sequence(p, 6)[5], 0.01):
            one_chunk = box_count(arrays, r)
            with monkeypatch.context() as m:
                m.setattr(fractal, "BOX_CHUNK", 1000)
                chunked = box_count(arrays, r)
            rects = zip(*(a.tolist() for a in arrays))
            assert chunked == one_chunk == len(_brute_force_cells(rects, r))

    @pytest.mark.parametrize("r", [1e-13, 1e-15, 5e-324])
    def test_no_box_where_the_inset_passes_whole_cells(self, r):
        # below r = 1e-12 the 1e-12 inset of a point's edges spans cells: its
        # last cell lies before its first, and neither the window nor the
        # count may wrap around (an OverflowError at 1e-13 and 1e-15)
        point = _columns([(0.0, 0.0, 0.0, 0.0)])
        assert _window(point, r) == (0, 0, 0, 0)
        assert box_count(point, r) == 0
        # an end at -inf lies before the start too, and is refused, not counted
        with pytest.raises(ValueError, match=r"cell indices below 2\*\*51"):
            box_count(_columns([(0.0, 0.0, -math.inf, 0.0)]), r)

    def test_chunks_without_a_cell_are_skipped(self, monkeypatch):
        # at r = 1e-13 a square of 5e-12 meets 31 x 31 cells and a point
        # beside it none, in a chunk of its own
        rects = [(0.5, 0.5, 0.0, 0.0), (0.5, 0.5, 5e-12, 5e-12), (0.5, 0.5, 1e-12, 0.0)]
        monkeypatch.setattr(fractal, "BOX_CHUNK", 1)
        want = len(_brute_force_cells(rects, 1e-13))
        assert box_count(_columns(rects), 1e-13) == want == 31 * 31

    def test_deep_streaming_agrees_with_direct(self):
        p = Param(SQRT2M1, -1)
        r = radius_sequence(p, 6)[5]
        assert box_count_deep(p, 6, r, base_l=3) == box_count(
            cover_arrays(p, 6), r
        )

    @pytest.mark.parametrize(
        "family, n, l, base_l, deep_pieces",
        [
            ("plus", 2, 5, 2, fractal.DEEP_PIECES),
            ("plus", 2, 5, 2, 1000),
            ("minus", 1, 6, 3, 1000),
        ],
    )
    def test_deep_streaming_agrees_with_direct_in_chunks(
        self, monkeypatch, family, n, l, base_l, deep_pieces
    ):
        # 1000 pieces a chunk expands one base piece of plus 2 at a time
        p = selfsimilar_parameter(family, n)
        r = radius_sequence(p, l)[l - 1]
        monkeypatch.setattr(fractal, "DEEP_PIECES", deep_pieces)
        assert box_count_deep(p, l, r, base_l=base_l) == box_count(
            cover_arrays(p, l), r
        )

    @pytest.mark.parametrize(
        "family, n, l, base_l", [("minus", 1, 7, 4), ("plus", 2, 5, 3)]
    )
    def test_deep_chunks_lie_inside_the_base_window(self, family, n, l, base_l):
        # the window of the base cover, not widened, holds every subtree
        p = selfsimilar_parameter(family, n)
        base = _cover(*descend(p, base_l))
        for r in (radius_sequence(p, l)[l - 1], 0.003):
            window = _window(base, r)
            for lo in range(0, base[0].size, 50):
                part = _fold(
                    [Level(p)] * (l - base_l), tuple(a[lo : lo + 50] for a in base)
                )
                assert window.holds(_window(part, r))

    def test_deep_rejects_a_subtree_outside_its_window(self, monkeypatch):
        p = Param(SQRT2M1, -1)
        folds = []

        def shifted(qs, arrays):
            x, *rest = _fold(qs, arrays)
            folds.append(qs)
            # the first fold builds the base cover; move the subtrees
            return (x + 0.5 if len(folds) > 1 else x, *rest)

        monkeypatch.setattr(fractal, "_fold", shifted)
        with pytest.raises(RuntimeError):
            box_count_deep(p, 6, radius_sequence(p, 6)[5], base_l=3)

    def test_deep_refuses_a_depth_above_its_budget_before_folding(self):
        p = selfsimilar_parameter("minus", 1)
        assert piece_count(*descend(p, 12)) <= DEEP_BUDGET < piece_count(*descend(p, 13))
        for l in (13, 14, 10**30):
            start = time.perf_counter()
            with pytest.raises(NotTerminated):
                box_count_deep(p, l, 1e-6)
            assert time.perf_counter() - start < 0.1

    def test_deep_requires_fixed_parameter(self):
        with pytest.raises(Degenerate):
            box_count_deep(Param(Fraction(3, 8), -1), 5, 0.01, base_l=1)
