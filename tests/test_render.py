import gzip
import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sqrect.fractal
from sqrect.errors import NotTerminated
from sqrect.exactnum import make_surd
from sqrect.fractal import cover_arrays, selfsimilar_parameter
from sqrect.pet import Param
from sqrect.renorm import descend
from sqrect.render import (
    COVER_PIECE_BUDGET,
    PALETTE,
    RASTER_BUDGET,
    Image,
    island_color,
    render_cover,
    render_discontinuities,
    render_islands,
)

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)


def pixel_set_distance(a: Image, b: Image, color=None) -> float:
    """Symmetric Hausdorff distance in pixels between the sets of pixels
    holding `color` (default: any non-background pixel) in the two images."""
    from scipy.ndimage import distance_transform_edt

    if a.pixels.shape != b.pixels.shape:
        raise ValueError("images must have identical dimensions")

    def mask(img: Image) -> np.ndarray:
        if color is None:
            return np.any(img.pixels != PALETTE["background"], axis=2)
        return np.all(img.pixels == color, axis=2)

    ma, mb = mask(a), mask(b)
    if not ma.any() or not mb.any():
        return math.inf if ma.any() != mb.any() else 0.0
    da = distance_transform_edt(~ma)
    db = distance_transform_edt(~mb)
    return float(max(db[ma].max(), da[mb].max()))


def bresenham(img: Image, x0, y0, x1, y1):
    """The pixels (row, col) inside the image of the 1px Bresenham line
    between the nearest pixel centers of two points: the reference of
    `Image.draw_segment` on axis-parallel segments."""
    ca, ra = img.to_pixel(x0, y0)
    cb, rb = img.to_pixel(x1, y1)
    c, r = int(round(ca)), int(round(ra))
    ce, re = int(round(cb)), int(round(rb))
    dc, dr = abs(ce - c), -abs(re - r)
    sc = 1 if c < ce else -1
    sr = 1 if r < re else -1
    err = dc + dr
    while True:
        if 0 <= r < img.height and 0 <= c < img.width:
            yield r, c
        if c == ce and r == re:
            return
        e2 = 2 * err
        if e2 >= dr:
            err += dr
            c += sc
        if e2 <= dc:
            err += dc
            r += sr


class TestImage:
    def test_min_size_enforced(self):
        with pytest.raises(ValueError):
            Image.for_domain(1.5, 32)

    def test_raster_budget_checked_before_allocating(self):
        # a 2-wide world: px/2 rows of px pixels, 3 bytes each
        px = math.isqrt(2 * RASTER_BUDGET // 3)
        px -= px % 2
        assert 3 * px * (px // 2) <= RASTER_BUDGET < 3 * (px + 2) * (px // 2 + 1)
        assert Image.for_domain(2.0, px).pixels.nbytes <= RASTER_BUDGET
        for wide in (px + 2, 10**6, 10**400):
            with pytest.raises(NotTerminated):
                Image.for_domain(2.0, wide)

    def test_aspect_preserved(self):
        img = Image.for_domain(1.5, 300)
        assert img.width == 300
        assert img.height == round(300 / 1.5)

    def test_world_pixel_roundtrip(self):
        img = Image.for_domain(1.4142135623730951, 512)

        def to_world(col, row):
            return (col + 0.5) / img.scale, 1.0 - (row + 0.5) / img.scale

        rng = random.Random(1)
        for _ in range(10_000):
            x = rng.uniform(0, 1.4142135623730951)
            y = rng.uniform(0, 1)
            c, r = img.to_pixel(x, y)
            x2, y2 = to_world(c, r)
            assert math.hypot(x2 - x, y2 - y) < 1e-9
            # nearest-center snapping moves a point by at most half a pixel
            xs, ys = to_world(round(c), round(r))
            assert abs(xs - x) * img.scale <= 0.5 + 1e-9
            assert abs(ys - y) * img.scale <= 0.5 + 1e-9

    def test_segment_matches_bresenham(self):
        # axis-parallel segments either way round, some of length 0, some
        # partly or wholly off the image; half of them end on pixel edges,
        # where the nearest center is a tie
        img = Image.for_domain(1.5, 64)
        rng = random.Random(2)
        for _ in range(20_000):
            if rng.random() < 0.5:
                x, y = rng.uniform(-0.5, 2.0), rng.uniform(-0.5, 1.5)
                length = rng.choice([0.0, rng.uniform(-2.0, 2.0)])
            else:
                x, y, length = (rng.randrange(-40, 140) / img.scale for _ in range(3))
            x1, y1 = (x + length, y) if rng.random() < 0.5 else (x, y + length)
            img.pixels[:] = 0
            img.draw_segment(x, y, x1, y1, (1, 1, 1))
            want = np.zeros(img.pixels.shape[:2], dtype=bool)
            for r, c in bresenham(img, x, y, x1, y1):
                want[r, c] = True
            assert np.array_equal(img.pixels[..., 0] == 1, want), (x, y, x1, y1)

    def test_fill_rect_is_half_open(self):
        img = Image.for_domain(1.0, 64)
        img.fill_rect(0.0, 0.0, 0.5, 0.5, (1, 2, 3))
        filled = np.all(img.pixels == (1, 2, 3), axis=2)
        assert filled.sum() == 32 * 32
        img2 = Image.for_domain(1.0, 64)
        img2.fill_rect(0.0, 0.0, 0.5, 0.5, (1, 2, 3))
        img2.fill_rect(0.5, 0.0, 0.5, 0.5, (9, 9, 9))
        both = np.all(img2.pixels == (1, 2, 3), axis=2) | np.all(
            img2.pixels == (9, 9, 9), axis=2
        )
        assert both.sum() == 64 * 32  # adjacent rects tile without overlap

    def test_p6_header_and_size(self):
        img = Image.for_domain(1.25, 100)
        data = img.to_p6()
        header = f"P6\n{img.width} {img.height}\n255\n".encode()
        assert data.startswith(header)
        assert len(data) == len(header) + img.width * img.height * 3

    def test_save_and_gzip_roundtrip(self, tmp_path):
        img = render_islands(Param(SQRT2M1, -1), [1, 5], 64)
        plain = tmp_path / "img.ppm"
        packed = tmp_path / "img.ppm.gz"
        img.save(str(plain))
        img.save(str(packed))
        raw = plain.read_bytes()
        assert raw == img.to_p6()
        assert gzip.decompress(packed.read_bytes()) == raw

    def test_gzip_output_is_deterministic(self, tmp_path):
        img = render_islands(Param(SQRT2M1, -1), [1], 64)
        p1, p2 = tmp_path / "a.ppm.gz", tmp_path / "b.ppm.gz"
        img.save(str(p1))
        img.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestDeterminism:
    def test_byte_identical_runs(self):
        p = Param(SQRT2M1, -1)
        a = render_discontinuities(p, 6, 128).to_p6()
        b = render_discontinuities(p, 6, 128).to_p6()
        assert a == b
        c = render_cover(p, 4, 128).to_p6()
        d = render_cover(p, 4, 128).to_p6()
        assert c == d


class TestDiscontinuities:
    def test_depth_zero_draws_boundary(self):
        p = Param(SQRT2M1, -1)
        img = render_discontinuities(p, 0, 128)
        black = np.all(img.pixels == PALETTE["discontinuity"], axis=2)
        assert black.any()
        # the outer frame is part of the boundary
        assert black[0].any() and black[-1].any()
        assert black[:, 0].any()

    def test_deeper_sets_are_supersets_in_measure(self):
        p = Param(SQRT2M1, -1)
        counts = []
        for depth in (0, 2, 5):
            img = render_discontinuities(p, depth, 128)
            counts.append(
                int(np.all(img.pixels == PALETTE["discontinuity"], axis=2).sum())
            )
        assert counts[0] <= counts[1] <= counts[2]

    def test_tint_covers_both_pieces(self):
        img = render_discontinuities(Param(SQRT2M1, -1), 0, 128)
        assert np.all(img.pixels == PALETTE["square"], axis=2).any()
        assert np.all(img.pixels == PALETTE["rectangle"], axis=2).any()


class TestIslands:
    def test_requires_periods(self):
        with pytest.raises(ValueError):
            render_islands(Param(SQRT2M1, -1), [], 64)

    def test_color_ranks(self):
        classes = PALETTE["islands"]
        assert island_color(0) == classes[0]
        assert island_color(1) == classes[1]
        assert island_color(99) == classes[-1]  # ranks beyond the list saturate

    def test_area_fractions_match_exact_areas(self):
        # pixel share of each period color ~ exact island area / domain area
        from sqrect.pet import islands as exact_islands

        p = Param(SQRT2M1, -1)
        px = 400
        img = render_islands(p, [1, 5, 21], px)
        domain_area = float(p.width)
        cells = exact_islands(p, max_period=21)
        total_px = img.width * img.height
        for rank, period in enumerate((1, 5, 21)):
            painted = np.all(img.pixels == island_color(rank), axis=2).sum()
            exact = sum(
                float(c.rect.area()) for c in cells if c.orbit_period == period
            )
            assert painted / total_px == pytest.approx(
                exact / domain_area, abs=2 / px * 4
            )

    def test_finer_grid_converges_to_itself(self):
        # doubling the resolution moves the painted set by under a pixel
        p = Param(SQRT3M1, 1)
        lo = render_islands(p, [1], 128)
        hi = render_islands(p, [1], 256)
        half = Image(
            lo.width,
            lo.height,
            lo.scale,
            hi.pixels[::2, ::2].copy(),
        )
        assert pixel_set_distance(lo, half, island_color(0)) <= 1.5


def _paint_by_fill_rect(p, pieces, px):
    """Reference painter: one fill_rect per piece (x, y, kind, size), in
    order, kind 0 the square."""
    img = Image.for_domain(float(p.width), px)
    x, y, kind, size = pieces
    for i in range(x.size):
        color = PALETTE["cover_square"] if kind[i] == 0 else PALETTE["cover_rectangle"]
        img.fill_rect(x[i], y[i], *size[kind[i]], color)
    return img


def _pieces(x, y, w, h, square):
    """Rectangles as a cover: each its own kind, but those marked square
    take kind 0 and the size of the first."""
    return x, y, np.where(square, 0, np.arange(x.size)), np.column_stack((w, h))


# both families at n = 1..3, and the silver mean at every depth up to 8;
# depths stop where the reference painter's loop gets slow
COVER_CASES = [
    pytest.param(selfsimilar_parameter(family, n), l, id=f"{family}{n}-l{l}")
    for family in ("minus", "plus")
    for n in (1, 2, 3)
    for l in (2, 3)
] + [pytest.param(Param(SQRT2M1, -1), l, id=f"silver-l{l}") for l in range(2, 9)]


class TestCover:
    @pytest.mark.parametrize("px", [64, 128, 500, 1000])
    @pytest.mark.parametrize("p, l", COVER_CASES)
    def test_matches_fill_rect_loop(self, p, l, px):
        expected = _paint_by_fill_rect(p, cover_arrays(p, l), px).to_p6()
        assert render_cover(p, l, px).to_p6() == expected

    def test_overlaps_go_to_the_last_piece(self, monkeypatch):
        # cover pieces never share a pixel, so overlaps and clipping at the
        # image edge are checked on random rectangles instead
        rng = np.random.default_rng(5)
        n = 300
        pieces = _pieces(
            rng.uniform(-0.3, 1.5, n),
            rng.uniform(-0.3, 1.0, n),
            rng.uniform(0.0, 0.4, n),
            rng.uniform(0.0, 0.4, n),
            rng.random(n) < 0.5,
        )
        monkeypatch.setattr(sqrect.fractal, "cover_arrays", lambda p, l, budget: pieces)
        p = Param(SQRT2M1, -1)
        expected = _paint_by_fill_rect(p, pieces, 128).to_p6()
        assert render_cover(p, 1, 128).to_p6() == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_fill_rect_loop_on_random_rectangles(self, data):
        # render_cover paints only the rectangles whose float pixel bounds
        # hold a pixel center: edges on pixel centers, often those at the
        # image's edges (exactly at the scales 64 to 512, powers of 2, of a
        # domain 1.25 wide), rectangles of width or height 0, off the image
        # or larger than it, overlapping in paint order
        p = Param(Fraction(1, 4), -1)
        px = data.draw(st.one_of(st.sampled_from([80, 160, 320, 640]),
                                 st.integers(64, 1000)))
        img = Image.for_domain(1.25, px)

        def centers(n):  # pixel-center indices, near 0 and n - 1 or anywhere
            near = st.sampled_from([-1, 0, 1, n - 2, n - 1, n])
            return st.one_of(near, st.integers(-n // 4, n * 5 // 4))

        s = img.scale
        cols = st.one_of(centers(img.width).map(lambda i: (i + 0.5) / s),
                         st.floats(-0.5, 2.0))
        rows = st.one_of(centers(img.height).map(lambda i: 1 - (i + 0.5) / s),
                         st.floats(-0.5, 1.5))
        rects = []
        for _ in range(data.draw(st.integers(1, 12))):
            x0, x1 = sorted(data.draw(cols) for _ in "01")
            y0, y1 = sorted(data.draw(rows) for _ in "01")
            w, h = (data.draw(st.sampled_from([d, 0.0])) for d in (x1 - x0, y1 - y0))
            rects.append((x0, y0, w, h, data.draw(st.booleans())))
        pieces = _pieces(*(np.array(a) for a in zip(*rects)))
        # the float bounds of arrays are those of each rectangle alone
        x, y, kind, size = pieces
        w, h = size[kind].T
        bounds = img.pixel_bounds(x, x + w, y, y + h)
        for i, rect in enumerate(zip(x, y, w, h)):
            one = img.pixel_bounds(rect[0], rect[0] + rect[2], rect[1], rect[1] + rect[3])
            assert [b[i] for b in bounds] == [b.item() for b in one]
        expected = _paint_by_fill_rect(p, pieces, px).to_p6()
        with mock.patch.object(sqrect.fractal, "cover_arrays", lambda p, l, budget: pieces):
            assert render_cover(p, 1, px).to_p6() == expected

    def test_piece_budget_checked_before_allocating(self):
        # about 65 bytes a piece: depth 10 of the silver mean (3.5M pieces) is
        # admitted, depth 11 (14.9M, under fractal.PIECE_BUDGET) refused
        p = Param(SQRT2M1, -1)
        descend(p, 10, COVER_PIECE_BUDGET)
        tracemalloc.start()
        try:
            with pytest.raises(NotTerminated, match="14930352 cover pieces"):
                render_cover(p, 11, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_fold_steps_checked_before_allocating(self):
        # the fold takes one step a letter of sigma: unit branch 2,000,000 at
        # depth 1 has 6,000,002 letters, about a minute of folding, for pieces
        # under both piece budgets; refused at once. Branch 100,000 (300,002) passes
        descend(Param(Fraction(1, 100_000), -1), 1, COVER_PIECE_BUDGET)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(NotTerminated, match="6000002 fold steps"):
                render_cover(Param(Fraction(1, 2_000_000), -1), 1, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0 and peak < 100_000

    def test_cover_nests_inside_coarser_cover(self):
        p = Param(SQRT2M1, -1)
        coarse = render_cover(p, 2, 128)
        fine = render_cover(p, 4, 128)
        cm = np.any(coarse.pixels != PALETTE["background"], axis=2)
        fm = np.any(fine.pixels != PALETTE["background"], axis=2)
        assert not (fm & ~cm).any()

    def test_uses_both_cover_colors(self):
        img = render_cover(Param(SQRT2M1, -1), 3, 128)
        assert np.all(img.pixels == PALETTE["cover_square"], axis=2).any()
        assert np.all(img.pixels == PALETTE["cover_rectangle"], axis=2).any()


class TestPixelSetDistance:
    def test_self_distance_zero(self):
        img = render_cover(Param(SQRT2M1, -1), 3, 128)
        assert pixel_set_distance(img, img) == 0.0

    def test_known_offset(self):
        a = Image.for_domain(1.0, 64)
        b = Image.for_domain(1.0, 64)
        a.pixels[10, 10] = (0, 0, 0)
        b.pixels[10, 13] = (0, 0, 0)
        assert pixel_set_distance(a, b) == 3.0

    def test_empty_versus_nonempty(self):
        a = Image.for_domain(1.0, 64)
        b = Image.for_domain(1.0, 64)
        b.pixels[5, 5] = (0, 0, 0)
        assert pixel_set_distance(a, b) == math.inf
        assert pixel_set_distance(a, a) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pixel_set_distance(Image.for_domain(1.0, 64), Image.for_domain(1.5, 64))
