import gzip
import math
import random

import numpy as np
import pytest

from sqrect.errors import NotTerminated
from sqrect.exactnum import make_surd
from sqrect.fractal import cover_arrays, selfsimilar_parameter
from sqrect.pet import Param
from sqrect.render import (
    PALETTE,
    RASTER_BUDGET,
    Image,
    island_color,
    pixel_set_distance,
    render_cover,
    render_discontinuities,
    render_islands,
)

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)


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
        rng = random.Random(1)
        for _ in range(10_000):
            x = rng.uniform(0, 1.4142135623730951)
            y = rng.uniform(0, 1)
            c, r = img.to_pixel(x, y)
            x2, y2 = img.to_world(c, r)
            assert math.hypot(x2 - x, y2 - y) < 1e-9
            # nearest-center snapping moves a point by at most half a pixel
            xs, ys = img.to_world(round(c), round(r))
            assert abs(xs - x) * img.scale <= 0.5 + 1e-9
            assert abs(ys - y) * img.scale <= 0.5 + 1e-9

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
    """Reference painter: one fill_rect per piece, in order."""
    img = Image.for_domain(float(p.width), px)
    x, y, w, h, sq = pieces
    for i in range(x.size):
        color = PALETTE["cover_square"] if sq[i] else PALETTE["cover_rectangle"]
        img.fill_rect(x[i], y[i], w[i], h[i], color)
    return img


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
        import sqrect.fractal

        rng = np.random.default_rng(5)
        n = 300
        pieces = (
            rng.uniform(-0.3, 1.5, n),
            rng.uniform(-0.3, 1.0, n),
            rng.uniform(0.0, 0.4, n),
            rng.uniform(0.0, 0.4, n),
            rng.random(n) < 0.5,
        )
        monkeypatch.setattr(sqrect.fractal, "cover_arrays", lambda p, l: pieces)
        p = Param(SQRT2M1, -1)
        expected = _paint_by_fill_rect(p, pieces, 128).to_p6()
        assert render_cover(p, 1, 128).to_p6() == expected

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
