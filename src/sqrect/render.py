"""Deterministic rasterization of discontinuity sets, periodic islands and
aperiodic-set covers into binary P6 pixmaps.

Filled regions use pixel-center sampling on half-open rectangles; segments
use 1px Bresenham lines. No anti-aliasing, so identical inputs always give
byte-identical images.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotTerminated
from .pet import Param, discontinuity_segments, islands

# Bytes of one image (3 per pixel), checked before it is allocated. A render
# peaks at up to about 62 bytes per pixel (render_cover of a depth-0 cover,
# by tracemalloc), so this is about 0.6 GB at the peak: px 3,760 at the
# silver mean.
RASTER_BUDGET = 30_000_000

PALETTE = {
    "background": (255, 255, 255),
    "square": (225, 238, 252),  # light blue tint
    "rectangle": (252, 228, 225),  # light red tint
    "discontinuity": (0, 0, 0),
    "islands": [(70, 170, 70), (235, 205, 50), (20, 20, 20), (140, 80, 180)],
    "cover_square": (25, 55, 140),  # dark blue
    "cover_rectangle": (165, 30, 35),  # dark red
}


@dataclass
class Image:
    """Row-major RGB raster over the world window [0, w] x [0, 1], with a
    uniform scale on both axes (aspect preserved) and y up in world space."""

    width: int
    height: int
    scale: float  # pixels per world unit
    pixels: np.ndarray  # (height, width, 3) uint8

    @staticmethod
    def for_domain(world_width: float, px: int) -> "Image":
        if px < 64:
            raise ValueError("px must be at least 64")
        # a row alone above the budget is refused before px meets a float
        rows = max(round(px / float(world_width)), 1) if px <= RASTER_BUDGET else px
        if 3 * px * rows > RASTER_BUDGET:
            raise NotTerminated(
                f"a {px} x {rows} image exceeds the budget of {RASTER_BUDGET} "
                "bytes (about 0.6 GB at the render's peak)"
            )
        scale = px / float(world_width)
        height = max(int(round(scale)), 1)
        pixels = np.empty((height, px, 3), dtype=np.uint8)
        pixels[:] = PALETTE["background"]
        return Image(px, height, scale, pixels)

    # -- transform -------------------------------------------------------

    def to_pixel(self, x: float, y: float) -> tuple[float, float]:
        """World point -> fractional (col, row); pixel centers at integers."""
        return x * self.scale - 0.5, (1.0 - y) * self.scale - 0.5

    def to_world(self, col: float, row: float) -> tuple[float, float]:
        return (col + 0.5) / self.scale, 1.0 - (row + 0.5) / self.scale

    # -- drawing ---------------------------------------------------------

    def pixel_bounds(self, x0, x1, y0, y1):
        """Half-open column range [c0, c1) and row range [r0, r1) of the
        pixels whose centers lie in [x0, x1) x [y0, y1), clipped to the
        image. Takes float scalars or arrays alike."""
        s = self.scale
        c0 = np.maximum(np.ceil(x0 * s - 0.5).astype(np.int64), 0)
        c1 = np.minimum(np.ceil(x1 * s - 0.5).astype(np.int64), self.width)
        r0 = np.maximum(np.floor((1.0 - y1) * s - 0.5).astype(np.int64) + 1, 0)
        r1 = np.minimum(
            np.floor((1.0 - y0) * s - 0.5).astype(np.int64) + 1, self.height
        )
        return c0, c1, r0, r1

    def fill_rect(self, x, y, w, h, color) -> None:
        """Color every pixel whose center lies in [x,x+w) x [y,y+h)."""
        c0, c1, r0, r1 = self.pixel_bounds(
            float(x), float(x + w), float(y), float(y + h)
        )
        if c0 < c1 and r0 < r1:
            self.pixels[r0:r1, c0:c1] = color

    def draw_segment(self, x0, y0, x1, y1, color) -> None:
        """1px Bresenham line between the nearest pixel centers."""
        ca, ra = self.to_pixel(float(x0), float(y0))
        cb, rb = self.to_pixel(float(x1), float(y1))
        c, r = int(round(ca)), int(round(ra))
        ce, re = int(round(cb)), int(round(rb))
        dc, dr = abs(ce - c), -abs(re - r)
        sc = 1 if c < ce else -1
        sr = 1 if r < re else -1
        err = dc + dr
        while True:
            if 0 <= r < self.height and 0 <= c < self.width:
                self.pixels[r, c] = color
            if c == ce and r == re:
                return
            e2 = 2 * err
            if e2 >= dr:
                err += dr
                c += sc
            if e2 <= dc:
                err += dc
                r += sr

    # -- output ----------------------------------------------------------

    def to_p6(self) -> bytes:
        header = f"P6\n{self.width} {self.height}\n255\n".encode()
        return header + self.pixels.tobytes()

    def save(self, path: str, compress: bool = False) -> None:
        data = self.to_p6()
        if compress or str(path).endswith(".gz"):
            # fixed mtime and no embedded filename keep the bytes
            # independent of when and where the image is written
            with open(path, "wb") as raw:
                with gzip.GzipFile(
                    filename="", fileobj=raw, mode="wb", mtime=0
                ) as fh:
                    fh.write(data)
        else:
            with open(path, "wb") as fh:
                fh.write(data)


def _tint_domain(img: Image, p: Param) -> None:
    th = float(p.theta)
    img.fill_rect(0.0, 0.0, 1.0, 1.0, PALETTE["square"])
    if th > 0:
        img.fill_rect(1.0, 0.0, th, 1.0, PALETTE["rectangle"])


def render_discontinuities(p: Param, depth: int, px: int) -> Image:
    """Backward orbit of the piece boundaries, drawn over the tinted domain."""
    img = Image.for_domain(float(p.width), px)
    _tint_domain(img, p)
    for seg in discontinuity_segments(p, depth):
        x0, y0 = float(seg.x), float(seg.y)
        end = seg.end
        img.draw_segment(x0, y0, float(end.x), float(end.y), PALETTE["discontinuity"])
    return img


def island_color(rank: int) -> tuple[int, int, int]:
    """Color of the rank-th period class (increasing period order)."""
    classes = PALETTE["islands"]
    return classes[min(rank, len(classes) - 1)]


def render_islands(p: Param, periods: list, px: int) -> Image:
    """Periodic cells colored by period class over the tinted domain; the
    untinted-by-islands remainder approximates the aperiodic set."""
    if not periods:
        raise ValueError("need at least one period class")
    wanted = sorted(set(int(q) for q in periods))
    img = Image.for_domain(float(p.width), px)
    _tint_domain(img, p)
    cells = islands(p, max_period=wanted[-1])
    rank = {q: i for i, q in enumerate(wanted)}
    for cell in cells:
        if cell.orbit_period not in rank:
            continue
        r = cell.rect
        img.fill_rect(r.x, r.y, r.w, r.h, island_color(rank[cell.orbit_period]))
    return img


def render_cover(p: Param, l: int, px: int) -> Image:
    """Depth-l cover pieces filled dark blue (square pieces) and dark red
    (rectangle pieces): an outer approximation of the aperiodic set."""
    from .fractal import cover_arrays

    img = Image.for_domain(float(p.width), px)
    x, y, w, h, sq = cover_arrays(p, l)
    c0, c1, r0, r1 = img.pixel_bounds(x, x + w, y, y + h)
    ncols = np.maximum(c1 - c0, 0)
    npix = ncols * np.maximum(r1 - r0, 0)
    # one entry per (piece, covered pixel), pieces in paint order
    piece = np.repeat(np.arange(x.size), npix)
    k = np.arange(piece.size) - np.repeat(np.cumsum(npix) - npix, npix)
    nc = ncols[piece]
    flat = (r0[piece] + k // nc) * img.width + c0[piece] + k % nc
    # the last piece painted over a pixel owns it, as in a fill_rect loop
    owner = np.full(img.width * img.height, -1, dtype=np.int64)
    np.maximum.at(owner, flat, piece)
    painted = np.flatnonzero(owner >= 0)
    colors = np.array(
        [PALETTE["cover_rectangle"], PALETTE["cover_square"]], dtype=np.uint8
    )
    img.pixels.reshape(-1, 3)[painted] = colors[sq[owner[painted]].astype(np.intp)]
    return img


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
