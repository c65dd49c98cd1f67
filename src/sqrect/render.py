"""Deterministic rasterization of discontinuity sets, periodic islands and
aperiodic-set covers into binary P6 pixmaps.

Filled regions use pixel-center sampling on half-open rectangles; segments,
all axis-parallel, are 1px rows or columns. No anti-aliasing, so identical
inputs always give byte-identical images.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass

import numpy as np

from .errors import check_budget
from .pet import Param, discontinuity_segments, islands

# Bytes of one image (3 per pixel), checked before it is allocated. A render
# peaks at up to about 60 bytes per pixel (render_cover of a depth-0 cover,
# whose two pieces cover every pixel, by tracemalloc), so this is about 0.6 GB
# at the peak: px 3,760 at the silver mean.
RASTER_BUDGET = 30_000_000
# Cover pieces of a render: each adds about 65 bytes to its peak (its cover
# arrays, their right and top edges and four float bounds, by tracemalloc at
# 0.83M and 3.5M pieces), so about 0.46 GB here, within RASTER_BUDGET's 0.6 GB
COVER_PIECE_BUDGET = 7_000_000

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
        check_budget(3 * px * rows, RASTER_BUDGET, "image bytes")
        scale = px / float(world_width)
        height = max(int(round(scale)), 1)
        pattern = bytearray(PALETTE["background"]) * (height * px)  # not a 3-byte loop
        pixels = np.frombuffer(pattern, np.uint8).reshape(height, px, 3)
        return Image(px, height, scale, pixels)

    # -- transform -------------------------------------------------------

    def to_pixel(self, x: float, y: float) -> tuple[float, float]:
        """World point -> fractional (col, row); pixel centers at integers."""
        return x * self.scale - 0.5, (1.0 - y) * self.scale - 0.5

    # -- drawing ---------------------------------------------------------

    def pixel_bounds(self, x0, x1, y0, y1):
        """Half-open column range [c0, c1) and row range [r0, r1) of the
        pixels whose centers lie in [x0, x1) x [y0, y1), clipped to the image,
        as float arrays (0-d from scalars) of integers, each rounded in place:
        c = ceil(x * scale - 0.5) and r = floor((1 - y) * scale - 0.5) + 1,
        their arguments first clipped to [0, width] and [-1, height - 1]."""
        s = self.scale
        c0, c1 = (np.asarray(x * s - 0.5) for x in (x0, x1))
        r0, r1 = (np.asarray((1.0 - y) * s - 0.5) for y in (y1, y0))
        for c in c0, c1:
            np.ceil(np.clip(c, 0, self.width, out=c), c)
        for r in r0, r1:
            np.floor(np.clip(r, -1, self.height - 1, out=r), r)
            r += 1.0
        return c0, c1, r0, r1

    def fill_rect(self, x, y, w, h, color) -> None:
        """Color every pixel whose center lies in [x,x+w) x [y,y+h)."""
        bounds = self.pixel_bounds(float(x), float(x + w), float(y), float(y + h))
        c0, c1, r0, r1 = map(int, bounds)
        self.pixels[r0:r1, c0:c1] = color  # none unless c0 < c1 and r0 < r1

    def draw_segment(self, x0, y0, x1, y1, color) -> None:
        """The 1px row or column between the nearest pixel centers of the
        ends of an axis-parallel segment."""
        ca, ra = self.to_pixel(float(x0), float(y0))
        cb, rb = self.to_pixel(float(x1), float(y1))
        c0, c1 = sorted((int(round(ca)), int(round(cb))))
        r0, r1 = sorted((int(round(ra)), int(round(rb))))
        # clamped at 0 at both ends: a negative index counts from the end
        self.pixels[max(r0, 0) : max(r1 + 1, 0), max(c0, 0) : max(c1 + 1, 0)] = color

    # -- output ----------------------------------------------------------

    def to_p6(self) -> bytes:
        header = f"P6\n{self.width} {self.height}\n255\n".encode()
        return header + self.pixels.tobytes()

    def save(self, path: str) -> None:
        """Write the P6 image, gzipped when the path ends in .gz."""
        data = self.to_p6()
        if str(path).endswith(".gz"):
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
    for x, y, w, h in discontinuity_segments(p, depth):
        img.draw_segment(x, y, x + w, y + h, PALETTE["discontinuity"])
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
    (rectangle pieces): an outer approximation of the aperiodic set. Only
    pieces whose float `Image.pixel_bounds` hold a pixel center are painted.
    NotTerminated above COVER_PIECE_BUDGET pieces, before the cover's arrays."""
    from .fractal import cover_arrays

    img = Image.for_domain(float(p.width), px)
    x, y, kind, size = cover_arrays(p, l, COVER_PIECE_BUDGET)
    c0, c1, r0, r1 = img.pixel_bounds(x, x + size[:, 0].take(kind, mode="clip"),
                                      y, y + size[:, 1].take(kind, mode="clip"))
    keep = np.flatnonzero((c0 < c1) & (r0 < r1))
    c0, c1, r0, r1 = (a[keep].astype(np.int64) for a in (c0, c1, r0, r1))
    ncols = c1 - c0
    npix = ncols * (r1 - r0)
    # one entry per (piece, covered pixel), pieces in paint order
    piece = np.repeat(np.arange(keep.size), npix)
    k = np.arange(piece.size) - np.repeat(np.cumsum(npix) - npix, npix)
    nc = ncols[piece]
    flat = (r0[piece] + k // nc) * img.width + c0[piece] + k % nc
    # the last piece painted over a pixel owns it, as in a fill_rect loop
    owner = np.full(img.width * img.height, -1, dtype=np.int64)
    np.maximum.at(owner, flat, piece)
    painted = np.flatnonzero(owner >= 0)
    colors = np.array(  # by kind: 0 the square, any other a rectangle
        [PALETTE["cover_square"], PALETTE["cover_rectangle"]], dtype=np.uint8
    )
    img.pixels.reshape(-1, 3)[painted] = colors[np.minimum(kind[keep][owner[painted]], 1)]
    return img

