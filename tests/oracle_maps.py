"""The similitude psi^-1 and the rectangle step of the map on plain numbers:
exact numbers, floats or numpy float arrays alike. The oracles of the pair
forms `pet.psi_inverse_ints` and `renorm.rect_branch_ints`, which the
library runs on every frame; a seed row of lattice pairs as numbers; and
the discontinuity set built from oriented segments, with the inverse map
written once per orientation, the oracle of `pet.discontinuity_segments`;
the piece count of a cover, the oracle of `renorm.within_budget`; the
accelerated step on float lanes as it was first vectorised, the oracle of
`cfrac.accel_lanes`; and the Monte-Carlo lanes stepped one step at a time by
it, the oracle of the blocked walk `lyap._lane_blocks`."""

import numpy as np

from sqrect.cfrac import _GAP_COEFFICIENTS
from sqrect.lyap import _M_COEFFICIENTS, _sanitize
from sqrect.renorm import FAMILIES, FAMILY_EDGES, MIDDLE


def piece_count(levels, q) -> int:
    """Pieces of the cover built over levels down to q: the seed's letter
    counts (the square, and the rectangle unless theta = 0) pushed through
    the incidence matrices, ||M_0...M_{l-1} v||_1."""
    v = (1, int(q.theta != 0))
    for level in reversed(levels):
        v = level.M.apply(v)
    return sum(v)


def seed_values(theta, row):
    """A row (xi, xj, yi, yj, ...) of lattice pairs as the numbers i + j*theta."""
    return tuple(i + j * theta for i, j in zip(row[::2], row[1::2]))


def psi_inverse(theta, eps: int, x, y, w=0, h=0):
    """psi^-1 pulls the rectangle (x, y, w, h) of the renormalized domain
    back into this one; a point when w = h = 0."""
    if eps == -1:
        # psi(x, y) = (y, x)/theta; inverse (x, y) -> (theta*y, theta*x)
        return theta * y, theta * x, theta * h, theta * w
    # psi(x, y) = (x, y - theta)/(1 - theta)
    s = 1 - theta
    return s * x, theta + s * y, s * w, s * h


def rect_branch(theta, eps: int, letter: str, x, y, w, h):
    """Image (x, y, w, h) of a rectangle under one step of the map, for a
    rectangle inside the square (letter 'a') or the rectangle ('b')."""
    if letter == "b":
        return x - 1, 1 - (y + h), w, h
    return 1 + theta - (y + h), x if eps == -1 else 1 - (x + w), h, w


def _segment_pullback(theta, eps: int, s: tuple) -> list:
    """The inverse map on a segment (x, y, length, orientation), extending
    `length` from (x, y) rightwards ('H') or upwards ('V'), split at x =
    theta."""
    x, y, length, orientation = s
    out = []
    if orientation == "H":
        x0, x1, c = x, x + length, y
        # part over the image of the rectangle: x in [0, theta]
        lo, hi = x0, min(x1, theta)
        if lo < hi:
            out.append((lo + 1, 1 - c, hi - lo, "H"))
        # part over the image of the square: x in [theta, 1+theta]
        lo, hi = max(x0, theta), x1
        if lo < hi:
            out.append((c if eps == -1 else 1 - c, 1 + theta - hi, hi - lo, "V"))
    else:
        y0, y1, c = y, y + length, x
        if c <= theta:
            out.append((c + 1, 1 - y1, y1 - y0, "V"))
        if c >= theta:
            out.append((y0 if eps == -1 else 1 - y1, 1 + theta - c, y1 - y0, "H"))
    return out


def discontinuity_endpoints(theta, eps: int, depth: int) -> list:
    """The end points (x0, y0, x1, y1) of the discontinuity set's segments to
    `depth`, in order of discovery: the boundary, then each level's new
    inverse images."""
    level = [(0, 0, 1, "H"), (0, 1, 1, "H"), (0, 0, 1, "V"), (1, 0, 1, "V")]
    if theta > 0:
        level += [(1, 0, theta, "H"), (1, 1, theta, "H"), (1 + theta, 0, 1, "V")]
    seen = dict.fromkeys(level)
    for _ in range(depth):
        nxt = [t for s in level for t in _segment_pullback(theta, eps, s)]
        level = [t for t in dict.fromkeys(nxt) if t not in seen]
        seen.update(dict.fromkeys(level))
    return [(x, y, x + n, y) if o == "H" else (x, y, x, y + n) for x, y, n, o in seen]


def accel_lanes(x):
    """(f, n, y, den) of `cfrac.accel_lanes`, as it took them with fresh
    arrays: the family by FAMILY_EDGES.searchsorted (NaN past both edges),
    the gap from its coefficients, the middle image's numerator as 1 - (n - 2) e,
    and n % 2 by np.fmod."""
    f = FAMILY_EDGES.searchsorted(x, "right")
    slope, const = _GAP_COEFFICIENTS.take(f, axis=1, mode="clip")
    e = slope * x + const
    inv = 1 / e
    n = np.floor(inv)
    den = 1 - (n - 1) * e
    y = (1 - (n - 2) * e) / den
    slow = f != FAMILIES.index(MIDDLE)
    y[slow] = (inv - n + np.fmod(n, 2))[slow]
    den[slow] = e[slow]
    return f, n, y, den


def vector_step(x, u1, u2, log_norm, lnR):
    """One accelerated step applied to every lane (`accel_lanes`),
    updating the renormalized row vectors and both log accumulators in
    place. The entries of M(n) are a[f] n + b[f], with the rows (a, b) of
    each lane's family f from `family_coefficients`."""
    f, n, x1, den = accel_lanes(x)
    a, b = _M_COEFFICIENTS.take(f, axis=2)
    M = a * n + b  # rows m11, m12, m21, m22
    lnR -= np.log(den)

    v = u1 * M[:2] + u2 * M[2:]  # the row (u1, u2) times M
    s = v[0] + v[1]
    log_norm += np.log(s)
    v /= s
    return _sanitize(x1), v[0], v[1]


def lane_states(x, l: int):
    """Yield after each of l steps from x (steps so far, u, sums), as
    `lyap._lane_blocks` yields them after each block: the row vector (u1,
    u2) and the rows (log_norm, lnR), stepped by `vector_step`."""
    u1, u2 = np.ones(x.size), np.ones(x.size)
    sums = np.zeros((2, x.size))
    for step in range(1, l + 1):
        x, u1, u2 = vector_step(x, u1, u2, *sums)
        yield step, np.array([u1, u2]), sums
