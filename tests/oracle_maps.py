"""The similitude psi^-1 and the rectangle step of the map on plain numbers:
exact numbers, floats or numpy float arrays alike. The oracles of the pair
forms `pet.psi_inverse_ints` and `renorm.rect_branch_ints`, which the
library runs on every frame; the map's loop testing every piece edge at
every step, exact frames and float ones alike, the oracle of `pet._steps`,
which tests an exact orbit only at x = 1 past its first step; a seed row of lattice pairs as numbers; and
the discontinuity set built from oriented segments, with the inverse map
written once per orientation, the oracle of `pet.discontinuity_segments`;
the piece count of a cover, the oracle of `renorm.within_budget`; the
float cover level on whole arrays (x, y, w, h, is_square, letter == 'a'),
letter by letter, with its own parameter chain, the oracle of the compact
cover of `fractal._fold` and `fractal.cover_arrays`; the
accelerated step on float lanes as it was first vectorised, the oracle of
`cfrac.accel_lanes`; the Monte-Carlo lanes stepped one step at a time by
it, the oracle of the blocked walk `lyap._lane_blocks`; and the certified
lower bound with both ends of every cylinder taken apart, the oracle of
`lyap.lower_bound_f`."""

import math

import numpy as np

from sqrect.cfrac import _GAP_COEFFICIENTS
from sqrect.lyap import _M_COEFFICIENTS, _PREDECESSORS, _blocks, _sanitize
from sqrect.errors import OnDiscontinuity, OutOfDomain
from sqrect.pet import Param, _sign
from sqrect.renorm import FAMILIES, FAMILY_EDGES, MIDDLE, RIGHT, UNIT, cover_seed


def piece_count(levels, q) -> int:
    """Pieces of the cover built over levels down to q: the seed's letter
    counts (the square, and the rectangle unless theta = 0) pushed through
    the incidence matrices, ||M_0...M_{l-1} v||_1."""
    v = (1, int(q.theta != 0))
    for level in reversed(levels):
        v = level.M.apply(v)
    return sum(v)


def steps(frame: tuple, xa, xb, ya, yb, k: int, letters: list | None = None):
    """`pet._steps` with every test at every step: k steps from (x, y) in a
    frame (R, d, wa, wb, flip, value, ...) of pairs (a, b) meaning
    (a + b*sqrt(d))/R, 1 + theta as (wa, wb)."""
    R, d, wa, wb, flip, value = frame[:6]
    for i in range(k + (letters is not None)):
        cx = (-1 if xa < R else 1 if R < xa else 0) if not xb else _sign(xa - R, xb, d)
        if letters is not None:
            if xa == R and not xb:
                raise OnDiscontinuity("x = 1 is uncoded", step=i)
            letters.append("a" if cx < 0 else "b")
            if i == k:
                break
        if (0 < ya < R) if not yb else _sign(ya, yb, d) > 0 > _sign(ya - R, yb, d):
            if cx < 0 and (0 < xa if not xb else _sign(xa, xb, d) > 0):  # the square
                if flip:
                    xa, xb = R - xa, -xb
                xa, xb, ya, yb = wa - ya, wb - yb, xa, xb  # onto the right
                continue
            if cx > 0 and (xa < wa if xb == wb else _sign(xa - wa, xb - wb, d) < 0):
                xa, ya, yb = xa - R, R - ya, -yb  # the rectangle, back
                continue
        x, y = value(xa, xb), value(ya, yb)
        if 0 <= x <= value(wa, wb) and 0 <= y <= 1:
            raise OnDiscontinuity(
                f"({x}, {y}) lies on the discontinuity set",
                step=None if letters is None else i,
            )
        raise OutOfDomain(f"({x}, {y}) outside the domain")
    return xa, xb, ya, yb


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


def fold(qs, arrays):
    """The float cover level as it was written beside `renorm.cover_level`,
    on whole arrays (x, y, w, h, is_square, letter == 'a'), letter by letter,
    for each parameter of qs, deepest first."""
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


def cover_arrays(p, l):
    """The depth-l cover of p as the six arrays of `fold`."""
    params = param_chain(p, l)
    th = float(params[-1].theta)
    seed = cover_seed(th)
    rects = np.array([seed_values(th, r) for r, _ in seed], dtype=float).T
    letters = np.array([letter == "a" for _, letter in seed])
    return fold(params[:-1], (*rects, letters, letters))


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


def pair_block(pred, c, F, M1, succ) -> float:
    """`lyap._pair_block` as it was first blocked: succ holds each successor
    branch's own ends (lo, hi), F(pred(c, .)) is taken at both, and the
    products M1 M2 entry by entry."""
    lo2, hi2, M2 = succ
    b11, b12, b21, b22 = (m[None, :] for m in M2)
    series = np.empty((len(c), hi2.size))
    for s, _ in _blocks(0, len(c), hi2.size):
        w = np.abs(F(pred(c[s], hi2[None, :])) - F(pred(c[s], lo2[None, :])))
        a11, a12, a21, a22 = (m[s, None] for m in M1)
        c11 = a11 * b11 + a12 * b21
        c12 = a11 * b12 + a12 * b22
        c21 = a21 * b11 + a22 * b21
        c22 = a21 * b12 + a22 * b22
        series[s] = np.log(np.sqrt(c11 * c22) + np.sqrt(c12 * c21)) * w
    return float(np.sum(series))


def _matrix(fam, n):
    """Cocycle matrix entries of branches n, each an array of n's shape."""
    return tuple(np.broadcast_to(np.asarray(m, dtype=float), n.shape) for m in fam.M(n))


def lower_bound_f(terms: int) -> float:
    """The value of `lyap.lower_bound_f(terms)`, each successor branch's ends
    from `ends(n)`, summed by `pair_block`."""
    N = max(math.isqrt(terms), 10)
    succ = {}
    for fam in FAMILIES:
        n = np.arange(fam.first, N + 1.0)
        succ[fam] = (*fam.ends(n), _matrix(fam, n))
    total = 0.0
    for fam, F, pred, splits in _PREDECESSORS:
        n = np.arange(fam.first, N + 1.0)
        M1 = _matrix(fam, n)
        for parity, targets in splits:
            rows = slice(None) if parity is None else n % 2 == parity
            c = (n[rows] - (parity or 0))[:, None]
            for target in targets:
                total += pair_block(pred, c, F, tuple(m[rows] for m in M1), succ[target])
    return total / 2
