"""Limit words, their factor complexity and tower statistics, read off the
accelerated walk (`cfrac.accel_walk`) and the cocycle walk
(`lyap.cocycle_walk`). Substitutions are `renorm`'s pairs of letter images."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .cfrac import accel_walk, param_to_x
from .errors import NotTerminated, PrefixTooShort, Terminal, WindowTooShort
from .lyap import cocycle_walk
from .renorm import Mat2

# Letters of a limit-word prefix, checked before anything is expanded. The
# factor counts of a limit word, which is Sturmian, peak at 17 bytes per
# letter, sorting 8-byte windows: 0.6 GB. A word whose factors past length 64
# repeat, such as a random word written twice, peaks at 22: 0.74 GB.
LETTER_BUDGET = 1 << 25


class Word:
    """Immutable finite word over the alphabet {a, b}: a limit word, which
    keeps the factor counts `complexity` has made of it."""

    # _factors caches complexity's counts and ids; it is not part of the value
    __slots__ = ("_s", "_factors")

    def __init__(self, letters: str = ""):
        if letters.strip("ab"):
            raise ValueError("word letters must be 'a' or 'b'")
        self._s = letters
        self._factors = None

    def __len__(self) -> int:
        return len(self._s)

    def __iter__(self):
        return iter(self._s)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self._s[i])
        return self._s[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Word):
            return self._s == other._s
        if isinstance(other, str):
            return self._s == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._s)

    def __repr__(self) -> str:
        s = self._s if len(self._s) <= 40 else self._s[:37] + "..."
        return f"Word({s!r})"

    def __str__(self) -> str:
        return self._s


# 2**(64 - n) for n = 1..64: windows share n letters iff their XOR is below it
_SPAN = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)


def _windows(bits: np.ndarray) -> np.ndarray:
    """Each position's 64 letters in a uint64, first on top, zeros past the end."""
    v = bits.astype(np.uint64)
    v <<= 63
    for s in (1, 2, 4, 8, 16, 32):
        v[:-s] |= v[s:] >> s
    return v


def _window_counts(bits: np.ndarray) -> list:
    """The counts [p(0), ..., p(k)] for k = min(64, |w|), from one sort."""
    v = _windows(bits)
    m = max(len(v) - 63, 0)
    full, tail = v[:m], v[m:]  # windows of 64 real letters, and of fewer
    full.sort()
    xor = full[1:] ^ full[:-1]
    xor.sort()
    counts = m - np.searchsorted(xor, _SPAN[: len(bits)])
    # tail window i holds r = |tail| - i letters, its first `near` those of a
    # full window, a neighbour in sorted order; each longer prefix is new
    r, near = np.arange(len(tail), 0, -1), 0
    if m:
        at = np.searchsorted(full, tail) - np.array([[1], [0]])
        xor = (tail ^ full[at.clip(0, m - 1)]).min(0)  # frees the sorted XORs
        near = 64 - np.searchsorted(_SPAN[::-1], xor, "right")
    more = np.maximum(r - near, 0)
    pos = np.repeat(np.arange(len(tail)), more)
    col = np.arange(len(pos)) - np.repeat(np.cumsum(more) - more - near, more)
    low = _SPAN[col] - 1  # below the prefix of length col + 1
    key = tail[pos] & ~low | (low >> 1) + 1  # and one bit to mark its end
    _, first = np.unique(key, return_index=True)
    counts += np.bincount(col[first], minlength=len(counts))
    return [1, *counts.tolist()]


def _window_ranks(bits: np.ndarray) -> np.ndarray:
    """The class ids of length 64: the ranks of the full windows."""
    full = _windows(bits)[: len(bits) - 63]
    full.sort()
    distinct = full[np.r_[True, full[1:] != full[:-1]]]
    del full  # made again, unsorted, in its place
    ranks = np.searchsorted(distinct, _windows(bits)[: len(bits) - 63])
    return ranks.astype(np.int32 if len(bits) < 2**31 - 1 else np.int64)


def _refine(classes: np.ndarray, last: np.ndarray, count: int):
    """The class ids and the count of the factors one letter longer: the
    ranks of class*2 + last letter among the keys present."""
    keys = np.multiply(classes[:-1], 2, dtype=np.intp)  # intp indexes uncast
    keys += last
    seen = np.zeros(2 * count, dtype=bool)
    seen[keys] = True
    rank = np.cumsum(seen, dtype=classes.dtype)
    rank -= 1
    return rank[keys], int(rank[-1]) + 1


def complexity(w: Word, n: int) -> int:
    """Number of distinct length-n factors of w.

    The first call counts every length up to 64 from one sort (Manber &
    Myers 1993) of the 64-letter windows, one uint64 each: sorted neighbours
    share n letters iff their XOR is below 2**(64-n), so one sort of the
    XORs and one search count them at every length. Past 64, the ids of
    length m are the ranks of class(m-1)*2 + letter among the keys present,
    from the int32 ranks of the full windows; once each factor occurs once,
    so does each longer one. So the first call pays one sort, O(|w| log |w|),
    and each length past 64 one refinement, O(|w|); a later call at or below
    a length made reads a list. The sort holds 17 bytes per letter: the
    letters, the windows and an 8-byte temporary. The cache keeps 1 byte per
    letter, 5 past 64; a refinement adds 8-byte keys, the next ids and 10
    bytes per distinct factor, so a Sturmian prefix peaks near 17 bytes, and
    a word with many repeated factors past 64 (a random word written twice)
    at 22 (tracemalloc).
    """
    if n < 0:
        raise ValueError(f"factor length must be >= 0, got {n}")
    if len(w) < 20 * n:
        raise WindowTooShort(f"need |w| >= {20 * n} for factor length {n}")
    if w._factors is None:
        bits = np.frombuffer(w._s.encode(), dtype=np.uint8) == ord("b")
        w._factors = bits, None, _window_counts(bits)
    bits, classes, counts = w._factors
    for m in range(len(counts), n + 1):
        if counts[-1] == len(bits) - m + 2:  # every factor occurs once
            count = counts[-1] - 1
        else:
            classes = _window_ranks(bits) if classes is None else classes
            classes, count = _refine(classes, bits[m - 1 :], counts[-1])
        counts = [*counts, count]
        # the cache moves one whole length at a time, freeing the old ids
        w._factors = bits, classes, counts
    return counts[n]


@dataclass(frozen=True)
class TowerStats:
    l: int
    N_a: int
    N_b: int
    N: int
    alpha: float
    beta: float


def limit_word(p, length: int) -> Word:
    """Length-`length` prefix of the limit word of the substitution sequence.

    The word is the limit of sigma_0 ∘ ... ∘ sigma_l applied to `a`,
    using the accelerated substitution at each expansion step; every
    image of `a` starts with `a`, so prefixes stabilize.
    """
    return limit_word_x(param_to_x(p), length)


def tower_stats(p, l: int, prefix_len: int | None = None) -> TowerStats:
    """Column sums of the depth-l cocycle matrix and empirical block measures.

    alpha (beta) is the count of depth-l a-blocks (b-blocks) per letter in
    a generated prefix of the limit word, decomposed along block boundaries
    known from generation. The prefix spans `prefix_len` letters, by default
    at least 200 depth-l blocks: 200 times the entry sum of the matrix.
    """
    if l < 0:
        raise ValueError(f"depth must be at least 0, got {l}")
    # block lengths are the column sums of the depth-l cocycle matrix;
    # the blocks themselves are never needed, and can be astronomically long
    M = Mat2.identity()
    for st, _ in cocycle_walk(param_to_x(p), l + 1):  # factors 0..l
        M = M @ st.M_bold
    N_a, N_b = M.m11 + M.m21, M.m12 + M.m22
    N = N_a + N_b
    if prefix_len is None:
        prefix_len = max(200_000, 200 * N)
    # decompose a prefix of the limit word into depth-l blocks: the level-l
    # coding is itself a limit word of the shifted parameter sequence
    deep = limit_word_x(st.y, max(prefix_len // min(N_a, N_b) + 2, 200))
    # the fewest blocks k whose N_a A(k) + N_b (k - A(k)) letters reach prefix_len
    a_blocks = partial(deep._s.count, "a", 0)
    k = bisect_left(range(len(deep)), prefix_len,
                    key=lambda k: N_b * k + (N_a - N_b) * a_blocks(k))
    blocks_a, blocks_b = a_blocks(k), k - a_blocks(k)
    letters = N_a * blocks_a + N_b * blocks_b
    if blocks_a + blocks_b < 100:
        raise PrefixTooShort(
            f"only {blocks_a + blocks_b} blocks decompose; raise prefix_len"
        )
    alpha = blocks_a / letters
    beta = blocks_b / letters
    return TowerStats(l, N_a, N_b, N, alpha, beta)


def limit_word_x(x, length: int) -> Word:
    """Limit-word prefix for a parameter given in interval form. Each
    substitution is a translation table, applied by `str.translate`."""
    if length < 1:
        raise ValueError(f"prefix length must be at least 1, got {length}")
    if length > LETTER_BUDGET:
        raise NotTerminated(
            f"{length} letters exceed the budget of {LETTER_BUDGET} (about 0.6 GB)"
        )
    tables = []
    # safety cap; growth makes far fewer needed. accel_walk raises Terminal
    # at rational ends
    for step in islice(accel_walk(x), 4 * length):
        tables.append(str.maketrans(dict(zip("ab", step.sigma_bold))))
        # enough depth once the innermost seed expands past `length`
        w = "a"
        for table in reversed(tables):
            w = w.translate(table)
            # stops before sigma_0: the returned word is a prefix of
            # sigma_j ∘ ... (a) for some j > 0, a known defect
            if len(w) >= length:
                return Word(w[:length])
    raise Terminal(f"expansion too short to generate {length} letters")
