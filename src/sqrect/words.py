"""Words over {a,b}, substitutions, limit words and tower statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotTerminated, PrefixTooShort, Terminal, WindowTooShort

# Letters of a limit-word prefix, checked before anything is expanded. The
# factor counts peak at about 17 bytes per letter, so this is about 0.6 GB.
LETTER_BUDGET = 1 << 25


class Word:
    """Immutable finite word over the alphabet {a, b}."""

    # _factors caches complexity's refinement; it is not part of the value
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

    def __add__(self, other: "Word") -> "Word":
        return Word(self._s + other._s)

    def __mul__(self, k: int) -> "Word":
        return Word(self._s * k)

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

    def counts(self) -> tuple[int, int]:
        """(number of a's, number of b's)."""
        na = self._s.count("a")
        return na, len(self._s) - na

    def rotate(self, i: int) -> "Word":
        i %= max(len(self._s), 1)
        return Word(self._s[i:] + self._s[:i])


@dataclass(frozen=True)
class Substitution:
    """Morphism of the free monoid on {a, b}, given by the letter images."""

    image_a: Word
    image_b: Word

    def __post_init__(self):
        if len(self.image_a) == 0 or len(self.image_b) == 0:
            raise ValueError("substitution images must be nonempty")

    def __call__(self, w: Word) -> Word:
        table = {"a": str(self.image_a), "b": str(self.image_b)}
        return Word("".join(table[c] for c in w))

    def abelianization(self) -> tuple[int, int, int, int]:
        """(m11, m12, m21, m22): column j counts letters in image of letter j."""
        a_in_a, b_in_a = self.image_a.counts()
        a_in_b, b_in_b = self.image_b.counts()
        return a_in_a, a_in_b, b_in_a, b_in_b


def compose(s1: Substitution, s2: Substitution) -> Substitution:
    """s1 after s2: (s1*s2)(w) = s1(s2(w))."""
    return Substitution(s1(s2.image_a), s1(s2.image_b))


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

    The factors are counted by refining classes: two length-m factors are
    equal iff their length-(m-1) prefixes are and their last letters are,
    so the class ids of length m are the ranks of class(m-1)*2 + letter.
    The ranks come from a table of the keys present, without a sort, and
    the count is the number of classes. Ids are at most |w|, so int32
    holds them for any |w| below 2**31 - 1 (int64 above). `w` keeps the
    classes of the longest length computed so far and the count at every
    shorter length: a first call at n costs O(n*|w|) over all lengths up
    to n, and a later one at or below a computed length reads a list.
    The cache holds 5 bytes per letter (a bool and an int32 id). A step
    adds 8-byte keys, the next ids and a table of 10 bytes per distinct
    factor, so a Sturmian prefix peaks near 17 bytes per letter.
    """
    if n < 0:
        raise ValueError(f"factor length must be >= 0, got {n}")
    if len(w) < 20 * n:
        raise WindowTooShort(f"need |w| >= {20 * n} for factor length {n}")
    if w._factors is None:
        bits = np.frombuffer(w._s.encode(), dtype=np.uint8) == ord("b")
        ids = np.int32 if len(w) < 2**31 - 1 else np.int64
        # length 0: the empty word is the one factor, at each of |w|+1 places
        w._factors = bits, np.zeros(len(w) + 1, dtype=ids), [1]
    bits, classes, counts = w._factors
    for m in range(len(counts), n + 1):
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
    from .cfrac import param_to_x

    return limit_word_x(param_to_x(p), length)


def default_prefix_len(p, l: int) -> int:
    """A prefix length for tower_stats that spans at least 200 depth-l
    blocks: 200 times the entry sum of the depth-l cocycle matrix."""
    from .lyap import cocycle_product

    M, _ = cocycle_product(p, l)
    return max(200_000, 200 * (M.m11 + M.m12 + M.m21 + M.m22))


def tower_stats(p, l: int, prefix_len: int) -> TowerStats:
    """Column sums of the depth-l cocycle matrix and empirical block measures.

    alpha (beta) is the count of depth-l a-blocks (b-blocks) per letter in
    a generated prefix of the limit word, decomposed along block boundaries
    known from generation.
    """
    if l < 0:
        raise ValueError(f"depth must be at least 0, got {l}")
    # block lengths are the column sums of the depth-l cocycle matrix;
    # the blocks themselves are never needed, and can be astronomically long
    from .lyap import cocycle_product

    M, _ = cocycle_product(p, l)
    N_a, N_b = M.m11 + M.m21, M.m12 + M.m22
    N = N_a + N_b
    # decompose a prefix of the limit word into depth-l blocks: the level-l
    # coding is itself a limit word of the shifted parameter sequence
    from .cfrac import accel, param_to_x

    x = param_to_x(p)
    for _ in range(l + 1):  # the depth-l product composes factors 0..l
        x = accel(x).y
    deep = limit_word_x(x, max(prefix_len // min(N_a, N_b) + 2, 200))
    blocks_a = blocks_b = letters = 0
    for c in deep:
        if letters >= prefix_len:
            break
        if c == "a":
            blocks_a += 1
            letters += N_a
        else:
            blocks_b += 1
            letters += N_b
    if blocks_a + blocks_b < 100:
        raise PrefixTooShort(
            f"only {blocks_a + blocks_b} blocks decompose; raise prefix_len"
        )
    alpha = blocks_a / letters
    beta = blocks_b / letters
    return TowerStats(l, N_a, N_b, N, alpha, beta)


def limit_word_x(x, length: int) -> Word:
    """Limit-word prefix for a parameter given in interval form."""
    from .cfrac import accel

    if length < 1:
        raise ValueError(f"prefix length must be at least 1, got {length}")
    if length > LETTER_BUDGET:
        raise NotTerminated(
            f"{length} letters exceed the budget of {LETTER_BUDGET} (about 0.6 GB)"
        )
    subs = []
    for _ in range(4 * length):  # safety cap; growth makes far fewer needed
        step = accel(x)  # raises Terminal at rational ends
        subs.append(step.sigma_bold)
        x = step.y
        # enough depth once the innermost seed expands past `length`
        w = Word("a")
        for s in reversed(subs):
            w = s(w)
            # stops before sigma_0: the returned word is a prefix of
            # sigma_j ∘ ... (a) for some j > 0, a known defect
            if len(w) >= length:
                break
        if len(w) >= length:
            return w[:length]
    raise Terminal(f"expansion too short to generate {length} letters")


def letter_frequency(p, l: int) -> float:
    """Depth-l approximation of the frequency of `a` in the limit word."""
    from .lyap import cocycle_product

    M, _ = cocycle_product(p, l)
    va = M.m11 + M.m21  # M (1,0)^t entries summed
    return M.m11 / va if va else 0.0
