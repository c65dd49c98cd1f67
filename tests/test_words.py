import ast
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sqrect import cfrac, words as words_module
from sqrect.cfrac import accel, param_to_x
from sqrect.errors import NotTerminated, PrefixTooShort, WindowTooShort
from sqrect.exactnum import make_surd
from sqrect.pet import Param
from sqrect.renorm import FAMILIES
from sqrect.words import LETTER_BUDGET, Word, complexity, limit_word, tower_stats

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)
SURD_FAMILIES = [
    (SQRT2M1, -1),
    (SQRT3M1, 1),
    (make_surd(-2, 1, 1, 5), -1),
    (make_surd(-1, 1, 2, 3), -1),
    (make_surd(-3, 1, 1, 10), -1),
]


def counts(w: str) -> tuple[int, int]:
    """(number of a's, number of b's)."""
    na = str(w).count("a")
    return na, len(w) - na


def apply(sigma: tuple[str, str], w: str) -> str:
    """sigma(w) for sigma the pair of images of a and b: the image of each
    letter of w, concatenated."""
    images = dict(zip("ab", sigma))
    return "".join(images[c] for c in w)


def abelianization(sigma: tuple[str, str]) -> tuple[int, int, int, int]:
    """(m11, m12, m21, m22): column j counts letters in image of letter j."""
    a_in_a, b_in_a = counts(sigma[0])
    a_in_b, b_in_b = counts(sigma[1])
    return a_in_a, a_in_b, b_in_a, b_in_b


def compose(s1: tuple[str, str], s2: tuple[str, str]) -> tuple[str, str]:
    """s1 after s2: (s1*s2)(w) = s1(s2(w))."""
    return apply(s1, s2[0]), apply(s1, s2[1])


words = st.text(alphabet="ab", max_size=30)
substitutions = st.tuples(
    st.text(alphabet="ab", min_size=1, max_size=6),
    st.text(alphabet="ab", min_size=1, max_size=6),
)


class TestWord:
    def test_alphabet_enforced(self):
        with pytest.raises(ValueError):
            Word("abc")

    def test_counts(self):
        assert counts(Word("aabab")) == (3, 2)

    def test_slice_is_word(self):
        w = Word("abab")[1:3]
        assert isinstance(w, Word) and w == Word("ba")


class TestSubstitution:
    """Substitutions as pairs of letter images, as `renorm`'s table gives
    them, and the test helpers on those pairs."""

    @given(substitutions, substitutions, words)
    def test_compose_is_application_order(self, s1, s2, w):
        assert apply(compose(s1, s2), w) == apply(s1, apply(s2, w))

    @given(substitutions, substitutions)
    def test_abelianization_multiplicative(self, s1, s2):
        a11, a12, a21, a22 = abelianization(s1)
        b11, b12, b21, b22 = abelianization(s2)
        product = (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )
        assert abelianization(compose(s1, s2)) == product

    @given(substitutions, words)
    def test_abelianization_counts_letters(self, s, w):
        m11, m12, m21, m22 = abelianization(s)
        na, nb = counts(w)
        assert counts(apply(s, w)) == (m11 * na + m12 * nb, m21 * na + m22 * nb)

    @given(words)
    def test_branch_table_images(self, w):
        # at every branch n <= 40 of the three families, the translation
        # table limit_word builds gives sigma(w) letter by letter, and the
        # image pair counts the letters of the cocycle matrix M(n)
        for family in FAMILIES:
            for n in range(family.first, 41):
                sigma = family.sigma(n)
                table = str.maketrans(dict(zip("ab", sigma)))
                assert w.translate(table) == apply(sigma, w)
                assert abelianization(sigma) == family.M(n)


def factor_count(w: Word, n: int) -> int:
    """Distinct length-n factors of w, one slice per position."""
    s = str(w)
    return len({s[i : i + n] for i in range(len(s) - n + 1)})


def random_word(rng: random.Random, length: int) -> Word:
    return Word("".join(rng.choice("ab") for _ in range(length)))


# words up to 300 letters with long runs of one letter, and periodic ones
skewed_words = st.one_of(
    st.text(alphabet="ab", max_size=300),
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 90)), max_size=40).map(
        lambda runs: "".join(c * k for c, k in runs)[:300]
    ),
    st.tuples(st.text(alphabet="ab", min_size=1, max_size=9), st.integers(0, 300)).map(
        lambda t: (t[0] * 300)[: t[1]]
    ),
)


class TestComplexity:
    """The refined, cached counts against slicing every factor."""

    def test_needs_long_window(self):
        with pytest.raises(WindowTooShort):
            complexity(Word("ab" * 3), 2)

    def test_periodic_word(self):
        for letters, count in (("a", 1), ("ab", 2)):
            w = Word(letters * 1000)
            for n in range(1, len(w) // 20 + 1):
                assert complexity(w, n) == factor_count(w, n) == count

    @pytest.mark.parametrize("theta,eps", SURD_FAMILIES)
    def test_limit_words_are_sturmian(self, theta, eps):
        w = limit_word(Param(theta, eps), 2000)
        for n in range(101):
            assert complexity(w, n) == factor_count(w, n) == n + 1

    def test_negative_length_rejected(self):
        w = Word("ab" * 50)
        for n in (-1, -3):
            with pytest.raises(ValueError):
                complexity(w, n)

    def test_length_zero_is_one(self):
        assert complexity(Word(""), 0) == 1
        assert complexity(Word("ab" * 50), 0) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_words(self, seed):
        rng = random.Random(seed)
        w = random_word(rng, rng.randint(0, 1500))
        for n in range(len(w) // 20 + 1):
            assert complexity(w, n) == factor_count(w, n)

    def test_lengths_past_62(self):
        # class ids, not packed letters: no length overflows
        w = random_word(random.Random(62), 20 * 130)
        for n in (61, 62, 63, 64, 65, 100, 129, 130):
            assert complexity(w, n) == factor_count(w, n)

    def test_calls_out_of_order(self):
        w = random_word(random.Random(7), 2000)
        for n in (80, 3, 40, 80, 100, 0, 99, 1):
            assert complexity(w, n) == factor_count(w, n)

    @settings(max_examples=300, deadline=None)
    @given(skewed_words)
    @example("a" * 300)  # every XOR zero
    @example("a" * 250 + "b")  # factors only the last window holds
    @example("ab" * 40 + "b" * 70 + "a" * 63)
    @example("")
    def test_window_pass_counts_every_length(self, s):
        # all lengths n <= min(64, |w|) from the one sort, against slicing
        bits = np.frombuffer(s.encode(), dtype=np.uint8) == ord("b")
        want = [factor_count(Word(s), n) for n in range(min(64, len(s)) + 1)]
        assert words_module._window_counts(bits) == want

    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("length", [1300, 2000])
    def test_lengths_around_64(self, length, order):
        # the window pass and the refinement it hands its ranks to, both
        # ways round; the random word's 64-letter factors all differ
        rng = random.Random(length)
        runs = "".join(rng.choice("ab") * rng.randint(1, 90) for _ in range(length))
        for s in (
            str(limit_word(Param(SQRT3M1, 1), length)),
            str(random_word(rng, length)),
            runs[:length],
            ("aab" * length)[:length],
        ):
            w = Word(s)
            for n in [n for n in (63, 64, 65, 100) if 20 * n <= length][::order]:
                assert complexity(w, n) == factor_count(w, n)

    @pytest.mark.parametrize("n", [1, 2, 17, 50])
    def test_window_exactly_20n(self, n):
        w = random_word(random.Random(n), 20 * n)
        assert complexity(w, n) == factor_count(w, n)
        with pytest.raises(WindowTooShort):
            complexity(w, n + 1)
        shorter = w[:-1]
        with pytest.raises(WindowTooShort):
            complexity(shorter, n)

    def test_cache_leaves_value_alone(self):
        s = str(random_word(random.Random(3), 1000))
        cached, fresh = Word(s), Word(s)
        complexity(cached, 50)
        assert cached == fresh and cached == s
        assert hash(cached) == hash(fresh) == hash(s)
        assert {fresh: 1}[cached] == 1
        assert cached[:10] == fresh[:10]
        assert complexity(fresh, 50) == complexity(cached, 50)

    @pytest.mark.parametrize("kind, n", [
        ("sturmian", 50), ("sturmian", 100), ("random", 50), ("random", 100),
        ("doubled-random", 100),
    ])
    def test_memory_per_letter(self, kind, n):
        # one sort of 8-byte windows and an 8-byte temporary: 17 bytes per
        # letter at the peak; 1 kept, 5 past 64 with int32 ids. A random
        # word's 64-letter factors all differ, so it needs no ids past 64; one
        # written twice repeats them, and each refinement past 64 holds 8-byte
        # keys and a table per distinct factor beside the ids: 22 bytes
        if kind == "sturmian":
            w = limit_word(Param(SQRT2M1, -1), 200_000)
        elif kind == "random":
            w = random_word(random.Random(200), 200_000)
        else:
            half = str(random_word(random.Random(200), 100_000))
            w = Word(half + half)
        tracemalloc.start()
        try:
            complexity(w, n)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 23 if kind == "doubled-random" else 19
        assert peak < bound * len(w) and kept < 6 * len(w)


class TestLimitWord:
    def test_prefix_stability(self):
        p = Param(SQRT2M1, -1)
        w1 = limit_word(p, 120)
        w2 = limit_word(p, 600)
        assert str(w2).startswith(str(w1))

    def test_requested_length(self):
        assert len(limit_word(Param(SQRT2M1, -1), 333)) == 333

    @pytest.mark.parametrize("theta", [SQRT2M1, Fraction(3, 8)])
    @pytest.mark.parametrize("length", [0, -3])
    def test_nonpositive_length_rejected_before_expanding(self, theta, length):
        # a ValueError, not the Terminal of a rational parameter's expansion
        with pytest.raises(ValueError):
            limit_word(Param(theta, -1), length)

    @pytest.mark.parametrize("length", [LETTER_BUDGET + 1, 10**12])
    def test_length_above_budget_rejected_before_expanding(self, length):
        t0 = time.perf_counter()
        with pytest.raises(NotTerminated):
            limit_word(Param(SQRT2M1, -1), length)
        assert time.perf_counter() - t0 < 1.0

    def test_silver_mean_prefix(self):
        # fixed substitution a -> abaab, b -> aab applied to a
        w = limit_word(Param(SQRT2M1, -1), 25)
        expanded = "a"
        for _ in range(4):
            expanded = apply(("abaab", "aab"), expanded)
        assert expanded[:25] == str(w)


def full_composition_prefix(p, length):
    """Prefix of sigma_0 ∘ ... ∘ sigma_k (a), composing all factors."""
    x, subs = param_to_x(p), []
    while True:
        st_ = accel(x)
        subs.append(st_.sigma_bold)
        x = st_.y
        w = "a"
        for s in reversed(subs):
            w = apply(s, w)
        if len(w) >= length:
            return w[:length]


@pytest.mark.xfail(
    strict=True,
    reason="limit_word stops composing before sigma_0 (known defect)",
)
def test_limit_word_starts_with_sigma0():
    p = Param(make_surd(-13, 4, 4, 13), -1)
    oracle = full_composition_prefix(p, 1000)
    assert oracle.startswith("abaab")  # sigma_0(a)
    assert limit_word(p, 1000) == oracle


class TestTowerStats:
    def test_block_identity_is_exact(self):
        ts = tower_stats(Param(SQRT2M1, -1), 4, 400_000)
        assert ts.N == ts.N_a + ts.N_b
        assert ts.N_a * ts.alpha + ts.N_b * ts.beta == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_matrix_columns(self):
        from sqrect.lyap import cocycle_product

        p = Param(SQRT2M1, -1)
        ts = tower_stats(p, 3, 100_000)
        M, _ = cocycle_product(p, 3)
        assert (ts.N_a, ts.N_b) == (M.m11 + M.m21, M.m12 + M.m22)

    def test_prefix_too_short(self):
        with pytest.raises(PrefixTooShort):
            tower_stats(Param(SQRT2M1, -1), 6, 2_000)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            tower_stats(Param(SQRT2M1, -1), -1, 100_000)

    def test_prefix_above_letter_budget_rejected(self):
        # the prefix's depth-l coding is a limit word of its own
        with pytest.raises(NotTerminated):
            tower_stats(Param(SQRT2M1, -1), 3, 10**15)

    def test_measures_positive(self):
        ts = tower_stats(Param(SQRT3M1, 1), 3, 300_000)
        assert ts.alpha > 0 and ts.beta > 0

    def test_default_prefix_spans_200_blocks(self):
        p = Param(SQRT2M1, -1)
        ts = tower_stats(p, 5)
        assert ts == tower_stats(p, 5, max(200_000, 200 * ts.N))

    def test_walks_the_orbit_once(self, monkeypatch):
        # the matrix, the default prefix and the depth-(l + 1) point come
        # from one walk, and the limit word below it walks on from there:
        # every accelerated step is taken at the next point of one orbit
        # a surd orbit steps in `_surd_walk`, observed at each point it steps from
        seen = []
        step, surd_walk = cfrac.accel, cfrac._surd_walk

        def observed(x):
            for st in surd_walk(x):
                seen.append(x)
                yield st
                x = st.y

        monkeypatch.setattr(cfrac, "accel", lambda x: seen.append(x) or step(x))
        monkeypatch.setattr(cfrac, "_surd_walk", observed)
        x = make_surd(-1, 12, 6, 3)  # its slow expansion has period 390
        x -= math.floor(x)
        tower_stats(Param(x, -1), 4)
        assert len(seen) > 5
        assert seen == [x, *(step(y).y for y in seen[:-1])]


def _imports_words(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "sqrect.words" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module in ("words", "sqrect.words") or node.module in (
            None, "sqrect",
        ) and any(alias.name == "words" for alias in node.names)
    return False


def test_words_sits_above_the_walks_it_reads():
    # words reads cfrac, lyap and renorm, imported at its top, and no module
    # below the CLI reads words: substitutions are renorm's pairs of
    # strings and codings are strings, so no Substitution type is left
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in Path(cfrac.__file__).parent.glob("*.py")
    }
    importers = {
        stem for stem, tree in trees.items()
        for node in ast.walk(tree) if _imports_words(node)
    }
    assert importers == {"cli"}
    top = {
        node.module for node in trees["words"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert {"cfrac", "lyap", "renorm"} <= top
    nested = [
        ast.unparse(node)
        for fn in ast.walk(trees["words"])
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []
    naming = {
        stem for stem, tree in trees.items()
        for node in ast.walk(tree)
        for attr in ("id", "attr", "name", "asname", "value")
        if getattr(node, attr, None) == "Substitution"
    }
    assert naming == set()
