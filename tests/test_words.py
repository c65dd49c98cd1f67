import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sqrect.cfrac import accel, param_to_x
from sqrect.errors import NotTerminated, PrefixTooShort, WindowTooShort
from sqrect.exactnum import make_surd
from sqrect.pet import Param
from sqrect.words import (
    LETTER_BUDGET,
    Substitution,
    Word,
    complexity,
    compose,
    letter_frequency,
    limit_word,
    tower_stats,
)

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)
SURD_FAMILIES = [
    (SQRT2M1, -1),
    (SQRT3M1, 1),
    (make_surd(-2, 1, 1, 5), -1),
    (make_surd(-1, 1, 2, 3), -1),
    (make_surd(-3, 1, 1, 10), -1),
]

words = st.text(alphabet="ab", max_size=30).map(Word)
substitutions = st.builds(
    Substitution,
    st.text(alphabet="ab", min_size=1, max_size=6).map(Word),
    st.text(alphabet="ab", min_size=1, max_size=6).map(Word),
)


class TestWord:
    def test_alphabet_enforced(self):
        with pytest.raises(ValueError):
            Word("abc")

    def test_counts(self):
        assert Word("aabab").counts() == (3, 2)

    def test_concat_and_power(self):
        assert Word("ab") + Word("ba") == Word("abba")
        assert Word("ab") * 3 == Word("ababab")

    def test_rotate(self):
        assert Word("abb").rotate(1) == Word("bba")
        assert Word("abb").rotate(3) == Word("abb")

    def test_slice_is_word(self):
        w = Word("abab")[1:3]
        assert isinstance(w, Word) and w == Word("ba")


class TestSubstitution:
    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            Substitution(Word(""), Word("a"))

    @given(substitutions, substitutions, words)
    def test_compose_is_application_order(self, s1, s2, w):
        assert compose(s1, s2)(w) == s1(s2(w))

    @given(substitutions, substitutions)
    def test_abelianization_multiplicative(self, s1, s2):
        a11, a12, a21, a22 = s1.abelianization()
        b11, b12, b21, b22 = s2.abelianization()
        product = (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )
        assert compose(s1, s2).abelianization() == product

    @given(substitutions, words)
    def test_abelianization_counts_letters(self, s, w):
        m11, m12, m21, m22 = s.abelianization()
        na, nb = w.counts()
        assert s(w).counts() == (m11 * na + m12 * nb, m21 * na + m22 * nb)


def factor_count(w: Word, n: int) -> int:
    """Distinct length-n factors of w, one slice per position."""
    s = str(w)
    return len({s[i : i + n] for i in range(len(s) - n + 1)})


def random_word(rng: random.Random, length: int) -> Word:
    return Word("".join(rng.choice("ab") for _ in range(length)))


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

    def test_memory_per_letter(self):
        # int32 ids and the cache moving one length at a time: about 17
        # bytes per letter at the peak, 5 kept (intp ids took about 25)
        w = limit_word(Param(SQRT2M1, -1), 200_000)
        tracemalloc.start()
        try:
            complexity(w, 50)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 19 * len(w) and kept < 6 * len(w)


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
        s = Substitution(Word("abaab"), Word("aab"))
        expanded = Word("a")
        for _ in range(4):
            expanded = s(expanded)
        assert str(expanded)[:25] == str(w)


def full_composition_prefix(p, length):
    """Prefix of sigma_0 ∘ ... ∘ sigma_k (a), composing all factors."""
    x, subs = param_to_x(p), []
    while True:
        st_ = accel(x)
        subs.append(st_.sigma_bold)
        x = st_.y
        w = Word("a")
        for s in reversed(subs):
            w = s(w)
        if len(w) >= length:
            return w[:length]


@pytest.mark.xfail(
    strict=True,
    reason="limit_word stops composing before sigma_0 (known defect)",
)
def test_limit_word_starts_with_sigma0():
    p = Param(make_surd(-13, 4, 4, 13), -1)
    oracle = full_composition_prefix(p, 1000)
    assert str(oracle).startswith("abaab")  # sigma_0(a)
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


class TestLetterFrequency:
    def test_matches_empirical_frequency(self):
        p = Param(SQRT2M1, -1)
        w = limit_word(p, 50_000)
        na, nb = w.counts()
        assert letter_frequency(p, 30) == pytest.approx(na / len(w), abs=1e-3)

    def test_between_half_and_one(self):
        for th, eps in ((SQRT2M1, -1), (SQRT3M1, 1)):
            f = letter_frequency(Param(th, eps), 25)
            assert 0.5 < f < 1
