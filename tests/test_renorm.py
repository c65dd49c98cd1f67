import random
import time

import numpy as np
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sqrect.errors import NotInZone, NotTerminated, OnDiscontinuity, Terminal
from sqrect.exactnum import make_surd, parse_number
from sqrect.pet import Param, Point, Rect, code_orbit, islands
from sqrect.renorm import (
    EXACT_PIECE_BUDGET,
    FAMILIES,
    FAMILY_EDGES,
    CoverPiece,
    Mat2,
    cover,
    cover_level,
    cover_seed,
    family_coefficients,
    first_return,
    incidence_matrix,
    induction_verify,
    induction_zone,
    n_omega,
    param_chain,
    period_sequence,
    piece_count,
    ratio,
    renorm_step,
    return_times,
    similitude_apply,
    substitution,
)

SQRT2M1 = make_surd(-1, 1, 1, 2)
SQRT3M1 = make_surd(-1, 1, 1, 3)

params = st.builds(
    Param,
    st.fractions(
        min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40
    ),
    st.sampled_from([-1, 1]),
)


class TestFamilyCoefficients:
    @pytest.mark.parametrize(
        "name, with_parity", [("gap", False), ("M", False), ("A", True)]
    )
    def test_reproduces_the_table(self, name, with_parity):
        # in Python ints, at indices up to 2**51 as well as small ones
        slope, *par, const = family_coefficients(name, with_parity).astype(int).tolist()
        for f, fam in enumerate(FAMILIES):
            for t in (0, 1, 2, 5, 6, 999, 1000, 2**40 + 1, 2**51):
                want = getattr(fam, name)(t)
                got = [
                    s[f] * t + (par[0][i][f] * (t % 2) if par else 0) + c[f]
                    for i, (s, c) in enumerate(zip(slope, const))
                ]
                assert got == list(want if isinstance(want, tuple) else (want,))

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            family_coefficients("A")  # A has a term in n % 2

    def test_edges_index_the_families(self):
        below_1, below_3_2 = np.nextafter(1.0, 0), np.nextafter(1.5, 0)
        x = np.array([0.25, below_1, 1.0, 1.25, below_3_2, 1.5, 1.9])
        assert FAMILY_EDGES.searchsorted(x, "right").tolist() == [0, 0, 1, 1, 1, 2, 2]


class TestParameterMap:
    def test_silver_mean_fixed(self):
        p = Param(SQRT2M1, -1)
        assert renorm_step(p) == p

    def test_plus_family_fixed(self):
        p = Param(SQRT3M1, 1)
        assert renorm_step(p) == p

    def test_rational_chain(self):
        p = Param(Fraction(3, 8), -1)
        q1 = renorm_step(p)
        assert q1 == Param(Fraction(2, 3), -1)
        q2 = renorm_step(q1)
        assert q2 == Param(Fraction(1, 2), 1)
        q3 = renorm_step(q2)
        assert q3 == Param(0, -1)
        with pytest.raises(Terminal):
            renorm_step(q3)

    @given(params)
    def test_ratio_expands(self, p):
        assume(p.f(p.theta) != 0)
        assert ratio(p) > 1

    @given(params)
    def test_next_theta_in_range(self, p):
        assume(p.f(p.theta) != 0)
        q = renorm_step(p)
        assert 0 <= q.theta < 1


class TestSimilitude:
    @given(params)
    def test_roundtrip(self, p):
        z = Point(Fraction(1, 3), Fraction(2, 7))
        assert similitude_apply(p, similitude_apply(p, z, "inv"), "fwd") == z

    @given(params)
    def test_contraction_factor(self, p):
        assume(p.f(p.theta) != 0)
        a = similitude_apply(p, Point(0, 0), "inv")
        b = similitude_apply(p, Point(1, 1), "inv")
        r = ratio(p)
        assert abs(float(b.x - a.x)) * float(r) == pytest.approx(1.0, abs=1e-12)

    def test_zone_inside_domain(self):
        p = Param(SQRT2M1, -1)
        c_ind, r_ind = induction_zone(p)
        for rect in (c_ind, r_ind):
            assert 0 <= float(rect.x) and float(rect.x + rect.w) <= float(p.width)
            assert 0 <= float(rect.y) and float(rect.y + rect.h) <= 1


class TestFirstReturn:
    def test_return_times_match_digit(self):
        p = Param(SQRT2M1, -1)  # n = 2
        assert n_omega(p) == 2
        assert return_times(p) == (5, 3)

    def test_plus_return_times(self):
        p = Param(SQRT3M1, 1)  # n = 3 in the plus family
        assert return_times(p) == (3 * (n_omega(p) - 1) + 1, 3)

    def test_outside_zone_raises(self):
        p = Param(SQRT2M1, -1)
        with pytest.raises(NotInZone):
            first_return(p, Point(Fraction(99, 100), Fraction(99, 100)))

    def test_return_lands_in_zone(self):
        p = Param(SQRT2M1, -1)
        c_ind, r_ind = induction_zone(p)
        z = Point(
            c_ind.x + c_ind.w / 3,
            c_ind.y + c_ind.h / 3,
        )
        w, k = first_return(p, z)
        assert k == 5
        assert c_ind.contains(w) or r_ind.contains(w)


class TestInductionVerify:
    def test_exact_mode_zero_error(self):
        rep = induction_verify(Param(SQRT2M1, -1), samples=300, seed=3)
        assert rep.exact and rep.max_error == 0.0

    def test_float_mode_small_error(self):
        rep = induction_verify(Param(0.4142135623730951, -1), samples=300, seed=3)
        assert not rep.exact and rep.max_error <= 1e-9

    def test_rational_parameter(self):
        rep = induction_verify(Param(Fraction(2, 7), 1), samples=300, seed=3)
        assert rep.max_error == 0.0

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        # exactness certified from no sample would be vacuous
        with pytest.raises(ValueError):
            induction_verify(Param(SQRT2M1, -1), samples=samples)


class TestSubstitutionMatrix:
    @given(params)
    def test_abelianization_is_incidence(self, p):
        assume(p.f(p.theta) != 0)
        assert substitution(p).abelianization() == (
            incidence_matrix(p).m11,
            incidence_matrix(p).m12,
            incidence_matrix(p).m21,
            incidence_matrix(p).m22,
        )

    @given(params)
    def test_determinant_is_eps(self, p):
        assume(p.f(p.theta) != 0)
        assert incidence_matrix(p).det() == p.eps

    @given(params)
    def test_entries_nonnegative(self, p):
        assume(p.f(p.theta) != 0)
        M = incidence_matrix(p)
        assert min(M.m11, M.m12, M.m21, M.m22) >= 0

    def test_period_sequence_silver_mean(self):
        assert period_sequence(Param(SQRT2M1, -1), 3) == [1, 5, 21]

    @given(params, st.integers(2, 6))
    def test_period_sequence_monotone(self, p, k):
        from sqrect.errors import Degenerate

        try:
            ps = period_sequence(p, k)
        except (Terminal, Degenerate):
            assume(False)
        assert ps == sorted(ps)


class TestCodingCommutation:
    @pytest.mark.parametrize(
        "theta,eps",
        [(SQRT2M1, -1), (SQRT3M1, 1), (Fraction(2, 7), 1), (Fraction(5, 13), -1)],
    )
    def test_substitution_commutes_with_coding(self, theta, eps):
        p = Param(theta, eps)
        q = renorm_step(p)
        sigma = substitution(p)
        rng = random.Random(7)
        done = 0
        while done < 3:
            z1 = Point(
                Fraction(rng.randrange(1, 2**20), 2**20) * (1 + q.theta),
                Fraction(rng.randrange(1, 2**20), 2**20),
            )
            if z1.x == 1:
                continue
            z = similitude_apply(p, z1, "inv")
            try:
                w_up = code_orbit(p, z, 400)
                w_dn = code_orbit(q, z1, 200)
            except OnDiscontinuity:
                continue
            img = sigma(w_dn)
            n = min(len(img), 300)
            assert str(img)[:n] == str(w_up)[:n]
            done += 1


class TestCover:
    def test_depth_zero(self):
        p = Param(SQRT2M1, -1)
        pieces = cover(p, 0)
        assert len(pieces) == 2
        assert pieces[0].shape == "C" and pieces[1].shape == "R"

    def test_counts_follow_matrix_product(self):
        p = Param(SQRT2M1, -1)
        M = Mat2.identity()
        for l in range(1, 5):
            M = M @ incidence_matrix(p)
            assert len(cover(p, l)) == sum(M.apply((1, 1)))

    def test_pieces_inside_domain(self):
        p = Param(SQRT2M1, -1)
        for c in cover(p, 3):
            r = c.rect
            assert 0 <= float(r.x) and float(r.x + r.w) <= float(p.width) + 1e-12
            assert 0 <= float(r.y) and float(r.y + r.h) <= 1 + 1e-12

    def test_area_complement_identity_exact(self):
        # the depth-l cover tiles the complement of all islands whose period
        # is below the next entry of the period sequence -- exactly
        p = Param(SQRT2M1, -1)
        ps = period_sequence(p, 5)
        cells = islands(p, max_period=ps[4] - 1)
        for l in range(1, 4):
            cover_area = sum(c.rect.w * c.rect.h for c in cover(p, l))
            isl_area = sum(
                c.rect.area() for c in cells if c.orbit_period < ps[l]
            )
            assert cover_area + isl_area == 1 + p.theta

    def test_area_complement_identity_deep(self):
        p = Param(SQRT2M1, -1)
        ps = period_sequence(p, 7)
        cells = islands(p, max_period=ps[6] - 1)
        for l in (5, 6):
            cover_area = sum(c.rect.w * c.rect.h for c in cover(p, l))
            isl_area = sum(
                c.rect.area() for c in cells if c.orbit_period < ps[l]
            )
            assert float(cover_area + isl_area - (1 + p.theta)) == 0.0

    @pytest.mark.parametrize("theta, eps", [
        *((f"-{n}+sqrt({n * n + 1})", -1) for n in (1, 2, 3)),
        *((f"-{n}+sqrt({n * (n + 2)})", 1) for n in (1, 2, 3)),
        ("(-13+4*sqrt(13))/4", -1),
        ("(sqrt(7)-1)/3", 1),
    ])
    def test_carried_letter_is_geometric_side(self, theta, eps):
        # the letters come from the substitutions alone; the exact geometry
        # must agree at every level: 'a' pieces lie in the square, 'b'
        # pieces in the rectangle
        p = Param(parse_number(theta), eps)
        l = 1
        while piece_count(param_chain(p, l + 1)) <= 500:
            l += 1
        params = param_chain(p, l)
        pieces = [
            (CoverPiece(Rect(*r), "CR"[letter == "b"], 1, 0), letter)
            for r, letter in cover_seed(params[-1].theta)
        ]
        checked = 0
        for q in reversed(params[:-1]):
            pieces = cover_level(q, pieces)
            for piece, letter in pieces:
                r = piece.rect
                assert (r.x + r.w <= 1) if letter == "a" else (r.x >= 1)
            checked += len(pieces)
        assert l >= 2 and checked == sum(
            piece_count(params[i:]) for i in range(l)
        )

    def test_terminal_seed_drops_rectangle(self):
        # 3/8 -> 2/3 -> 1/2 -> 0: the depth-3 cover grows from the square
        # alone, and the area identity still holds exactly at every depth
        p = Param(Fraction(3, 8), -1)
        assert [q.theta for q in param_chain(p, 3)] == [
            Fraction(3, 8), Fraction(2, 3), Fraction(1, 2), 0
        ]
        assert cover_seed(0) == [((0, 0, 1, 1), "a")]
        ps = period_sequence(p, 4)
        cells = islands(p, max_period=ps[3] - 1)
        for l, n in enumerate((2, 8, 21, 37)):
            pieces = cover(p, l)
            assert len(pieces) == piece_count(param_chain(p, l)) == n
            cover_area = sum(c.rect.w * c.rect.h for c in pieces)
            isl_area = sum(
                c.rect.area() for c in cells if c.orbit_period < ps[l]
            )
            assert cover_area + isl_area == 1 + p.theta

    def test_exact_cover_above_budget_fails_fast(self):
        # depth 12 of the silver mean has 63,245,986 pieces, about 40 GB as
        # exact CoverPieces: refused from the piece count alone
        p = Param(SQRT2M1, -1)
        assert piece_count(param_chain(p, 12)) > EXACT_PIECE_BUDGET
        start = time.perf_counter()
        with pytest.raises(NotTerminated):
            cover(p, 12)
        assert time.perf_counter() - start < 2.0

    def test_ratio_matches_depth(self):
        p = Param(SQRT2M1, -1)
        r = ratio(p)
        for c in cover(p, 2):
            assert c.ratio * r * r == 1
