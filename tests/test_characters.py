"""Laurent polynomials, Gaussian binomials and the character formulas."""

import hashlib
import json
from itertools import combinations_with_replacement, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigchar.characters import (
    LaurentPoly,
    char_R,
    char_recursion_check,
    degree_D,
    fermionic_char,
    gauss_binomial,
    gauss_binomial_product,
    piece_degrees,
    rig_degree,
    sl2_char,
    verify_fermionic,
)
from rigchar.core import Params, RiggedPair, pair_from_obj, pair_to_obj, vacancy_P, vacancy_Q
from rigchar.riggedsets import enumerate_partitions, enumerate_total, weight_bound

polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-9, 9),
    max_size=6,
).map(LaurentPoly)


def value_at_one(f: LaurentPoly) -> int:
    """The value of f at z1 = z2 = q = 1: the sum of its coefficients."""
    return sum(c for _, c in f.terms())


class TestLaurentPoly:
    def test_identities(self):
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        f = LaurentPoly({(1, 0, 2): 3, (-1, 1, 0): -2})
        assert f + zero == f
        assert f * one == f
        assert f - f == zero
        assert zero.terms() == []

    @given(polys, polys, polys)
    @settings(max_examples=100)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == LaurentPoly.zero()
        for f in (a + b, a - b, a * b, a.mapped(z1=(0, 1, 0), q=(1, 0, -1), times=(2, 0, 1))):
            assert all(coeff != 0 for _, coeff in f.terms())

    def test_canonical_text(self):
        assert LaurentPoly.zero().to_text() == "0"
        assert LaurentPoly.one().to_text() == "1"
        f = LaurentPoly({(0, 0, 0): 1, (1, 1, 1): 1})
        assert f.to_text() == "1 + z1*z2*q"
        g = LaurentPoly({(2, 0, -1): -3, (0, 0, 0): 5, (-1, 0, 0): 1})
        assert g.to_text() == "z1^-1 + 5 + -3*z1^2*q^-1"

    def test_text_sorted_by_exponents(self):
        f = LaurentPoly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        assert f.to_text() == "q + z2 + z1"

    @given(polys, st.sampled_from([("z1", "z2", "q"), ("z", "_", "q")]))
    @settings(max_examples=300, deadline=None)
    def test_text_matches_a_term_by_term_rendering(self, f, names):
        bits = []
        for exps, c in f.terms():
            var = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
            bits.append(str(c) if not var else {1: var, -1: "-" + var}.get(c, f"{c}*{var}"))
        assert f.to_text(names) == (" + ".join(bits) or "0")
        assert f.to_text(names, f.terms()) == f.to_text(names)

    def test_specialize(self):
        f = LaurentPoly({(1, 1, 1): 2, (0, 0, -3): 1})
        assert value_at_one(f) == 3


triples = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))

# The map z1 -> q^-1 z^2, z2 -> z^-2 of sl2_char, times z^-l at l = 0.
SL2_MAP = {"z1": (2, 0, -1), "z2": (-2, 0, 0)}


def power(exps, n: int) -> LaurentPoly:
    """The monic monomial with exponent triple exps to the power n, by
    repeated products with it or with its inverse."""
    step = LaurentPoly.monomial(1, *(e if n > 0 else -e for e in exps))
    out = LaurentPoly.one()
    for _ in range(abs(n)):
        out = out * step
    return out


class TestSubstitution:
    """LaurentPoly.mapped: a change of variables by monic monomials, times one."""

    def test_identity_substitution(self):
        f = LaurentPoly({(1, 2, 3): 4, (0, -1, 0): 2})
        assert f.mapped() == f
        assert f.mapped(z1=(1, 0, 0), z2=(0, 1, 0), q=(0, 0, 1), times=(0, 0, 0)) == f

    def test_z2_to_q_z2(self):
        f = LaurentPoly.monomial(1, 0, 1)
        assert f.mapped(z2=(0, 1, 1)) == LaurentPoly.monomial(1, 0, 1, 1)

    def test_z1_to_negative_power_monomial(self):
        f = LaurentPoly.monomial(1, 1)
        assert f.mapped(z1=(2, 0, -2)) == LaurentPoly.monomial(1, 2, 0, -2)

    def test_colliding_terms_add_up(self):
        # z1*z2*q goes to z^2 q^-1 * z^-2 * q = 1, where the constant lands.
        f = LaurentPoly({(0, 0, 0): 2, (1, 1, 1): 3})
        assert f.mapped(**SL2_MAP) == LaurentPoly({(0, 0, 0): 5})
        g = LaurentPoly({(0, 0, 0): 2, (1, 1, 1): -2})
        assert g.mapped(**SL2_MAP) == LaurentPoly.zero()

    @given(polys, triples, triples, triples, triples)
    @settings(max_examples=200, deadline=None)
    def test_matches_a_term_by_term_rebuild(self, f, z1, z2, q, times):
        expected = LaurentPoly.zero()
        for (a, b, e), c in f.terms():
            term = LaurentPoly.monomial(c, *times)
            expected = expected + term * power(z1, a) * power(z2, b) * power(q, e)
        assert f.mapped(z1=z1, z2=z2, q=q, times=times) == expected

    @given(polys, polys, triples)
    @settings(max_examples=100)
    def test_ring_morphism(self, a, b, times):
        img = {"z1": (0, 2, -1), "q": (1, 0, 0)}
        assert (a * b).mapped(**img) == a.mapped(**img) * b.mapped(**img)
        assert (a + b).mapped(**img, times=times) == (
            a.mapped(**img, times=times) + b.mapped(**img, times=times)
        )
        assert (a - b).mapped(**img) == a.mapped(**img) - b.mapped(**img)


class TestGaussBinomial:
    def test_zero_below_diagonal(self):
        assert gauss_binomial(1, 2) == LaurentPoly.zero()
        assert gauss_binomial(-1, 0) == LaurentPoly.zero()
        assert gauss_binomial_product(-1, 0) == LaurentPoly.zero()

    def test_choose_zero(self):
        assert gauss_binomial(7, 0) == LaurentPoly.one()

    def test_two_choose_one(self):
        assert gauss_binomial(2, 1).to_text() == "1 + q"

    def test_against_product_form(self):
        for m in range(10):
            for n in range(m + 1):
                assert gauss_binomial(m, n) == gauss_binomial_product(m, n)

    def test_q1_specialization_and_symmetry(self):
        for m in range(10):
            for n in range(m + 1):
                g = gauss_binomial(m, n)
                assert value_at_one(g) == comb(m, n)
                assert g == gauss_binomial(m, m - n)
                assert all(c > 0 for _, c in g.terms())
                assert max(e[2] for e, _ in g.terms()) == n * (m - n)

    def test_bounded_sum_identity(self):
        for M in range(7):
            for n in range(7):
                acc = {}
                for seq in combinations_with_replacement(range(M + 1), n):
                    e = sum(seq)
                    acc[(0, 0, e)] = acc.get((0, 0, e), 0) + 1
                assert LaurentPoly(acc) == gauss_binomial(M + n, n)

    def test_inexact_division_aborts(self):
        from rigchar.characters import _q_divexact

        with pytest.raises(ArithmeticError):
            _q_divexact({2: 1, 0: 1}, {1: 1, 0: -1})  # q^2+1 not divisible by q-1


class TestDegrees:
    def test_empty_pair(self):
        e = (0, 0)
        assert degree_D(e, e, 1, 1) == 0

    def test_k1_balanced(self):
        one = (1,)
        assert degree_D(one, one, 1, 1) == 1

    @given(st.data())
    @settings(max_examples=200)
    def test_swap_symmetry(self, data):
        k = data.draw(st.integers(1, 4))
        mu = tuple(data.draw(st.integers(0, 3)) for _ in range(k))
        nu = tuple(data.draw(st.integers(0, 3)) for _ in range(k))
        l1 = data.draw(st.integers(0, k))
        l2 = data.draw(st.integers(0, k))
        assert degree_D(mu, nu, l1, l2) == degree_D(nu, mu, l2, l1)

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_definition(self, data):
        k = data.draw(st.integers(1, 5))
        mu = tuple(data.draw(st.integers(0, 3)) for _ in range(k))
        nu = tuple(data.draw(st.integers(0, 3)) for _ in range(k))
        l1 = data.draw(st.integers(0, k))
        l2 = data.draw(st.integers(0, k))
        rows = list(enumerate(zip(mu, nu), start=1))
        expected = sum(max(a - l1, 0) * ma + max(a - l2, 0) * na for a, (ma, na) in rows)
        expected += sum(
            min(a, b) * (ma * mb + na * nb - ma * nb)
            for a, (ma, na) in rows
            for b, (mb, nb) in rows
        )
        assert degree_D(mu, nu, l1, l2) == expected

    def test_rig_degree(self):
        e = (0,)
        empty = RiggedPair(e, ((),), e, ((),))
        assert rig_degree(empty, 1, 1) == 0
        one = (1,)
        x = RiggedPair(one, ((0,),), one, ((0,),))
        assert rig_degree(x, 1, 1) == 1
        y = RiggedPair(one, ((1,),), one, ((0,),))
        assert rig_degree(y, 1, 1) == rig_degree(x, 1, 1) + 1


class TestCharR:
    def test_initial_condition(self):
        for k in (1, 2, 3):
            for l3 in range(k + 1):
                assert char_R(Params(k, k, k, l3, 0, 0)) == LaurentPoly.one()

    def test_k1_all_ones(self):
        assert char_R(Params(1, 1, 1, 1, 1, 1)).to_text() == "1 + z1*z2*q"

    def test_counting_specialization(self):
        for p in (Params(2, 2, 1, 1, 1, 1), Params(2, 1, 2, 0, 2, 1)):
            total = sum(len(rs) for rs in enumerate_total(p).values())
            assert value_at_one(char_R(p)) == total

    def test_equals_element_wise_sum(self):
        # char_R counts the elements by rigging sum without building them;
        # the reference builds every element and reads its degree.
        points = 0
        for k in (1, 2, 3):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    for l3 in range(min(l1, l2) + 1):
                        for M in range(4):
                            for N in range(4):
                                p = Params(k, l1, l2, l3, M, N)
                                assert char_R(p) == char_R_by_elements(p), p
                                points += 1
        assert points == 784

    def test_count_at_a_large_point(self):
        # 85,229,696 elements: about 200 s to build one by one, so only
        # the counted sum can reach this point in a test.
        assert value_at_one(char_R(Params(2, 2, 2, 2, 8, 8))) == 85_229_696

    def test_piece_degrees_is_rig_degree(self):
        # piece_degrees reuses the sums of the objects the elements of a
        # piece share; copies that share nothing get the same degrees.
        for p in (Params(2, 2, 2, 0, 3, 2), Params(3, 3, 2, 1, 2, 2)):
            for piece in enumerate_total(p).values():
                expected = [rig_degree(x, p.l1, p.l2) for x in piece]
                assert list(piece_degrees(piece, p.l1, p.l2)) == expected
                copies = [pair_from_obj(p.k, json.loads(json.dumps(pair_to_obj(x)))) for x in piece]
                assert list(piece_degrees(copies, p.l1, p.l2)) == expected


def char_R_by_elements(p: Params) -> LaurentPoly:
    """The brute-force character as char_R computed it before it counted
    by rigging sums: one term z1^m z2^n q^rig_degree per element of
    enumerate_total."""
    acc: dict = {}
    for (m, n), piece in enumerate_total(p).items():
        for x in piece:
            key = (m, n, rig_degree(x, p.l1, p.l2))
            acc[key] = acc.get(key, 0) + 1
    return LaurentPoly(acc)


def sparse_fermionic(k, l1, l2, M, N):
    """The closed form summed term by term as sparse LaurentPoly products."""
    mmax, nmax = weight_bound(Params(k, l1, l2, min(l1, l2), M, N))
    total = LaurentPoly.zero()
    for m in range(mmax + 1):
        for n in range(nmax + 1):
            for mu in enumerate_partitions(m, k):
                for nu in enumerate_partitions(n, k):
                    P = vacancy_P(mu, nu, M, l1)
                    Q = vacancy_Q(mu, nu, N, l2)
                    if not (P.is_nonneg() and Q.is_nonneg()):
                        continue
                    term = LaurentPoly.monomial(1, m, n, degree_D(mu, nu, l1, l2))
                    for x, c in zip(P + Q, mu + nu):
                        term = term * gauss_binomial(x + c, c)
                    total = total + term
    return total


class TestFermionic:
    def test_negative_labels_zero(self):
        assert fermionic_char(2, -1, 1, 1, 1) == LaurentPoly.zero()
        assert fermionic_char(2, 1, -1, 1, 1) == LaurentPoly.zero()

    def test_k1_all_ones(self):
        assert fermionic_char(1, 1, 1, 1, 1).to_text() == "1 + z1*z2*q"

    def test_matches_bruteforce_small(self):
        for k in (1, 2):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    for M in (0, 1):
                        for N in (0, 1):
                            f = fermionic_char(k, l1, l2, M, N)
                            b = char_R(Params(k, l1, l2, min(l1, l2), M, N))
                            assert f == b

    def test_nonnegative_coefficients(self):
        for k in (1, 2):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    f = fermionic_char(k, l1, l2, 2, 2)
                    assert all(c > 0 for _, c in f.terms())

    @pytest.mark.parametrize(
        "args, bits", [((2, 2, 2, 8, 8), 19), ((2, 2, 1, 6, 6), 12)]
    )
    def test_packed_cells_match_sparse_products(self, args, bits):
        # The largest coefficients need `bits` bits: a packing slot
        # narrower than that carries into the next coefficient.
        expected = sparse_fermionic(*args)
        assert max(c for _, c in expected.terms()).bit_length() == bits
        assert fermionic_char(*args) == expected


class TestVerifyFermionic:
    def test_k1_report(self):
        rep = verify_fermionic(Params(1, 1, 1, 1, 1, 1))
        assert rep.ok and rep.check == "fermionic"
        assert rep.context == {"k": 1, "l1": 1, "l2": 1, "M": 1, "N": 1}
        # A passing report carries no texts; they are rendered on failure only.
        assert rep.detail == {}
        assert fermionic_char(1, 1, 1, 1, 1).to_text() == "1 + z1*z2*q"
        assert char_R(Params(1, 1, 1, 1, 1, 1)).to_text() == "1 + z1*z2*q"

    def test_rejects_l3_below_min(self):
        # The closed form is the character at l3 = min(l1, l2) only.
        with pytest.raises(ValueError):
            verify_fermionic(Params(2, 2, 2, 1, 1, 1))


class TestCharRecursion:
    def test_k1_hand_case(self):
        rep = char_recursion_check(1, 1, 1, 1, 1, 1)
        assert rep.ok and rep.detail == {}
        assert char_R(Params(1, 1, 1, 1, 1, 1)).to_text() == "1 + z1*z2*q"

    def test_small_grid(self):
        for k in (1, 2):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    for l3 in range(min(l1, l2) + 1):
                        for M in (0, 1):
                            for N in (1, 2):
                                rep = char_recursion_check(k, l1, l2, l3, M, N)
                                assert rep.ok, rep.context

    def test_rejects_N0(self):
        with pytest.raises(ValueError):
            char_recursion_check(1, 1, 1, 1, 1, 0)


class TestSl2Char:
    def test_cli_pinned_point(self):
        assert sl2_char(1, 0, 0, 0) == LaurentPoly.one()
        assert value_at_one(sl2_char(1, 0, 0, 0)) == 1

    def test_l0_second_term_vanishes(self):
        # l = 0 sends the companion labels negative, so only one term remains
        for k in (1, 2):
            for M in (0, 1):
                for N in (0, 1):
                    assert fermionic_char(k, -1, k - 1, M + 1, N) == LaurentPoly.zero()
                    first = fermionic_char(k, 0, k, M + 1, N).mapped(**SL2_MAP)
                    assert sl2_char(k, 0, M, N) == first

    def test_nonnegative_coefficients(self):
        for k in (1, 2):
            for l in range(k + 1):
                for M in (0, 1, 2):
                    for N in (0, 1, 2):
                        s = sl2_char(k, l, M, N)
                        assert all(c > 0 for _, c in s.terms()), (k, l, M, N)

    def test_lives_on_z_axis_only(self):
        for k in (1, 2):
            for l in range(k + 1):
                s = sl2_char(k, l, 1, 1)
                assert all(e2 == 0 for (_, e2, _), _ in s.terms())

    def test_dimension_specializations(self):
        # nonzero graded dimensions at a few anchor points
        assert value_at_one(sl2_char(1, 1, 1, 1)) == 2
        assert value_at_one(sl2_char(2, 1, 1, 1)) == 4
        for k in (1, 2):
            for l in range(k + 1):
                assert value_at_one(sl2_char(k, l, 2, 2)) > 0

    def test_known_small_characters(self):
        assert sl2_char(2, 1, 0, 1).to_text(("z", "_", "q")) == "z^-1"
        assert (
            sl2_char(2, 1, 1, 1).to_text(("z", "_", "q"))
            == "z^-1 + z^-1*q + z + z*q"
        )
        assert (
            sl2_char(2, 1, 0, 2).to_text(("z", "_", "q"))
            == "z^-3*q + z^-3*q^2 + z^-1 + z^-1*q"
        )

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            sl2_char(2, 3, 0, 0)


class TestPinnedDigests:
    """tests/data/digests_closed_form.json holds the sha256 of the text form
    of fermionic_char and sl2_char on their reference grids (k <= 4,
    M, N <= 4), written by the script next to it.  The points with k <= 3
    are recomputed here; CI recomputes the whole file."""

    DIGESTS = json.loads(
        (Path(__file__).parent / "data" / "digests_closed_form.json").read_text()
    )
    ROUTES = {"fermionic_char": (fermionic_char, 2), "sl2_char": (sl2_char, 1)}

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_file_covers_the_grid(self, route):
        labels = self.ROUTES[route][1]
        expected = {
            ",".join(map(str, (k, *ls, M, N)))
            for k in range(1, 5)
            for ls in product(range(k + 1), repeat=labels)
            for M, N in product(range(5), repeat=2)
        }
        assert set(self.DIGESTS[route]) == expected
        assert len(expected) == {"fermionic_char": 1350, "sl2_char": 350}[route]

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_points_up_to_k3(self, route):
        fn = self.ROUTES[route][0]
        wrong = []
        for key, want in self.DIGESTS[route].items():
            point = tuple(map(int, key.split(",")))
            if point[0] <= 3:
                got = hashlib.sha256(fn(*point).to_text().encode()).hexdigest()
                if got != want:
                    wrong.append(key)
        assert not wrong, f"{route} differs from the pinned digest at {wrong}"
