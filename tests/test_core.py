"""Foundational types: parameters, partitions, riggings, k-vectors, bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigchar.core import (
    KVector,
    Params,
    Partition,
    RiggedPair,
    Rigging,
    boundary_ok,
    tau,
    tau_min_form,
    vacancy_P,
    vacancy_Q,
    weight,
)


def legal_labels(k):
    for l1 in range(k + 1):
        for l2 in range(k + 1):
            for l3 in range(min(l1, l2) + 1):
                yield l1, l2, l3


def partitions_strategy(k):
    return st.tuples(*[st.integers(0, 3) for _ in range(k)]).map(
        lambda t: Partition(k, t)
    )


class TestParams:
    def test_valid(self):
        Params(3, 1, 2, 1, 0, 4)

    @pytest.mark.parametrize(
        "bad",
        [
            (0, 0, 0, 0, 0, 0),
            (2, 3, 1, 0, 0, 0),
            (2, 1, -1, 0, 0, 0),
            (2, 1, 2, 2, 0, 0),
            (2, 1, 2, -1, 0, 0),
            (2, 1, 2, 1, -1, 0),
            (2, 1, 2, 1, 0, -2),
        ],
    )
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            Params(*bad)


class TestWeight:
    def test_empty(self):
        assert weight(Partition(2, (0, 0))) == 0

    def test_mixed(self):
        assert weight(Partition(2, (1, 1))) == 3

    def test_k3(self):
        assert weight(Partition(3, (2, 0, 1))) == 5


class TestTau:
    def test_hand_value(self):
        assert tau(2, 2, Params(3, 1, 2, 0, 0, 0)) == 1

    def test_k1_all_ones(self):
        assert tau(1, 1, Params(1, 1, 1, 1, 0, 0)) == 0

    def test_nonpositive_when_l3_is_min(self):
        for k in range(1, 6):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    p = Params(k, l1, l2, min(l1, l2), 0, 0)
                    for a in range(1, k + 1):
                        for b in range(1, k + 1):
                            assert tau(a, b, p) <= 0

    def test_two_closed_forms_agree(self):
        for k in range(1, 6):
            for l1, l2, l3 in legal_labels(k):
                p = Params(k, l1, l2, l3, 0, 0)
                for a in range(1, k + 1):
                    for b in range(1, k + 1):
                        assert tau(a, b, p) == tau_min_form(a, b, p)

    def test_symmetry(self):
        for k in range(1, 5):
            for l1, l2, l3 in legal_labels(k):
                p = Params(k, l1, l2, l3, 0, 0)
                q = Params(k, l2, l1, l3, 0, 0)
                for a in range(1, k + 1):
                    for b in range(1, k + 1):
                        assert tau(a, b, p) == tau(b, a, q)


class TestVacancy:
    def test_k1_balanced(self):
        one = Partition(1, (1,))
        assert vacancy_P(one, one, 1, 1).entries == (0,)
        assert vacancy_Q(one, one, 1, 1).entries == (0,)

    def test_empty_zero(self):
        e = Partition(3, (0, 0, 0))
        assert vacancy_P(e, e, 0, 3) == KVector.zero(3)
        assert vacancy_Q(e, e, 0, 3) == KVector.zero(3)

    def test_k2_hand_value(self):
        mu = Partition(2, (1, 0))
        nu = Partition(2, (0, 0))
        assert vacancy_P(mu, nu, 1, 2).entries == (-1, 0)

    @given(st.data())
    @settings(max_examples=200)
    def test_Q_is_P_swapped(self, data):
        k = data.draw(st.integers(1, 4))
        mu = data.draw(partitions_strategy(k))
        nu = data.draw(partitions_strategy(k))
        N = data.draw(st.integers(0, 3))
        l = data.draw(st.integers(0, k))
        assert vacancy_Q(mu, nu, N, l) == vacancy_P(nu, mu, N, l)

    @given(st.data())
    @settings(max_examples=300)
    def test_P_matches_definition(self, data):
        k = data.draw(st.integers(1, 5))
        mu = data.draw(partitions_strategy(k))
        nu = data.draw(partitions_strategy(k))
        M = data.draw(st.integers(0, 4))
        l = data.draw(st.integers(0, k))
        expected = tuple(
            alpha * M
            - max(alpha - l, 0)
            + sum(
                min(alpha, beta) * (nu.m(beta) - 2 * mu.m(beta))
                for beta in range(1, k + 1)
            )
            for alpha in range(1, k + 1)
        )
        assert vacancy_P(mu, nu, M, l).entries == expected


class TestBoundary:
    def test_positive_cutoffs_vacuous(self):
        p = Params(2, 0, 0, 0, 1, 1)
        mu = Partition(2, (2, 1))
        nu = Partition(2, (0, 2))
        assert boundary_ok(p, mu, nu)

    def test_N0_violation(self):
        p = Params(1, 1, 1, 1, 1, 0)
        one = Partition(1, (1,))
        assert not boundary_ok(p, one, one)

    def test_M0_equality_case(self):
        p = Params(2, 2, 0, 0, 0, 1)
        e = Partition(2, (0, 0))
        assert boundary_ok(p, e, e)


class TestCutpro:
    def test_equivalence_exhaustive(self):
        """Given row-feasible vacancy bounds, componentwise non-negativity
        of P and Q is equivalent to the weight boundary inequalities."""
        from rigchar.riggedsets import enumerate_partitions

        for k in (1, 2, 3):
            for M in (0, 1, 2):
                for N in (0, 1, 2):
                    for l1 in range(k + 1):
                        for l2 in range(k + 1):
                            p = Params(k, l1, l2, 0, M, N)
                            for m in range(7):
                                for n in range(7):
                                    for mu in enumerate_partitions(m, k):
                                        for nu in enumerate_partitions(n, k):
                                            P = vacancy_P(mu, nu, M, l1)
                                            Q = vacancy_Q(mu, nu, N, l2)
                                            feasible = all(
                                                P[a] >= 0
                                                for a in range(1, k + 1)
                                                if mu.m(a) > 0
                                            ) and all(
                                                Q[a] >= 0
                                                for a in range(1, k + 1)
                                                if nu.m(a) > 0
                                            )
                                            if not feasible:
                                                continue
                                            coc = P.is_nonneg() and Q.is_nonneg()
                                            assert coc == boundary_ok(p, mu, nu)
                                            if M >= 1:
                                                assert P[k] >= 0


class TestKVector:
    def test_arithmetic(self):
        a = KVector((1, -2, 3))
        b = KVector((0, 5, -1))
        assert (a + b).entries == (1, 3, 2)
        assert (a - b).entries == (1, -7, 4)

    def test_one_based_indexing(self):
        a = KVector((4, 5, 6))
        assert a[1] == 4 and a[3] == 6
        with pytest.raises(IndexError):
            a[0]

    def test_partial_order(self):
        assert KVector((1, 2)) <= KVector((1, 3))
        assert not KVector((1, 2)) <= KVector((0, 3))
        assert KVector((2, 2)) >= KVector((1, 2))


class TestRiggedTypes:
    def test_rigging_must_decrease(self):
        with pytest.raises(ValueError):
            Rigging(((1, 2),))
        with pytest.raises(ValueError):
            Rigging(((-1,),))

    def test_pair_row_counts_checked(self):
        mu = Partition(2, (1, 0))
        nu = Partition(2, (0, 1))
        r = Rigging(((3,), ()))
        s = Rigging(((), (0,)))
        RiggedPair(mu, r, nu, s)
        with pytest.raises(ValueError):
            RiggedPair(mu, s, nu, r)

    def test_rows_roundtrip(self):
        p = Partition(3, (2, 0, 1))
        assert p.rows() == (3, 1, 1)
        assert Partition.from_rows(3, p.rows()) == p
