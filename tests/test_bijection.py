"""Lower/upper subsets, the rigging map, and the exhaustive verifiers."""

import json
from operator import le

import pytest

from rigchar.admissible import (
    all_index_sets,
    epsilon,
    is_admissible,
    is_l1_admissible,
    kappa,
    primed_labels,
    primed_params,
    recursion_terms,
    rho,
    rho_prime,
    sigma,
    sigma_prime,
)
from rigchar.bijection import (
    MarkedBound,
    lower_bounds,
    lower_member,
    map_m,
    upper_bounds,
    upper_member,
    verify_bijection,
    verify_lower_decomposition,
    verify_recursion,
    verify_upper_decomposition,
)
from rigchar.characters import LaurentPoly, rig_degree
from rigchar.core import Params, RiggedPair, weight
from rigchar.riggedsets import enumerate_R


def legal_labels(k):
    for l1 in range(k + 1):
        for l2 in range(k + 1):
            for l3 in range(min(l1, l2) + 1):
                yield l1, l2, l3


def ambient(p, m, n):
    free = Params(p.k, p.l1, p.l2, min(p.l1, p.l2), p.M, p.N)
    return enumerate_R(free, m, n)


EMPTY1 = RiggedPair((0,), ((),), (0,), ((),))


class TestBoundBuilders:
    """The memoised builders return None exactly where a pair is not
    admissible, and otherwise its bound vectors and epsilon marks."""

    def test_lower_bounds_match_the_per_pair_builders(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    for I in all_index_sets(k):
                        for J in all_index_sets(k):
                            bound = lower_bounds(k, I, J, l1, l2)
                            if not is_admissible(k, I, J, l1, l2):
                                assert bound is None
                                continue
                            assert bound.value == rho(k, I, J, l1) + sigma(k, J, l2)
                            assert bound.marked == tuple(
                                e == 1 for e in epsilon(k, I) + epsilon(k, J)
                            )

    def test_upper_bounds_match_the_per_pair_builders(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for I in all_index_sets(k):
                    for J in all_index_sets(k):
                        bound = upper_bounds(k, I, J, l1)
                        if not is_l1_admissible(k, I, J, l1):
                            assert bound is None
                            continue
                        assert bound.value == rho_prime(k, I, J, l1) + sigma_prime(k, I, J, l1)
                        assert bound.marked == tuple(
                            e == -1 for e in epsilon(k, I) + epsilon(k, J)
                        )


class TestPointMemos:
    """Each memo a verifier reads at a grid point holds what the point
    would build from the per-pair builders, for every label tuple with
    k <= 4."""

    CUTOFFS = ((0, 1), (2, 1), (1, 3))  # (M, N), each with N >= 1

    def test_recursion_terms(self):
        for k in range(1, 5):
            for l1, l2, l3 in legal_labels(k):
                for M, N in self.CUTOFFS:
                    p = Params(k, l1, l2, l3, M, N)
                    assert recursion_terms(p) == tuple(
                        (a, c, Params(k, *primed_labels(k, l1, a, c), M, N - 1))
                        for a in range(l3 + 1)
                        for c in range(l2 - a + 1)
                    )
                    rep = verify_recursion(*p, 0, 0)
                    assert [(t["a"], t["c"]) for t in rep.detail["terms"]] == [
                        (a, c) for a, c, _ in recursion_terms(p)
                    ]

    def test_a_fault_in_the_shared_terms_fails_both_checks(self, monkeypatch):
        # verify_recursion and char_recursion_check iterate one memo, and
        # each computes its left-hand side from the enumeration.
        import rigchar.bijection as bijection
        import rigchar.characters as characters

        assert bijection.recursion_terms is characters.recursion_terms is recursion_terms
        p = Params(2, 2, 2, 1, 1, 1)
        for module in (bijection, characters):
            monkeypatch.setattr(module, "recursion_terms", lambda q: recursion_terms(q)[1:])
        assert not characters.char_recursion_check(2, 2, 2, 1, 1, 1).ok
        assert not all(verify_recursion(*p, m, n).ok for m in range(4) for n in range(4))

    def test_lower_pairs(self):
        from rigchar.bijection import _lower_pairs

        for k in range(1, 5):
            for l1, l2, l3 in legal_labels(k):
                assert list(_lower_pairs(k, l1, l2, l3)) == [
                    (I, J, lower_bounds(k, I, J, l1, l2))
                    for I in all_index_sets(k)
                    for J in all_index_sets(k)
                    if is_admissible(k, I, J, l1, l2) and len(I) <= l3
                ]

    def test_upper_pairs(self):
        from rigchar.bijection import _upper_pairs
        from rigchar.cli import _labels_upper

        for k in range(1, 5):
            for l1, a, c in _labels_upper(k):
                assert list(_upper_pairs(k, l1, a, c)) == [
                    (I, J, upper_bounds(k, I, J, l1))
                    for I in all_index_sets(k)
                    for J in all_index_sets(k)
                    if is_l1_admissible(k, I, J, l1) and len(I) == a and len(J) == a + c
                ]

    def test_bijection_rows(self):
        from rigchar.bijection import _bijection_rows

        for k in range(1, 5):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    for M, N in self.CUTOFFS:
                        expected = []
                        for I in all_index_sets(k):
                            for J in all_index_sets(k):
                                if not is_admissible(k, I, J, l1, l2):
                                    continue
                                l1p, l2p, _ = primed_labels(k, l1, len(I), len(J) - len(I))
                                up = Params(k, l1p, l2p, min(l1p, l2p), M, N - 1)
                                expected.append(
                                    (I, J, lower_bounds(k, I, J, l1, l2),
                                     upper_bounds(k, I, J, l1), up, len(I), len(J))
                                )
                        assert list(_bijection_rows(k, l1, l2, M, N)) == expected


class TestPrimedParams:
    """admissible.primed_params is the one builder of the set one
    recursion step down, and every memo that holds such a set reads it."""

    def test_matches_the_primed_labels_and_the_memos(self):
        from rigchar.bijection import _bijection_rows
        from rigchar.cli import _labels_upper

        rows_checked = 0
        for k in range(1, 5):
            for l1, a, c in _labels_upper(k):
                for M in range(3):
                    for N in (1, 2):
                        pp = Params(k, *primed_labels(k, l1, a, c), M, N - 1)
                        assert primed_params(k, l1, a, c, M, N) == pp
                        # (a, c) is a term of the sum at l2 = a + c, l3 = a.
                        assert (a, c, pp) in recursion_terms(Params(k, l1, a + c, a, M, N))
                        free = Params(k, pp.l1, pp.l2, min(pp.l1, pp.l2), M, N - 1)
                        for l2 in range(a + c, k + 1):
                            for row in _bijection_rows(k, l1, l2, M, N):
                                if row[5:] == (a, a + c):
                                    assert row[4] == free
                                    rows_checked += 1
        assert rows_checked > 0

    def test_a_bad_level_or_cutoff_stays_a_usage_error(self):
        for args in ((0, 0, 0, 0, 1, 1), (1, 1, 0, 0, -1, 1)):
            with pytest.raises(ValueError) as exc:
                primed_params(*args)
            assert type(exc.value) is ValueError

    def test_an_illegal_primed_label_is_a_fault(self, monkeypatch, capsys):
        import rigchar.admissible as admissible
        from rigchar import cli
        from rigchar.bijection import _bijection_rows
        from rigchar.core import InvariantError

        def clear_memos():
            recursion_terms.cache_clear()
            _bijection_rows.cache_clear()

        argv = "verify recursion --max-k 2 --max-weight 1 --max-M 1 --max-N 1 --jobs 1"
        clear_memos()
        try:
            monkeypatch.setattr(admissible, "primed_labels", lambda k, l1, a, c: (k + 1, k, k))
            with pytest.raises(InvariantError, match="primed labels"):
                primed_params(2, 2, 0, 0, 1, 1)
            assert cli.main(argv.split()) == 3
            assert json.loads(capsys.readouterr().out.splitlines()[-1])["error"] == "InvariantError"
        finally:
            monkeypatch.undo()
            clear_memos()


class TestMarkedBound:
    def test_present_rows_compare_their_bottom_rigging(self):
        bound = MarkedBound((1, 2), (True, False))
        assert bound.satisfied_by(((3, 1), (2,)))
        assert bound.satisfied_by(((1,), (5, 4)))
        assert not bound.satisfied_by(((2,), (2,)))
        assert not bound.satisfied_by(((1,), (1,)))

    def test_absent_row_fails_marked_and_meets_unmarked(self):
        # However large or small the bound, an empty row of a marked
        # length fails and an empty row of an unmarked length holds.
        for value in (-5, 0, 7):
            assert not MarkedBound((value, 0), (True, False)).satisfied_by(((), (0,)))
            assert MarkedBound((value, 0), (False, False)).satisfied_by(((), (0,)))
        assert MarkedBound((0, 0), (False, False)).satisfied_by(((), ()))
        assert not MarkedBound((0, 0), (False, True)).satisfied_by(((), ()))


class TestLowerMember:
    def test_non_admissible_always_false(self):
        p = Params(2, 0, 1, 0, 1, 1)
        I = (1,)
        J = (2,)
        assert not is_admissible(2, I, J, 0, 1)
        for x in ambient(p, 1, 1):
            assert not lower_member(x, I, J, 2, 0, 1, 1, 1)

    def test_marked_alpha_needs_a_row(self):
        # epsilon(1, I) = 1 at alpha forces rows of length alpha
        I = J = (1,)
        assert not lower_member(EMPTY1, I, J, 1, 1, 1, 1, 1)

    def test_full_interval_J(self):
        # J = [1, l2]: sigma vanishes and only s[l2] is marked
        for k in range(1, 4):
            for l2 in range(1, k + 1):
                J = tuple(range(1, l2 + 1))
                assert sigma(k, J, l2) == (0,) * k
                e = epsilon(k, J)
                assert [a for a, x in enumerate(e, start=1) if x == 1] == [l2]

    def test_k1_single_element(self):
        p = Params(1, 1, 1, 1, 1, 1)
        I = J = (1,)
        x = enumerate_R(p, 1, 1)[0]
        assert lower_member(x, I, J, 1, 1, 1, 1, 1)


class TestUpperMember:
    def test_non_admissible_always_false(self):
        I = (1,)
        J = (2,)
        for x in ambient(Params(2, 2, 2, 0, 1, 1), 1, 1):
            assert not upper_member(x, I, J, 2, 0, 1, 1)

    def test_empty_pair_at_l1_k_reduces_to_cutoffs(self):
        k = 2
        I = J = ()
        l1p, l2p, _ = primed_labels(k, k, 0, 0)
        assert (l1p, l2p) == (k, k)
        for m in range(4):
            for n in range(4):
                cut = enumerate_R(Params(k, l1p, l2p, min(l1p, l2p), 1, 0), m, n)
                for x in cut:
                    assert upper_member(x, I, J, k, k, 1, 1)

    def test_reads_plain_values_and_builds_no_params(self, monkeypatch):
        # A Params names a set R(p) that is read.  upper_member and the tau
        # matrix read only labels and cutoffs, so neither builds one.
        from rigchar import core
        from rigchar.riggedsets import _tau_table

        x = enumerate_R(Params(2, 2, 2, 2, 2, 1), 1, 1)[0]
        built = {}
        monkeypatch.setattr(core, "_PARAMS", built)
        _tau_table.cache_clear()
        assert _tau_table(3, 2, 3, 1) is not None
        assert upper_member(x, (), (), 2, 2, 2, 2)
        assert built == {}

    def test_requires_positive_N(self):
        I = J = ()
        with pytest.raises(ValueError):
            upper_member(EMPTY1, I, J, 1, 1, 1, 0)


class TestMapM:
    def test_weight_shift(self):
        k, l1, l2, M, N = 2, 2, 2, 1, 1
        for I in all_index_sets(k):
            for J in all_index_sets(k):
                if not is_admissible(k, I, J, l1, l2):
                    continue
                a, b = len(I), len(J)
                l1p, l2p, _ = primed_labels(k, l1, a, b - a)
                for m in range(4):
                    for n in range(4):
                        up = enumerate_R(
                            Params(k, l1p, l2p, min(l1p, l2p), M, N - 1), m - a, n - b
                        )
                        for x in up:
                            if not upper_member(x, I, J, k, l1, M, N):
                                continue
                            y = map_m(x, I, J, k, l1, l2, M, N)
                            # cli._json_value writes exact tuples only.
                            assert type(y.mu) is tuple and type(y.nu) is tuple
                            assert weight(y.mu) == weight(x.mu) + a
                            assert weight(y.nu) == weight(x.nu) + b

    def test_empty_sets_shift_riggings_only(self):
        k = l1 = 2
        l2, M, N = 1, 1, 2
        I = J = ()
        l1p, l2p, _ = primed_labels(k, l1, 0, 0)
        shift = kappa(k, range(1, l2 + 1))
        moved = 0
        for m in range(4):
            for n in range(4):
                up = enumerate_R(Params(k, l1p, l2p, min(l1p, l2p), M, N - 1), m, n)
                for x in up:
                    if not upper_member(x, I, J, k, l1, M, N):
                        continue
                    y = map_m(x, I, J, k, l1, l2, M, N)
                    assert y.mu == x.mu and y.nu == x.nu
                    assert y.r == x.r
                    for got, row, d in zip(y.s, x.s, shift):
                        assert got == tuple(v + d for v in row)
                    if any(x.nu):
                        moved += 1
        assert moved > 0

    def test_rejects_non_members(self):
        I = J = (1,)
        bad = RiggedPair((1,), ((5,),), (0,), ((),))
        with pytest.raises(ValueError):
            map_m(bad, I, J, 1, 1, 1, 1, 1)

    def test_a_non_member_image_is_a_hard_error(self, monkeypatch):
        import rigchar.bijection as bijection

        I = J = ()
        monkeypatch.setattr(bijection, "lower_member", lambda *args: False)
        message = (
            "rigging map produced a non-member of the lower subset: "
            "RiggedPair(mu=(0,), r=((),), nu=(0,), s=((),))"
        )
        with pytest.raises(AssertionError) as exc:
            map_m(EMPTY1, I, J, 1, 1, 1, 1, 1)
        assert str(exc.value) == message

    def test_bijectivity_smoke(self):
        for k in (1, 2):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    for m in range(4):
                        for n in range(4):
                            rep = verify_bijection(k, l1, l2, 1, 1, m, n)
                            assert rep.ok, ((k, l1, l2, m, n), rep.detail)


class TestVerifyRecursion:
    def test_k1_hand_case(self):
        rep = verify_recursion(1, 1, 1, 1, 1, 1, 1, 1)
        assert rep.ok
        assert rep.detail["lhs"] == 1 and rep.detail["rhs"] == 1
        contributing = [t for t in rep.detail["terms"] if t["count"]]
        assert contributing == [{"a": 1, "c": 0, "count": 1}]

    def test_initial_chain(self):
        for k in (1, 2, 3):
            rep = verify_recursion(k, k, k, 0, 0, 1, 0, 0)
            assert rep.ok
            assert rep.detail["lhs"] == 1 and rep.detail["rhs"] == 1

    def test_l3_zero_has_only_a0_terms(self):
        rep = verify_recursion(2, 2, 2, 0, 1, 1, 2, 2)
        assert rep.ok
        assert all(t["a"] == 0 for t in rep.detail["terms"])

    def test_rejects_N0(self):
        # Every entry point that steps N down reaches primed_params, whose
        # one guard makes N = 0 a usage error: a plain ValueError.
        from rigchar.characters import char_recursion_check

        for call in (
            lambda: verify_recursion(1, 1, 1, 1, 1, 0, 0, 0),
            lambda: char_recursion_check(1, 1, 1, 1, 1, 0),
            lambda: verify_upper_decomposition(1, 1, 0, 0, 1, 0, 0, 0),
            lambda: verify_bijection(1, 1, 1, 1, 0, 0, 0),
        ):
            with pytest.raises(ValueError, match="need N >= 1") as exc:
                call()
            assert type(exc.value) is ValueError


class TestDecompositions:
    def test_lower_smoke(self):
        for k in (1, 2):
            for l1, l2, l3 in legal_labels(k):
                for M in (0, 1):
                    for N in (0, 1):
                        for m in range(4):
                            for n in range(4):
                                rep = verify_lower_decomposition(k, l1, l2, l3, M, N, m, n)
                                assert rep.ok, ((k, l1, l2, l3, M, N, m, n), rep.detail)

    def test_lower_vacuous_for_negative_weight(self):
        rep = verify_lower_decomposition(2, 1, 1, 0, 1, 1, -1, 2)
        assert rep.ok and rep.detail["elements"] == 0

    def test_empty_pair_covered_by_single_J(self):
        p = Params(2, 2, 2, 1, 1, 1)
        empty = enumerate_R(p, 0, 0)[0]
        covers = [
            (I, J)
            for I in all_index_sets(2)
            if len(I) <= p.l3
            for J in all_index_sets(2)
            if len(J) <= p.l2 and lower_member(empty, I, J, 2, 2, 2, 1, 1)
        ]
        assert len(covers) == 1
        assert covers[0][0] == ()

    def test_upper_smoke(self):
        for k in (1, 2):
            for l1 in range(k + 1):
                for a in range(l1 + 1):
                    for c in range(k - a + 1):
                        for M in (0, 1):
                            for N in (1, 2):
                                for m in range(4):
                                    for n in range(4):
                                        rep = verify_upper_decomposition(
                                            k, l1, a, c, M, N, m, n
                                        )
                                        assert rep.ok, ((k, l1, a, c, M, N, m, n), rep.detail)

    def test_upper_vacuous_for_negative_weight(self):
        rep = verify_upper_decomposition(2, 1, 0, 0, 1, 1, 0, -2)
        assert rep.ok

    def test_upper_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            verify_upper_decomposition(2, 1, 2, 0, 1, 1, 0, 0)

    def test_lower_subsets_pairwise_disjoint(self):
        p = Params(2, 2, 2, 2, 1, 1)
        pairs = [
            (I, J)
            for I in all_index_sets(2)
            for J in all_index_sets(2)
            if is_admissible(2, I, J, p.l1, p.l2)
        ]
        for m in range(4):
            for n in range(4):
                for x in ambient(p, m, n):
                    covers = [
                        (I, J) for I, J in pairs if lower_member(x, I, J, 2, 2, 2, 1, 1)
                    ]
                    assert len(covers) <= 1


class TestAggregateGradingLaw:
    def test_refines_character_recursion(self):
        """Summed over one admissible pair, the upper-subset generating
        function, reweighted by z2 -> q z2 and z1^a z2^b q^b, equals the
        lower-subset generating function."""
        for k in (1, 2):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    for M in (0, 1, 2):
                        for N in (1, 2):
                            p = Params(k, l1, l2, min(l1, l2), M, N)
                            for m in range(5):
                                for n in range(5):
                                    self._check_point(p, m, n)

    @staticmethod
    def _check_point(p, m, n):
        k, l1, l2, _, M, N = p
        lower_amb = ambient(p, m, n)
        for I in all_index_sets(k):
            for J in all_index_sets(k):
                if len(J) > l2 or not is_admissible(k, I, J, l1, l2):
                    continue
                a, b = len(I), len(J)
                l1p, l2p, _ = primed_labels(k, l1, a, b - a)
                upper_amb = enumerate_R(
                    Params(k, l1p, l2p, min(l1p, l2p), M, N - 1), m - a, n - b
                )
                lhs = LaurentPoly.zero()
                for x in upper_amb:
                    if upper_member(x, I, J, k, l1, M, N):
                        lhs = lhs + LaurentPoly.monomial(
                            1, weight(x.mu), weight(x.nu), rig_degree(x, l1p, l2p)
                        )
                lhs = lhs.mapped(z2=(0, 1, 1), times=(a, b, b))
                rhs = LaurentPoly.zero()
                for y in lower_amb:
                    if lower_member(y, I, J, k, l1, l2, M, N):
                        rhs = rhs + LaurentPoly.monomial(
                            1, weight(y.mu), weight(y.nu), rig_degree(y, l1, l2)
                        )
                assert lhs == rhs


class TestBoundInequalities:
    def test_rho_sigma_below_vacancies_on_lower_subsets(self):
        from rigchar.core import vacancy_P, vacancy_Q

        for k in (1, 2):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    p = Params(k, l1, l2, min(l1, l2), 1, 1)
                    for m in range(4):
                        for n in range(4):
                            for x in ambient(p, m, n):
                                for I in all_index_sets(k):
                                    for J in all_index_sets(k):
                                        if len(J) > l2 or not is_admissible(
                                            k, I, J, l1, l2
                                        ):
                                            continue
                                        if not lower_member(x, I, J, k, l1, l2, 1, 1):
                                            continue
                                        P = vacancy_P(x.mu, x.nu, 1, l1)
                                        Q = vacancy_Q(x.mu, x.nu, 1, l2)
                                        assert all(map(le, rho(k, I, J, l1), P))
                                        assert all(map(le, sigma(k, J, l2), Q))


class TestFailureReports:
    """Each failure branch of the verifiers reports its whole detail."""

    @pytest.mark.parametrize("exc", [ValueError("no image"), AssertionError("bad image")])
    def test_a_map_m_failure_is_the_reason(self, exc, monkeypatch):
        import rigchar.bijection as bijection

        def broken(*args):
            raise exc

        monkeypatch.setattr(bijection, "map_m", broken)
        rep = verify_bijection(1, 1, 1, 1, 1, 1, 1)
        assert not rep.ok
        assert rep.detail == {"pair": {"I": [1], "J": [1]}, "reason": str(exc)}

    def test_a_repeated_image_is_not_injective(self, monkeypatch):
        # Every element of a pair's upper subset maps to the image of the
        # first: the first pair whose upper subset has two elements fails.
        import rigchar.bijection as bijection

        first = {}
        real = bijection.map_m
        monkeypatch.setattr(
            bijection,
            "map_m",
            lambda x, I, J, k, l1, l2, M, N: first.setdefault(
                (I, J), real(x, I, J, k, l1, l2, M, N)
            ),
        )
        rep = verify_bijection(1, 1, 0, 2, 2, 1, 1)
        assert not rep.ok
        assert rep.detail == {"pair": {"I": [], "J": []}, "reason": "not injective"}

    def test_a_rejected_input_is_a_counterexample(self, monkeypatch):
        # The verifier reads both subsets by their bounds alone, so an
        # element outside the cutoffs reaches map_m, which rejects it.
        import rigchar.bijection as bijection

        monkeypatch.setattr(bijection, "satisfies_cutoffs", lambda x, l1, l2, M, N: False)
        rep = verify_bijection(1, 1, 1, 1, 1, 1, 1)
        assert not rep.ok
        assert rep.detail == {
            "pair": {"I": [1], "J": [1]},
            "reason": "input is not a member of the upper subset",
        }

    @staticmethod
    def negative_vacancies(monkeypatch):
        import rigchar.bijection as bijection

        monkeypatch.setattr(bijection, "vacancy_P", lambda mu, nu, M, l: (-1,) * len(mu))

    def test_lower_vacancy_violation(self, monkeypatch):
        self.negative_vacancies(monkeypatch)
        rep = verify_lower_decomposition(1, 1, 1, 1, 1, 1, 1, 1)
        assert not rep.ok
        assert rep.detail == {
            "reason": "nonempty lower subset violates rho<=P, sigma<=Q",
            "element": {"mu": (1,), "r": ((0,),), "nu": (1,), "s": ((0,),)},
            "pair": {"I": [1], "J": [1]},
        }

    def test_upper_vacancy_violation(self, monkeypatch):
        self.negative_vacancies(monkeypatch)
        rep = verify_upper_decomposition(1, 1, 1, 0, 1, 1, 0, 0)
        assert not rep.ok
        assert rep.detail == {
            "reason": "nonempty upper subset violates rho'<=P, sigma'<=Q",
            "element": {"mu": (0,), "r": ((),), "nu": (0,), "s": ((),)},
            "pair": {"I": [1], "J": [1]},
        }
