"""Foundational types: parameters, partitions, riggings, k-vectors, bounds."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigchar.bijection import MarkedBound
from rigchar.cli import _json_text
from rigchar.core import (
    InvariantError,
    KVector,
    Params,
    Record,
    Report,
    RiggedPair,
    boundary_ok,
    pair_from_obj,
    partition_rows,
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
    return st.tuples(*[st.integers(0, 3) for _ in range(k)])


class TestParams:
    def test_valid(self):
        Params(3, 1, 2, 1, 0, 4)

    def test_each_value_is_built_once(self):
        # Caches keyed by Params rely on finding their keys by identity.
        p = Params(3, 1, 2, 1, 0, 4)
        assert Params(3, 1, 2, 1, 0, 4) is p
        assert pickle.loads(pickle.dumps(p)) is p
        assert Params(3, 1, 2, 0, 0, 4) is not p

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
        assert weight((0, 0)) == 0

    def test_mixed(self):
        assert weight((1, 1)) == 3

    def test_k3(self):
        assert weight((2, 0, 1)) == 5


class TestTau:
    def test_hand_value(self):
        assert tau(2, 2, 1, 2, 0) == 1

    def test_k1_all_ones(self):
        assert tau(1, 1, 1, 1, 1) == 0

    def test_nonpositive_when_l3_is_min(self):
        for k in range(1, 6):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    for a in range(1, k + 1):
                        for b in range(1, k + 1):
                            assert tau(a, b, l1, l2, min(l1, l2)) <= 0

    def test_two_closed_forms_agree(self):
        for k in range(1, 6):
            for l1, l2, l3 in legal_labels(k):
                for a in range(1, k + 1):
                    for b in range(1, k + 1):
                        assert tau(a, b, l1, l2, l3) == tau_min_form(a, b, l1, l2, l3)

    def test_symmetry(self):
        for k in range(1, 5):
            for l1, l2, l3 in legal_labels(k):
                for a in range(1, k + 1):
                    for b in range(1, k + 1):
                        assert tau(a, b, l1, l2, l3) == tau(b, a, l2, l1, l3)


class TestVacancy:
    def test_k1_balanced(self):
        one = (1,)
        assert vacancy_P(one, one, 1, 1) == KVector((0,))
        assert vacancy_Q(one, one, 1, 1) == KVector((0,))

    def test_empty_zero(self):
        e = (0, 0, 0)
        assert vacancy_P(e, e, 0, 3) == KVector((0, 0, 0))
        assert vacancy_Q(e, e, 0, 3) == KVector((0, 0, 0))

    def test_k2_hand_value(self):
        assert vacancy_P((1, 0), (0, 0), 1, 2) == KVector((-1, 0))

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
                min(alpha, beta) * (nu[beta - 1] - 2 * mu[beta - 1])
                for beta in range(1, k + 1)
            )
            for alpha in range(1, k + 1)
        )
        assert vacancy_P(mu, nu, M, l) == KVector(expected)


class TestBoundary:
    def test_positive_cutoffs_vacuous(self):
        assert boundary_ok(2, 0, 0, 1, 1, (2, 1), (0, 2))

    def test_N0_violation(self):
        assert not boundary_ok(1, 1, 1, 1, 0, (1,), (1,))

    def test_M0_equality_case(self):
        assert boundary_ok(2, 2, 0, 0, 1, (0, 0), (0, 0))


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
                            for m in range(7):
                                for n in range(7):
                                    for mu in enumerate_partitions(m, k):
                                        for nu in enumerate_partitions(n, k):
                                            P = vacancy_P(mu, nu, M, l1)
                                            Q = vacancy_Q(mu, nu, N, l2)
                                            feasible = all(
                                                x >= 0
                                                for x, c in zip(
                                                    P + Q, mu + nu
                                                )
                                                if c > 0
                                            )
                                            if not feasible:
                                                continue
                                            coc = P.is_nonneg() and Q.is_nonneg()
                                            assert coc == boundary_ok(k, l1, l2, M, N, mu, nu)
                                            if M >= 1:
                                                assert P[-1] >= 0


def from_rows(r, s):
    """pair_from_obj on the riggings r and s, with mu and nu their row
    counts: only the rows themselves can fail."""
    mu = [len(row) for row in r]
    nu = [len(row) for row in s]
    return pair_from_obj(len(mu), {"mu": mu, "r": r, "nu": nu, "s": s})


class TestRiggedTypes:
    def test_rigging_must_decrease(self):
        assert from_rows([[2, 1]], [[0]]).r == ((2, 1),)
        for r, s in (([[1, 2]], [[]]), ([[-1]], [[]]), ([[]], [[0, 1]]), ([[]], [[-1]])):
            with pytest.raises(ValueError):
                from_rows(r, s)

    def test_rigging_names_an_ascending_row(self):
        for row in ((1, 2), (3, 3, 4), (5, 0, 1)):
            with pytest.raises(InvariantError) as exc:
                from_rows([[2], list(row)], [[], []])
            assert str(exc.value) == f"rigging row {row} is not weakly decreasing"
        # A row is checked for an ascent before its bottom entry's sign.
        with pytest.raises(InvariantError, match="not weakly decreasing"):
            from_rows([[-2, -1]], [[]])

    def test_rigging_rejects_a_negative_entry(self):
        for rows in (((-1,),), ((3, 0), (2, -1)), ((), (0, 0, -3))):
            for r, s in ((rows, [[]] * len(rows)), ([[]] * len(rows), rows)):
                with pytest.raises(InvariantError) as exc:
                    from_rows(r, s)
                assert str(exc.value) == "rigging entries must be >= 0"

    def test_pair_row_counts_checked(self):
        obj = {"mu": (1, 0), "r": ((3,), ()), "nu": (0, 1), "s": ((), (0,))}
        pair_from_obj(2, obj)
        swapped = {**obj, "r": obj["s"], "s": obj["r"]}
        with pytest.raises(InvariantError, match="r row counts do not match mu multiplicities"):
            pair_from_obj(2, swapped)
        with pytest.raises(InvariantError, match="s row counts do not match nu multiplicities"):
            pair_from_obj(2, {**obj, "s": obj["r"]})

    @pytest.mark.parametrize(
        "mu, nu, message",
        [
            ((1, -1), (0, 0), "r row counts do not match mu multiplicities"),
            ((0, 0), (0, -1), "s row counts do not match nu multiplicities"),
            ((0, 0), (0, 0, 0), "mu and nu must share a level"),
        ],
        ids=["negative mu", "negative nu", "levels differ"],
    )
    def test_pair_checks_its_partitions(self, mu, nu, message):
        obj = {"mu": mu, "r": [[] for _ in mu], "nu": nu, "s": [[] for _ in nu]}
        with pytest.raises(InvariantError, match=message):
            pair_from_obj(len(mu), obj)

    def test_pair_checks_its_level(self):
        with pytest.raises(InvariantError, match="mu and nu must share a level"):
            RiggedPair((0, 0), ((), ()), (0, 0, 0), ((), (), ()))

    def test_pair_from_obj_checks_the_level(self):
        obj = {"mu": [1, 0], "r": [[0], []], "nu": [0, 0], "s": [[], []]}
        assert pair_from_obj(2, obj).mu == (1, 0)
        for k in (1, 3):
            with pytest.raises(InvariantError, match=f"need {k} multiplicities, got 2"):
                pair_from_obj(k, obj)

    def test_kvector_items_are_its_entries(self):
        P, Q = vacancy_P((1, 0), (0, 0), 1, 2), vacancy_Q((1, 0), (0, 0), 1, 2)
        assert tuple(P) == (-1, 0) and tuple(Q) == (2, 3)
        assert min(P) == -1 and not P.is_nonneg() and Q.is_nonneg()
        assert type(P + Q) is tuple and P + Q == (-1, 0, 2, 3)
        assert list(zip(P, (1, 0))) == [(-1, 1), (0, 0)]
        assert KVector(()).is_nonneg()

    def test_rows_roundtrip(self):
        mult = (2, 0, 1)
        rows = partition_rows(mult)
        assert rows == (3, 1, 1)
        assert tuple(rows.count(alpha) for alpha in (1, 2, 3)) == mult


MU = (1, 0)
NU = (0, 1)
R = ((3,), ())
S = ((), (0,))

# One value of each immutable type, with the repr a frozen dataclass gave it.
VALUES = {
    "Params": (Params(3, 1, 2, 1, 0, 4), "Params(k=3, l1=1, l2=2, l3=1, M=0, N=4)"),
    "KVector": (KVector((1, -2, 3)), "KVector(entries=(1, -2, 3))"),
    "RiggedPair": (
        RiggedPair(MU, R, NU, S),
        "RiggedPair(mu=(1, 0), r=((3,), ()), nu=(0, 1), s=((), (0,)))",
    ),
    "MarkedBound": (
        MarkedBound((0, 1), (True, False)),
        "MarkedBound(value=(0, 1), marked=(True, False))",
    ),
    "Report": (
        Report(True, {"lhs": 0}),
        "Report(ok=True, detail={'lhs': 0})",
    ),
}
# KVector has no named field: its items are its entries.
FIRST_FIELD = {
    "Params": "k", "RiggedPair": "mu",
    "MarkedBound": "value", "Report": "ok",
}
each_type = pytest.mark.parametrize("name", sorted(VALUES))


class TestValueSemantics:
    """The immutable value types compare, hash, print and pickle as the
    frozen dataclasses they replaced did."""

    @each_type
    def test_equal_only_within_a_type(self, name):
        x = VALUES[name][0]
        assert x == copy.copy(x) and not x != copy.copy(x)
        for other_name, (y, _) in VALUES.items():
            if other_name != name:
                assert x != y and not x == y
        if isinstance(x, tuple):
            items = tuple.__getitem__(x, slice(None))
            assert x != items and not x == items and not items == x

    def test_equal_items_of_two_types_differ(self):
        class Twin(Record):
            __slots__ = ()
            _fields = MarkedBound._fields

            def __new__(cls, value, marked):
                return tuple.__new__(cls, (value, marked))

        assert Twin(2, (1,)) != MarkedBound(2, (1,))
        assert Params(1, 0, 0, 0, 0, 0) != (1, 0, 0, 0, 0, 0)

    def test_hash_follows_equality(self):
        assert hash(Params(3, 1, 2, 1, 0, 4)) == hash(Params(3, 1, 2, 1, 0, 4))
        assert hash(RiggedPair(MU, ((3,), ()), NU, S)) == hash(VALUES["RiggedPair"][0])
        with pytest.raises(TypeError):
            hash(VALUES["Report"][0])

    @each_type
    def test_not_ordered(self, name):
        x = VALUES[name][0]
        with pytest.raises(TypeError):
            x < x
        with pytest.raises(TypeError):
            x > x
        with pytest.raises(TypeError):
            x >= x
        with pytest.raises(TypeError):
            x <= x

    @each_type
    def test_fields_cannot_be_assigned(self, name):
        x = VALUES[name][0]
        if name == "KVector":
            with pytest.raises(TypeError):
                x[0] = 0
            with pytest.raises(AttributeError):
                x.entries = x
            return
        field = FIRST_FIELD[name]
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is not None

    @each_type
    def test_repr(self, name):
        x, text = VALUES[name]
        assert repr(x) == text

    @each_type
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, name, protocol):
        x = VALUES[name][0]
        y = pickle.loads(pickle.dumps(x, protocol))
        assert type(y) is type(x) and y == x and repr(y) == repr(x)

    def test_unpickling_runs_the_checks(self):
        # Protocol 0 is text: give nu = (3,) a second multiplicity in the
        # stream, so that it no longer shares mu's level.
        data = pickle.dumps(RiggedPair((5,), ((0,) * 5,), (3,), ((1, 1, 1),)), 0)
        assert data.count(b"(I3\ntp") == 1
        with pytest.raises(ValueError, match="mu and nu must share a level"):
            pickle.loads(data.replace(b"(I3\ntp", b"(I3\nI0\ntp"))

    @each_type
    def test_not_a_json_value(self, name):
        x = VALUES[name][0]
        with pytest.raises(TypeError):
            _json_text(x)
        with pytest.raises(TypeError):
            _json_text({"value": [x]})
