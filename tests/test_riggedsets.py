"""Enumeration of the rigged sets: the oracle everything else leans on."""

import gc
import subprocess
import sys

import pytest

from rigchar.core import Params, RiggedPair, pair_from_obj, pair_to_obj, partition_rows, weight
from rigchar.riggedsets import (
    canonical_key,
    enumerate_partitions,
    enumerate_R,
    enumerate_total,
    feasible_pairs,
    _rigging_groups,
    _row_choices,
    _tau_table,
    satisfies_cutoffs,
    satisfies_tau,
    weight_bound,
)
from rigchar.core import vacancy_P, vacancy_Q


def legal_labels(k):
    for l1 in range(k + 1):
        for l2 in range(k + 1):
            for l3 in range(min(l1, l2) + 1):
                yield l1, l2, l3


def two_step_piece(p, m, n):
    """The piece by definition: every rigged pair with rows capped by its
    largest vacancy entry that meets the cutoffs and tau, in canonical
    order."""
    from itertools import product

    piece = []
    for mu in enumerate_partitions(m, p.k):
        for nu in enumerate_partitions(n, p.k):
            P = vacancy_P(mu, nu, p.M, p.l1)
            Q = vacancy_Q(mu, nu, p.N, p.l2)
            cap = max(0, *P, *Q)
            r_opts = [_row_choices(c, cap) for c in mu]
            s_opts = [_row_choices(c, cap) for c in nu]
            for rr, ss in product(product(*r_opts), product(*s_opts)):
                x = RiggedPair(mu, rr, nu, ss)
                if satisfies_cutoffs(x, p) and satisfies_tau(x, p):
                    piece.append(x)
    return tuple(piece)


class TestEnumeratePartitions:
    def test_zero(self):
        assert enumerate_partitions(0, 3) == ((0, 0, 0),)

    def test_three_at_level_two(self):
        assert enumerate_partitions(3, 2) == ((3, 0), (1, 1))

    def test_negative_empty(self):
        assert enumerate_partitions(-1, 2) == ()

    def test_weights_and_order(self):
        for m in range(8):
            ps = enumerate_partitions(m, 3)
            assert all(weight(p) == m for p in ps)
            rows = [partition_rows(p) for p in ps]
            assert rows == sorted(rows)
            assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_brute_force(self, k):
        # Every multiplicity tuple of weight m, in the order of its rows.
        from itertools import product

        for m in range(9):
            every = [mult for mult in product(range(m + 1), repeat=k) if weight(mult) == m]
            assert enumerate_partitions(m, k) == tuple(sorted(every, key=partition_rows))


class TestEnumerateR:
    def test_initial_condition_full(self):
        for k in (1, 2, 3):
            for l1, l2, l3 in legal_labels(k):
                p = Params(k, l1, l2, l3, 0, 0)
                piece = enumerate_R(p, 0, 0)
                if l1 == k and l2 == k:
                    assert len(piece) == 1
                    x = piece[0]
                    assert weight(x.mu) == 0 and weight(x.nu) == 0
                else:
                    assert len(piece) == 0
                assert len(enumerate_R(p, 1, 1)) == 0

    def test_k1_all_ones(self):
        p = Params(1, 1, 1, 1, 1, 1)
        piece = enumerate_R(p, 1, 1)
        assert len(piece) == 1
        x = piece[0]
        assert x.mu == (1,) and x.nu == (1,)
        assert x.r == ((0,),) and x.s == ((0,),)

    def test_partitions_are_plain_tuples(self):
        # cli._json_value writes exact tuples only, and the scan's identity
        # checks rely on each partition being one shared object.
        p = Params(2, 2, 2, 0, 2, 2)
        piece = enumerate_R(p, 2, 2)
        assert piece
        for x in piece:
            assert type(x.mu) is tuple and type(x.nu) is tuple
            assert x.mu in enumerate_partitions(2, 2)
            assert any(x.mu is mu for mu in enumerate_partitions(2, 2))

    def test_negative_weights_empty(self):
        p = Params(2, 1, 1, 0, 2, 2)
        assert len(enumerate_R(p, -1, 0)) == 0
        assert len(enumerate_R(p, 0, -3)) == 0

    def test_canonical_order_no_duplicates(self):
        p = Params(2, 2, 2, 0, 1, 1)
        for m in range(4):
            for n in range(4):
                elems = enumerate_R(p, m, n)
                keys = [canonical_key(x) for x in elems]
                assert keys == sorted(keys)
                assert len(set(elems)) == len(elems)

    def test_monotone_into_plain_set(self):
        for k in (1, 2):
            for l1, l2, l3 in legal_labels(k):
                p = Params(k, l1, l2, l3, 1, 1)
                for m in range(4):
                    for n in range(4):
                        for x in enumerate_R(p, m, n):
                            assert satisfies_tau(x, p)

    def test_two_step_definition(self):
        # k = 3 keeps the tau bounds of a 3 x 3 matrix in the grid.
        for k in (1, 2, 3):
            for l1, l2, l3 in legal_labels(k):
                for M in (0, 1):
                    for N in (0, 1):
                        p = Params(k, l1, l2, l3, M, N)
                        for m in range(-1, 4):
                            for n in range(4):
                                assert enumerate_R(p, m, n) == two_step_piece(p, m, n)

    @staticmethod
    def _distinct_riggings(piece):
        # The riggings that enumerate_R built for a piece, counted by
        # identity: an r or s that elements share is one object.
        return len({id(x.r) for x in piece}) + len({id(x.s) for x in piece})

    def test_riggings_of_a_tau_vacuous_piece_are_built_once(self):
        # l3 = min(l1, l2): tau bounds nothing, so every r of a pair shares
        # one list of s riggings.
        p, m, n = Params(2, 2, 2, 2, 4, 4), 4, 4
        assert _tau_table(2, 2, 2, 2) is None
        riggings = 0
        for mu, nu, P, Q in feasible_pairs(p, m, n):
            for part, caps in ((mu, P), (nu, Q)):
                count = 1
                for c, cap in zip(part, caps):
                    count *= len(_row_choices(c, cap))
                riggings += count
        piece = enumerate_R(p, m, n)
        assert piece == two_step_piece(p, m, n)
        assert self._distinct_riggings(piece) == riggings
        assert riggings * 4 < len(piece)
        s_lists = {}
        for x in piece:
            s_lists.setdefault((x.mu, x.nu), {}).setdefault(id(x.r), []).append(id(x.s))
        for by_r in s_lists.values():
            first, *rest = by_r.values()
            assert all(ids == first for ids in rest)

    def test_riggings_of_a_tau_active_piece_are_shared(self):
        p, m, n = Params(2, 2, 2, 0, 4, 4), 4, 4
        assert _tau_table(2, 2, 2, 0) is not None
        piece = enumerate_R(p, m, n)
        assert piece == two_step_piece(p, m, n)
        assert self._distinct_riggings(piece) < len(piece)

    def test_riggings_are_plain_tuples_of_rows(self):
        for p in (Params(2, 2, 2, 0, 4, 4), Params(3, 2, 1, 1, 2, 2)):
            for piece in enumerate_total(p).values():
                for x in piece:
                    for rig, mult in ((x.r, x.mu), (x.s, x.nu)):
                        assert type(rig) is tuple and all(type(row) is tuple for row in rig)
                        assert tuple(map(len, rig)) == mult
                    obj = pair_to_obj(x)
                    assert obj["r"] is x.r and obj["s"] is x.s

    def test_swap_symmetry(self):
        # (mu, r, nu, s) -> (nu, s, mu, r) maps R(k,l1,l2,l3,M,N)_{m,n} onto
        # R(k,l2,l1,l3,N,M)_{n,m}.  This is a property of the sets, not a
        # fault detector: it holds for any tau that the swap preserves, the
        # tau+1 mutant of tests/mutants.py among them.
        nonempty = 0
        for k in (1, 2, 3):
            for l1, l2, l3 in legal_labels(k):
                for M, N in ((2, 1), (3, 2)):
                    p = Params(k, l1, l2, l3, M, N)
                    q = Params(k, l2, l1, l3, N, M)
                    for m in range(7):
                        for n in range(7):
                            piece = enumerate_R(p, m, n)
                            swapped = {RiggedPair(x.nu, x.s, x.mu, x.r) for x in piece}
                            mirror = enumerate_R(q, n, m)
                            assert len(swapped) == len(mirror) == len(piece)
                            assert swapped == set(mirror)
                            nonempty += bool(piece)
        assert nonempty > 1000


class TestFreeze:
    """enumerate_R freezes each new piece out of the cyclic collector."""

    def test_a_miss_freezes_its_piece_and_a_hit_nothing(self, monkeypatch):
        from rigchar import riggedsets

        monkeypatch.setattr(riggedsets, "_R_CACHE", {})
        p, m, n = Params(2, 2, 2, 0, 4, 4), 4, 4
        before = gc.get_freeze_count()
        piece = enumerate_R(p, m, n)
        assert piece
        frozen = gc.get_freeze_count()
        assert frozen >= before + len(piece)
        assert enumerate_R(p, m, n) is piece
        assert gc.get_freeze_count() == frozen

    def test_verify_leaves_no_cyclic_garbage_per_grid_point(self):
        # Cyclic garbage alive at a freeze is never collected, so a verify
        # run must leave as much of it on a large grid as on a small one
        # (the argument parser's).  The collector stays off, so the final
        # collect counts all of it.
        script = (
            "import contextlib, gc, io, sys\n"
            "gc.disable()\n"
            "from rigchar import cli\n"
            "argv = ['verify', 'recursion', '--max-k', '3', '--max-weight', sys.argv[1],\n"
            "        '--max-M', '2', '--max-N', '2', '--jobs', '1']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(argv)\n"
            "gc.unfreeze()\n"
            "print(code, gc.collect())\n"
        )
        found = [
            subprocess.run(
                [sys.executable, "-c", script, max_weight],
                capture_output=True, text=True, timeout=120,
            ).stdout.split()
            for max_weight in ("2", "8")
        ]
        assert found[0][0] == found[1][0] == "0"
        assert found[0] == found[1]


# Grids where some row length has multiplicity >= 2 and vacancy bound >= 2,
# so that the order of the rigging rows of one length matters.
ORDER_GRIDS = (Params(3, 3, 3, 1, 2, 2), Params(2, 2, 2, 0, 3, 3))


def order_grid_pieces():
    for p in ORDER_GRIDS:
        for m in range(5):
            for n in range(5):
                yield p, m, n, enumerate_R(p, m, n)


class TestCanonicalOrder:
    """enumerate_R builds its elements in canonical_key order, unsorted."""

    def test_pieces_sorted_without_duplicates(self):
        for _, _, _, elems in order_grid_pieces():
            assert type(elems) is tuple
            assert elems == tuple(sorted(elems, key=canonical_key))
            assert len(set(elems)) == len(elems)
        for p in ORDER_GRIDS:
            pieces = enumerate_total(p)
            assert pieces
            assert all(type(piece) is tuple for piece in pieces.values())

    def test_grid_has_rows_whose_order_matters(self):
        def long_row(mult, bounds):
            return any(c >= 2 and b >= 2 for c, b in zip(mult, bounds))

        found = 0
        for p, _, _, elems in order_grid_pieces():
            pairs = {(x.mu, x.nu) for x in elems}
            for mu, nu in pairs:
                P = vacancy_P(mu, nu, p.M, p.l1)
                Q = vacancy_Q(mu, nu, p.N, p.l2)
                if long_row(mu, P) or long_row(nu, Q):
                    found += 1
        assert found > 0

    def test_row_choices_strictly_increasing_and_complete(self):
        from itertools import product

        for count in range(4):
            for bound in range(-1, 5):
                for low in range(3):
                    got = _row_choices(count, bound, low)
                    assert all(a < b for a, b in zip(got, got[1:]))
                    every = [
                        t
                        for t in product(range(low, bound + 1), repeat=count)
                        if all(a >= b for a, b in zip(t, t[1:]))
                    ]
                    assert list(got) == sorted(every)
                assert _row_choices(count, bound) == _row_choices(count, bound, 0)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(2, 3)], r"rigging row \(2, 3\) is not weakly decreasing"),
            ([(3, 2, 1)], r"rigging row \(3, 2, 1\) is not 2 entries in \[1, 3\]"),
            ([(4, 2)], r"rigging row \(4, 2\) is not 2 entries in \[1, 3\]"),
            ([(2, 0)], r"rigging row \(2, 0\) is not 2 entries in \[1, 3\]"),
        ],
        ids=["ascending", "length", "above bound", "below low"],
    )
    def test_row_choices_checks_each_row(self, monkeypatch, rows, message):
        # Every rigging row of an enumerated element comes from
        # _row_choices, and no later constructor checks it again.
        from functools import lru_cache

        from rigchar import riggedsets
        from rigchar.core import InvariantError

        monkeypatch.setattr(riggedsets, "combinations_with_replacement", lambda *args: rows)
        fresh = lru_cache(maxsize=None)(_row_choices.__wrapped__)
        with pytest.raises(InvariantError, match=message):
            fresh(2, 3, 1)

    def test_elements_rebuild_through_public_constructors(self):
        # pair_from_obj checks every row and row count of its input.
        for p, _, _, elems in order_grid_pieces():
            for x in elems:
                assert pair_from_obj(p.k, pair_to_obj(x)) == x


class TestEnumerateRPlain:
    @pytest.mark.parametrize("k, cap", [(1, 3), (2, 2), (3, 1)])
    def test_equals_build_then_filter(self, k, cap):
        # The plain set, without cutoffs: every rigged pair with rows capped
        # by one bound that satisfies tau, in canonical order.
        # _rigging_groups builds it with tau as a lower bound on the rows of
        # s, as each r with the list of every s that goes with it.
        from itertools import product

        for l1, l2, l3 in legal_labels(k):
            p = Params(k, l1, l2, l3, 0, 0)
            taumat = _tau_table(k, l1, l2, l3)
            for m in range(-1, 4):
                for n in range(4):
                    ref = []
                    got = []
                    for mu in enumerate_partitions(m, k):
                        for nu in enumerate_partitions(n, k):
                            r_opts = [_row_choices(c, cap) for c in mu]
                            s_opts = [_row_choices(c, cap) for c in nu]
                            for rr, ss in product(product(*r_opts), product(*s_opts)):
                                x = RiggedPair(mu, rr, nu, ss)
                                if satisfies_tau(x, p):
                                    ref.append(x)
                            groups = _rigging_groups(mu, nu, (cap,) * k, (cap,) * k, taumat)
                            got.extend(
                                RiggedPair(mu, rr, nu, ss) for rr, s_objs in groups for ss in s_objs
                            )
                    assert got == ref


class TestSatisfiesTau:
    def test_membership_degenerates_when_l3_min(self):
        x = RiggedPair((1, 1), ((5,), (0,)), (2, 0), ((3, 1), ()))
        for l1 in range(3):
            for l2 in range(3):
                assert satisfies_tau(x, Params(2, l1, l2, min(l1, l2), 0, 0))


class TestFeasiblePairs:
    def test_equals_filtered_box_in_order(self):
        for k in (1, 2, 3):
            for l1, l2, l3 in legal_labels(k):
                for M, N in ((0, 0), (1, 2), (2, 1)):
                    p = Params(k, l1, l2, l3, M, N)
                    for m in range(5):
                        for n in range(5):
                            ref = []
                            for mu in enumerate_partitions(m, k):
                                for nu in enumerate_partitions(n, k):
                                    P = vacancy_P(mu, nu, M, l1)
                                    Q = vacancy_Q(mu, nu, N, l2)
                                    if P.is_nonneg() and Q.is_nonneg():
                                        ref.append((mu, nu, P, Q))
                            assert list(feasible_pairs(p, m, n)) == ref

    def test_shared_scan_equals_feasible_pairs_at_every_l3(self, monkeypatch):
        # enumerate_R reads its (mu, nu) pairs from one memo entry per
        # (k, l1, l2, M, N, m, n), built by whichever l3 comes first.
        from rigchar import riggedsets

        scans = {}
        monkeypatch.setattr(riggedsets, "_R_CACHE", {})
        monkeypatch.setattr(riggedsets, "_SCAN_CACHE", scans)
        for k in range(1, 5):
            for l1, l2, l3 in legal_labels(k):
                for M, N in ((0, 0), (1, 2), (2, 1)):
                    p = Params(k, l1, l2, l3, M, N)
                    for m in range(4):
                        for n in range(4):
                            enumerate_R(p, m, n)
                            shared = scans[k, l1, l2, M, N, m, n]
                            assert shared == tuple(feasible_pairs(p, m, n))
        pairs = sum((k + 1) ** 2 for k in range(1, 5))
        assert len(scans) == pairs * 3 * 16
        assert len(riggedsets._R_CACHE) > len(scans)

    def test_scan_call_contract(self, monkeypatch):
        # bench/traced.py counts the scan at these two bindings: one
        # vacancy_P call per box pair, mu outer and nu inner, and one
        # vacancy_Q call on the same objects right after each pair whose P
        # is non-negative.  Its recorded counts hold only while this does.
        from rigchar import characters, riggedsets

        calls = []
        real_P, real_Q = riggedsets.vacancy_P, riggedsets.vacancy_Q

        def counted_P(mu, nu, M, l):
            calls.append(("P", mu, nu))
            return real_P(mu, nu, M, l)

        def counted_Q(mu, nu, N, l):
            calls.append(("Q", mu, nu))
            return real_Q(mu, nu, N, l)

        def P_by_definition(mu, nu, M, l):
            return [
                alpha * M
                - max(alpha - l, 0)
                + sum(
                    min(alpha, beta) * (nu[beta - 1] - 2 * mu[beta - 1])
                    for beta in range(1, len(mu) + 1)
                )
                for alpha in range(1, len(mu) + 1)
            ]

        monkeypatch.setattr(riggedsets, "vacancy_P", counted_P)
        monkeypatch.setattr(riggedsets, "vacancy_Q", counted_Q)
        k = l1 = l2 = M = N = 3
        characters.fermionic_char(k, l1, l2, M, N)

        mmax, nmax = weight_bound(Params(k, l1, l2, min(l1, l2), M, N))
        expected = []
        for m in range(mmax + 1):
            for n in range(nmax + 1):
                for mu in enumerate_partitions(m, k):
                    for nu in enumerate_partitions(n, k):
                        expected.append(("P", mu, nu))
                        if min(P_by_definition(mu, nu, M, l1)) >= 0:
                            expected.append(("Q", mu, nu))
        box = sum(
            len(enumerate_partitions(m, k)) * len(enumerate_partitions(n, k))
            for m in range(mmax + 1)
            for n in range(nmax + 1)
        )
        assert sum(kind == "P" for kind, _, _ in calls) == box
        assert calls == expected
        for before, (kind, mu, nu) in zip(calls, calls[1:]):
            if kind == "Q":
                assert before[1] is mu and before[2] is nu


class TestEnumerateTotal:
    def test_initial_condition(self):
        for l3 in (0, 1, 2):
            total = enumerate_total(Params(2, 2, 2, l3, 0, 0))
            assert list(total) == [(0, 0)]
            assert len(total[(0, 0)]) == 1

    def test_k1_all_ones(self):
        total = enumerate_total(Params(1, 1, 1, 1, 1, 1))
        assert sorted(total) == [(0, 0), (1, 1)]
        assert sum(len(rs) for rs in total.values()) == 2

    def test_weight_bound_covers_everything(self):
        # pieces just outside the scan box must be empty
        for k in (1, 2):
            for l1, l2, l3 in legal_labels(k):
                for M in (0, 1, 2):
                    for N in (0, 1, 2):
                        p = Params(k, l1, l2, l3, M, N)
                        mmax, nmax = weight_bound(p)
                        for extra in range(1, 3):
                            for n in range(nmax + 1):
                                assert len(enumerate_R(p, mmax + extra, n)) == 0
                            for m in range(mmax + 1):
                                assert len(enumerate_R(p, m, nmax + extra)) == 0


class TestRecursionSmoke:
    def test_small_grid(self):
        from rigchar.bijection import verify_recursion

        for k in (1, 2):
            for l1, l2, l3 in legal_labels(k):
                for M in (0, 1):
                    for N in (1, 2):
                        p = Params(k, l1, l2, l3, M, N)
                        for m in range(5):
                            for n in range(5):
                                rep = verify_recursion(p, m, n)
                                assert rep.ok, (rep.context, rep.detail)


class TestSerializationRoundTrip:
    def test_parse_print_identity(self):
        from rigchar.cli import pair_from_obj, pair_to_obj

        p = Params(2, 2, 1, 1, 2, 1)
        seen = 0
        for piece in enumerate_total(p).values():
            for x in piece:
                obj = pair_to_obj(x)
                assert pair_from_obj(p.k, obj) == x
                seen += 1
        assert seen > 0
