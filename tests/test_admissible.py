"""Index-set machinery: staircase vectors, admissibility, the pair map
and the bound vectors."""

from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigchar import admissible
from rigchar.admissible import (
    all_index_sets,
    delta_r,
    delta_s,
    epsilon,
    is_admissible,
    is_l1_admissible,
    kappa,
    label_complement,
    primed_labels,
    rho,
    rho_prime,
    sigma,
    sigma_prime,
    tilde_pair,
)
from rigchar.core import InvariantError, pos_part, vacancy_P, vacancy_Q


def admissible_pairs(k, l1, l2=None):
    if l2 is None:
        l2 = k
    for I in all_index_sets(k):
        for J in all_index_sets(k):
            if is_admissible(k, I, J, l1, l2):
                yield I, J


def untilde_pair(k, tI, tJ, l1):
    """The inverse of tilde_pair on pairs meeting its image conditions, from
    the paper's formula; a reference for the round trips, not program code.

    The split size a is forced: |tJ| = a + u_{a+1} - l1 - 1 is strictly
    increasing in a, so at most one a can match.
    """
    u = tI
    split = next(
        (a for a in range(len(u)) if a + u[a] - l1 - 1 == len(tJ)), None
    )
    if split is None:
        raise ValueError("no admissible split: |tJ| matches no a")
    ua1 = u[split]
    if ua1 < l1 + 1:
        raise ValueError(f"element u_{split + 1}={ua1} must be >= l1+1")
    if any(tJ[i] > u[i] for i in range(split)):
        raise ValueError("condition v_i <= u_i fails")
    if tJ and tJ[-1] >= ua1:
        raise ValueError("tilde J must stay below u_{a+1}")
    extra = tuple(v for v in range(ua1, k + 1) if v not in u)
    return u[:split], tJ + extra


def staircase(k, i):
    """kappa of the one-element set {i}: entry alpha is [i <= alpha]."""
    return tuple(int(i <= a) for a in range(1, k + 1))


def signed_sum(k, terms):
    """The sum of sign * staircase(k, i) over the (sign, i) in terms."""
    out = (0,) * k
    for sign, i in terms:
        out = tuple(x + sign * y for x, y in zip(out, staircase(k, i)))
    return out


def reference_bounds(k, I, J, l1, l2):
    """The six bound vectors of an l1-admissible (I, J) with |J| <= l2, each
    summed index by index from one-element staircases as the paper writes
    it; a reference for the kappa differences, not program code."""
    u, v = I, J
    a = len(u)
    vprime = label_complement(k, J, l1)
    l1p, l2p, _ = primed_labels(k, l1, a, len(v) - a)
    tI, _ = tilde_pair(k, I, J, l1)
    rho_terms = []
    for i in range(len(vprime)):
        # v_i - u_i for i <= a, then v_i - v'_i up to p.
        rho_terms += [(1, v[i]), (-1, u[i] if i < a else vprime[i])]
    one_to_l2 = [(1, i) for i in range(1, l2 + 1)]
    above_l1 = [(-1, i) for i in range(l1 + 1, k + 1)]
    above_l1p = [(1, i) for i in range(l1p + 1, k + 1)]
    above_l2p = [(1, i) for i in range(l2p + 1, k + 1)]
    of_u = [(1, i) for i in u]
    of_v = [(1, i) for i in v]
    neg = lambda terms: [(-sign, i) for sign, i in terms]
    return {
        "rho": signed_sum(k, rho_terms),
        "sigma": signed_sum(k, one_to_l2 + neg(of_v)),
        "rho_prime": signed_sum(k, [(1, i) for i in tI] + neg(above_l1p)),
        "sigma_prime": signed_sum(k, of_v + neg(of_u) + neg(above_l2p)),
        "delta_r": signed_sum(k, of_v + 2 * neg(of_u) + above_l1p + above_l1),
        "delta_s": signed_sum(k, of_u + 2 * neg(of_v) + one_to_l2 + above_l2p),
    }


class TestIndexSets:
    """An index set is a plain, strictly increasing tuple over 1..k."""

    @staticmethod
    def is_index_set(k, I):
        return (
            type(I) is tuple
            and all(1 <= v <= k for v in I)
            and all(u < v for u, v in zip(I, I[1:]))
        )

    def test_all_index_sets_in_bitmask_order(self):
        for k in range(6):
            sets = list(all_index_sets(k))
            assert len(sets) == len(set(sets)) == 2**k
            for mask, I in enumerate(sets):
                assert self.is_index_set(k, I)
                assert sum(1 << (v - 1) for v in I) == mask

    def test_tilde_pair_yields_index_sets(self):
        for k in range(1, 6):
            for l1 in range(k + 1):
                for I, J in admissible_pairs(k, l1):
                    tI, tJ = tilde_pair(k, I, J, l1)
                    assert self.is_index_set(k, tI) and self.is_index_set(k, tJ)

    def test_tilde_pair_rejects_a_repeated_member(self, monkeypatch):
        # ({2}, {1}) at k = 2, l1 = 1 fails only u_1 < v'_1 = 2; let through,
        # tilde I would absorb 2 a second time.
        monkeypatch.setattr(admissible, "is_l1_admissible", lambda *args: True)
        with pytest.raises(InvariantError, match="repeated member"):
            tilde_pair(2, (2,), (1,), 1)


class TestKappaEpsilon:
    def test_kappa_worked_example(self):
        assert kappa(5, (2, 4, 5)) == (0, 1, 1, 2, 3)

    def test_kappa_empty(self):
        assert kappa(4, ()) == (0, 0, 0, 0)

    def test_kappa_full_staircase(self):
        assert kappa(4, (1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_kappa_ignores_above_k(self):
        assert kappa(3, (4,)) == (0, 0, 0)
        assert kappa(3, range(4, 8)) == (0, 0, 0)
        assert kappa(3, range(3, 2)) == (0, 0, 0)
        assert kappa(3, (1, 5), (4, 2)) == (1, 0, 0)

    def test_kappa_of_multisets(self):
        assert kappa(3, (1, 1, 3), (2, 2)) == (2, 0, 1)
        assert kappa(4, (2, 3), (2, 3)) == (0, 0, 0, 0)
        for k in range(1, 5):
            for I in all_index_sets(k):
                for J in all_index_sets(k):
                    assert kappa(k, J, (*I, *I)) == signed_sum(
                        k, [(1, j) for j in J] + [(-2, i) for i in I]
                    )

    def test_epsilon_worked_example(self):
        assert epsilon(5, (2, 4, 5)) == (-1, 1, -1, 0, 1)

    def test_epsilon_empty(self):
        assert epsilon(3, ()) == (0, 0, 0)

    def test_epsilon_boundary(self):
        # no alpha+1 term exists at the boundary, so the k-th entry is 1
        assert epsilon(1, (1,)) == (1,)
        for k in range(2, 6):
            assert epsilon(k, (k,))[-1] == 1

    def test_epsilon_reduces_to_kappa_differences(self):
        for k in range(1, 6):
            for I in all_index_sets(k):
                e = epsilon(k, I)
                kap = (0, *kappa(k, I))
                for a in range(1, k + 1):
                    expect = kap[a] - kap[a - 1] - (1 if a + 1 in I else 0)
                    assert e[a - 1] == expect
                    assert e[a - 1] == (1 if a in I else 0) - (1 if a + 1 in I else 0)

    def test_additivity_on_disjoint_unions(self):
        for k in range(1, 6):
            sets = list(all_index_sets(k))
            for I1 in sets:
                for I2 in sets:
                    if set(I1) & set(I2):
                        continue
                    u = tuple(sorted(I1 + I2))
                    assert kappa(k, u) == tuple(map(add, kappa(k, I1), kappa(k, I2)))
                    assert epsilon(k, u) == tuple(map(add, epsilon(k, I1), epsilon(k, I2)))

    def test_weight_shift_is_cardinality(self):
        for k in range(1, 6):
            for I in all_index_sets(k):
                assert sum(a * e for a, e in enumerate(epsilon(k, I), start=1)) == len(I)


class TestLabelComplement:
    def test_empty_interval(self):
        assert label_complement(3, (), 3) == ()

    def test_big_b_case(self):
        assert label_complement(3, (1, 3), 1) == (2,)

    def test_small_b_case(self):
        assert label_complement(4, (1,), 1) == (2,)

    def test_t_field(self):
        # The padding value k+1 fills exactly the indices i < t, where
        # t = max(1, l1 + |J| - k + 1); every later label is a real value.
        for k in range(1, 5):
            for l1 in range(k + 1):
                for J in all_index_sets(k):
                    vprime = label_complement(k, J, l1)
                    t = max(1, l1 + len(J) - k + 1)
                    assert len(vprime) == sum(1 for v in J if v <= l1)
                    assert all(vp == k + 1 for vp in vprime[: t - 1])
                    assert all(vp <= k for vp in vprime[t - 1 :])

    def test_prime_definition_identity(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for J in all_index_sets(k):
                    b = len(J)
                    diff = kappa(k, J, range(l1 + 1, l1 + b + 1))
                    vprime = label_complement(k, J, l1)
                    p = sum(1 for v in J if v <= l1)
                    assert len(vprime) == p
                    rhs = signed_sum(
                        k, [(1, v) for v in J[:p]] + [(-1, v) for v in vprime]
                    )
                    assert tuple(map(pos_part, diff)) == rhs


class TestAdmissibility:
    def test_empty_I(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    for J in all_index_sets(k):
                        got = is_admissible(k, (), J, l1, l2)
                        assert got == (len(J) <= l2)

    def test_reduces_to_v_le_u_when_l1_plus_c_large(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for I in all_index_sets(k):
                    for J in all_index_sets(k):
                        a, b = len(I), len(J)
                        if a > b or l1 + (b - a) < k:
                            continue
                        simple = all(
                            J[i] <= I[i] for i in range(a)
                        )
                        assert is_admissible(k, I, J, l1, k) == simple

    def test_hand_example(self):
        assert is_admissible(3, (1,), (1, 3), 1, 3)


class TestPairBijection:
    def test_identity_branch(self):
        I = (1,)
        J = (1, 2)
        assert tilde_pair(2, I, J, 2) == (I, J)

    def test_cardinalities(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for I, J in admissible_pairs(k, l1):
                    a, b = len(I), len(J)
                    c = b - a
                    l1p, _, _ = primed_labels(k, l1, a, c)
                    tI, tJ = tilde_pair(k, I, J, l1)
                    assert len(tI) == k - l1p
                    va = k + 1 if l1 + c >= k else tI[a]
                    assert len(tJ) == va + c - l1p - 1

    def test_injective_below_k(self):
        # The branch l1 + c < k is where the map is not the identity.
        for k in range(1, 5):
            for l1 in range(k + 1):
                pairs = [
                    (I, J)
                    for I, J in admissible_pairs(k, l1)
                    if l1 + len(J) - len(I) < k
                ]
                images = {tilde_pair(k, I, J, l1) for I, J in pairs}
                assert len(images) == len(pairs)

    def test_roundtrip_forward(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for I, J in admissible_pairs(k, l1):
                    if l1 + len(J) - len(I) >= k:
                        continue
                    tI, tJ = tilde_pair(k, I, J, l1)
                    assert untilde_pair(k, tI, tJ, l1) == (I, J)

    def test_roundtrip_backward(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for tI in all_index_sets(k):
                    for tJ in all_index_sets(k):
                        try:
                            I, J = untilde_pair(k, tI, tJ, l1)
                        except ValueError:
                            continue
                        assert is_l1_admissible(k, I, J, l1)
                        if l1 + len(J) - len(I) < k:
                            assert tilde_pair(k, I, J, l1) == (tI, tJ)

    def test_rejects_non_admissible(self):
        with pytest.raises(ValueError):
            tilde_pair(2, (1,), (2,), 0)


class TestBoundVectors:
    def test_kappa_differences_match_the_reference(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for I, J in admissible_pairs(k, l1):
                    for l2 in range(len(J), k + 1):
                        got = {
                            "rho": rho(k, I, J, l1),
                            "sigma": sigma(k, J, l2),
                            "rho_prime": rho_prime(k, I, J, l1),
                            "sigma_prime": sigma_prime(k, I, J, l1),
                            "delta_r": delta_r(k, I, J, l1),
                            "delta_s": delta_s(k, I, J, l1, l2),
                        }
                        assert got == reference_bounds(k, I, J, l1, l2), (I, J, l1, l2)

    def test_rho_zero_at_i_max(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for l2 in range(k + 1):
                    l3 = min(l1, l2)
                    for J in all_index_sets(k):
                        if len(J) > l2:
                            continue
                        im = J[: min(l3, len(label_complement(k, J, l1)))]
                        assert is_admissible(k, im, J, l1, l2)
                        assert rho(k, im, J, l1) == (0,) * k

    def test_rho_empty_pair(self):
        assert rho(3, (), (), 2) == (0, 0, 0)

    def test_rho_hand_example(self):
        assert rho(2, (), (2,), 2) == (0, 1)

    def test_sigma_exact_cancellation(self):
        assert sigma(4, (1, 2, 3), 3) == (0, 0, 0, 0)

    def test_sigma_empty(self):
        assert sigma(4, (), 2) == (1, 2, 2, 2)

    def test_sigma_hand_example(self):
        assert sigma(3, (3,), 2) == (1, 2, 1)

    def test_sigma_rejects_oversize(self):
        with pytest.raises(ValueError):
            sigma(3, (1, 2), 1)

    def test_nonnegativity_and_lempos(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for I, J in admissible_pairs(k, l1):
                    assert min(rho(k, I, J, l1)) >= 0
                    assert min(sigma(k, J, k)) >= 0
                    rp = rho_prime(k, I, J, l1)
                    sp = sigma_prime(k, I, J, l1)
                    assert min(rp) >= 0 and min(sp) >= 0
                    assert rp[-1] == 0 and sp[-1] == 0

    def test_two_routes_agree(self):
        for k in range(1, 5):
            for l1 in range(k + 1):
                for I, J in admissible_pairs(k, l1):
                    rv = rho(k, I, J, l1)
                    for l2 in range(len(J), k + 1):
                        assert rho_prime(k, I, J, l1) == tuple(
                            map(sub, rv, delta_r(k, I, J, l1))
                        )
                        assert sigma_prime(k, I, J, l1) == tuple(
                            map(sub, sigma(k, J, l2), delta_s(k, I, J, l1, l2))
                        )

    def test_rho_rejects_non_admissible(self):
        with pytest.raises(ValueError):
            rho(2, (1,), (2,), 0)


class TestDeltaVectors:
    def test_empty_sets(self):
        k = 3
        I = J = ()
        for l1 in range(k + 1):
            for l2 in range(k + 1):
                assert delta_r(k, I, J, l1) == (0,) * k
                assert delta_s(k, I, J, l1, l2) == kappa(k, range(1, l2 + 1))

    @given(st.data())
    @settings(max_examples=300)
    def test_consistency_with_vacancy_differences(self, data):
        k = data.draw(st.integers(1, 3))
        members = st.lists(st.integers(1, k), unique=True)
        I = tuple(sorted(data.draw(members)))
        J = tuple(sorted(data.draw(members)))
        a, b = len(I), len(J)
        if b < a:
            I, J = J, I
            a, b = b, a
        l1 = data.draw(st.integers(0, k))
        l2 = data.draw(st.integers(0, k))
        mup = tuple(data.draw(st.integers(0, 2)) for _ in range(k))
        nup = tuple(data.draw(st.integers(0, 2)) for _ in range(k))
        mu = tuple(map(add, mup, epsilon(k, I)))
        nu = tuple(map(add, nup, epsilon(k, J)))
        if min(mu + nu) < 0:
            return
        M = data.draw(st.integers(0, 2))
        N = data.draw(st.integers(1, 2))
        l1p, l2p, _ = primed_labels(k, l1, a, b - a)
        dr = map(sub, vacancy_P(mu, nu, M, l1), vacancy_P(mup, nup, M, l1p))
        ds = map(sub, vacancy_Q(mu, nu, N, l2), vacancy_Q(mup, nup, N - 1, l2p))
        assert tuple(dr) == delta_r(k, I, J, l1)
        assert tuple(ds) == delta_s(k, I, J, l1, l2)
