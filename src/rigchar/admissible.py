"""Index-set machinery for admissible pairs.

An index set is a strictly increasing tuple of members of {1, ..., k};
each function that needs the level k takes it as its first argument.
Staircase vectors kappa/epsilon, the labelling of the complement of J
above l1, (l1,l2)-admissibility, the pair map from (I, J) to
(tilde I, tilde J), the bound vectors rho, sigma, rho', sigma', delta_r
and delta_s, the set one recursion step down and the terms of the
recursion sum.  A bound vector is a plain tuple whose entry alpha-1 is
its component alpha, each one a single staircase difference (kappa).

Every function but the recursion-term memo recomputes from scratch: the
sets involved have at most 2^k elements and purity keeps the exhaustive
tests trivial to trust.
"""

from __future__ import annotations

from functools import lru_cache

from .core import InvariantError, Params, pos_part


def all_index_sets(k: int):
    """All 2^k subsets of {1, ..., k} in a fixed canonical (bitmask) order."""
    for mask in range(1 << k):
        yield tuple(i + 1 for i in range(k) if mask >> i & 1)


def kappa(k: int, plus, minus=()) -> tuple[int, ...]:
    """The staircase difference kappa(plus) - kappa(minus) at level k.

    Entry alpha counts the values of the multiset plus that are <= alpha,
    less those of minus; a value above k counts nowhere, one below 1
    everywhere.  Every bound vector below is one such difference.
    """
    return tuple(
        sum(v <= a for v in plus) - sum(v <= a for v in minus) for a in range(1, k + 1)
    )


def epsilon(k: int, I: tuple[int, ...]) -> tuple[int, ...]:
    """Entry alpha is [alpha in I] - [alpha+1 in I]."""
    return tuple((a in I) - (a + 1 in I) for a in range(1, k + 1))


def label_complement(k: int, J: tuple[int, ...], l1: int) -> tuple[int, ...]:
    """The labels v'_1..v'_p of the complement of J inside [l1+1, k], where
    p is the number of members of J up to l1.

    Entry i-1 is v'_i.  The complement's p smallest values come last, in
    decreasing order; where it has fewer, the literal padding value k+1
    fills the first entries.  Its values past the p-th form the w block.
    """
    if not 0 <= l1 <= k:
        raise ValueError(f"l1={l1} outside 0..{k}")
    p = sum(1 for v in J if v <= l1)
    comp = [v for v in range(l1 + 1, k + 1) if v not in J]
    vprime = [k + 1] * p
    for j, value in enumerate(comp[:p]):
        vprime[p - 1 - j] = value
    return tuple(vprime)


def is_admissible(k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int, l2: int) -> bool:
    """(l1, l2)-admissibility: |I| <= p, |J| <= l2 and v_i <= u_i < v'_i."""
    vprime = label_complement(k, J, l1)
    if len(I) > len(vprime) or len(J) > l2:
        return False
    # |I| <= p = len(vprime) <= |J|, so the zip runs over all of I.
    return all(v <= u < vp for u, v, vp in zip(I, J, vprime))


def is_l1_admissible(k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int) -> bool:
    """(l1, k)-admissibility; the second cardinality bound is vacuous."""
    return is_admissible(k, I, J, l1, k)


def primed_labels(k: int, l1: int, a: int, c: int) -> tuple[int, int, int]:
    """The label triple one recursion step down, from (l1, a, c)."""
    l1p = l1 + c - a - pos_part(l1 + c - k)
    l2p = k - c
    return l1p, l2p, l1p + l2p - k


def primed_params(k: int, l1: int, a: int, c: int, M: int, N: int) -> Params:
    """The set one recursion step down: labels primed from (l1, a, c) at the
    cutoffs (M, N-1).  N < 1 is a usage error (ValueError); primed labels
    outside level k are a fault (InvariantError): no reachable step has them."""
    if N < 1:
        raise ValueError("the recursion steps N down; need N >= 1")
    l1p, l2p, l3p = primed_labels(k, l1, a, c)
    # Only the labels are checked here: a bad level or cutoff stays Params' usage error.
    if not (0 <= l3p <= min(l1p, l2p) and max(l1p, l2p) <= k):
        raise InvariantError(f"primed labels ({l1p}, {l2p}, {l3p}) are not legal at level {k}")
    return Params(k, l1p, l2p, l3p, M, N - 1)


@lru_cache(maxsize=None)
def recursion_terms(p: Params) -> tuple[tuple[int, int, Params], ...]:
    """(a, c, primed_params at (l1, a, c)) for each term of the recursion
    sum at p, which needs N >= 1: a runs over 0..l3 and c over 0..l2-a."""
    return tuple(
        (a, c, primed_params(p.k, p.l1, a, c, p.M, p.N))
        for a in range(p.l3 + 1)
        for c in range(p.l2 - a + 1)
    )


def tilde_pair(
    k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Map an l1-admissible pair (I, J) to (tilde I, tilde J).

    Identity when l1 + c >= k.  Otherwise tilde I absorbs the complement
    labels with index <= |I| together with the w block, and tilde J keeps
    the part of J below the first absorbed label.  An absorbed label that
    is already a member of I would make tilde I a multiset, which no
    admissible pair yields: a fault of the program (InvariantError).
    """
    if not is_l1_admissible(k, I, J, l1):
        raise ValueError("pair is not l1-admissible")
    a = len(I)
    c = len(J) - a
    if l1 + c >= k:
        return I, J
    p = len(label_complement(k, J, l1))
    comp = [v for v in range(l1 + 1, k + 1) if v not in J]
    absorbed = comp[p - a:]
    tI = tuple(sorted((*I, *absorbed)))
    if len(set(tI)) != len(tI):
        raise InvariantError(f"tilde I {tI} has a repeated member")
    boundary = absorbed[0]
    tJ = tuple(v for v in J if v < boundary)
    return tI, tJ


def rho(k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int) -> tuple[int, ...]:
    """Lower bounds on the bottom riggings of mu, from the pair (I, J):
    kappa(v_1..v_p) - kappa(u_1..u_a) - kappa(v'_(a+1)..v'_p)."""
    if not is_l1_admissible(k, I, J, l1):
        raise ValueError("pair is not l1-admissible")
    vprime = label_complement(k, J, l1)
    return kappa(k, J[: len(vprime)], I + vprime[len(I):])


def sigma(k: int, J: tuple[int, ...], l2: int) -> tuple[int, ...]:
    """Lower bounds on the bottom riggings of nu: kappa[1, l2] - kappa(J)."""
    if len(J) > l2:
        raise ValueError(f"|J|={len(J)} exceeds l2={l2}")
    return kappa(k, range(1, l2 + 1), J)


def delta_r(k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int) -> tuple[int, ...]:
    """Change of the r upper bounds across one recursion step:
    kappa(J) + kappa[l1'+1, k] - 2 kappa(I) - kappa[l1+1, k].

    Equals vacancy_P at (l1) minus vacancy_P at (l1') whenever the
    partitions differ by epsilon(I), epsilon(J).
    """
    a = len(I)
    l1p, _, _ = primed_labels(k, l1, a, len(J) - a)
    return kappa(k, (*J, *range(l1p + 1, k + 1)), (*I, *I, *range(l1 + 1, k + 1)))


def delta_s(
    k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int, l2: int
) -> tuple[int, ...]:
    """Change of the s upper bounds across one recursion step:
    kappa(I) + kappa[1, l2] + kappa[l2'+1, k] - 2 kappa(J)."""
    a = len(I)
    _, l2p, _ = primed_labels(k, l1, a, len(J) - a)
    return kappa(k, (*I, *range(1, l2 + 1), *range(l2p + 1, k + 1)), (*J, *J))


def rho_prime(k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int) -> tuple[int, ...]:
    """Shifted lower bounds for r: kappa(tilde I) - kappa[l1'+1, k]."""
    a = len(I)
    l1p, _, _ = primed_labels(k, l1, a, len(J) - a)
    tI, _ = tilde_pair(k, I, J, l1)  # rejects a pair that is not l1-admissible
    return kappa(k, tI, range(l1p + 1, k + 1))


def sigma_prime(k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int) -> tuple[int, ...]:
    """Shifted lower bounds for s: kappa(J) - kappa(I) - kappa[l2'+1, k]."""
    if not is_l1_admissible(k, I, J, l1):
        raise ValueError("pair is not l1-admissible")
    a = len(I)
    _, l2p, _ = primed_labels(k, l1, a, len(J) - a)
    return kappa(k, J, (*I, *range(l2p + 1, k + 1)))
