"""Lower and upper subsets, the rigging map between them, and the
exhaustive verifiers for the recursion and both decomposition statements.

The verifiers return a Report, a verdict and its evidence, the first
counterexample of a failing point, and never assume the statement they
check.  Each takes its grid point, which cli._check_point names: the
labels, the cutoffs (M, N) and the weights (m, n).  A Params is built only
for a set R(p) that is read; every other function takes the plain values
it reads.  x lies in the subset of (I, J) if its rows meet the pair's
marked bound and x meets the cutoffs.  The bound depends only on the
level, the labels and the pair, so lower_bounds and upper_bounds are
memoised on those.  The verifiers scan pieces enumerate_R built inside the
cutoffs, so they test the bound alone; map_m re-checks the cutoffs of its
input and of its image, through upper_member and lower_member.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, le

from .admissible import (
    all_index_sets,
    delta_r,
    delta_s,
    epsilon,
    is_admissible,
    is_l1_admissible,
    primed_labels,
    primed_params,
    recursion_terms,
    rho,
    rho_prime,
    sigma,
    sigma_prime,
)
from .core import (
    Params,
    Record,
    Report,
    RiggedPair,
    checked_pair,
    pair_to_obj,
    vacancy_P,
    vacancy_Q,
)
from .riggedsets import canonical_key, enumerate_R, satisfies_cutoffs


class MarkedBound(Record):
    """A bound vector on the bottom riggings of a sequence of rows whose
    components are equalities where marked."""

    __slots__ = ()
    _fields = ("value", "marked")

    def __new__(cls, value: tuple[int, ...], marked: tuple[bool, ...]) -> "MarkedBound":
        return tuple.__new__(cls, (value, marked))

    def satisfied_by(self, rows: tuple[tuple[int, ...], ...]) -> bool:
        """Whether the bottom rigging of rows[i] equals value[i] where
        marked and is at least it elsewhere.

        An empty row fails a marked component and meets an unmarked one.
        The bound of a subset covers the rows of r, then those of s: an
        element x is tested on x.r + x.s.
        """
        for row, bound, eq in zip(rows, self.value, self.marked):
            if eq:
                if not row or row[-1] != bound:
                    return False
            elif row and row[-1] < bound:
                return False
        return True


@lru_cache(maxsize=None)
def lower_bounds(
    k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int, l2: int
) -> MarkedBound | None:
    """Marked lower bound of the lower subset, rho on r and sigma on s, or
    None if the pair is not (l1, l2)-admissible."""
    if not is_admissible(k, I, J, l1, l2):
        return None
    return MarkedBound(
        rho(k, I, J, l1) + sigma(k, J, l2),
        tuple(e == 1 for e in epsilon(k, I)) + tuple(e == 1 for e in epsilon(k, J)),
    )


@lru_cache(maxsize=None)
def upper_bounds(k: int, I: tuple[int, ...], J: tuple[int, ...], l1: int) -> MarkedBound | None:
    """Marked lower bound of the upper subset, rho' on r and sigma' on s, or
    None if the pair is not l1-admissible."""
    if not is_l1_admissible(k, I, J, l1):
        return None
    return MarkedBound(
        rho_prime(k, I, J, l1) + sigma_prime(k, I, J, l1),
        tuple(e == -1 for e in epsilon(k, I)) + tuple(e == -1 for e in epsilon(k, J)),
    )


def _tau_free(k: int, l1: int, l2: int, M: int, N: int) -> Params:
    """The parameters of the cutoff set with the tau condition switched off
    (l3 = min(l1, l2))."""
    return Params(k, l1, l2, min(l1, l2), M, N)


def lower_member(
    x: RiggedPair, I: tuple[int, ...], J: tuple[int, ...], k: int, l1: int, l2: int, M: int, N: int
) -> bool:
    """Membership of x in the lower subset attached to (I, J) at (M, N)."""
    bound = lower_bounds(k, I, J, l1, l2)
    if bound is None or not bound.satisfied_by(x.r + x.s):
        return False
    return satisfies_cutoffs(x, l1, l2, M, N)


def upper_member(
    x: RiggedPair, I: tuple[int, ...], J: tuple[int, ...], k: int, l1: int, M: int, N: int
) -> bool:
    """Membership of x in the upper subset attached to (I, J) at (M, N-1),
    whose labels are primed from (l1, |I|, |J|-|I|)."""
    if N < 1:
        raise ValueError("upper subsets live one N-step down; need N >= 1")
    bound = upper_bounds(k, I, J, l1)
    if bound is None or not bound.satisfied_by(x.r + x.s):
        return False
    l1p, l2p, _ = primed_labels(k, l1, len(I), len(J) - len(I))
    return satisfies_cutoffs(x, l1p, l2p, M, N - 1)


def map_m(
    x: RiggedPair, I: tuple[int, ...], J: tuple[int, ...], k: int, l1: int, l2: int, M: int, N: int
) -> RiggedPair:
    """The rigging map from the upper subset onto the lower subset.

    Multiplicities shift by epsilon; surviving riggings shift by
    delta_r/delta_s; a marked removal drops the bottom row and a new
    bottom row rigged by rho (resp. sigma) is appended where epsilon is
    +1.  The image is checked (core.checked_pair, lower_member) and a
    mismatch is a hard error: verifiers must not trust what they test.
    """
    if len(J) > l2:
        raise ValueError("|J| exceeds l2: the target lower subset is empty")
    if not upper_member(x, I, J, k, l1, M, N):
        raise ValueError("input is not a member of the upper subset")
    # An l1-admissible pair with |J| <= l2 is (l1, l2)-admissible.
    bottoms = lower_bounds(k, I, J, l1, l2).value

    def shift(mult: tuple[int, ...], rig: tuple, eps, delta, new_bottom):
        rows = []
        for row, e, d, bottom in zip(rig, eps, delta, new_bottom):
            new = [v + d for v in (row[:-1] if e == -1 else row)]
            if e == 1:
                new.append(bottom)
            rows.append(new)
        return tuple(map(add, mult, eps)), rows

    mu, r = shift(x.mu, x.r, epsilon(k, I), delta_r(k, I, J, l1), bottoms[:k])
    nu, s = shift(x.nu, x.s, epsilon(k, J), delta_s(k, I, J, l1, l2), bottoms[k:])
    out = checked_pair(mu, r, nu, s)
    if not lower_member(out, I, J, k, l1, l2, M, N):
        raise AssertionError(f"rigging map produced a non-member of the lower subset: {out}")
    return out


def verify_recursion(
    k: int, l1: int, l2: int, l3: int, M: int, N: int, m: int, n: int
) -> Report:
    """Compare the cardinality of one graded piece against the recursion sum (N >= 1)."""
    p = Params(k, l1, l2, l3, M, N)
    lhs = len(enumerate_R(p, m, n))
    terms = []
    rhs = 0
    for a, c, pp in recursion_terms(p):
        count = len(enumerate_R(pp, m - a, n - a - c))
        terms.append({"a": a, "c": c, "count": count})
        rhs += count
    return Report(lhs == rhs, {"lhs": lhs, "rhs": rhs, "terms": terms})


def _cover_scan(p: Params, m: int, n: int, pairs, vacancy: bool, reason: str) -> Report:
    """Exact-cover check of the graded piece of p at (m, n).

    pairs holds (I, J, bound) per subset, its marked bound.  Every element
    of the ambient cutoff set, p's with the tau condition switched off, is
    scanned: one in the tau-restricted set must lie in exactly one subset,
    any other in none.  If vacancy, a subset that holds an element must
    also have bound.value <= P + Q componentwise there; reason names a
    violation.
    """
    target = set(enumerate_R(p, m, n))
    ambient = enumerate_R(_tau_free(p.k, p.l1, p.l2, p.M, p.N), m, n)
    for x in ambient:
        rows = x.r + x.s
        covers = []
        for I, J, bound in pairs:
            if bound.satisfied_by(rows):
                covers.append((I, J))
                if vacancy:
                    P = vacancy_P(x.mu, x.nu, p.M, p.l1)
                    Q = vacancy_Q(x.mu, x.nu, p.N, p.l2)
                    if not all(map(le, bound.value, P + Q)):
                        detail = {"reason": reason, "pair": {"I": list(I), "J": list(J)}}
                        break
        else:
            expected = 1 if x in target else 0
            if len(covers) == expected:
                continue
            detail = {
                "expected_covers": expected,
                "covers": [{"I": list(I), "J": list(J)} for I, J in covers],
            }
        return Report(False, {"element": pair_to_obj(x), **detail})
    return Report(True, {"elements": len(ambient), "pairs": len(pairs)})


@lru_cache(maxsize=None)
def _lower_pairs(k: int, l1: int, l2: int, l3: int) -> tuple:
    """(I, J, bound) for the (l1, l2)-admissible pairs with |I| <= l3, in
    all_index_sets order (I outer, J inner)."""
    sets = tuple(all_index_sets(k))
    rows = ((I, J, lower_bounds(k, I, J, l1, l2)) for I in sets if len(I) <= l3 for J in sets)
    return tuple(row for row in rows if row[2] is not None)


def verify_lower_decomposition(
    k: int, l1: int, l2: int, l3: int, M: int, N: int, m: int, n: int
) -> Report:
    """Exact-cover check of the graded piece by the lower subsets.

    The cover runs over the admissible (I, J) with |I| <= l3 and
    |J| <= l2.  Nonempty subsets are also checked against the vacancy
    bounds rho <= P and sigma <= Q (valid for N >= 1).
    """
    p = Params(k, l1, l2, l3, M, N)
    reason = "nonempty lower subset violates rho<=P, sigma<=Q"
    return _cover_scan(p, m, n, _lower_pairs(k, l1, l2, l3), N >= 1, reason)


@lru_cache(maxsize=None)
def _upper_pairs(k: int, l1: int, a: int, c: int) -> tuple:
    """(I, J, bound) for the l1-admissible pairs with |I| = a and |J| = a + c,
    in all_index_sets order (I outer, J inner)."""
    sets = tuple(all_index_sets(k))
    rows = (
        (I, J, upper_bounds(k, I, J, l1))
        for I in sets
        if len(I) == a
        for J in sets
        if len(J) == a + c
    )
    return tuple(row for row in rows if row[2] is not None)


def verify_upper_decomposition(
    k: int, l1: int, a: int, c: int, M: int, N: int, m: int, n: int
) -> Report:
    """Exact-cover check of the primed graded piece by the upper subsets.

    The target is primed_params(k, l1, a, c, M, N), so N >= 1; the cover
    runs over all (I, J) with |I| = a and |J| = a + c.  Nonempty subsets
    are also checked against rho' <= P and sigma' <= Q.
    """
    if not (0 <= a <= l1 <= k and a <= a + c <= k):
        raise ValueError(f"need 0 <= a <= l1 <= k and a+c <= k; got l1={l1}, a={a}, c={c}")
    pp = primed_params(k, l1, a, c, M, N)
    reason = "nonempty upper subset violates rho'<=P, sigma'<=Q"
    return _cover_scan(pp, m, n, _upper_pairs(k, l1, a, c), True, reason)


@lru_cache(maxsize=None)
def _bijection_rows(k: int, l1: int, l2: int, M: int, N: int) -> tuple:
    """(I, J, lower bound, upper bound, upper Params, |I|, |J|) for each
    (l1, l2)-admissible pair, in all_index_sets order.  The upper Params is
    primed_params at (l1, |I|, |J|-|I|), tau-free, so N >= 1.

    Every such pair has |I| <= |J & [1, l1]| <= min(l1, l2), so
    _lower_pairs at l3 = min(l1, l2) lists them all.
    """
    rows = []
    for I, J, bound in _lower_pairs(k, l1, l2, min(l1, l2)):
        a, b = len(I), len(J)
        up = primed_params(k, l1, a, b - a, M, N)
        up_params = _tau_free(k, up.l1, up.l2, M, up.N)
        rows.append((I, J, bound, upper_bounds(k, I, J, l1), up_params, a, b))
    return tuple(rows)


def verify_bijection(k: int, l1: int, l2: int, M: int, N: int, m: int, n: int) -> Report:
    """Check, for every (l1, l2)-admissible (I, J), that the rigging map is
    injective on the upper subset at (m-a, n-b), one N-step down (N >= 1),
    with image exactly the lower subset at (m, n); an element map_m rejects
    is a counterexample.  Tau plays no part: p has l3 = min(l1, l2)."""
    lower_ambient = enumerate_R(_tau_free(k, l1, l2, M, N), m, n)
    for I, J, bound, upper, up_params, a, b in _bijection_rows(k, l1, l2, M, N):
        ups = enumerate_R(up_params, m - a, n - b)
        try:
            images = [map_m(x, I, J, k, l1, l2, M, N) for x in ups if upper.satisfied_by(x.r + x.s)]
        except (ValueError, AssertionError) as exc:
            detail = {"reason": str(exc)}
        else:
            lows = [y for y in lower_ambient if bound.satisfied_by(y.r + y.s)]
            if len(set(images)) != len(images):
                detail = {"reason": "not injective"}
            elif sorted(images, key=canonical_key) != lows:
                detail = {
                    "reason": "image differs from lower subset",
                    "image_size": len(images),
                    "lower_size": len(lows),
                }
            else:
                continue
        return Report(False, {"pair": {"I": list(I), "J": list(J)}, **detail})
    return Report(True, {})
