"""Brute-force, provably complete enumeration of the rigged-partition sets.

This module is the oracle every identity verifier is checked against: it
scans all partitions and all riggings below the vacancy bounds, and either
materialises a graded piece of the cutoff sets, a duplicate-free tuple of
RiggedPair values in canonical_key order, or counts it by rigging sum.

Completeness of enumerate_total rests on the weight bound derived from the
non-negativity of the k-th vacancy components: a nonempty piece forces
n >= 2m - kM + (k-l1)+ and m >= 2n - kN + (k-l2)+, hence
3m <= 2kM + kN and 3n <= kM + 2kN.  The scan ranges below use exactly
those bounds, so no nonempty piece can be missed.
"""

from __future__ import annotations

import gc
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product
from operator import sub

from .core import (
    InvariantError,
    Params,
    RiggedPair,
    check_row,
    partition_rows,
    tau,
    vacancy_P,
    vacancy_Q,
)


def canonical_key(x: RiggedPair):
    """Sort key: lexicographic on (mu, nu) row lists, then flattened riggings."""
    rigs = (tuple(chain.from_iterable(x.r)), tuple(chain.from_iterable(x.s)))
    return (partition_rows(x.mu), partition_rows(x.nu), *rigs)


@lru_cache(maxsize=None)
def enumerate_partitions(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All level-k restricted partitions of m as multiplicity tuples, in
    ascending lexicographic order of their weakly decreasing rows.

    The search picks the rows largest first and tries the lengths of each
    in ascending order, which yields exactly that order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        return ()
    found: list[tuple[int, ...]] = []
    _descend(found, [0] * k, m, k)
    return tuple(found)


def _descend(found: list, mult: list[int], remaining: int, largest: int) -> None:
    # A module-level function, not a closure: a nested self-recursive one
    # is a reference cycle, left as garbage by every call.
    if remaining == 0:
        found.append(tuple(mult))
        return
    for part in range(1, min(largest, remaining) + 1):
        mult[part - 1] += 1
        _descend(found, mult, remaining - part, part)
        mult[part - 1] -= 1


@lru_cache(maxsize=None)
def _row_choices(count: int, bound, low: int = 0) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing tuples of the given length with entries in
    [low, bound], in ascending lexicographic order.

    Combinations with replacement of bound, bound-1, ..., low are exactly
    these tuples, in descending lexicographic order.  They are the rows of
    enumerate_R's riggings, so each is checked here, once per cache entry.
    """
    rows = tuple(combinations_with_replacement(range(bound, low - 1, -1), count))[::-1]
    for row in rows:
        check_row(row)
        if len(row) != count or not all(low <= v <= bound for v in row):
            raise InvariantError(f"rigging row {row} is not {count} entries in [{low}, {bound}]")
    return rows


def satisfies_tau(x: RiggedPair, p: Params) -> bool:
    """Condition on the bottom riggings: r[a] + s[b] >= tau(a, b) for all a, b.

    Pairs where either row set is empty are vacuous.
    """
    for alpha, ra in enumerate(x.r, start=1):
        if not ra:
            continue
        for beta, sb in enumerate(x.s, start=1):
            if sb and ra[-1] + sb[-1] < tau(alpha, beta, p):
                return False
    return True


def satisfies_cutoffs(x: RiggedPair, p: Params) -> bool:
    """Vacancy non-negativity plus the upper bounds on the top riggings."""
    P = vacancy_P(x.mu, x.nu, p.M, p.l1)
    if not P.is_nonneg():
        return False
    Q = vacancy_Q(x.mu, x.nu, p.N, p.l2)
    if not Q.is_nonneg():
        return False
    # One row of r per entry of P, then one row of s per entry of Q.
    for row, bound in zip(x.r + x.s, P + Q):
        if row and row[0] > bound:
            return False
    return True


_R_CACHE: dict[tuple[Params, int, int], tuple[RiggedPair, ...]] = {}
# feasible_pairs(p, m, n) as a tuple, keyed by (k, l1, l2, M, N, m, n): the
# vacancy vectors never read l3, so every l3 shares one scan.
_SCAN_CACHE: dict[tuple[int, ...], tuple] = {}
# rigging_sums(p, m, n), keyed as _R_CACHE is.
_SUM_CACHE: dict[tuple[Params, int, int], tuple] = {}


def feasible_pairs(p: Params, m: int, n: int):
    """The partition pairs of weights (m, n) with both vacancy vectors
    non-negative, as (mu, nu, P, Q).

    mu is the outer and nu the inner loop, each in enumerate_partitions
    order; Q is computed only for pairs whose P is non-negative.
    """
    M, N, l1, l2 = p.M, p.N, p.l1, p.l2
    nus = enumerate_partitions(n, p.k)
    for mu in enumerate_partitions(m, p.k):
        for nu in nus:
            P = vacancy_P(mu, nu, M, l1)
            if min(P) < 0:
                continue
            Q = vacancy_Q(mu, nu, N, l2)
            if min(Q) >= 0:
                yield mu, nu, P, Q


@lru_cache(maxsize=1024)
def _tau_table(k: int, l1: int, l2: int, l3: int) -> tuple[tuple[int, ...], ...] | None:
    """tau(alpha, beta, p) for alpha, beta = 1..k and p with these labels,
    or None if no entry is positive: riggings are non-negative, so then
    tau bounds nothing.

    The matrix depends on the labels alone, so it is memoised on those.
    """
    p = Params(k, l1, l2, l3, 0, 0)
    mat = tuple(tuple(tau(a, b, p) for b in range(1, k + 1)) for a in range(1, k + 1))
    return mat if any(v > 0 for row in mat for v in row) else None


def _rigging_groups(mu: tuple[int, ...], nu: tuple[int, ...], r_caps, s_caps, taumat):
    """(r, list of the s that go with r) for each rigging on (mu, nu), in
    canonical_key order, whose rows of length alpha are capped by
    r_caps[alpha-1] and s_caps[alpha-1] and whose bottom riggings meet the
    tau bounds taumat (None: no bound).

    For a fixed r, the tau condition is one lower bound on the bottom
    entry of each row of s, so the rows of s are drawn from choices
    already bounded below.  Those bounds, need_j = max(0, max_i
    taumat[i][j] - r_i[-1]) over the nonempty rows j of nu (the empty
    vector when tau bounds nothing), are all that the riggings s depend
    on.  So the s riggings of each distinct bound vector are built once per
    call, as one list that every r with that vector gets.
    """
    k = len(mu)
    r_opts = list(map(_row_choices, mu, r_caps))
    s_opts = list(map(_row_choices, nu, s_caps))
    mu_rows = [i for i in range(k) if mu[i] > 0]
    # (j, tau bounds of the rows of mu on row j of s) for each row j of nu
    cols = []
    if taumat is not None and mu_rows:
        cols = [(j, [taumat[i][j] for i in mu_rows]) for j in range(k) if nu[j]]
    s_by_need: dict[tuple[int, ...], list[tuple]] = {}
    need: tuple[int, ...] = ()
    for rr in product(*r_opts):
        if cols:
            bottoms = [rr[i][-1] for i in mu_rows]
            need = tuple(max(0, max(map(sub, col, bottoms))) for _, col in cols)
        s_objs = s_by_need.get(need)
        if s_objs is None:
            s_now = list(s_opts)
            for (j, _), low in zip(cols, need):
                if low:
                    s_now[j] = _row_choices(nu[j], s_caps[j], low)
            s_objs = s_by_need[need] = list(product(*s_now))
        yield rr, s_objs


def _piece_groups(p: Params, m: int, n: int):
    """(mu, nu, _rigging_groups on them) for each pair of feasible_pairs(p,
    m, n), read from _SCAN_CACHE, which every l3 of the other parameters
    shares; nothing for negative weights."""
    if m < 0 or n < 0:
        return
    scan_key = (p.k, p.l1, p.l2, p.M, p.N, m, n)
    pairs = _SCAN_CACHE.get(scan_key)
    if pairs is None:
        pairs = _SCAN_CACHE[scan_key] = tuple(feasible_pairs(p, m, n))
    taumat = _tau_table(p.k, p.l1, p.l2, p.l3)
    for mu, nu, P, Q in pairs:
        yield mu, nu, _rigging_groups(mu, nu, P, Q, taumat)


def enumerate_R(p: Params, m: int, n: int) -> tuple[RiggedPair, ...]:
    """The graded piece at weights (m, n) of the full cutoff set, as a
    duplicate-free tuple.

    An element is kept iff (a) both vacancy vectors are componentwise
    non-negative, (b) every top rigging is bounded by the matching vacancy
    entry, and (c) the bottom riggings meet the tau lower bounds.  Negative
    weights give the empty tuple.

    The elements come out in canonical_key order without a sort.
    enumerate_partitions lists mu (outer loop) and nu (inner loop) in
    ascending order of their rows.  For fixed (mu, nu), the rigging row of
    each length alpha has the fixed size mult[alpha-1], and _row_choices
    lists its values in ascending lexicographic order; so product over
    alpha = 1..k lists the flattened riggings r, and for each r those of s,
    in ascending lexicographic order too.

    Each new piece is frozen (gc.freeze), so the cyclic collector stops
    walking the growing cache.  The one cost: cyclic garbage alive at a
    freeze is never collected, and rigchar leaves none per grid point.
    """
    key = (p, m, n)
    hit = _R_CACHE.get(key)
    if hit is not None:
        return hit
    groups = _piece_groups(p, m, n)
    piece = _R_CACHE[key] = tuple(
        RiggedPair(mu, r, nu, s) for mu, nu, rs in groups for r, s_objs in rs for s in s_objs
    )
    # Tuple subclasses are never untracked, and these live until exit: move
    # them and all else alive now to the permanent generation, which no later
    # collection scans.  Reference counting still frees non-cyclic objects.
    gc.freeze()
    return piece


def rigging_sums(p: Params, m: int, n: int) -> tuple:
    """(mu, nu, ((e, count), ...)) over feasible_pairs(p, m, n): count
    elements of enumerate_R(p, m, n) on (mu, nu) have rigging entries
    summing to e, memoised as enumerate_R is, but no element is built.  An
    r goes with every s of its shared list (see _rigging_groups), so per
    list the counts of r by entry sum convolve with those of s.
    """
    key = (p, m, n)
    hit = _SUM_CACHE.get(key)
    if hit is not None:
        return hit
    out = []
    for mu, nu, groups in _piece_groups(p, m, n):
        lists, by_r = {}, defaultdict(Counter)  # keyed by id of a shared s list
        for r, s_objs in groups:
            lists[id(s_objs)] = s_objs
            by_r[id(s_objs)][sum(map(sum, r))] += 1
        counts: Counter = Counter()
        for i, s_objs in lists.items():
            by_s = Counter(sum(map(sum, s)) for s in s_objs)
            for er, cr in by_r[i].items():
                for es, cs in by_s.items():
                    counts[er + es] += cr * cs
        out.append((mu, nu, tuple(counts.items())))
    return _SUM_CACHE.setdefault(key, tuple(out))


def weight_bound(p: Params) -> tuple[int, int]:
    """Largest (m, n) a nonempty graded piece can have (see module docstring)."""
    return (
        (2 * p.k * p.M + p.k * p.N) // 3,
        (p.k * p.M + 2 * p.k * p.N) // 3,
    )


def enumerate_total(p: Params, read=None) -> dict[tuple[int, int], tuple]:
    """Every nonempty graded piece, keyed by (m, n) in ascending order: the
    one walk over the weight box, which reads each piece by read(p, m, n),
    enumerate_R (the enum document's default) or rigging_sums (char_R's)."""
    mmax, nmax = weight_bound(p)
    return {
        (m, n): piece
        for m in range(mmax + 1)
        for n in range(nmax + 1)
        if (piece := (read or enumerate_R)(p, m, n))
    }
