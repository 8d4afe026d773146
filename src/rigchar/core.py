"""Foundational types for level-restricted rigged partitions.

Parameters, the checks on rigging rows, the tau lower bound on riggings,
the vacancy-number upper bounds (KVector), the Report every verifier
returns, and the JSON objects of a parameter tuple and a rigged pair
(shared by the CLI and the verifiers' failure reports).

A level-k partition is a plain tuple of k row-length multiplicities, and
a rigging a plain tuple of k rows (see RiggedPair).  The other types are
immutable values: Record subclasses, whose fields are properties, and
KVector, a tuple subclass whose items are its entries.
The functions are pure apart from memo caches, those of the vacancy
helpers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from operator import add, itemgetter, lt


def pos_part(x: int) -> int:
    """max(x, 0), written x+ in the formulas."""
    return x if x > 0 else 0


class InvariantError(ValueError):
    """A value that breaks an invariant of the types below.

    RiggedPair, check_row, checked_pair and vacancy_P raise it.  The CLI
    builds these values itself, so one raised mid-run is an internal
    fault (exit 3), not a usage error; it subclasses ValueError so that
    callers validating untrusted input can still catch ValueError.
    """


# Bound once: a global read is cheaper than looking the slot up on tuple
# in every comparison.
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class Record(tuple):
    """Base of the immutable values built in inner loops, stored as a tuple.

    A subclass lists its field names in _fields and defines __new__, which
    runs the type's checks and then calls tuple.__new__: that is the only
    way to build one.  Each field is read through a property.  Equality
    holds only between values of one type, the hash is the tuple's, values
    are not ordered, and the repr names each field.  So building one costs
    a single Python call, and hashing one is the C-level tuple hash.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and _tuple_eq(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not type(self) or _tuple_ne(self, other)

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        fields = zip(self._fields, self)
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self):
        # Unpickling and copying rebuild the value through its checks.
        return type(self), self[: len(self._fields)]


class Report(Record):
    """Outcome of one verification, with provenance for failures.

    context identifies the grid point; detail carries either the summary
    of a passing check or the first counterexample (offending element,
    covering pairs, per-term cardinalities) of a failing one.
    """

    __slots__ = ()
    _fields = ("ok", "check", "context", "detail")

    def __new__(cls, ok: bool, check: str, context: dict, detail: dict) -> "Report":
        return tuple.__new__(cls, (ok, check, context, detail))


class Params(Record):
    """The parameter tuple (k, l1, l2, l3, M, N).

    k is the level, l1/l2/l3 the highest-weight labels subject to
    0 <= l1, l2 <= k and 0 <= l3 <= min(l1, l2), and M/N the degree
    cutoffs.  Illegal labels are rejected at construction.  Each value is
    checked and built once per process and then shared from _PARAMS, so
    the caches keyed by Params (_R_CACHE among them) find their keys by
    identity and never call the Python-level __eq__.
    """

    __slots__ = ()
    _fields = ("k", "l1", "l2", "l3", "M", "N")

    def __new__(cls, k: int, l1: int, l2: int, l3: int, M: int, N: int) -> "Params":
        key = (k, l1, l2, l3, M, N)
        p = _PARAMS.get(key)
        if p is not None:
            return p
        if k < 1:
            raise ValueError(f"level k must be >= 1, got {k}")
        if not (0 <= l1 <= k and 0 <= l2 <= k):
            raise ValueError(f"labels l1={l1}, l2={l2} must lie in [0, {k}]")
        if not (0 <= l3 <= min(l1, l2)):
            raise ValueError(f"label l3={l3} must lie in [0, min(l1, l2)={min(l1, l2)}]")
        if M < 0 or N < 0:
            raise ValueError(f"cutoffs M={M}, N={N} must be >= 0")
        p = _PARAMS[key] = tuple.__new__(cls, key)
        return p


_PARAMS: dict[tuple[int, ...], Params] = {}


class KVector(tuple):
    """The vacancy numbers P or Q of one pair of partitions: item alpha-1
    bounds the riggings of the rows of length alpha, for alpha = 1..k.

    A plain tuple subclass rather than a Record: vacancy_P builds one for
    every pair it scans and the scans read its items, while a Record reads
    its fields through properties, each about four times the cost of a
    slot read.  It compares, hashes and refuses to order as a Record does.
    """

    __slots__ = ()
    __eq__ = Record.__eq__
    __ne__ = Record.__ne__
    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = Record.__lt__

    def __repr__(self) -> str:
        return f"KVector(entries={tuple(self)!r})"

    def is_nonneg(self) -> bool:
        return min(self, default=0) >= 0


def partition_rows(mult: tuple[int, ...]) -> tuple[int, ...]:
    """Row lengths, weakly decreasing, of the partition whose multiplicities
    are mult: mult[alpha-1] rows of length alpha, for alpha = 1..len(mult)."""
    rows: list[int] = []
    for alpha in range(len(mult), 0, -1):
        rows += [alpha] * mult[alpha - 1]
    return tuple(rows)


def check_row(row: tuple[int, ...]) -> None:
    """Raise InvariantError unless row is a rigging row: weakly decreasing,
    with entries >= 0."""
    if len(row) > 1 and any(map(lt, row, islice(row, 1, None))):
        raise InvariantError(f"rigging row {row} is not weakly decreasing")
    if row and row[-1] < 0:
        raise InvariantError("rigging entries must be >= 0")


class RiggedPair(Record):
    """A pair of rigged partitions (mu, r; nu, s) at a common level.

    mu and nu are multiplicity tuples.  A rigging, r of mu or s of nu, is a
    tuple whose row alpha-1 is a weakly decreasing tuple of mult[alpha-1]
    non-negative integers.  Only the level is checked here: the rows are
    checked where they are made, by riggedsets._row_choices or checked_pair.
    """

    __slots__ = ()
    _fields = ("mu", "r", "nu", "s")

    def __new__(cls, mu: tuple[int, ...], r: tuple, nu: tuple[int, ...], s: tuple) -> "RiggedPair":
        if len(mu) != len(nu):
            raise InvariantError("mu and nu must share a level")
        return tuple.__new__(cls, (mu, r, nu, s))


def pair_to_obj(x: RiggedPair) -> dict:
    """JSON object for one rigged pair: multiplicities and rigging rows.

    The values are the element's own immutable tuples, not copies; JSON
    writes a tuple as a list.  Elements of one piece share these tuples
    (see riggedsets._rigging_groups), which cli._json_chunks renders once each.
    """
    return {"mu": x.mu, "r": x.r, "nu": x.nu, "s": x.s}


def checked_pair(mu: tuple[int, ...], r, nu: tuple[int, ...], s) -> RiggedPair:
    """RiggedPair(mu, r, nu, s) with the rows of r and s, any iterables,
    made tuples and checked: each is a rigging row (check_row), and row
    alpha-1 of r holds mu[alpha-1] entries, that of s nu[alpha-1]."""
    r, s = tuple(map(tuple, r)), tuple(map(tuple, s))
    for row in r + s:
        check_row(row)
    if tuple(map(len, r)) != mu:
        raise InvariantError("r row counts do not match mu multiplicities")
    if tuple(map(len, s)) != nu:
        raise InvariantError("s row counts do not match nu multiplicities")
    return RiggedPair(mu, r, nu, s)


def pair_from_obj(k: int, obj: dict) -> RiggedPair:
    """Inverse of pair_to_obj at level k, checking every row (checked_pair);
    a "degree" field, if present, is ignored."""
    mu = tuple(obj["mu"])
    if len(mu) != k:
        raise InvariantError(f"need {k} multiplicities, got {len(mu)}")
    return checked_pair(mu, obj["r"], tuple(obj["nu"]), obj["s"])


def params_to_obj(p: Params) -> dict:
    return {"k": p.k, "l1": p.l1, "l2": p.l2, "l3": p.l3, "M": p.M, "N": p.N}


def params_from_obj(obj: dict) -> Params:
    return Params(obj["k"], obj["l1"], obj["l2"], obj["l3"], obj["M"], obj["N"])


def weight(mult: tuple[int, ...]) -> int:
    """Total number of boxes, sum over alpha of alpha * m_alpha."""
    return sum(alpha * m for alpha, m in enumerate(mult, start=1))


def tau(alpha: int, beta: int, p: Params) -> int:
    """Lower bound on r[alpha] + s[beta]: min(a,b) - (a-l1)+ - (b-l2)+ - l3."""
    return (
        min(alpha, beta)
        - pos_part(alpha - p.l1)
        - pos_part(beta - p.l2)
        - p.l3
    )


def tau_min_form(alpha: int, beta: int, p: Params) -> int:
    """The equivalent eight-term minimum form of the tau bound.

    Kept as an independent route so tests can compare it with tau().
    """
    return (
        min(
            alpha,
            beta,
            p.l1,
            p.l2,
            p.l1 + beta - alpha,
            p.l2 + alpha - beta,
            p.l1 + p.l2 - alpha,
            p.l1 + p.l2 - beta,
        )
        - p.l3
    )


@lru_cache(maxsize=None)
def min_sums(mult: tuple[int, ...]) -> tuple[int, ...]:
    """A(x)_alpha = sum over beta of min(alpha, beta) * x_beta, for alpha = 1..k.

    A_alpha - A_(alpha-1) is the tail sum of x from alpha on, so running
    sums give the whole vector in O(k).
    """
    out = []
    acc = 0
    tail = sum(mult)
    for x in mult:
        acc += tail
        tail -= x
        out.append(acc)
    return tuple(out)


@lru_cache(maxsize=None)
def _vacancy_mu_part(mult: tuple[int, ...], M: int, l: int) -> tuple[int, ...]:
    """The part alpha*M - (alpha-l)+ - 2 A(mu)_alpha of vacancy_P that does
    not depend on nu, for the multiplicities mult of mu."""
    return tuple(
        alpha * M - pos_part(alpha - l) - 2 * a
        for alpha, a in enumerate(min_sums(mult), start=1)
    )


def vacancy_P(mu: tuple[int, ...], nu: tuple[int, ...], M: int, l: int) -> KVector:
    """Upper bounds P on the riggings of mu, depending on both partitions.

    P_alpha = alpha*M - (alpha-l)+ + sum_beta min(alpha, beta) (nu_beta - 2 mu_beta).

    That is A(nu)_alpha (min_sums) added to the cached part that depends
    on mu, M and l alone; a scan over the partitions nu for a fixed mu
    reuses that part for every nu.
    """
    if len(mu) != len(nu):
        raise InvariantError("mu and nu must share a level")
    return KVector(map(add, _vacancy_mu_part(mu, M, l), min_sums(nu)))


def vacancy_Q(mu: tuple[int, ...], nu: tuple[int, ...], N: int, l: int) -> KVector:
    """Upper bounds Q on the riggings of nu: vacancy_P with the roles swapped."""
    return vacancy_P(nu, mu, N, l)


def boundary_ok(p: Params, mu: tuple[int, ...], nu: tuple[int, ...]) -> bool:
    """The M=0 / N=0 boundary inequalities on the weights.

    Given the rigging upper bounds, this is equivalent to requiring both
    vacancy vectors to be componentwise non-negative.
    """
    m = weight(mu)
    n = weight(nu)
    if p.M == 0 and n - 2 * m < p.k - p.l1:
        return False
    if p.N == 0 and m - 2 * n < p.k - p.l2:
        return False
    return True
