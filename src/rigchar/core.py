"""Foundational types for level-restricted rigged partitions.

Parameters, partitions stored by row-length multiplicities, riggings,
the tau lower bound on riggings, the vacancy-number upper bounds (KVector),
and the JSON objects of a parameter tuple and a rigged pair (shared
by the CLI and the verifiers' failure reports).  Every type here is an
immutable value.  The functions are pure apart from the memo caches of the
vacancy helpers and the TAU_SKEW fault-injection context variable, which
`rigchar verify` sets for one grid point at a time.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import lru_cache
from itertools import islice
from operator import add, itemgetter, lt


def pos_part(x: int) -> int:
    """max(x, 0), written x+ in the formulas."""
    return x if x > 0 else 0


class InvariantError(ValueError):
    """A value that breaks an invariant of the types below.

    Partition, Rigging, RiggedPair and vacancy_P raise it.  The
    CLI builds these values itself, so one raised mid-run is an internal
    fault (exit 3), not a usage error; it subclasses ValueError so that
    callers validating untrusted input can still catch ValueError.
    """


# Fault-injection knob for the verification harness self-test: a nonzero
# skew corrupts tau, so a `verify` run must report a counterexample.
# Set only around one verify grid point, and reset after it.
TAU_SKEW: ContextVar[int] = ContextVar("TAU_SKEW", default=0)


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
        # tuple.__iter__: a subclass may iterate over something else.
        fields = zip(self._fields, tuple.__iter__(self))
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self):
        # Unpickling and copying rebuild the value through its checks.
        return type(self), tuple.__getitem__(self, slice(len(self._fields)))


class _Frozen:
    """Base of the values whose fields are slots, read in the vacancy scan's
    inner loop, where a slot read is about half the cost of a property.

    __init__ runs the checks and sets each slot once, past __setattr__;
    assigning or deleting a field afterwards raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Params(Record):
    """The parameter tuple (k, l1, l2, l3, M, N).

    k is the level, l1/l2/l3 the highest-weight labels subject to
    0 <= l1, l2 <= k and 0 <= l3 <= min(l1, l2), and M/N the degree
    cutoffs.  Illegal labels are rejected at construction.
    """

    __slots__ = ()
    _fields = ("k", "l1", "l2", "l3", "M", "N")

    def __new__(cls, k: int, l1: int, l2: int, l3: int, M: int, N: int) -> "Params":
        if k < 1:
            raise ValueError(f"level k must be >= 1, got {k}")
        if not (0 <= l1 <= k and 0 <= l2 <= k):
            raise ValueError(f"labels l1={l1}, l2={l2} must lie in [0, {k}]")
        if not (0 <= l3 <= min(l1, l2)):
            raise ValueError(f"label l3={l3} must lie in [0, min(l1, l2)={min(l1, l2)}]")
        if M < 0 or N < 0:
            raise ValueError(f"cutoffs M={M}, N={N} must be >= 0")
        return tuple.__new__(cls, (k, l1, l2, l3, M, N))


class KVector(_Frozen):
    """The vacancy numbers P or Q of one pair of partitions: entries[alpha-1]
    bounds the riggings of the rows of length alpha, for alpha = 1..k."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        _set_entries(self, entries)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"KVector(entries={self.entries!r})"

    def __reduce__(self):
        return KVector, (self.entries,)

    def is_nonneg(self) -> bool:
        return min(self.entries, default=0) >= 0


# vacancy_P builds a KVector for every pair it scans; setting the slot
# through its descriptor costs about a third less than object.__setattr__.
_set_entries = KVector.entries.__set__


class Partition(_Frozen):
    """A level-k restricted partition stored as row-length multiplicities.

    mult[alpha-1] is the number of rows of length alpha, for alpha = 1..k.
    Storing multiplicities rather than row lists makes the level
    restriction structural and matches how every formula is written.
    """

    __slots__ = ("k", "mult")

    def __init__(self, k: int, mult: tuple[int, ...]) -> None:
        if k < 1:
            raise InvariantError("k must be >= 1")
        if len(mult) != k:
            raise InvariantError(f"need {k} multiplicities, got {len(mult)}")
        if any(m < 0 for m in mult):
            raise InvariantError("multiplicities must be >= 0")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "mult", mult)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.k == other.k and self.mult == other.mult

    def __hash__(self) -> int:
        return hash((self.k, self.mult))

    def __repr__(self) -> str:
        return f"Partition(k={self.k!r}, mult={self.mult!r})"

    def __reduce__(self):
        return Partition, (self.k, self.mult)

    @classmethod
    def from_rows(cls, k: int, rows) -> "Partition":
        mult = [0] * k
        for part in rows:
            if not 1 <= part <= k:
                raise InvariantError(f"row length {part} outside 1..{k}")
            mult[part - 1] += 1
        return cls(k, tuple(mult))

    def rows(self) -> tuple[int, ...]:
        """Row lengths in weakly decreasing order."""
        out = []
        for alpha in range(self.k, 0, -1):
            out.extend([alpha] * self.mult[alpha - 1])
        return tuple(out)


class Rigging(Record):
    """One weakly decreasing list of non-negative integers per row length.

    The row lengths (lengths) and the sum of all entries (total()) are
    computed once, at construction, and stored after the rows; they are
    functions of the rows, so equality and hashing are still on the rows.
    """

    __slots__ = ()
    _fields = ("rows",)
    lengths = property(itemgetter(1))

    def __new__(cls, rows: tuple[tuple[int, ...], ...]) -> "Rigging":
        # islice, not row[1:]: a slice per row left enum's peak RSS about
        # 1 MB higher (allocator layout; tracemalloc's peak was unchanged).
        for row in rows:
            if len(row) > 1 and any(map(lt, row, islice(row, 1, None))):
                raise InvariantError(f"rigging row {row} is not weakly decreasing")
            if row and row[-1] < 0:
                raise InvariantError("rigging entries must be >= 0")
        return tuple.__new__(cls, (rows, tuple(map(len, rows)), sum(map(sum, rows))))

    def total(self) -> int:
        return self[2]

    def flat(self) -> tuple[int, ...]:
        out = []
        for row in self.rows:
            out.extend(row)
        return tuple(out)


class RiggedPair(Record):
    """A pair of rigged partitions (mu, r; nu, s) at a common level."""

    __slots__ = ()
    _fields = ("mu", "r", "nu", "s")

    def __new__(cls, mu: Partition, r: Rigging, nu: Partition, s: Rigging) -> "RiggedPair":
        if mu.k != nu.k:
            raise InvariantError("mu and nu must share a level")
        if r.lengths != mu.mult:
            raise InvariantError("r row counts do not match mu multiplicities")
        if s.lengths != nu.mult:
            raise InvariantError("s row counts do not match nu multiplicities")
        return tuple.__new__(cls, (mu, r, nu, s))

    @property
    def k(self) -> int:
        return self.mu.k


def pair_to_obj(x: RiggedPair) -> dict:
    """JSON object for one rigged pair: multiplicities and rigging rows.

    The values are the element's own immutable tuples, not copies; JSON
    writes a tuple as a list.  Elements of one piece share these tuples
    (see riggedsets._riggings), which cli._json_text renders once each.
    """
    return {"mu": x.mu.mult, "r": x.r.rows, "nu": x.nu.mult, "s": x.s.rows}


def pair_from_obj(k: int, obj: dict) -> RiggedPair:
    """Inverse of pair_to_obj; a "degree" field, if present, is ignored."""
    return RiggedPair(
        Partition(k, tuple(obj["mu"])),
        Rigging(tuple(tuple(row) for row in obj["r"])),
        Partition(k, tuple(obj["nu"])),
        Rigging(tuple(tuple(row) for row in obj["s"])),
    )


def params_to_obj(p: Params) -> dict:
    return {"k": p.k, "l1": p.l1, "l2": p.l2, "l3": p.l3, "M": p.M, "N": p.N}


def params_from_obj(obj: dict) -> Params:
    return Params(obj["k"], obj["l1"], obj["l2"], obj["l3"], obj["M"], obj["N"])


def weight(p: Partition) -> int:
    """Total number of boxes, sum over alpha of alpha * m_alpha."""
    return sum(alpha * m for alpha, m in enumerate(p.mult, start=1))


def tau(alpha: int, beta: int, p: Params) -> int:
    """Lower bound on r[alpha] + s[beta]: min(a,b) - (a-l1)+ - (b-l2)+ - l3."""
    return (
        min(alpha, beta)
        - pos_part(alpha - p.l1)
        - pos_part(beta - p.l2)
        - p.l3
        + TAU_SKEW.get()
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


def vacancy_P(mu: Partition, nu: Partition, M: int, l: int) -> KVector:
    """Upper bounds P on the riggings of mu, depending on both partitions.

    P_alpha = alpha*M - (alpha-l)+ + sum_beta min(alpha, beta) (nu_beta - 2 mu_beta).

    That is A(nu)_alpha (min_sums) added to the cached part that depends
    on mu, M and l alone; a scan over the partitions nu for a fixed mu
    reuses that part for every nu.
    """
    if mu.k != nu.k:
        raise InvariantError("mu and nu must share a level")
    return KVector(tuple(map(add, _vacancy_mu_part(mu.mult, M, l), min_sums(nu.mult))))


def vacancy_Q(mu: Partition, nu: Partition, N: int, l: int) -> KVector:
    """Upper bounds Q on the riggings of nu: vacancy_P with the roles swapped."""
    return vacancy_P(nu, mu, N, l)


def boundary_ok(p: Params, mu: Partition, nu: Partition) -> bool:
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
