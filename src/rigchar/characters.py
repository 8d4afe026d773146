"""Exact sparse Laurent polynomials in (z1, z2, q) and the character formulas.

Gaussian binomials, the quadratic degree of a partition pair, brute-force
characters of the enumerated sets, the closed fermionic sum and its
comparison with the brute-force one, the character recursion check, and
the specialised two-variable character.

Coefficients are Python integers, hence arbitrary precision; there is no
floating point anywhere in this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .admissible import recursion_terms
from .core import Params, Report, RiggedPair, min_sums, params_to_obj, pos_part
from .riggedsets import enumerate_total, feasible_pairs, rigging_sums, weight_bound


def _power(name: str, e: int) -> str:
    """The text of the factor name^e, e nonzero."""
    return name if e == 1 else f"{name}^{e}"


class LaurentPoly:
    """Sparse Laurent polynomial in (z1, z2, q) over the integers.

    Terms map exponent triples to nonzero coefficients.  Instances are
    immutable by convention; all operations return new values.  The
    program multiplies only by mapped; __mul__ is the tests' reference.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {exps: c for exps, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0, 0): 1})

    @classmethod
    def monomial(cls, coeff: int, e1: int = 0, e2: int = 0, eq: int = 0) -> "LaurentPoly":
        return cls({(e1, e2, eq): coeff})

    def terms(self):
        """Items in canonical (exponent-lexicographic) order."""
        return sorted(self._terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + LaurentPoly({exps: -c for exps, c in other._terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict = {}
        for (a1, a2, a3), ca in self._terms.items():
            for (b1, b2, b3), cb in other._terms.items():
                key = (a1 + b1, a2 + b2, a3 + b3)
                out[key] = out.get(key, 0) + ca * cb
        return LaurentPoly(out)

    def mapped(self, z1=(1, 0, 0), z2=(0, 1, 0), q=(0, 0, 1), times=(0, 0, 0)) -> "LaurentPoly":
        """The image under z1 -> Z1, z2 -> Z2, q -> Q, times T, each monomial
        given by its exponent triple: c*z1^a*z2^b*q^e goes to c*T*Z1^a*Z2^b*Q^e.

        Terms that land on one triple add up; the defaults are the identity.
        """
        (x1, x2, x3), (y1, y2, y3), (w1, w2, w3), (t1, t2, t3) = z1, z2, q, times
        out: dict = {}
        for (a, b, e), coeff in self._terms.items():
            key = (
                a * x1 + b * y1 + e * w1 + t1,
                a * x2 + b * y2 + e * w2 + t2,
                a * x3 + b * y3 + e * w3 + t3,
            )
            out[key] = out.get(key, 0) + coeff
        return LaurentPoly(out)

    def to_text(self, names: tuple[str, str, str] = ("z1", "z2", "q"), items=None) -> str:
        """Canonical text form, the golden-file format.  items, if given,
        must be self.terms(), which is then not sorted again.

        The factors of z1^a*z2^b are built once per (a, b), and that of
        q^d once per d, since many terms share them.
        """
        if not self._terms:
            return "0"
        n1, n2, nq = names
        zs: dict = {}
        qs: dict = {}
        bits = []
        for (a, b, d), c in self.terms() if items is None else items:
            z = zs.get((a, b))
            if z is None:
                z = zs[a, b] = [_power(n, e) for n, e in ((n1, a), (n2, b)) if e]
            q = qs.get(d)
            if q is None:
                q = qs[d] = [_power(nq, d)] if d else []
            var = "*".join(z + q)
            if not var:
                bits.append(str(c))
            elif c == 1:
                bits.append(var)
            elif c == -1:
                bits.append("-" + var)
            else:
                bits.append(f"{c}*{var}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"


_GAUSS_CACHE: dict[tuple[int, int], LaurentPoly] = {}


def gauss_binomial(m: int, n: int) -> LaurentPoly:
    """The Gaussian polynomial [m over n] in q; zero whenever m < n.

    Computed by the q-Pascal recurrence with memoisation; the product
    formula lives in gauss_binomial_product as an independent route.
    """
    if n < 0:
        raise ValueError("lower index must be >= 0")
    if m < n:
        return LaurentPoly.zero()
    if n == 0:
        return LaurentPoly.one()
    key = (m, n)
    hit = _GAUSS_CACHE.get(key)
    if hit is None:
        hit = gauss_binomial(m - 1, n - 1) + gauss_binomial(m - 1, n).mapped(times=(0, 0, n))
        _GAUSS_CACHE[key] = hit
    return hit


def _q_product(lo: int, hi: int) -> dict[int, int]:
    """prod_{i=lo..hi} (1 - q^i) as a plain q-exponent dict."""
    poly = {0: 1}
    for i in range(lo, hi + 1):
        out: dict[int, int] = {}
        for e, c in poly.items():
            out[e] = out.get(e, 0) + c
            out[e + i] = out.get(e + i, 0) - c
        poly = {e: c for e, c in out.items() if c}
    return poly


def _q_divexact(num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """Exact division of q-polynomials; a nonzero remainder is a hard error."""
    num = dict(num)
    quot: dict[int, int] = {}
    dlead = max(den)
    dcoef = den[dlead]
    while num:
        nlead = max(num)
        if nlead < dlead:
            raise ArithmeticError("nonzero remainder in Gaussian-polynomial division")
        c, rem = divmod(num[nlead], dcoef)
        if rem:
            raise ArithmeticError("nonzero remainder in Gaussian-polynomial division")
        e = nlead - dlead
        quot[e] = c
        for de, dc in den.items():
            ne = de + e
            new = num.get(ne, 0) - dc * c
            if new:
                num[ne] = new
            else:
                num.pop(ne, None)
    return quot


def gauss_binomial_product(m: int, n: int) -> LaurentPoly:
    """[m over n] by the product formula and exact polynomial division."""
    if n < 0:
        raise ValueError("lower index must be >= 0")
    if m < n:
        return LaurentPoly.zero()
    num = _q_product(1, m)
    den: dict[int, int] = {}
    for e1, c1 in _q_product(1, n).items():
        for e2, c2 in _q_product(1, m - n).items():
            den[e1 + e2] = den.get(e1 + e2, 0) + c1 * c2
    den = {e: c for e, c in den.items() if c}
    quot = _q_divexact(num, den)
    return LaurentPoly({(0, 0, e): c for e, c in quot.items()})


def degree_D(mu: tuple[int, ...], nu: tuple[int, ...], l1: int, l2: int) -> int:
    """The quadratic base degree attached to a partition pair.

    sum_a (a-l1)+ mu_a + (a-l2)+ nu_a
    + sum_{a,b} min(a, b) (mu_a mu_b + nu_a nu_b - mu_a nu_b),
    with the double sum read off the O(k) vectors min_sums(mu), min_sums(nu).
    """
    if len(mu) != len(nu):
        raise ValueError("mu and nu must share a level")
    total = 0
    for alpha, (x, y, ax, ay) in enumerate(
        zip(mu, nu, min_sums(mu), min_sums(nu)), start=1
    ):
        total += pos_part(alpha - l1) * x + pos_part(alpha - l2) * y
        total += x * (ax - ay) + y * ay
    return total


def rig_degree(x: RiggedPair, l1: int, l2: int) -> int:
    """Degree of a rigged pair: the base degree plus all rigging entries."""
    return degree_D(x.mu, x.nu, l1, l2) + sum(map(sum, x.r)) + sum(map(sum, x.s))


def piece_degrees(elements, l1: int, l2: int):
    """rig_degree of each element, in order.

    degree_D is computed once per run of elements that share their mu and
    nu objects, the entry sum of r once per run that shares r and that of s
    once per s object of a (mu, nu) run, as an enumerated piece shares them.
    Sharing is detected by identity, so unshared elements cost no more.
    """
    mu = nu = r = None
    for x in elements:
        if x.mu is not mu or x.nu is not nu:
            mu, nu, r = x.mu, x.nu, None
            base = degree_D(mu, nu, l1, l2)
            s_sums = {}  # id(s) -> (s, its entry sum): holding s keeps its id
        if x.r is not r:
            r = x.r
            base_r = base + sum(map(sum, r))
        s_sum = s_sums.get(id(x.s))
        if s_sum is None:
            s_sum = s_sums[id(x.s)] = (x.s, sum(map(sum, x.s)))
        yield base_r + s_sum[1]


def char_R(p: Params) -> LaurentPoly:
    """Brute-force character: z1^m z2^n q^degree summed over every element,
    as count * z1^m z2^n q^(degree_D(mu, nu) + e) per count of rigging_sums."""
    acc: dict = {}
    for (m, n), sums in enumerate_total(p, rigging_sums).items():
        for mu, nu, counts in sums:
            D = degree_D(mu, nu, p.l1, p.l2)
            for e, count in counts:
                key = (m, n, D + e)
                acc[key] = acc.get(key, 0) + count
    return LaurentPoly(acc)


@lru_cache(maxsize=4096)
def _packed_gauss(a: int, b: int, width: int) -> int:
    """[a over b] evaluated at q = 2**width: coefficient c_e in slot e."""
    packed = 0
    for (_, _, e), c in gauss_binomial(a, b).terms():
        packed += c << (width * e)
    return packed


def _add_cell(acc: dict, m: int, n: int, cell: list) -> None:
    """Add one (m, n) cell of the closed form to the term dict acc.

    cell holds (D, binomials) per feasible pair, binomials being the (a, b)
    of each Gaussian factor [a over b].  A carry between slots would make
    the unpacked coefficients miss the cell's value at q = 1, so that sum
    is checked.
    """
    total = 0
    for _, binoms in cell:
        value = 1
        for a, b in binoms:
            value *= comb(a, b)
        total += value
    width = total.bit_length()
    packed = 0
    for D, binoms in cell:
        term = 1 << (width * D)
        for a, b in binoms:
            term *= _packed_gauss(a, b, width)
        packed += term
    mask = (1 << width) - 1
    check = 0
    e = 0
    while packed:
        c = packed & mask
        if c:
            acc[(m, n, e)] = c
            check += c
        packed >>= width
        e += 1
    if check != total:
        raise ArithmeticError("packed cell coefficients do not sum to its q=1 value")


def fermionic_char(k: int, l1: int, l2: int, M: int, N: int) -> LaurentPoly:
    """The closed-form character as a positive sum of Gaussian products.

    Sums z1^|mu| z2^|nu| q^D times the product of one Gaussian binomial
    per row length over all partition pairs with non-negative vacancy
    vectors, inside the same weight box the enumeration uses.  Negative
    labels give the zero polynomial by convention.

    All terms of one (m, n) cell share their z1/z2 exponents, so each cell
    is one q-polynomial, computed by Kronecker substitution: q becomes
    2**B and every polynomial a Python integer with one B-bit slot per
    coefficient.  B is the bit length of the cell's value at q = 1, a sum
    of products of ordinary binomials.  That is wide enough: every factor
    has non-negative coefficients and is at least 1 at q = 1, so each
    coefficient of each partial product, and of the cell sum, lies between
    0 and that value, and no slot carries into the next.
    """
    if l1 < 0 or l2 < 0:
        return LaurentPoly.zero()
    p = Params(k, l1, l2, min(l1, l2), M, N)
    mmax, nmax = weight_bound(p)
    acc: dict = {}
    for m in range(mmax + 1):
        for n in range(nmax + 1):
            cell = []
            for mu, nu, P, Q in feasible_pairs(p, m, n):
                binoms = [(x + c, c) for x, c in zip(P, mu) if c]
                binoms += [(x + c, c) for x, c in zip(Q, nu) if c]
                cell.append((degree_D(mu, nu, l1, l2), binoms))
            if cell:
                _add_cell(acc, m, n, cell)
    return LaurentPoly(acc)


def verify_fermionic(p: Params) -> Report:
    """Exact comparison of the closed-form character with the brute-force one.

    The closed form has l3 = min(l1, l2), so p must carry that label.
    """
    if p.l3 != min(p.l1, p.l2):
        raise ValueError("the closed form is the character at l3 = min(l1, l2)")
    f = fermionic_char(p.k, p.l1, p.l2, p.M, p.N)
    b = char_R(p)
    ok = f == b
    return Report(
        ok=ok,
        check="fermionic",
        context={"k": p.k, "l1": p.l1, "l2": p.l2, "M": p.M, "N": p.N},
        detail=(
            {} if ok else {"closed_form": f.to_text(), "bruteforce": b.to_text()}
        ),
    )


def char_recursion_check(k: int, l1: int, l2: int, l3: int, M: int, N: int) -> Report:
    """Exact polynomial comparison of a character against its recursion sum.

    Both sides are computed from the brute-force character, so the check
    is independent of the closed fermionic form.
    """
    if N < 1:
        raise ValueError("the character recursion steps N down; need N >= 1")
    p = Params(k, l1, l2, l3, M, N)
    lhs = char_R(p)
    rhs = LaurentPoly.zero()
    for a, c, pp in recursion_terms(p):
        rhs = rhs + char_R(pp).mapped(z2=(0, 1, 1), times=(a, a + c, a + c))
    ok = lhs == rhs
    return Report(
        ok=ok,
        check="char-recursion",
        context={"params": params_to_obj(p)},
        detail={} if ok else {"lhs": lhs.to_text(), "rhs": rhs.to_text()},
    )


def sl2_char(k: int, l: int, M: int, N: int) -> LaurentPoly:
    """The two-variable character in (z, q), carried on the z1 axis.

    The closed character one M-step up, less its companion at labels
    (l-1, k-l-1), under z1 -> q^-1 z^2, z2 -> z^-2, times z^-l.  The
    q^-1 on z1 reflects that raising the first cutoff by one shifts every
    e-type generator down one loop degree, while f-type generators are
    untouched; the companion embeds degree-preservingly, so the
    difference carries no extra q factor.  The map sends every z2
    exponent to 0, and distinct terms may land on one triple.
    """
    if not 0 <= l <= k:
        raise ValueError(f"weight l={l} outside 0..{k}")
    if M < 0 or N < 0:
        raise ValueError("cutoffs must be >= 0")
    first = fermionic_char(k, l, k - l, M + 1, N)
    second = fermionic_char(k, l - 1, k - l - 1, M + 1, N)
    poly = first - second
    return poly.mapped(z1=(2, 0, -1), z2=(-2, 0, 0), times=(-l, 0, 0))
