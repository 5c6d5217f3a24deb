"""Vacuum representation of the disk algebra, in exact arithmetic.

Evaluation at the origin is a positive functional; its representation
space is spanned by the holomorphic column of the basis, with an inner
product whose weights are rational for rational parameters.  Everything
here stays inside the Gaussian rationals: inner products, matrix elements
of the representation, and truncated coherent vectors.

Two independent implementations of the action are kept side by side: one
multiplies in the algebra and projects, the other applies a closed-form
coefficient rule.  Tests require exact agreement.  The product route, and
the vacuum expectation in positivity_check, multiply through the cone pair
tables and reduction rows, restricted to the holomorphic column
(cone.disk_rows over the one box 0); neither reaches a closed form of this
module.  The closed form is one integer kernel, _action: it reads and
returns (re, im, den) parts, as accumulate() keeps them.  Each route
settles its result once, into a GnsVector built without re-validation.
check_representation multiplies a . b in exactly the rows that the
closed-form action reads, at every n (the boxes below psi's indices), where
a minimal-level upstairs triple skips the reduction table; it feeds those
rows, and pi(b) psi, to the kernel unsettled and compares the two sides as
integer parts, settling neither.  The kernel check multiplies only in the
column."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import le

from .algebra import DimensionError, DomainError, Element, settled_element, term_entries
from .cone import disk_involution, disk_rows, element_dimension, one_length
from .scalars import (
    GR_ZERO,
    GaussianRational,
    MultiIndex,
    accumulate,
    factorial,
    factorials_through,
    gaussian_parts,
    rising_numerator,
    settle,
    _multi_index,
)


class GnsVector:
    """Finite vector in the vacuum representation space.

    Coefficients are indexed by the multi-index of the holomorphic basis
    column; zero coefficients are dropped on construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        for q, c in (terms or {}).items():
            c = GaussianRational.coerce(c)
            if not c.is_zero():
                clean[MultiIndex(q)] = c
        self.terms = clean

    @staticmethod
    def zero() -> "GnsVector":
        return GnsVector()

    @staticmethod
    def basis(q, coeff=1) -> "GnsVector":
        return GnsVector({MultiIndex(q): GaussianRational.coerce(coeff)})

    def coeff(self, q) -> GaussianRational:
        return self.terms.get(MultiIndex(q), GR_ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GnsVector") -> "GnsVector":
        out = dict(self.terms)
        for q, c in other.terms.items():
            out[q] = out.get(q, GR_ZERO) + c
        return GnsVector(out)

    def __sub__(self, other: "GnsVector") -> "GnsVector":
        out = dict(self.terms)
        for q, c in other.terms.items():
            out[q] = out.get(q, GR_ZERO) - c
        return GnsVector(out)

    def scale(self, z) -> "GnsVector":
        z = GaussianRational.coerce(z)
        return GnsVector({q: c * z for q, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, GnsVector) and self.terms == other.terms

    def __repr__(self) -> str:
        body = ", ".join(
            f"{tuple(q)}: {c.to_json()}" for q, c in sorted(self.terms.items())
        )
        return f"GnsVector({{{body}}})"


def gns_vector_to_json(psi: GnsVector) -> dict:
    items = []
    for q in sorted(psi.terms):
        c = psi.terms[q]
        entry = {"index": list(q)}
        entry.update(c.to_json())
        items.append(entry)
    return {"terms": items}


def gns_vector_from_json(data: dict) -> GnsVector:
    if not isinstance(data, dict):
        raise ValueError("GNS vector JSON must be an object")
    out = {}
    for entry in term_entries(data.get("terms", []), "GNS vector"):
        q = MultiIndex(entry["index"])
        c = GaussianRational.from_json({"re": entry.get("re", "0"), "im": entry.get("im", "0")})
        # a repeated index sums, as in algebra.element_from_json
        out[q] = out[q] + c if q in out else c
    if len({len(q) for q in out}) > 1:
        raise ValueError("GNS vector indices must all have one length")
    return GnsVector(out)


def iota(psi: GnsVector, n: int | None = None) -> Element:
    """Embed a vector back into the algebra along the holomorphic column;
    DimensionError when its indices, or they and n, differ in length."""
    lengths = set(map(len, psi.terms))
    if n is not None:
        lengths.add(n)
    n = one_length(lengths, "vector indices")
    if psi.is_zero():
        return Element.zero()
    zero = MultiIndex.zero(n)
    return Element({(zero, q): c for q, c in psi.terms.items()})


def _require_positive(hbar) -> Fraction:
    hbar = Fraction(hbar)
    if hbar <= 0:
        raise DomainError("representation needs hbar > 0")
    return hbar


def _check_dimension(a: Element, psi: GnsVector) -> int | None:
    """The n of every index of a and psi, None when both are zero;
    DimensionError when two lengths differ."""
    n, m = element_dimension(a, "disk"), one_length(set(map(len, psi.terms)), "vector indices")
    if n is not None and m is not None and m != n:
        raise DimensionError(f"vector indices have length {m}, the element has n = {n}")
    return m if n is None else n


def _weight_parts(q: MultiIndex, nu: Fraction) -> tuple[int, int]:
    """inner_weight(q) = (nu)_d / (d!^2 q!) as an integer (num, den) pair,
    d = |q|; with nu = u/v, (nu)_d = prod_{i<d} (u + i v) / v^d."""
    d = q.degree()
    u, v = nu.numerator, nu.denominator
    return rising_numerator(u, v, d), v**d * factorial(d) ** 2 * q.factorial()


def inner_weight(q, hbar) -> Fraction:
    """Rational weight of the coefficient at index q in the inner product.

    This is the vacuum expectation of conj(f) . f for the basis element at
    q, so the pairing below is exactly the one induced by the state at the
    origin; a test pins that consistency.
    """
    hbar = _require_positive(hbar)
    return Fraction(*_weight_parts(MultiIndex(q), 1 / (2 * hbar)))


def gns_inner(psi: GnsVector, phi: GnsVector, hbar) -> GaussianRational:
    """Sesquilinear pairing; conjugate-linear in the first slot.

    Distinct basis columns are orthogonal, so the sum runs over the shared
    support only.
    """
    hbar = _require_positive(hbar)
    nu = 1 / (2 * hbar)
    acc: dict = {}
    for q, c in psi.terms.items():
        d = phi.terms.get(q)
        if d is None:
            continue
        x, y, e = gaussian_parts(c)
        u, v, f = gaussian_parts(d)
        num, den = _weight_parts(q, nu)
        # conj(c) d over the denominator e f den, normalised only by settle()
        accumulate(acc, None, (x * u + y * v, x * v - y * u, e * f * den), num)
    return settle(acc).get(None, GR_ZERO)


def gns_norm_squared(psi: GnsVector, hbar) -> Fraction:
    val = gns_inner(psi, psi, hbar)
    return val.re


def gns_rep_via_product(a: Element, psi: GnsVector, hbar) -> GnsVector:
    """Action of a disk element on a vector, by definition: multiply in the
    algebra against the embedded vector, then project.  disk_rows over the
    one box 0 computes only the projected column of the product."""
    hbar = _require_positive(hbar)
    n = _check_dimension(a, psi)
    if a.is_zero() or psi.is_zero():
        return GnsVector.zero()
    column = disk_rows(a, iota(psi, n), hbar, [MultiIndex.zero(n)])
    return _settled_vector({q: z for (_, q), z in column.items()})


def _settled_vector(acc: dict) -> GnsVector:
    """The GnsVector of an accumulate() dict keyed by MultiIndex, zeros
    dropped; like algebra.settled_element, it neither coerces nor
    re-validates what it builds."""
    out = GnsVector.__new__(GnsVector)
    out.terms = settled_element(acc).terms
    return out


def _parts(x) -> list:
    """(index, gaussian_parts) of every term of an Element or a GnsVector."""
    return [(k, gaussian_parts(c)) for k, c in x.terms.items()]


def _action(terms, vector, hbar: Fraction) -> dict:
    """accumulate() dict of the closed-form action of the disk terms
    ((P, Q), (re, im, den)) on the vector terms (s, (re, im, den)), zero
    parts skipped on both sides.

    The term (P, Q), alpha = max(|P|, |Q|), sends s >= P to t = Q + s - P
    with weight C(t, Q) |t|! (nu + |t|)_r / (P! r! |s|! (alpha - |P|)!),
    r = alpha - |Q|.  With nu = 1/(2 hbar) = u/v, (nu + j)_r is
    prod_{j <= i < j+r} (u + i v) / v^r; every factorial is one read of
    factorials_through(max alpha + max |s|)."""
    # nu = u/v, not necessarily in lowest terms: the settled values are the same
    u, v = hbar.denominator, 2 * hbar.numerator
    rows = [(p, q, sum(p), sum(q), parts) for (p, q), parts in terms if parts[0] or parts[1]]
    vec = [(s, sum(s), parts) for s, parts in vector if parts[0] or parts[1]]
    if not rows or not vec:
        return {}
    fact = factorials_through(max(max(pd, qd) for _, _, pd, qd, _ in rows)
                              + max(sd for _, sd, _ in vec))
    vec = [(s, sd, z, w, f * fact(sd)) for s, sd, (z, w, f) in vec]
    acc: dict = {}
    for p, q, pd, qd, (x, y, e) in rows:
        alpha = max(pd, qd)
        r = alpha - qd
        lower = e * fact(r) * v**r * fact(alpha - pd)
        for pi in p:
            lower *= fact(pi)
        for s, sd, z, w, f in vec:
            # s >= P, the target Q + s - P and C(target, Q), in one pass
            target, num = [], 1
            for pi, qi, si in zip(p, q, s):
                if si < pi:
                    break
                ti = qi + si - pi
                target.append(ti)
                num *= comb(ti, qi)
            else:
                j = qd + sd - pd
                num *= fact(j)
                for i in range(j, j + r):
                    num *= u + i * v
                # c cs over the denominator, normalised only when settled
                accumulate(acc, _multi_index(target), (x * z - y * w, x * w + y * z, lower * f), num)
    return acc


def gns_rep(a: Element, psi: GnsVector, hbar) -> GnsVector:
    """Action of a disk element on a vector, by a closed coefficient rule.

    Independent of gns_rep_via_product; the two must agree exactly and a
    test enforces that.
    """
    hbar = _require_positive(hbar)
    _check_dimension(a, psi)
    return _settled_vector(_action(_parts(a), _parts(psi), hbar))


def coherent_vector(w, cap: int) -> GnsVector:
    """Truncated coherent vector at an interior point, up to degree cap.

    Pairing against any vector supported in degrees <= cap reproduces the
    evaluation of that vector's embedding at w, exactly.
    """
    from .scalars import multi_indices_up_to_degree

    ws = tuple(GaussianRational.coerce(c) for c in w)
    n = len(ws)
    norm = sum(c.abs_squared() for c in ws)
    if norm >= 1:
        raise DomainError("coherent vectors live at interior points")
    out = {}
    for q in multi_indices_up_to_degree(n, cap):
        mono = GaussianRational.of(1)
        for c, e in zip(ws, q):
            mono = mono * c**e
        d = q.degree()
        scale = Fraction(factorial(d)) / (1 - norm) ** d
        out[q] = mono * scale
    return GnsVector(out)


def positivity_check(a: Element, hbar) -> Fraction:
    """Vacuum expectation of a* a; nonnegative for every element.

    Returns the exact rational value.
    """
    hbar = _require_positive(hbar)
    n = element_dimension(a, "disk")
    if n is None:
        return Fraction(0)
    zero = MultiIndex.zero(n)
    re, im, den = disk_rows(disk_involution(a), a, hbar, [zero]).get((zero, zero), (0, 0, 1))
    if im:
        raise DomainError("vacuum expectation of a*a must be real")
    return Fraction(re, den)


def state_kernel_part(a: Element) -> Element:
    """Null directions of the vacuum form inside an element: everything
    outside the holomorphic column."""
    return Element(
        {k: c for k, c in a.terms.items() if k[0].degree() != 0}
    )


def check_kernel_absorbed(a: Element, j: Element, hbar) -> bool:
    """Left multiplication keeps the vacuum null space inside itself; this
    is what makes the action well defined on vectors."""
    hbar = _require_positive(hbar)
    if not state_kernel_part(j) == j:
        raise DomainError("j must lie in the vacuum null space")
    if a.is_zero() or j.is_zero():
        return True
    zero = MultiIndex.zero(element_dimension(j, "disk"))
    return not any(re or im for re, im, _ in disk_rows(a, j, hbar, [zero]).values())


def _maximal(indices) -> list:
    """The indices below no other one componentwise, largest degree first:
    the boxes whose union holds every index below some given one."""
    found = []
    for s in sorted(indices, key=sum, reverse=True):
        for m in found:
            if all(map(le, s, m)):
                break
        else:
            found.append(s)
    return found


def _same_parts(lhs: dict, rhs: dict) -> bool:
    """Whether two accumulate() dicts hold equal values, compared unsettled:
    re1 d2 = re2 d1 and im1 d2 = im2 d1 at every key of either, a missing
    key reading (0, 0, 1)."""
    for key in lhs.keys() | rhs.keys():
        a, b, d = lhs.get(key, (0, 0, 1))
        x, y, e = rhs.get(key, (0, 0, 1))
        if a * e != x * d or b * e != y * d:
            return False
    return True


def check_representation(a: Element, b: Element, psi: GnsVector, hbar) -> bool:
    """pi(a . b) psi = pi(a) pi(b) psi with the closed-form action.

    gns_rep reads only the terms (P, Q) of a . b with P <= s for some s in
    psi, so a . b is multiplied only in its rows P below the maximal s of
    psi (cone.disk_rows over those boxes): at every n those are exactly the
    rows read, and a minimal-level upstairs triple skips the reduction
    table.  Those rows, and pi(b) psi, stay integer parts on their way into
    the action, and the two sides are compared as integer parts, unsettled."""
    hbar = _require_positive(hbar)
    _check_dimension(a, psi)
    _check_dimension(b, psi)
    if psi.is_zero():
        return True
    vec = _parts(psi)
    lhs = _action(disk_rows(a, b, hbar, _maximal(psi.terms)).items(), vec, hbar)
    rhs = _action(_parts(a), _action(_parts(b), vec, hbar).items(), hbar)
    return _same_parts(lhs, rhs)
