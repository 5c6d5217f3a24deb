"""Independent reference computations the tests compare against.

Most of it is deliberately written without touching the library's own
product or recursion code paths: sympy differentiation for the flat star
product, sympy polynomial expansion for the symmetry pullback, and the
decimal module for high-precision constants.  Two second routes of the cone
and disk identities live here too, each built from binomials and factorials
alone: _tilde_coefficient derives one closed-form structure constant from
its target (the reference that cone._tilde_pairs and cone_rowsum unroll),
and disk_coefficient_extraction reads one disk coefficient of an upstairs
element without the reduction rows of disk_reduce (disk_product_by_extraction
reads a whole disk product that way).  Those rows have a
second construction as well: reduction_rows_reference builds the rows of
cone._reduce_cached from MultiIndex factorials, one Fraction per entry,
where the library keeps integral constants as ints.  Cone and disk
evaluation keep their own formulas here (eval_upstairs_reference and
eval_disk_reference, term by term in Gaussian rationals); the library runs
both through the one table kernel cone.eval_pair.  The exceptions are the
two-step disk product, which keeps the route that disk_multiply fuses (a
settled upstairs product on the cone, then the reduction of that element),
and the vacuum expectation read off the whole disk product, the route that
positivity_check restricts to one column.
"""

from __future__ import annotations

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import sympy

from exactstar.algebra import Element
from exactstar.cone import Triple, allowed_hbar
from exactstar.scalars import (
    GaussianRational,
    MultiIndex,
    binomial,
    factorial,
    multi_indices_of_degree,
    multi_indices_up_to_degree,
    multi_range,
)


def pochhammer(x: Fraction | int, r: int) -> Fraction:
    """Raising factorial (x)_r = x (x+1) ... (x+r-1); empty product is 1."""
    if r < 0:
        raise ValueError("pochhammer needs r >= 0")
    out = Fraction(1)
    for j in range(r):
        out *= x + j
    return out


def multi_binomial(upper: MultiIndex, lower: MultiIndex) -> int:
    """Product of componentwise binomial coefficients; 0 unless lower <= upper."""
    out = 1
    for a, b in zip(upper, lower, strict=True):
        out *= binomial(a, b)
        if out == 0:
            return 0
    return out


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def random_gr(rng: random.Random, span: int = 4) -> GaussianRational:
    return GaussianRational.of(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def random_disk_element(rng, n: int, level: int, nterms: int = 4) -> Element:
    idx = list(multi_indices_up_to_degree(n, level))
    terms = {}
    for _ in range(nterms):
        terms[(rng.choice(idx), rng.choice(idx))] = random_gr(rng)
    return Element(terms)


def random_cone_element(rng, n: int, level: int, nterms: int = 4) -> Element:
    terms = {}
    for _ in range(nterms):
        alpha = rng.randint(0, level)
        idx = list(multi_indices_up_to_degree(n, alpha))
        terms[(rng.choice(idx), rng.choice(idx), alpha)] = random_gr(rng)
    return Element(terms)


def random_vector(rng, n: int, level: int, nterms: int = 3):
    from exactstar.gns import GnsVector

    idx = list(multi_indices_up_to_degree(n, level))
    return GnsVector({rng.choice(idx): random_gr(rng) for _ in range(nterms)})


# ---------------------------------------------------------------------------
# cone constants one target at a time, disk coefficients by extraction


def _tilde_coefficient(t1: Triple, t2: Triple, target: Triple) -> Fraction:
    """One closed-form constant, derived from the target alone: the
    per-target reference that _tilde_pairs and cone_rowsum unroll."""
    (P, Q, alpha), (R, S, beta) = t1, t2
    I, J, gamma = target
    Kp = (P + R).minus(I)
    if Kp is None or (Q + S).minus(J) != Kp:
        return Fraction(0)
    # the only (k, K) cell of the e-basis double sum that can hit the target
    # is (kp, Kp); it lies in the summation range or the constant vanishes
    kp = alpha + beta - gamma - Kp.degree()
    if not (0 <= kp <= min(alpha - P.degree(), beta - S.degree()) and Kp <= P.meet(S)):
        return Fraction(0)
    num = (
        multi_binomial(I, R)
        * multi_binomial(J, Q)
        * binomial(gamma - I.degree(), beta - R.degree())
        * binomial(gamma - J.degree(), alpha - Q.degree())
    )
    return Fraction(-num if kp % 2 else num, factorial(kp) * Kp.factorial())


def disk_coefficient_extraction(a: Element, R, S, hbar) -> GaussianRational:
    """One disk coefficient of the class of an upstairs element.

    Second route past the reduction expansion: a double sum over the support
    and the shared lowering multiindex, with a Pochhammer-ratio weight."""
    hbar = allowed_hbar(hbar)
    R, S = MultiIndex(R), MultiIndex(S)
    nu = 1 / (2 * hbar)
    M = max(R.degree(), S.degree())
    mdeg = min(R.degree(), S.degree())
    out = GaussianRational.of(0)
    for (P0, Q0, alpha), coeff in a.terms.items():
        I = R.minus(P0)
        if I is None or S.minus(Q0) != I or alpha < M:
            continue
        weight = Fraction(
            I.factorial() * factorial(M - mdeg),
            factorial(alpha - mdeg + I.degree()) * factorial(alpha - M),
        ) * (pochhammer(nu, alpha) / pochhammer(nu, M))
        out = out + coeff * (multi_binomial(R, I) * multi_binomial(S, I) * weight)
    return out


def reduction_rows_reference(t: Triple, hbar: Fraction) -> tuple:
    """The reduction rows of f_t as cone._reduce_cached gives them, built
    with Fraction arithmetic, MultiIndex.factorial and one Fraction per
    entry: ((I + K, J + K), constant) for every K with
    |K| <= gamma - max(|I|, |J|), in increasing |K|."""
    I, J, gamma = t
    n = len(I)
    # nu = u/v with v > 0, so a negative hbar leaves its sign on u
    nu = 1 / (2 * hbar)
    u, v = nu.numerator, nu.denominator
    mx = max(I.degree(), J.degree())
    top = gamma - mx
    # the denominator of _pref(I, J, gamma)
    lower = (I.factorial() * factorial(gamma - I.degree())
             * J.factorial() * factorial(gamma - J.degree()))
    # 1/_pref(I+K, J+K, mx+k) = (I+K)! (J+K)! times this K-free factor
    lift = factorial(mx - I.degree()) * factorial(mx - J.degree())
    # (nu)_gamma / (nu)_(mx+k) = (nu+mx+k)_(top-k) = rising[k] / v^(top-k),
    # grown downward in k by one factor u + (mx+k) v per level
    rising = [1] * (top + 1)
    for k in range(top - 1, -1, -1):
        rising[k] = rising[k + 1] * (u + (mx + k) * v)
    out = []
    for k in range(top + 1):
        num = rising[k] * binomial(top, k) * factorial(k) * lift
        if not num:
            continue
        den = lower * v ** (top - k)
        for K in multi_indices_of_degree(n, k):
            # (I+K)! (J+K)! / K! as one integer: each (i+k)!/k! is exact
            w = 1
            for i, j, kk in zip(I, J, K):
                w *= factorial(i + kk) // factorial(kk) * factorial(j + kk)
            out.append(((I + K, J + K), Fraction(num * w, den)))
    return tuple(out)


# ---------------------------------------------------------------------------
# cone and disk evaluation, term by term


def _pref(P: MultiIndex, Q: MultiIndex, alpha: int) -> Fraction:
    return Fraction(1, P.factorial() * factorial(alpha - P.degree())
                    * Q.factorial() * factorial(alpha - Q.degree()))


def _monomial(coords, I: MultiIndex) -> GaussianRational:
    out = GaussianRational.of(1)
    for c, e in zip(coords, I, strict=True):
        out = out * c**e
    return out


def eval_upstairs_reference(a: Element, w, hbar) -> GaussianRational:
    """Cone evaluation by its y-based formula, one Gaussian rational term at
    a time: f_{P,Q,alpha}(w) = w0^(alpha-|P|) w^P conj(w0)^(alpha-|Q|)
    conj(w)^Q (y/2hbar)_alpha _pref(P, Q, alpha) / y^alpha with
    y = |w0|^2 - |w|^2.  cone.eval_pair reads a table of powers per
    coordinate and the sesquilinear yhat(w, w) instead."""
    w = tuple(GaussianRational.coerce(c) for c in w)
    w0, ws = w[0], w[1:]
    wsc = tuple(c.conjugate() for c in ws)
    y = w0.abs_squared() - sum((c.abs_squared() for c in ws), Fraction(0))
    two_h = 2 * Fraction(hbar)
    out = GaussianRational.of(0)
    for (P, Q, alpha), coeff in a.terms.items():
        val = (w0 ** (alpha - P.degree()) * _monomial(ws, P)
               * w0.conjugate() ** (alpha - Q.degree()) * _monomial(wsc, Q))
        out = out + coeff * val * (pochhammer(y / two_h, alpha) * _pref(P, Q, alpha) / y**alpha)
    return out


def eval_disk_reference(a: Element, v, hbar) -> GaussianRational:
    """Disk evaluation by its own formula: f_{P,Q}(v) = v^P conj(v)^Q
    (1/2hbar)_alpha _pref(P, Q, alpha) / (1 - |v|^2)^alpha at the minimal
    level alpha = max(|P|, |Q|), without the cone lift."""
    v = tuple(GaussianRational.coerce(c) for c in v)
    vc = tuple(c.conjugate() for c in v)
    s = 1 - sum((c.abs_squared() for c in v), Fraction(0))
    nu = 1 / (2 * Fraction(hbar))
    out = GaussianRational.of(0)
    for (P, Q), coeff in a.terms.items():
        alpha = max(P.degree(), Q.degree())
        val = _monomial(v, P) * _monomial(vc, Q)
        out = out + coeff * val * (pochhammer(nu, alpha) * _pref(P, Q, alpha) / s**alpha)
    return out


# ---------------------------------------------------------------------------
# the disk product in two steps


def _lifted_cone_product(a: Element, b: Element, hbar) -> tuple[int, Element] | None:
    """(n, multiply(ConeModel(n, hbar), disk_lift(a), disk_lift(b))) for
    disk operands of dimension n; None when both are zero."""
    from exactstar.algebra import multiply
    from exactstar.cone import ConeModel, disk_lift

    src = a if a.terms else b
    if not src.terms:
        return None
    n = len(next(iter(src.terms))[0])
    return n, multiply(ConeModel(n, hbar), disk_lift(a), disk_lift(b))


def disk_multiply_two_step(a: Element, b: Element, hbar) -> Element:
    """disk_reduce(multiply(ConeModel(n, hbar), disk_lift(a), disk_lift(b)), hbar),
    with the zero product of two zero operands."""
    from exactstar.cone import disk_reduce

    lifted = _lifted_cone_product(a, b, hbar)
    return Element.zero() if lifted is None else disk_reduce(lifted[1], hbar)


def disk_product_by_extraction(a: Element, b: Element, hbar) -> Element:
    """The disk product read coefficient by coefficient: the cone product of
    the minimal-level lifts, then disk_coefficient_extraction at every
    (R, S) up to the top level of that product (a reduction row of a triple
    at level gamma has rank at most gamma).  It reads no reduction rows."""
    lifted = _lifted_cone_product(a, b, hbar)
    if lifted is None:
        return Element.zero()
    n, up = lifted
    top = max((alpha for _, _, alpha in up.terms), default=0)
    ranked = list(multi_indices_up_to_degree(n, top))
    return Element({(R, S): disk_coefficient_extraction(up, R, S, hbar)
                    for R in ranked for S in ranked})


def gns_project(a: Element):
    """Component of a disk element visible to the vacuum state: the part
    of the basis expansion with empty first index, as a GnsVector.  The
    projection that the product routes of exactstar.gns compute without
    the rest of the product."""
    from exactstar.gns import GnsVector

    return GnsVector({q: c for (p, q), c in a.terms.items() if p.degree() == 0})


def vacuum_expectation_full_product(a: Element, hbar) -> GaussianRational:
    """The (0, 0) coefficient of the whole product disk_multiply(a*, a, hbar):
    the vacuum expectation of a* a that positivity_check reads off the
    holomorphic column alone."""
    from exactstar.cone import disk_involution, disk_multiply

    if not a.terms:
        return GaussianRational.of(0)
    zero = MultiIndex.zero(len(next(iter(a.terms))[0]))
    return disk_multiply(disk_involution(a), a, hbar).coeff((zero, zero))


# ---------------------------------------------------------------------------
# flat Wick star product by differentiation (sympy)


def wick_star_sympy(n: int, hbar: Fraction, I, J, K, L):
    """Star product of the monomials z^I zbar^J and z^K zbar^L, as a map
    (zexp, zbarexp) -> Fraction, computed with sympy derivatives only."""
    zs = sympy.symbols(f"z0:{n}")
    ws = sympy.symbols(f"w0:{n}")  # stands in for conj(z)
    a = sympy.prod([zs[i] ** I[i] for i in range(n)]) * sympy.prod(
        [ws[i] ** J[i] for i in range(n)]
    )
    b = sympy.prod([zs[i] ** K[i] for i in range(n)]) * sympy.prod(
        [ws[i] ** L[i] for i in range(n)]
    )
    total = sympy.Integer(0)
    h2 = sympy.Rational(2 * hbar)
    for N in multi_range(MultiIndex(I).meet(MultiIndex(L))):
        da, db = a, b
        for i in range(n):
            da = sympy.diff(da, zs[i], N[i])
            db = sympy.diff(db, ws[i], N[i])
        weight = h2 ** sum(N) / sympy.Integer(
            sympy.prod([sympy.factorial(e) for e in N])
        )
        total += weight * da * db
    total = sympy.expand(total)
    out = {}
    poly = sympy.Poly(total, *zs, *ws) if total != 0 else None
    if poly is None:
        return out
    for monom, coeff in poly.terms():
        ze, we = MultiIndex(monom[:n]), MultiIndex(monom[n:])
        out[(ze, we)] = Fraction(sympy.Rational(coeff))
    return out


# ---------------------------------------------------------------------------
# symmetry pullback by expansion (sympy)


def pullback_sympy(U_rows, gamma: int, I, J):
    """Coefficients of the substituted level-gamma monomial, by sympy.

    U_rows: matrix entries as (re, im) Fraction pairs.  Returns a map
    (K, L) -> GaussianRational matching the library's normalization."""
    size = len(U_rows)
    n = size - 1
    zs = sympy.symbols(f"z0:{size}")
    cs = sympy.symbols(f"c0:{size}")  # conjugate copies
    i_unit = sympy.I

    def entry(a, b, conj=False):
        re, im = U_rows[a][b]
        val = sympy.Rational(re) + i_unit * sympy.Rational(im)
        return sympy.conjugate(val) if conj else val

    rows = [sum(entry(a, b) * zs[b] for b in range(size)) for a in range(size)]
    crows = [
        sum(entry(a, b, conj=True) * cs[b] for b in range(size))
        for a in range(size)
    ]
    I, J = MultiIndex(I), MultiIndex(J)
    expr = rows[0] ** (gamma - I.degree()) * crows[0] ** (gamma - J.degree())
    for i in range(n):
        expr *= rows[i + 1] ** I[i] * crows[i + 1] ** J[i]
    expr = sympy.expand(expr)
    poly = sympy.Poly(expr, *zs, *cs)
    out = {}
    src_norm = (
        I.factorial() * factorial(gamma - I.degree())
        * J.factorial() * factorial(gamma - J.degree())
    )
    for monom, coeff in poly.terms():
        K = MultiIndex(monom[1:size])
        L = MultiIndex(monom[size + 1:])
        tgt_norm = (
            K.factorial() * factorial(gamma - K.degree())
            * L.factorial() * factorial(gamma - L.degree())
        )
        val = sympy.simplify(coeff * sympy.Rational(tgt_norm, src_norm))
        re = Fraction(sympy.Rational(sympy.re(val)))
        im = Fraction(sympy.Rational(sympy.im(val)))
        out[(K, L)] = GaussianRational.of(re, im)
    return {k: v for k, v in out.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# constants


def laurent_term_bound(k1: Fraction, L: int, lk: int, s: int) -> Fraction:
    """Bound on the two depth-2 terms of laurent:factorial at |n| = s, for an
    element of rank L and squared coefficient sum k1 at a target of rank lk:
    h1(n) <= k1 (s+1)^L and the weight is at most lk!/(s! (s-lk)!).  The
    Fraction expression that models._factorial_tail clears to integers."""
    return 2 * k1 * k1 * Fraction(s + 1) ** (2 * L) * Fraction(
        factorial(lk), factorial(s) * factorial(s - lk))


def laurent_ratio_bound(L: int, lk: int, s: int) -> Fraction:
    """Bound on the ratio of consecutive depth-2 terms past |n| = s; the
    Fraction expression behind models._ratio_at_least_half."""
    return Fraction(s + 2, s + 1) ** (2 * L) / Fraction((s + 1) * (s + 1 - lk))


def e_minus_one_decimal(places: int = 50) -> tuple[Fraction, Fraction]:
    """Enclosure of e - 1 good to the requested number of digits."""
    getcontext().prec = places + 10
    val = Decimal(1).exp() - 1
    eps = Decimal(10) ** (-places)
    return Fraction(val - eps), Fraction(val + eps)
