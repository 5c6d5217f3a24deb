"""Pseudo-unitary symmetry of the cone product.

Matrices U with U* eta U = eta and det U = 1 act on the level-gamma basis
slice by an exact linear pullback; infinitesimal generators act by the
first-order part of the same expansion, computed with nilpotent dual
numbers so no limits or floats enter.  Quadratic momentum elements
represent the Lie algebra inside the algebra itself.

All arithmetic is exact over Gaussian rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from .algebra import DomainError, Element, from_pairs, multiply, settled_element
from .cone import ConeModel, make_triple, y_minus_one
from .scalars import (
    CACHE_ENTRIES,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    MultiIndex,
    _multi_index,
    accumulate,
    factorial,
    gaussian_parts,
    multi_indices_up_to_degree,
)

# Sign relating commutators against momentum elements to the infinitesimal
# pullback: [J_xi, a] = MOMENTUM_SIGN * i*hbar * (D_xi a).  Fixed once by
# direct computation and pinned by a golden test.
MOMENTUM_SIGN = -1


# ---------------------------------------------------------------------------
# matrices over Gaussian rationals


def as_matrix(rows) -> tuple:
    """Coerce a nested sequence into a square tuple-of-tuples matrix."""
    out = tuple(tuple(GaussianRational.coerce(v) for v in row) for row in rows)
    size = len(out)
    if size == 0 or any(len(row) != size for row in out):
        raise DomainError("matrix must be square and nonempty")
    return out


def eta_matrix(n: int) -> tuple:
    """Signature matrix diag(-1, 1, ..., 1) of size n+1."""
    return tuple(
        tuple(
            GaussianRational.of(-1 if a == 0 else 1) if a == b else GR_ZERO
            for b in range(n + 1)
        )
        for a in range(n + 1)
    )


def mat_mul(A, B) -> tuple:
    size = len(A)
    return tuple(
        tuple(
            sum((A[a][c] * B[c][b] for c in range(size)), GR_ZERO)
            for b in range(size)
        )
        for a in range(size)
    )


def mat_adjoint(A) -> tuple:
    size = len(A)
    return tuple(
        tuple(A[b][a].conjugate() for b in range(size)) for a in range(size)
    )


def mat_sub(A, B) -> tuple:
    size = len(A)
    return tuple(
        tuple(A[a][b] - B[a][b] for b in range(size)) for a in range(size)
    )


def mat_trace(A) -> GaussianRational:
    return sum((A[a][a] for a in range(len(A))), GR_ZERO)


def mat_det(A) -> GaussianRational:
    """Determinant by minor expansion; matrices here are tiny."""
    size = len(A)
    if size == 1:
        return A[0][0]
    total = GR_ZERO
    for b in range(size):
        if A[0][b].is_zero():
            continue
        minor = tuple(
            tuple(A[a][c] for c in range(size) if c != b)
            for a in range(1, size)
        )
        term = A[0][b] * mat_det(minor)
        total = total + (term if b % 2 == 0 else -term)
    return total


def lie_bracket(xi, zeta) -> tuple:
    xi, zeta = as_matrix(xi), as_matrix(zeta)
    return mat_sub(mat_mul(xi, zeta), mat_mul(zeta, xi))


# ---------------------------------------------------------------------------
# exact membership checks


def group_element_violations(U) -> list[str]:
    """List of exact identities the matrix fails to satisfy; [] means a
    valid symmetry.  Each entry quotes the offending entry so callers can
    report actionable errors."""
    U = as_matrix(U)
    n = len(U) - 1
    eta = eta_matrix(n)
    out = []
    gram = mat_mul(mat_adjoint(U), mat_mul(eta, U))
    for a in range(n + 1):
        for b in range(n + 1):
            diff = gram[a][b] - eta[a][b]
            if not diff.is_zero():
                out.append(
                    f"U*.eta.U differs from eta at ({a},{b}): "
                    f"off by {diff.to_json()}"
                )
    det = mat_det(U)
    if det != GR_ONE:
        out.append(f"det U = {det.to_json()}, expected 1")
    return out


def is_pseudo_unitary(U) -> bool:
    return not group_element_violations(U)


def lie_element_violations(xi) -> list[str]:
    """Exact identities a generator must satisfy: xi* eta + eta xi = 0 and
    trace zero."""
    xi = as_matrix(xi)
    n = len(xi) - 1
    eta = eta_matrix(n)
    out = []
    anti = mat_mul(mat_adjoint(xi), eta)
    sym = mat_mul(eta, xi)
    for a in range(n + 1):
        for b in range(n + 1):
            v = anti[a][b] + sym[a][b]
            if not v.is_zero():
                out.append(
                    f"xi*.eta + eta.xi nonzero at ({a},{b}): {v.to_json()}"
                )
    tr = mat_trace(xi)
    if not tr.is_zero():
        out.append(f"trace xi = {tr.to_json()}, expected 0")
    return out


# ---------------------------------------------------------------------------
# pullback on a level slice

# The level-gamma basis function indexed by (I, J) carries the monomial
# (w^0)^(gamma-|I|) w^I conj((w^0)^(gamma-|J|) w^J).  Substituting w -> U w
# and re-expanding expresses the pullback as an exact matrix in the same
# slice; only the combinatorial prefactors of the basis normalisation enter
# beyond the multinomial expansion itself.


def _expand_linear_power(rows, counts, mul):
    """Product over a of (row_a . x)^counts[a], as {exponent tuple: coefficient}.

    Generic in the scalar ring: entries are integer tuples (re, im, ...) that
    mul multiplies and that add componentwise.  Used both for Gaussian
    integers and for dual Gaussian integers.
    """
    size = len(rows)
    poly = {(0,) * size: (1,) + (0,) * (len(rows[0][0]) - 1)}
    for row, c in zip(rows, counts):
        entries = [(b, entry) for b, entry in enumerate(row) if any(entry)]
        for _ in range(c):
            nxt: dict = {}
            for mono, coeff in poly.items():
                for b, entry in entries:
                    key = mono[:b] + (mono[b] + 1,) + mono[b + 1 :]
                    val = mul(coeff, entry)
                    acc = nxt.get(key)
                    nxt[key] = val if acc is None else tuple(map(add, acc, val))
            poly = nxt
    return poly


def _conjugate(parts: tuple) -> tuple:
    """Conjugate of an integer tuple (re, im, re, im, ...): t stays real."""
    return tuple(-x if k % 2 else x for k, x in enumerate(parts))


def _gaussians(parts: tuple, den: int) -> tuple:
    """The Gaussian rationals (parts[0] + i parts[1]) / den, ...; each
    component normalised once."""
    return tuple(
        GaussianRational(Fraction(parts[k], den), Fraction(parts[k + 1], den))
        for k in range(0, len(parts), 2)
    )


def _slice_action(rows: tuple, den: int, gamma: int, mul) -> dict:
    """Pullback along w -> (rows / den) . w on the level-gamma slice, by source.

    Generic in the ring like _expand_linear_power.  With the rows scaled by
    den, every monomial coefficient cK is a ring integer over den^gamma, so
    the entry cK conj(cL) K!(g-|K|)! L!(g-|L|)! / I!(g-|I|)! J!(g-|J|)! is an
    integer over den^(2 gamma) I!(g-|I|)! J!(g-|J|)!.  Maps each source pair
    (I, J) to the tuple of its nonzero ((K, L), _gaussians(entry)) images."""
    n = len(rows) - 1
    indices = list(multi_indices_up_to_degree(n, gamma))
    weight = {I: I.factorial() * factorial(gamma - I.degree()) for I in indices}
    hols, antis = {}, {}
    for I in indices:
        counts = (gamma - I.degree(),) + tuple(I)
        hol = []
        for mono, c in _expand_linear_power(rows, counts, mul).items():
            K = _multi_index(mono[1:])
            hol.append((K, tuple(x * weight[K] for x in c)))
        hols[I] = hol
        antis[I] = [(L, _conjugate(c)) for L, c in hol]
    scale = den ** (2 * gamma)
    out = {}
    for I in indices:
        for J in indices:
            src_den = scale * weight[I] * weight[J]
            images = []
            for K, cK in hols[I]:
                for L, cL in antis[J]:
                    val = mul(cK, cL)
                    if any(val):
                        images.append(((K, L), _gaussians(val, src_den)))
            out[(I, J)] = tuple(images)
    return out


def _gauss_mul(x: tuple, y: tuple) -> tuple:
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _common_denominator(M: tuple) -> int:
    return math.lcm(*(x.denominator for row in M for v in row for x in (v.re, v.im)))


def _scaled(v: GaussianRational, den: int) -> tuple:
    """den * v as an integer pair (re, im); den is a multiple of v's denominators."""
    return (v.re.numerator * (den // v.re.denominator), v.im.numerator * (den // v.im.denominator))


@lru_cache(maxsize=CACHE_ENTRIES)
def _pullback_cached(U: tuple, gamma: int) -> dict:
    den = _common_denominator(U)
    rows = tuple(tuple(_scaled(v, den) for v in row) for row in U)
    return {
        src: tuple((tgt, val) for tgt, (val,) in images)
        for src, images in _slice_action(rows, den, gamma, _gauss_mul).items()
    }


def _flat(slices: dict) -> dict:
    return {(src, tgt): val for src, images in slices.items() for tgt, val in images}


def pullback_matrix(U, gamma: int) -> dict:
    """Exact matrix of the substitution w -> U w on the level-gamma slice.

    Keys are ((I, J), (K, L)); the image of basis pair (I, J) is the sum of
    entry * basis(K, L).  Memoised per (U, gamma).
    """
    if gamma < 0:
        raise DomainError("level must be nonnegative")
    return _flat(_pullback_cached(as_matrix(U), gamma))


def pullback_entry_bound_holds(U, gamma: int) -> bool:
    """Every pullback entry obeys |entry| <= (n+1)^(2 gamma) ||U||^(2 gamma),
    checked exactly on squared moduli."""
    U = as_matrix(U)
    n = len(U) - 1
    norm_sq = max(
        (v.abs_squared() for row in U for v in row), default=Fraction(0)
    )
    bound_sq = Fraction(n + 1) ** (4 * gamma) * norm_sq ** (2 * gamma)
    return all(
        v.abs_squared() <= bound_sq
        for images in _pullback_cached(U, gamma).values()
        for _, v in images
    )


def _apply_slices(slices, M: tuple, a: Element) -> Element:
    """Apply the per-level action slices(M, level) to a cone element."""
    n = len(M) - 1
    by_level: dict = {}  # one slices() lookup, which hashes M, per level
    acc: dict = {}
    for (P, Q, alpha), coeff in a.terms.items():
        if len(P) != n:
            raise DomainError(
                f"element lives on a cone with {len(P)} disk directions, "
                f"the matrix acts on {n}"
            )
        level = by_level.get(alpha)
        if level is None:
            level = by_level[alpha] = slices(M, alpha)
        x, y, d = gaussian_parts(coeff)
        for (K, L), val in level.get((P, Q), ()):
            u, v, e = gaussian_parts(val)
            accumulate(acc, (K, L, alpha), (x * u - y * v, x * v + y * u, d * e), 1)
    return settled_element(acc)


def apply_pullback(U, a: Element) -> Element:
    """Pull back a cone element along w -> U w, level by level."""
    return _apply_slices(_pullback_cached, as_matrix(U), a)


def check_automorphism(U, a: Element, b: Element, hbar) -> dict:
    """Does the pullback intertwine the cone product on this pair?

    Returns holds/witness; the witness is the exact difference element.
    """
    hbar = Fraction(hbar)
    n = len(as_matrix(U)) - 1
    model = ConeModel(n, hbar)
    lhs = apply_pullback(U, multiply(model, a, b))
    rhs = multiply(model, apply_pullback(U, a), apply_pullback(U, b))
    diff = lhs - rhs
    return {"holds": diff.is_zero(), "witness": diff}


def check_y_invariance(U, hbar) -> bool:
    """The radial level-1 element is fixed by every symmetry pullback."""
    n = len(as_matrix(U)) - 1
    y_el = y_minus_one(n, Fraction(hbar))
    return (apply_pullback(U, y_el) - y_el).is_zero()


# ---------------------------------------------------------------------------
# infinitesimal action via dual numbers


def _dual_mul(x: tuple, y: tuple) -> tuple:
    """(p + t q)(r + t s) = p r + t (p s + q r) with t^2 = 0, for Gaussian
    integers p, q, r, s laid out as (re p, im p, re q, im q)."""
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e - b * f,
        a * f + b * e,
        a * g - b * h + c * e - d * f,
        a * h + b * g + c * f + d * e,
    )


@lru_cache(maxsize=CACHE_ENTRIES)
def _infinitesimal_cached(xi: tuple, gamma: int) -> dict:
    size = len(xi)
    den = _common_denominator(xi)
    rows = tuple(
        tuple((den if a == b else 0, 0) + _scaled(xi[a][b], den) for b in range(size))
        for a in range(size)
    )
    out = {}
    for src, images in _slice_action(rows, den, gamma, _dual_mul).items():
        if {tgt: v0 for tgt, (v0, _) in images if not v0.is_zero()} != {src: GR_ONE}:
            raise DomainError("zeroth-order pullback is not the identity")
        out[src] = tuple((tgt, v1) for tgt, (_, v1) in images if not v1.is_zero())
    return out


def infinitesimal_pullback(xi, gamma: int) -> dict:
    """First-order part of the pullback along 1 + t xi, exactly.

    The t^2 = 0 arithmetic makes this the derivative of the group action
    without any limiting process.
    """
    if gamma < 0:
        raise DomainError("level must be nonnegative")
    return _flat(_infinitesimal_cached(as_matrix(xi), gamma))


def apply_infinitesimal(xi, a: Element) -> Element:
    return _apply_slices(_infinitesimal_cached, as_matrix(xi), a)


# ---------------------------------------------------------------------------
# momentum elements


def momentum_element(xi, hbar) -> Element:
    """Quadratic element generating the flow of xi under the commutator.

    Built from the level-1 basis via the correspondence between degree-(1,1)
    monomials and level-1 pairs.
    """
    xi = as_matrix(xi)
    n = len(xi) - 1
    hbar = Fraction(hbar)
    pairs = []
    for k in range(n + 1):
        eta_k = -1 if k == 0 else 1
        for j in range(n + 1):
            entry = xi[k][j]
            if entry.is_zero():
                continue
            coeff = GR_I * entry * (eta_k * hbar)
            P = MultiIndex.zero(n) if j == 0 else MultiIndex.unit(n, j - 1)
            Q = MultiIndex.zero(n) if k == 0 else MultiIndex.unit(n, k - 1)
            pairs.append((make_triple(P, Q, 1), coeff))
    return from_pairs(pairs)


def check_momentum_relations(xi, zeta, hbar) -> dict:
    """Commutators of momentum elements represent the matrix bracket:
    [J_xi, J_zeta] = i hbar J_[xi, zeta], exactly."""
    hbar = Fraction(hbar)
    xi, zeta = as_matrix(xi), as_matrix(zeta)
    n = len(xi) - 1
    model = ConeModel(n, hbar)
    j_xi = momentum_element(xi, hbar)
    j_zeta = momentum_element(zeta, hbar)
    lhs = multiply(model, j_xi, j_zeta) - multiply(model, j_zeta, j_xi)
    rhs = momentum_element(lie_bracket(xi, zeta), hbar).scale(
        GaussianRational.of(0, hbar)
    )
    diff = lhs - rhs
    return {"holds": diff.is_zero(), "witness": diff}


def check_derivation_identity(xi, a: Element, hbar) -> dict:
    """Commutator against J_xi equals the infinitesimal pullback, up to the
    pinned global factor MOMENTUM_SIGN * i * hbar."""
    hbar = Fraction(hbar)
    xi = as_matrix(xi)
    n = len(xi) - 1
    model = ConeModel(n, hbar)
    j_xi = momentum_element(xi, hbar)
    lhs = multiply(model, j_xi, a) - multiply(model, a, j_xi)
    rhs = apply_infinitesimal(xi, a).scale(
        GaussianRational.of(0, MOMENTUM_SIGN * hbar)
    )
    diff = lhs - rhs
    return {"holds": diff.is_zero(), "witness": diff}
