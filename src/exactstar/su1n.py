"""Pseudo-unitary symmetry of the cone product.

Matrices U with U* eta U = eta and det U = 1 act on the level-gamma basis
slice by an exact linear pullback; infinitesimal generators act by the
first-order part of the same expansion, computed with nilpotent dual
numbers so no limits or floats enter.  Quadratic momentum elements
represent the Lie algebra inside the algebra itself.

All arithmetic is exact over Gaussian rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import DomainError, Element, from_pairs, multiply
from .cone import ConeModel, eval_upstairs, make_triple, y_minus_one
from .scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    MultiIndex,
    factorial,
    multi_indices_up_to_degree,
    rational_sqrt,
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


def identity_matrix(size: int) -> tuple:
    return tuple(
        tuple(GR_ONE if a == b else GR_ZERO for b in range(size))
        for a in range(size)
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


def matrix_to_json(A) -> list:
    return [[v.to_json() for v in row] for row in as_matrix(A)]


def matrix_from_json(data) -> tuple:
    return as_matrix(
        [[GaussianRational.from_json(v) for v in row] for row in data]
    )


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


def is_lie_element(xi) -> bool:
    return not lie_element_violations(xi)


# ---------------------------------------------------------------------------
# pullback on a level slice

# The level-gamma basis function indexed by (I, J) carries the monomial
# (w^0)^(gamma-|I|) w^I conj((w^0)^(gamma-|J|) w^J).  Substituting w -> U w
# and re-expanding expresses the pullback as an exact matrix in the same
# slice; only the combinatorial prefactors of the basis normalisation enter
# beyond the multinomial expansion itself.


def _expand_linear_power(rows, counts, one):
    """Product over a of (row_a . x)^counts[a], as a monomial dict.

    Generic in the scalar ring: entries need *, +, is_zero.  Used both for
    Gaussian rationals and for dual numbers.
    """
    size = len(rows)
    poly = {MultiIndex.zero(size): one}
    for a, c in enumerate(counts):
        row = rows[a]
        for _ in range(c):
            nxt: dict = {}
            for mono, coeff in poly.items():
                for b in range(size):
                    entry = row[b]
                    if entry.is_zero():
                        continue
                    key = mono + MultiIndex.unit(size, b)
                    val = coeff * entry
                    acc = nxt.get(key)
                    nxt[key] = val if acc is None else acc + val
            poly = nxt
    return poly


def _slice_norms(gamma: int, pairs) -> dict:
    """Basis normalisation weight I!(gamma-|I|)!J!(gamma-|J|)! per pair."""
    out = {}
    for I, J in pairs:
        out[(I, J)] = Fraction(
            I.factorial()
            * factorial(gamma - I.degree())
            * J.factorial()
            * factorial(gamma - J.degree())
        )
    return out


def _slice_action(rows: tuple, gamma: int, one) -> dict:
    """Pullback along w -> rows . w on the level-gamma slice, by source.

    Generic in the scalar ring like _expand_linear_power (entries also scale
    by a Fraction).  Maps each source pair (I, J) to the tuple of its nonzero
    ((K, L), entry) images."""
    n = len(rows) - 1
    indices = list(multi_indices_up_to_degree(n, gamma))
    hols = {}
    for I in indices:
        counts = (gamma - I.degree(),) + tuple(I)
        hols[I] = [
            (MultiIndex(mono[1:]), c)
            for mono, c in _expand_linear_power(rows, counts, one).items()
        ]
    norms = _slice_norms(gamma, [(I, J) for I in indices for J in indices])
    out = {}
    for (I, J), src_norm in norms.items():
        images = []
        for K, cK in hols[I]:
            for L, cL in hols[J]:
                val = cK * cL.conjugate() * (norms[(K, L)] / src_norm)
                if not val.is_zero():
                    images.append(((K, L), val))
        out[(I, J)] = tuple(images)
    return out


@lru_cache(maxsize=None)
def _pullback_cached(U: tuple, gamma: int) -> dict:
    return _slice_action(U, gamma, GR_ONE)


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


def compose_pullbacks(first: dict, second: dict) -> dict:
    """Matrix of applying `first` then `second` (both on one slice)."""
    by_src: dict = {}
    for (src, tgt), val in second.items():
        by_src.setdefault(src, []).append((tgt, val))
    out: dict = {}
    for (src, mid), v1 in first.items():
        for tgt, v2 in by_src.get(mid, ()):
            key = (src, tgt)
            acc = out.get(key)
            val = v1 * v2
            out[key] = val if acc is None else acc + val
    return {k: v for k, v in out.items() if not v.is_zero()}


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
    pairs = []
    for (P, Q, alpha), coeff in a.terms.items():
        if len(P) != n:
            raise DomainError(
                f"element lives on a cone with {len(P)} disk directions, "
                f"the matrix acts on {n}"
            )
        for (K, L), val in slices(M, alpha).get((P, Q), ()):
            pairs.append((make_triple(K, L, alpha), coeff * val))
    return from_pairs(pairs)


def apply_pullback(U, a: Element) -> Element:
    """Pull back a cone element along w -> U w, level by level."""
    return _apply_slices(_pullback_cached, as_matrix(U), a)


@lru_cache(maxsize=None)
def _cone_model(n: int, hbar: Fraction) -> ConeModel:
    return ConeModel(n, hbar)


def check_automorphism(U, a: Element, b: Element, hbar) -> dict:
    """Does the pullback intertwine the cone product on this pair?

    Returns holds/witness; the witness is the exact difference element.
    """
    hbar = Fraction(hbar)
    n = len(as_matrix(U)) - 1
    model = _cone_model(n, hbar)
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


class _Dual:
    """a + b t with t^2 = 0 over Gaussian rationals; just enough ring ops
    (and scaling by a rational) for the slice action."""

    __slots__ = ("a", "b")

    def __init__(self, a: GaussianRational, b: GaussianRational):
        self.a = a
        self.b = b

    def __add__(self, other):
        return _Dual(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        if not isinstance(other, _Dual):
            return _Dual(self.a * other, self.b * other)
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def conjugate(self):
        return _Dual(self.a.conjugate(), self.b.conjugate())

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()


@lru_cache(maxsize=None)
def _infinitesimal_cached(xi: tuple, gamma: int) -> dict:
    size = len(xi)
    rows = tuple(
        tuple(_Dual(GR_ONE if a == b else GR_ZERO, xi[a][b]) for b in range(size))
        for a in range(size)
    )
    out = {}
    for src, images in _slice_action(rows, gamma, _Dual(GR_ONE, GR_ZERO)).items():
        if {tgt: v.a for tgt, v in images if not v.a.is_zero()} != {src: GR_ONE}:
            raise DomainError("zeroth-order pullback is not the identity")
        out[src] = tuple((tgt, v.b) for tgt, v in images if not v.b.is_zero())
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
    model = _cone_model(n, hbar)
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
    model = _cone_model(n, hbar)
    j_xi = momentum_element(xi, hbar)
    lhs = multiply(model, j_xi, a) - multiply(model, a, j_xi)
    rhs = apply_infinitesimal(xi, a).scale(
        GaussianRational.of(0, MOMENTUM_SIGN * hbar)
    )
    diff = lhs - rhs
    return {"holds": diff.is_zero(), "witness": diff}


# ---------------------------------------------------------------------------
# rescaling between deformation parameters


def _default_scale_points(n: int) -> list[tuple]:
    pts = [(1,) + (0,) * n]
    pts.append((1,) + (Fraction(1, 2),) + (0,) * (n - 1))
    pts.append((2,) + (Fraction(1, 3),) * n)
    return pts


def phi_rescale(a: Element, hbar, hbar_prime, t_sqrt=None, points=None) -> dict:
    """Compare evaluation at parameter hbar' with evaluation at hbar after
    scaling the argument by sqrt(hbar / hbar').

    The identification only exists over the rationals when the scale ratio
    is a perfect square; otherwise the check reports "skipped" rather than
    approximating.  Structure constants do not depend on the parameter, so
    products are preserved automatically.
    """
    hbar, hbar_prime = Fraction(hbar), Fraction(hbar_prime)
    if hbar == 0 or hbar_prime == 0:
        raise DomainError("parameters must be nonzero")
    ratio = hbar / hbar_prime
    if t_sqrt is None:
        t_sqrt = rational_sqrt(ratio)
        if t_sqrt is None:
            return {
                "status": "skipped",
                "reason": f"scale ratio {ratio} is not a rational square",
            }
    else:
        t_sqrt = Fraction(t_sqrt)
        if t_sqrt * t_sqrt != ratio:
            raise DomainError("t_sqrt^2 must equal hbar / hbar'")
    if a.is_zero():
        return {"status": "ok", "holds": True, "points_checked": 0,
                "scale_sqrt": str(t_sqrt)}
    n = len(next(iter(a.terms))[0])
    if points is None:
        points = _default_scale_points(n)
    holds = True
    for w in points:
        scaled = tuple(GaussianRational.coerce(c) * t_sqrt for c in w)
        lhs = eval_upstairs(a, w, hbar_prime)
        rhs = eval_upstairs(a, scaled, hbar)
        if lhs != rhs:
            holds = False
            break
    return {
        "status": "ok",
        "holds": holds,
        "points_checked": len(points),
        "scale_sqrt": str(t_sqrt),
    }
