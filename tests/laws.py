"""Predicates for the paper's claims that more than one test module asks.

Each one checks a law of the library's constructions, exactly or by
certified enclosures, and reports the verdict; the assertions stay in the
tests.  The laws: the branch-word maximum of the seminorm recursion, the
sub-factorial growth classes with the l1-vs-sup comparison constant, the
level totals of the cone row sums, the reproducing property of coherent
vectors, and the hbar rescaling of evaluation.  The coordinate functions of
the flat Wick model, in which its commutation law is stated, live here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from exactstar.algebra import DEFAULT_TOL, DomainError, Element, Index
from exactstar.cone import Triple, cone_rowsum, eval_disk, eval_upstairs
from exactstar.gns import GnsVector, _require_positive, coherent_vector, gns_inner, iota
from exactstar.scalars import (
    ExtendedNonNeg,
    GaussianRational,
    MultiIndex,
    factorial,
    multi_indices_up_to_degree,
    rational_sqrt,
    sqrt_bracket,
)
from exactstar.seminorms import TAG_GEOMETRIC, Bracket, HTable, SeminormResult, present


# ---------------------------------------------------------------------------
# seminorms: the largest branch word, growth classes


def seminorm_max_ell(model, a: Element, m: int, gamma: Index, tol: Fraction = DEFAULT_TOL) -> SeminormResult:
    """Maximum of h over all branch words at level m, root taken once."""
    table = HTable(model, a, tol)
    best: SeminormResult | None = None
    for ell in range(1 << m):
        cur = present(m, ell, gamma, table.h(m, ell, gamma), tol)
        if best is None or _bracket_greater(cur.h_bracket, best.h_bracket):
            best = cur
    assert best is not None
    return best


def _bracket_greater(x: Bracket, y: Bracket) -> bool:
    if x.is_divergent() != y.is_divergent():
        return x.is_divergent()
    if x.lo != y.lo:
        return x.lo > y.lo
    if x.hi.infinite != y.hi.infinite:
        return x.hi.infinite
    if not x.hi.infinite:
        return x.hi.value > y.hi.value
    return False


def comparison_constant(epsilon: Fraction, depth: int, tol: Fraction = DEFAULT_TOL) -> Bracket:
    """Bracket for sum_{n>=1} 1/(n!)^epsilon, truncated at n = depth.

    Tail: for n > N, (n!)^epsilon >= ((N+1)!)^epsilon * ((N+2)^epsilon)^(n-N-1),
    a geometric comparison."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    two_eps = 2 * epsilon
    if two_eps.denominator != 1:
        raise DomainError("epsilon must be a half-integer for exact comparisons")
    def term_bracket(n: int) -> tuple[Fraction, Fraction]:
        sq = Fraction(1, factorial(n) ** two_eps.numerator)  # (1/(n!)^eps)^2
        if epsilon.denominator == 1:
            q = Fraction(1, factorial(n) ** epsilon.numerator)
            return q, q
        return sqrt_bracket(sq, tol * tol)

    lo = Fraction(0)
    hi = Fraction(0)
    for n in range(1, depth + 1):
        tl, th = term_bracket(n)
        lo += tl
        hi += th
    _, t_next_hi = term_bracket(depth + 1)
    ratio_lo, ratio_hi = (
        (Fraction(1, depth + 2), Fraction(1, depth + 2))
        if epsilon.denominator == 1
        else sqrt_bracket(Fraction(1, depth + 2), tol * tol)
    )
    tail = t_next_hi / (1 - ratio_hi)
    return Bracket(lo, ExtendedNonNeg.of(hi + tail), depth, TAG_GEOMETRIC)


def growth_classify(
    seq: dict,
    rank: Callable[[Index], int],
    eps_list: Iterable[Fraction],
    bound: dict | None = None,
    comparison_depth: int = 20,
    tol: Fraction = DEFAULT_TOL,
) -> dict:
    """Sub-factorial growth report for a coefficient sample.

    For each epsilon: the exact sample supremum of |a_N|/(rank(N)!)^epsilon
    (compared in squared form, so epsilon may be a half-integer), plus a
    certification verdict when a closed-form bound on the full sequence is
    supplied:

      bound = {"kind": "exponential", "base": B}   |a_k| <= B^k for all k
      bound = {"kind": "factorial"}                |a_k| = k!

    Exponential bounds are certified sub-factorial for every epsilon > 0 by
    locating the peak of B^k/(k!)^epsilon; factorial sequences are rejected
    for epsilon < 1 (the ratio (k!)^(1-epsilon) is unbounded) and bounded by
    1 for epsilon >= 1."""
    entries = []
    for epsilon in eps_list:
        epsilon = Fraction(epsilon)
        if epsilon <= 0:
            raise DomainError("epsilon must be positive")
        two_eps = 2 * epsilon
        if two_eps.denominator != 1:
            raise DomainError("epsilon must be a half-integer for exact comparisons")
        e2 = two_eps.numerator

        best_sq = Fraction(0)
        best_idx = None
        for idx, coeff in seq.items():
            coeff = GaussianRational.coerce(coeff)
            r = rank(idx)
            val_sq = coeff.abs_squared() / Fraction(factorial(r) ** e2)
            if val_sq > best_sq:
                best_sq, best_idx = val_sq, idx
        slo, shi = sqrt_bracket(best_sq, tol) if best_sq != 0 else (Fraction(0), Fraction(0))
        entry = {
            "epsilon": epsilon,
            "sample_sup": Bracket.enclosure(slo, shi),
            "sample_argmax": best_idx,
            "bound_kind": None if bound is None else bound.get("kind"),
            "subfactorial": None,
            "certified_sup": None,
        }

        if bound is not None and bound.get("kind") == "exponential":
            base = Fraction(bound["base"])
            if base < 0:
                raise DomainError("exponential base must be nonnegative")
            # terms B^k/(k!)^eps decrease once (k+1)^eps >= B, i.e. (k+1)^(2 eps) >= B^2
            k_star = 0
            while Fraction(k_star + 1) ** e2 < base**2:
                k_star += 1
            peak_sq = max(
                (base ** (2 * k)) / Fraction(factorial(k) ** e2) for k in range(k_star + 1)
            )
            plo, phi = sqrt_bracket(peak_sq, tol)
            entry["subfactorial"] = True
            entry["certified_sup"] = Bracket.enclosure(plo, phi)
            entry["peak_rank"] = k_star
        elif bound is not None and bound.get("kind") == "factorial":
            if epsilon < 1:
                # (k!)^(1-eps) exceeds any bound; witness the rank where its
                # square passes 4 (exponent 2 - 2 eps is a positive integer)
                exp_int = 2 - e2
                k = 0
                while factorial(k) ** exp_int <= 4:
                    k += 1
                entry["subfactorial"] = False
                entry["witness_rank"] = k
            else:
                entry["subfactorial"] = True
                entry["certified_sup"] = Bracket.exact(1)
        entries.append(entry)

    comparisons = {
        str(Fraction(e)): comparison_constant(Fraction(e), comparison_depth, tol) for e in eps_list
    }
    return {"entries": entries, "comparison_constants": comparisons}


# ---------------------------------------------------------------------------
# flat Wick: the coordinate functions, [z_k, zbar_l] = 2 hbar delta_kl


def wick_z(model, i: int) -> Element:
    """The coordinate function z_i as an element."""
    e = MultiIndex.unit(model.n, i)
    z = MultiIndex.zero(model.n)
    return Element({(e, z): GaussianRational.coerce(model.two_h)})


def wick_zbar(model, i: int) -> Element:
    e = MultiIndex.unit(model.n, i)
    z = MultiIndex.zero(model.n)
    return Element({(z, e): GaussianRational.coerce(model.two_h)})


# ---------------------------------------------------------------------------
# cone row sums


def cone_rowsum_gamma_total(t: Triple, gamma: int) -> Fraction:
    """Row sums of t against every target at one level, added up."""
    n = len(t[0])
    total = Fraction(0)
    for I in multi_indices_up_to_degree(n, gamma):
        for J in multi_indices_up_to_degree(n, gamma):
            total += cone_rowsum(t, (I, J, gamma))
    return total


# ---------------------------------------------------------------------------
# vacuum representation: reproducing coherent vectors


def check_reproducing(w, psi: GnsVector, hbar) -> dict:
    """Pairing with the coherent vector evaluates the embedding at w."""
    hbar = _require_positive(hbar)
    if psi.is_zero():
        return {"holds": True, "cap": 0}
    cap = max(q.degree() for q in psi.terms)
    ew = coherent_vector(w, cap)
    lhs = gns_inner(ew, psi, hbar)
    n = len(next(iter(psi.terms)))
    rhs = eval_disk(iota(psi, n), w, hbar)
    return {"holds": lhs == rhs, "cap": cap, "value": lhs}


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
