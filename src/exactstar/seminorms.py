"""Recursive seminorm machinery over structure-constant models.

Core recursion, with branch word ell in [0, 2^m):

    h[0, 0, gamma](a)          = |a_gamma|
    h[m+1, 2*ell, gamma](a)    = sum_alpha h[m, ell, alpha](a)^2 * row_sum(alpha, gamma)
    h[m+1, 2*ell+1, gamma](a)  = sum_beta  h[m, ell, beta](a)^2  * col_sum(beta, gamma)

where row_sum(alpha, gamma) = sum_beta |C^gamma_{alpha,beta}| and col_sum(beta,
gamma) = sum_alpha |C^gamma_{alpha,beta}|.  The *-involution reverses products,
so col_sum is the row sum at the starred pair, row_sum(beta*, gamma*).  The
seminorm is the 2^m-th root, taken only at presentation; everything before
that stays exact (rational, sums of square roots of rationals, or certified
intervals).

Series with infinitely many contributors come back as Bracket values: a
certified interval with a recorded truncation depth and a tag saying where
the tail bound came from.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .algebra import DEFAULT_TOL, BaseModel, DomainError, Element, Index, UnresolvedError, multiply
from .scalars import ExtendedNonNeg, RootSum, factorial, rational_sqrt, sqrt_bracket

# tail_source tags, in absorption priority (highest wins when combining)
TAG_DIVERGENT = "divergent_witness"
TAG_TRUNCATED = "truncated"
TAG_MAJORANT = "model_majorant"
TAG_GEOMETRIC = "geometric_tail"
TAG_EXACT = "exact"
_TAG_RANK = {TAG_EXACT: 0, TAG_GEOMETRIC: 1, TAG_MAJORANT: 2, TAG_TRUNCATED: 3, TAG_DIVERGENT: 4}


def _join_tag(s: str, t: str) -> str:
    return s if _TAG_RANK[s] >= _TAG_RANK[t] else t


@dataclass(frozen=True)
class Bracket:
    """Certified interval [lo, hi] for a nonnegative quantity.

    lo is always a finite rational lower bound.  hi may be infinite; the tag
    records why:
      exact              lo == hi, the value itself
      geometric_tail     hi from a geometric remainder (e.g. square-root digits)
      model_majorant     hi from a model-supplied closed-form term bound
      truncated          partial sum only; no upper bound computed (hi infinite)
      divergent_witness  the series is provably infinite (hi infinite, attained)
    """

    lo: Fraction
    hi: ExtendedNonNeg
    depth: int = 0
    tail_source: str = TAG_EXACT

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError("Bracket.lo must be nonnegative")
        if not self.hi.infinite and self.hi.value < self.lo:
            raise ValueError("Bracket needs lo <= hi")
        if self.tail_source == TAG_EXACT and (self.hi.infinite or self.hi.value != self.lo):
            raise ValueError("tag 'exact' requires lo == hi")

    @staticmethod
    def exact(q: Fraction | int) -> "Bracket":
        q = Fraction(q)
        return Bracket(q, ExtendedNonNeg.of(q), 0, TAG_EXACT)

    @staticmethod
    def divergent(partial: Fraction | int = 0, depth: int = 0) -> "Bracket":
        return Bracket(Fraction(partial), ExtendedNonNeg.infinity(), depth, TAG_DIVERGENT)

    @staticmethod
    def truncated(partial: Fraction | int, depth: int) -> "Bracket":
        return Bracket(Fraction(partial), ExtendedNonNeg.infinity(), depth, TAG_TRUNCATED)

    @staticmethod
    def enclosure(lo: Fraction, hi: Fraction, depth: int = 0, tag: str = TAG_GEOMETRIC) -> "Bracket":
        if lo == hi:
            return Bracket(lo, ExtendedNonNeg.of(hi), depth, TAG_EXACT)
        return Bracket(lo, ExtendedNonNeg.of(hi), depth, tag)

    def is_exact(self) -> bool:
        return self.tail_source == TAG_EXACT

    def is_divergent(self) -> bool:
        return self.tail_source == TAG_DIVERGENT

    def finite_certified(self) -> bool:
        return not self.hi.infinite

    def is_zero(self) -> bool:
        return self.is_exact() and self.lo == 0

    def __add__(self, other: "Bracket") -> "Bracket":
        return Bracket(
            self.lo + other.lo,
            self.hi + other.hi,
            max(self.depth, other.depth),
            _join_tag(self.tail_source, other.tail_source),
        )

    def __mul__(self, other: "Bracket") -> "Bracket":
        if self.is_zero() or other.is_zero():
            return Bracket.exact(0)
        return Bracket(
            self.lo * other.lo,
            self.hi * other.hi,
            max(self.depth, other.depth),
            _join_tag(self.tail_source, other.tail_source),
        )

    def root_interval(self, m: int, tol: Fraction = DEFAULT_TOL) -> tuple[Fraction, ExtendedNonNeg]:
        """Enclosure of the 2^m-th root."""
        lo, _ = _root_bracket(self.lo, m, tol)
        if self.hi.infinite:
            return lo, ExtendedNonNeg.infinity()
        _, hi = _root_bracket(self.hi.value, m, tol)
        return lo, ExtendedNonNeg.of(hi)

    def midpoint_float(self) -> float:
        """Float of the midpoint; inf for a divergent bracket, and for a
        truncated one (hi infinite, not divergent) the lower end lo, which
        is only a lower bound of the value."""
        if self.hi.infinite:
            return math.inf if self.is_divergent() else _float_or_inf(self.lo)
        return _float_or_inf((self.lo + self.hi.value) / 2)


def _root_bracket(q: Fraction, m: int, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure of q^(1/2^m), q >= 0."""
    lo = hi = q
    for _ in range(m):
        lo = sqrt_bracket(lo, tol)[0]
        hi = sqrt_bracket(hi, tol)[1]
    return lo, hi


def rootsum_bracket(rs: RootSum, tol: Fraction = DEFAULT_TOL) -> Bracket:
    if rs.is_rational():
        q = rs.rational_value()
        if q < 0:
            raise ValueError("negative value cannot become a nonnegative Bracket")
        return Bracket.exact(q)
    lo, hi = rs.bracket(tol)
    if lo < 0:
        raise ValueError("negative value cannot become a nonnegative Bracket")
    return Bracket.enclosure(lo, hi, 0, TAG_GEOMETRIC)


def rootsum_sign(rs: RootSum) -> int:
    """Exact sign of a sum of square roots of rationals.

    Raises UnresolvedError when the enclosure still contains zero after 40
    refinements, each squaring the tolerance."""
    if rs.is_zero():
        return 0
    tol = DEFAULT_TOL
    for _ in range(40):
        lo, hi = rs.bracket(tol)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        tol = tol * tol
    raise UnresolvedError("sign of root sum did not resolve; value suspiciously close to zero")


# ---------------------------------------------------------------------------
# h values: the recursion's working scalars


class HVal:
    """Value of one h[m, ell, gamma] cell.

    kind "exact":   nonnegative Fraction q, the value itself
    kind "sqrt":    value = sqrt(sq) for a rational sq (modulus at m = 0)
    kind "root":    exact finite sum of square roots of rationals
    kind "bracket": certified interval; an infinite cell holds Bracket.divergent()

    Only the constructors root and bracket build the last two kinds: a root
    sum that is rational becomes an exact cell, and so does an exact bracket,
    so a root or bracket cell is never zero and never exactly rational.
    """

    __slots__ = ("kind", "q", "sq", "rs", "br", "sq_parts")

    def __init__(self, kind: str, q=None, sq=None, rs=None, br=None):
        self.kind = kind
        self.q = q
        self.sq = sq
        self.rs = rs
        self.br = br
        # the squared value of an exact or sqrt cell as a normalised integer
        # pair, kept for HTable.step; None for the other kinds
        if kind == "exact":
            self.sq_parts = (q.numerator * q.numerator, q.denominator * q.denominator)
        elif kind == "sqrt":
            self.sq_parts = (sq.numerator, sq.denominator)
        else:
            self.sq_parts = None

    @staticmethod
    def exact(value: Fraction | int) -> "HVal":
        q = Fraction(value)
        if q < 0:
            raise ValueError("exact h value must be >= 0")
        return HVal("exact", q=q)

    @staticmethod
    def modulus_sq(sq: Fraction) -> "HVal":
        """Value sqrt(sq); keeps the square exact."""
        if sq < 0:
            raise ValueError("squared modulus must be nonnegative")
        return HVal("sqrt", sq=sq)

    @staticmethod
    def root(rs: RootSum) -> "HVal":
        if rs.is_rational():
            return HVal.exact(rs.rational_value())
        return HVal("root", rs=rs)

    @staticmethod
    def bracket(br: Bracket) -> "HVal":
        if br.is_exact():
            return HVal.exact(br.lo)
        return HVal("bracket", br=br)

    @staticmethod
    def zero() -> "HVal":
        return HVal.exact(0)

    @staticmethod
    def infinite() -> "HVal":
        return HVal("bracket", br=Bracket.divergent())

    def is_zero(self) -> bool:
        parts = self.sq_parts
        return parts is not None and not parts[0]

    def is_infinite(self) -> bool:
        return self.kind == "bracket" and self.br.is_divergent()

    def exact_rational(self) -> Fraction | None:
        """The value as a Fraction when it is exactly one, else None."""
        if self.kind == "exact":
            return self.q
        if self.kind == "sqrt":
            return rational_sqrt(self.sq)
        return None

    def squared(self) -> "HVal":
        if self.kind == "sqrt":
            return HVal.exact(self.sq)
        if self.kind == "exact":
            return HVal("exact", q=self.q * self.q)
        if self.kind == "root":
            return HVal.root(self.rs * self.rs)
        return HVal.bracket(self.br * self.br)

    def plus(self, other: "HVal") -> "HVal":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # the bracket sum would keep the finite side's lo and depth
        if self.is_infinite() or other.is_infinite():
            return HVal.infinite()
        return _combine(operator.add, self, other)

    def _as_rootsum(self) -> RootSum:
        if self.kind == "exact":
            return RootSum.rational(self.q)
        if self.kind == "sqrt":
            return RootSum.sqrt_rational(self.sq)
        if self.kind == "root":
            return self.rs
        raise ValueError("bracket value has no exact root-sum form")

    def to_bracket(self, tol: Fraction = DEFAULT_TOL) -> Bracket:
        if self.kind == "exact":
            return Bracket.exact(self.q)
        if self.kind == "sqrt":
            r = rational_sqrt(self.sq)
            if r is not None:
                return Bracket.exact(r)
            lo, hi = sqrt_bracket(self.sq, tol)
            return Bracket.enclosure(lo, hi, 0, TAG_GEOMETRIC)
        if self.kind == "root":
            return rootsum_bracket(self.rs, tol)
        return self.br

    def to_float(self) -> float:
        if self.kind == "sqrt":
            try:
                return float(self.sq) ** 0.5
            except OverflowError:  # sq is past the float range, its root may not be
                pass
        return self.to_bracket().midpoint_float()

    def exact_string(self) -> str:
        """Rational string when exactly rational, else ''."""
        q = self.exact_rational()
        if q is not None:
            return str(q)
        if self.is_infinite():
            return "inf"
        return ""

    def __repr__(self) -> str:
        # a truncated bracket's float is its lower end, not an estimate
        lower = self.kind == "bracket" and self.br.hi.infinite and not self.br.is_divergent()
        return f"HVal({self.kind}, {'>=' if lower else '~'}{self.to_float():.6g})"


class HTable:
    """Memoized h[m, ell, gamma] values for one (model, element) pair."""

    def __init__(self, model: BaseModel, element: Element, tol: Fraction = DEFAULT_TOL):
        self.model = model
        self.element = element
        self.tol = tol
        self._cells: dict[tuple[int, int, Index], HVal] = {}
        # one cell per (m, gamma) on a commutative model, see BaseModel.commutative
        self._commutative = model.commutative
        self._mass: tuple[Fraction, int] | None = None

    def mass(self) -> tuple[Fraction, int]:
        """(k1, L): the element's squared coefficient mass sum |c|^2 and the
        largest rank in its support, computed on first use and kept; the
        Laurent and group depth-2 cells read their tail bounds from it."""
        if self._mass is None:
            terms = self.element.terms
            self._mass = (sum((c.abs_squared() for c in terms.values()), Fraction(0)),
                          max(map(self.model.index_rank, terms), default=0))
        return self._mass

    def h(self, m: int, ell: int, gamma: Index) -> HVal:
        if m < 0:
            raise ValueError("m must be nonnegative")
        if not 0 <= ell < (1 << m):
            raise ValueError(f"branch word ell={ell} outside [0, 2^{m})")
        if self._commutative:
            ell = 0
        key = (m, ell, gamma)
        cached = self._cells.get(key)
        if cached is not None:
            return cached
        val = self._compute(m, ell, gamma)
        self._cells[key] = val
        return val

    def _compute(self, m: int, ell: int, gamma: Index) -> HVal:
        if self.element.is_zero():
            return HVal.zero()
        if m == 0:
            c = self.element.coeff(gamma)
            if c.is_zero():
                return HVal.zero()
            sq = c.abs_squared()
            r = rational_sqrt(sq)
            return HVal.exact(r) if r is not None else HVal.modulus_sq(sq)

        if m >= 2:
            out = self.model.h_special(self, m, ell, gamma)
            if out is not None:
                return out

        if m == 1:
            # h at level 0 vanishes off the support, so the fan restricts to it
            weight: Callable = self.model.row_sum if ell & 1 == 0 else self.model.col_sum
            return self.step(m, ell, ((p, weight(p, gamma)) for p in self.element.support()))
        return self.step(m, ell, self.model.fan(ell & 1, gamma))

    def step(self, m: int, ell: int, weighted_parents: Iterable) -> HVal:
        """Sum of h[m-1, ell >> 1, p]^2 * w over the (p, w) pairs.

        Weights are Fractions, ints or RootSums; a zero weight is skipped
        before its parent cell is read.  The generic fans and the models'
        exact and certified h_special sums all run through this one step
        (truncated_sum, a lower bound, is the only other sum).  The sum runs
        in integers through step_ratio, and the exact cell it gives is
        normalised once, when it is stored; from the first contribution off
        the integer path on, each weight enters as weight_value(w) and the
        sum runs in the one HVal arithmetic, plus and hval_product."""
        pairs = iter(weighted_parents)
        num, den, rest = self.step_ratio(m, ell, pairs)
        acc = HVal("exact", q=Fraction(num, den))
        if rest is None:
            return acc
        hv, w = rest
        acc = acc.plus(hval_product(hv.squared(), weight_value(w)))
        parent_ell = ell >> 1
        for p, w in pairs:
            wv = weight_value(w)
            if not wv.is_zero():
                acc = acc.plus(hval_product(self.h(m - 1, parent_ell, p).squared(), wv))
        return acc

    def step_ratio(self, m: int, ell: int, pairs: Iterator, num: int = 0, den: int = 1) -> tuple:
        """Integer core of step: adds h[m-1, ell >> 1, p]^2 * w to num/den
        while each cell has sq_parts and each weight is a Fraction.  Returns
        (num, den, None) once pairs runs out, or (num, den, (cell, w)) at the
        first other nonzero contribution, the pairs after it left in pairs.
        A stored parent is read from the cell dict, h runs only on a miss."""
        pm, parent_ell = m - 1, ell >> 1
        stored = 0 if self._commutative else parent_ell
        cells, h = self._cells, self.h
        for p, w in pairs:
            if type(w) is Fraction:
                wn = w.numerator
                if not wn:
                    continue
                hv = cells.get((pm, stored, p)) or h(pm, parent_ell, p)
                parts = hv.sq_parts
                if parts is not None:
                    if parts[0]:
                        num, den = _add_ratio(num, den, parts[0] * wn, parts[1] * w.denominator)
                    continue
            elif weight_value(w).is_zero():
                continue
            else:
                hv = cells.get((pm, stored, p)) or h(pm, parent_ell, p)
            if not hv.is_zero():
                return num, den, (hv, w)
        return num, den, None


def _add_ratio(num: int, den: int, a: int, b: int) -> tuple[int, int]:
    """num/den + a/b as an unnormalised integer pair; the denominators are
    aligned with math.lcm only when they differ."""
    if b == den:
        return num + a, den
    m = math.lcm(den, b)
    return num * (m // den) + a * (m // b), m


def truncated_sum(table: HTable, m: int, ell: int, weighted_parents: Iterable, depth: int) -> HVal:
    """Lower bound for h[m, ell, gamma] from a finite window of its fan.

    weighted_parents yields (parent, weight) pairs with Fraction or RootSum
    weights; each contributes lo^2 * weight_lo, where lo is the lower end of
    h[m-1, ell >> 1, parent].  The parents left out are not bounded, so the
    result is a truncated bracket at the given depth."""
    num, den = 0, 1
    for parent, w in weighted_parents:
        lo = table.h(m - 1, ell >> 1, parent).to_bracket(table.tol).lo
        if lo == 0:
            continue
        w_lo = w if isinstance(w, Fraction) else rootsum_bracket(w, table.tol).lo
        num, den = _add_ratio(num, den, lo.numerator * lo.numerator * w_lo.numerator,
                              lo.denominator * lo.denominator * w_lo.denominator)
    return HVal.bracket(Bracket.truncated(Fraction(num, den), depth))


# ---------------------------------------------------------------------------
# presentation


@dataclass(frozen=True)
class SeminormResult:
    m: int
    ell: int
    gamma: Index
    h_val: HVal | None
    h_bracket: Bracket
    value_float: float

    @property
    def divergent(self) -> bool:
        return self.h_bracket.is_divergent()


def present(m: int, ell: int, gamma: Index, v: HVal | Bracket, tol: Fraction) -> SeminormResult:
    """An h value's bracket and the float midpoint of its 2^m-th root
    enclosure.

    v is an h cell, or the bracket of a value that has no cell (a sum over
    indices, as omega_h returns); h_val is None then.  The float is inf for
    a divergent bracket and nan for a truncated one, which bounds the value
    only from below."""
    h_val, br = (v, v.to_bracket(tol)) if isinstance(v, HVal) else (None, v)
    rlo, rhi = br.root_interval(m, tol)
    if rhi.infinite:
        val = math.inf if br.is_divergent() else math.nan
    else:
        val = _float_or_inf((rlo + rhi.value) / 2)
    return SeminormResult(m, ell, gamma, h_val, br, val)


def _float_or_inf(q: Fraction) -> float:
    """float(q) for q >= 0, or inf when q is past the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# product-continuity inequality, exact squared form


def check_product_inequality(
    model,
    a: Element,
    b: Element,
    m: int,
    ell: int,
    gamma: Index,
    tol: Fraction = DEFAULT_TOL,
    tables: tuple | None = None,
) -> dict:
    """Certify h[m,ell,gamma](a*b)^2 <= h[m+1,ell,gamma](a) * h[m+1,2^m+ell,gamma](b).

    Root-free: both sides compared as exact rationals when possible, else via
    certified intervals (then 'holds' means the upper end of the left side is
    at most the lower end of the right side).  Pass tables=(t_ab, t_a, t_b)
    with prebuilt HTable instances to reuse memoized recursions across many
    (m, ell, gamma) queries for the same pair."""
    if tables is None:
        ab = multiply(model, a, b)
        tables = (HTable(model, ab, tol), HTable(model, a, tol), HTable(model, b, tol))
    t_ab, t_a, t_b = tables
    lhs = t_ab.h(m, ell, gamma).squared()
    rhs_a = t_a.h(m + 1, ell, gamma)
    rhs_b = t_b.h(m + 1, (1 << m) + ell, gamma)
    rhs = hval_product(rhs_a, rhs_b)

    out = {
        "m": m,
        "ell": ell,
        "gamma": gamma,
        "lhs_squared": lhs.to_bracket(tol),
        "rhs": rhs.to_bracket(tol),
    }
    if rhs.is_infinite():
        out.update(holds=True, mode="right-side-infinite")
        return out
    if lhs.is_infinite():
        out.update(holds=False, mode="left-side-infinite")
        return out

    lq, rq = lhs.exact_rational(), rhs.exact_rational()
    if lq is not None and rq is not None:
        out.update(holds=lq <= rq, mode="exact")
        return out
    if lhs.kind in ("exact", "sqrt", "root") and rhs.kind in ("exact", "sqrt", "root"):
        diff = rhs._as_rootsum() - lhs._as_rootsum()
        out.update(holds=rootsum_sign(diff) >= 0, mode="root-sum-exact")
        return out
    lb, rb = out["lhs_squared"], out["rhs"]
    if not lb.hi.infinite and lb.hi.value <= rb.lo:
        out.update(holds=True, mode="interval")
    elif rb.finite_certified() and rb.hi.value < lb.lo:
        out.update(holds=False, mode="interval")
    else:
        out.update(holds=None, mode="interval-inconclusive")
    return out


def hval_product(x: HVal, y: HVal) -> HVal:
    """x * y; a zero factor gives zero, even against an infinite one.  A model
    weight enters as a value, hval_product(cell, weight_value(w))."""
    if x.is_zero() or y.is_zero():
        return HVal.zero()
    if x.is_infinite() or y.is_infinite():
        return HVal.infinite()
    return _combine(operator.mul, x, y)


def _combine(op, x: HVal, y: HVal) -> HVal:
    """op (operator.add or operator.mul) of two finite nonzero cells, in the
    widest kind of the two: a bracket, then an exact rational, else a root
    sum."""
    if x.kind == "bracket" or y.kind == "bracket":
        return HVal.bracket(op(x.to_bracket(), y.to_bracket()))
    if x.kind == "exact" and y.kind == "exact":
        return HVal("exact", q=op(x.q, y.q))
    return HVal.root(op(x._as_rootsum(), y._as_rootsum()))


def weight_value(w) -> HVal:
    """A nonnegative model weight (Fraction, int or RootSum) as an h value."""
    if isinstance(w, RootSum):
        return HVal.root(w)
    if isinstance(w, (int, Fraction)):
        return HVal.exact(w)
    raise TypeError(f"unsupported weight type {type(w)!r}")


# ---------------------------------------------------------------------------
# omega-weighted seminorms


@dataclass(frozen=True)
class OmegaWeights:
    """Nonnegative weight profile gamma -> |omega_gamma| over ranked indices.

    kinds:
      table                finite explicit map
      coefficient          indicator of a single index
      geometric            R^rank  (point-evaluation profile at radius R)
      geometric_factorial  R^rank / rank!
    """

    kind: str
    table: tuple = ()
    ratio: Fraction | None = None

    def __post_init__(self):
        if self.ratio is not None and self.ratio <= 0:
            raise DomainError("radius must be positive")

    @staticmethod
    def coefficient(idx: Index) -> "OmegaWeights":
        return OmegaWeights("coefficient", ((idx, Fraction(1)),))

    @staticmethod
    def point(radius: Fraction) -> "OmegaWeights":
        return OmegaWeights("geometric", (), Fraction(radius))

    @staticmethod
    def point_factorial(radius: Fraction) -> "OmegaWeights":
        return OmegaWeights("geometric_factorial", (), Fraction(radius))

    def weight(self, rank: int, idx: Index) -> Fraction:
        if self.kind in ("table", "coefficient"):
            for i, w in self.table:
                if i == idx:
                    return w
            return Fraction(0)
        if self.kind == "geometric":
            return self.ratio**rank
        if self.kind == "geometric_factorial":
            return self.ratio**rank / factorial(rank)
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def max_table_rank(self, rank_fn) -> int:
        return max((rank_fn(i) for i, w in self.table if w != 0), default=0)


# Most majorant terms omega_h adds past the exact depth before the geometric
# close; past it the result is a truncated bracket.  The terms are fractions
# of size ~k!, and their count grows with radius * B: the cone majorant at
# m = 3 (B = 16384) needs 16,412 of them at radius 1/2, at m = 4 about 2e9.
MAJORANT_TERMS = 1000


def omega_h(
    model,
    a: Element,
    m: int,
    ell: int,
    omega: OmegaWeights,
    depth: int,
    tol: Fraction = DEFAULT_TOL,
) -> Bracket:
    """Sum over indices of |omega| * h[m, ell, .], as a certified Bracket.

    Table and coefficient weights sum their finite support exactly.  Rank
    weights (point, point_factorial) sum the exact terms of rank <= depth,
    and the model's growth majorant at m (BaseModel.h_majorant) bounds the
    rest when it converges against the weights.  Otherwise the result is the
    exact sum over the finite support at m = 0, and above it a divergence
    witness or a truncated lower bound.  tol sets only the enclosures of the
    h cells."""
    if depth < 0:
        raise ValueError("truncation rank must be nonnegative")
    rank_fn = model.index_rank
    table = HTable(model, a, tol)

    if omega.kind in ("table", "coefficient"):
        cap = max(depth, omega.max_table_rank(rank_fn))
        acc = HVal.zero()
        for idx in model.indices_up_to(cap):
            w = omega.weight(rank_fn(idx), idx)
            if w == 0:
                continue
            acc = acc.plus(hval_product(table.h(m, ell, idx), weight_value(w)))
        return acc.to_bracket(tol)

    if a.is_zero():
        return Bracket.exact(0)

    factorial_weights = omega.kind == "geometric_factorial"
    bound = None if model.h_majorant is None else model.h_majorant(a, m)
    if bound is not None and (factorial_weights or omega.ratio * bound[1] < 1):
        partial = _omega_partial(model, table, m, ell, omega, depth, tol)
        tail = _majorant_tail(bound, omega, depth + 1)
        if tail is None:
            return Bracket.truncated(partial.lo, depth)
        tag = _join_tag(TAG_MAJORANT, partial.tail_source)
        return Bracket(partial.lo, partial.hi + tail, depth, tag)

    if m == 0:
        # finite support: the weighted sum is finite and exact
        acc = HVal.zero()
        top = 0
        for idx in a.support():
            r = rank_fn(idx)
            top = max(top, r)
            acc = acc.plus(hval_product(table.h(0, 0, idx), weight_value(omega.weight(r, idx))))
        br = acc.to_bracket(tol)
        return Bracket(br.lo, br.hi, top, br.tail_source)

    witness = model.h_lower_const
    lower = None if factorial_weights or omega.ratio < 1 or witness is None else witness(a, m)
    if lower is not None:
        # h stays at or above lower[0] > 0 from rank lower[1] on, against R^k >= 1
        top = max(depth, lower[1])
        return Bracket.divergent(_omega_partial(model, table, m, ell, omega, top, tol).lo, top)
    return Bracket.truncated(_omega_partial(model, table, m, ell, omega, depth, tol).lo, depth)


def _omega_partial(model, table: HTable, m, ell, omega, depth, tol) -> Bracket:
    """Rank-weighted sum over ranks <= depth: h is summed per rank, and each
    rank sum is bracketed at tol, then scaled by its weight."""
    sums: dict[int, HVal] = {}
    for idx in model.indices_up_to(depth):
        k = model.index_rank(idx)
        sums[k] = sums.get(k, HVal.zero()).plus(table.h(m, ell, idx))
    partial = Bracket.exact(0)
    for k, hv in sums.items():
        partial = partial + hv.to_bracket(tol) * Bracket.exact(omega.weight(k, None))
    return Bracket(partial.lo, partial.hi, depth, partial.tail_source)


def _majorant_tail(bound, omega: OmegaWeights, k: int) -> Fraction | None:
    """Upper bound on the rank-weighted sum from rank k on, for a majorant
    (C, B, p): majorant terms while their ratio is at least theta, then
    term/(1 - theta), theta = 1/2 for factorial weights; None when that needs
    more than MAJORANT_TERMS terms."""
    c_maj, b_maj, p_maj = bound
    growth = omega.ratio * b_maj
    factorial_weights = omega.kind == "geometric_factorial"

    def term_bound(k: int) -> Fraction:
        t = c_maj * growth**k * Fraction(k + 1) ** p_maj
        return t / factorial(k) if factorial_weights else t

    def ratio_bound(k: int) -> Fraction:
        # term_bound(k+1)/term_bound(k), decreasing in k
        r = growth * Fraction(k + 2, k + 1) ** p_maj
        return r / (k + 1) if factorial_weights else r

    theta = Fraction(1, 2) if factorial_weights else (1 + growth) / 2
    if ratio_bound(k + MAJORANT_TERMS) >= theta:
        return None
    tail = Fraction(0)
    while ratio_bound(k) >= theta:
        tail += term_bound(k)
        k += 1
    return tail + term_bound(k) / (1 - theta)
