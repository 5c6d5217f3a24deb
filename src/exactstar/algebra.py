"""Sparse elements over a countable basis and products through structure
constants.

A model supplies the product of two elements: by default, for each ordered
pair of basis indices, the finite expansion of their product in the basis.
Elements are finite maps index -> Gaussian rational; all arithmetic is exact.

This is the lowest layer above the scalars: the model base class and the
model registry live here too, so that a command which builds a cone or disk
model never loads `models` or `seminorms`; get_model imports a model family
only when it builds one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

from .scalars import DEFAULT_TOL, GR_ONE, GR_ZERO, GaussianRational, accumulate, gaussian_parts

if TYPE_CHECKING:
    from .seminorms import HTable

Index = Hashable


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class DimensionError(DomainError):
    """A multiindex whose length is not the model's dimension n."""


def check_point_dimension(point, length: int, what: str) -> None:
    """A point with other than `length` coordinates raises DimensionError."""
    if len(point) != length:
        raise DimensionError(f"{what} has {length} coordinates, got {len(point)}")


class InfiniteFanError(DomainError):
    """Raised when a finite enumeration of product contributors does not exist."""


class UnresolvedError(RuntimeError):
    """A certified comparison that did not resolve: its two sides stayed
    inside one enclosure down to the finest tolerance tried, so neither
    answer is claimed.  Raised by seminorms.rootsum_sign, which the root-sum
    comparisons of the seminorm recursion and of check_product_inequality
    use; the CLI reports it with exit code 3."""


class BaseModel:
    """Shared memoization and defaults for structure-constant models."""

    name: str = "base"
    commutative: bool = False
    """True only when c^gamma_{alpha beta} = c^gamma_{beta alpha} for every
    index triple.  Then row_sum(x, gamma) == col_sum(x, gamma), both fans
    list the same (parent, weight) pairs, and an h_special must choose
    between row and column weights only through ell & 1.  By induction on m
    every branch word then runs the same arithmetic on the same values, so
    HTable computes and caches each cell once, under ell = 0."""

    def __init__(self):
        self._row_memo: dict = {}
        self._fan_memo: dict = {}

    # -- product ------------------------------------------------------------
    def pair_product(self, left: Index, right: Index) -> dict:
        """Nonzero structure constants of left * right; callers must not
        mutate the result, which a model may share from a cache."""
        return self._pair(left, right)

    def _pair(self, left: Index, right: Index) -> dict:
        raise NotImplementedError

    def check_operands(self, a: Element, b: Element) -> None:
        """DimensionError when a product's operands do not fit the model;
        multiply asks once per call, before any pair is read."""

    def element_product(self, a: Element, b: Element) -> Element:
        """a * b once check_operands has passed: the pair_product sum."""
        return settled_element(accumulate_product(self.pair_product, a.terms.items(), b.terms.items()))

    # -- the *-involution ---------------------------------------------------
    def star(self, idx: Index) -> Index:
        """The index that the *-involution sends idx to: e_idx^* = e_star(idx).
        The involution reverses products, so C^{star gamma}_{star beta,
        star alpha} is the conjugate of C^gamma_{alpha, beta}, and column
        weights and fans are row ones at starred indices."""
        raise NotImplementedError

    def involution(self, a: Element) -> Element:
        """a^*: each coefficient conjugated onto the starred index."""
        star = self.star
        return Element({star(idx): c.conjugate() for idx, c in a.terms.items()})

    # -- recursion weights --------------------------------------------------
    def row_sum(self, alpha: Index, gamma: Index):
        key = (alpha, gamma)
        out = self._row_memo.get(key)
        if out is None:
            out = self._row(alpha, gamma)
            self._row_memo[key] = out
        return out

    def col_sum(self, beta: Index, gamma: Index):
        """sum_alpha |C^gamma_{alpha, beta}|: the row sum at the starred pair,
        read through the row memo."""
        star = self.star
        return self.row_sum(star(beta), star(gamma))

    def _row(self, alpha: Index, gamma: Index):
        raise NotImplementedError

    def row_parents(self, gamma: Index) -> Iterable[Index]:
        """Finite enumeration of the alpha with row_sum(alpha, gamma) != 0;
        InfiniteFanError when none exists (the model then has h_special)."""
        raise InfiniteFanError(f"{self.name}: no finite contributor enumeration")

    def fan(self, bit: int, gamma: Index) -> list:
        """(parent, weight) pairs of the row (bit 0) or column (bit 1) fan of
        gamma with a nonzero weight, memoized per (bit, gamma).  The column
        fan is the starred row fan of star(gamma), in its order; an
        InfiniteFanError stores nothing."""
        key = (bit, gamma)
        out = self._fan_memo.get(key)
        if out is None:
            if bit == 0:
                row_sum = self.row_sum
                out = [(p, w) for p in self.row_parents(gamma) if (w := row_sum(p, gamma)) != 0]
            else:
                star = self.star
                out = [(star(p), w) for p, w in self.fan(0, star(gamma))]
            self._fan_memo[key] = out
        return out

    def h_special(self, table: HTable, m: int, ell: int, gamma: Index):
        """h[m, ell, gamma] at m >= 2 of a nonzero element, for models whose
        fans are infinite; it sums through table.step or truncated_sum.  None
        leaves the cell to the finite fans."""
        return None

    h_majorant = None
    """Growth majorant, in models that have one: a method h_majorant(a, m)
    returning (C, B, p) such that, for every rank k and branch word ell, the
    sum of h[m, ell, idx](a) over all indices idx of rank k is at most
    C * B^k * (k+1)^p; it returns None at an m it does not bound.  omega_h
    closes the tails of rank-weighted sums with it, and seminorm --radius
    needs it."""

    h_lower_const = None
    """Divergence witness, in models that have one: a method
    h_lower_const(a, m) returning (v, k0) with v > 0 a rational such that
    h[m, ell, idx](a) >= v for every branch word ell and every index idx of
    rank at least k0, or None when it finds no such bound.  omega_h then
    reports a rank-weighted sum at radius >= 1 as divergent, not truncated."""

    # -- index plumbing -----------------------------------------------------
    def validate_index(self, idx: Index) -> Index:
        return idx

    def index_sort_key(self, idx: Index):
        return idx

    def index_rank(self, idx: Index) -> int:
        raise NotImplementedError

    def indices_up_to(self, rank: int) -> Iterator[Index]:
        raise NotImplementedError

    def index_to_json(self, idx: Index):
        return idx

    def index_from_json(self, data) -> Index:
        return self.validate_index(data)

    def unit_index(self) -> Index | None:
        return None

    def unit(self) -> Element:
        u = self.unit_index()
        if u is None:
            raise DomainError(f"{self.name}: no unit basis vector")
        return Element.basis(u)


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


class Element:
    """Finitely supported coefficient vector over a model's basis."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Index, GaussianRational] | None = None):
        clean: dict[Index, GaussianRational] = {}
        for idx, c in (terms or {}).items():
            c = GaussianRational.coerce(c)
            if not c.is_zero():
                clean[idx] = c
        self.terms = clean

    @staticmethod
    def zero() -> "Element":
        return Element({})

    @staticmethod
    def basis(idx: Index) -> "Element":
        return Element({idx: GR_ONE})

    def coeff(self, idx: Index) -> GaussianRational:
        return self.terms.get(idx, GR_ZERO)

    def support(self) -> Iterator[Index]:
        return iter(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = self.coeff(idx) + c if idx in out else c
        return Element(out)

    def __sub__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out[idx] - c if idx in out else -c
        return Element(out)

    def scale(self, z: GaussianRational | Fraction | int) -> "Element":
        z = GaussianRational.coerce(z)
        return Element({idx: c * z for idx, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "Element(0)"
        parts = [f"{idx!r}: {c!r}" for idx, c in list(self.terms.items())[:6]]
        more = "..." if len(self.terms) > 6 else ""
        return "Element({" + ", ".join(parts) + more + "})"


def accumulate_product(pair_product: Callable, a_terms: Iterable, b_terms: Iterable) -> dict:
    """The accumulate() dict of sum c_a c_b pair_product(i_a, i_b) over two
    (index, coefficient) sequences: the product before any normalisation."""
    out: dict = {}
    b_parts = [(ib, gaussian_parts(cb)) for ib, cb in b_terms]
    for ia, ca in a_terms:
        x, y, d = gaussian_parts(ca)
        for ib, (u, v, e) in b_parts:
            # ca*cb over the denominator d*e, normalised only by settled_element()
            factor = (x * u - y * v, x * v + y * u, d * e)
            for idx, const in pair_product(ia, ib).items():
                accumulate(out, idx, factor, const)
    return out


def settled_element(acc: dict) -> Element:
    """The Element of an accumulate() dict: one Gaussian rational per
    (re_num, im_num, den) entry with a nonzero numerator.  Unlike Element(),
    it neither coerces nor re-tests the values it builds."""
    out = Element.__new__(Element)
    out.terms = {key: GaussianRational(Fraction(a, d), Fraction(b, d))
                 for key, (a, b, d) in acc.items() if a or b}
    return out


def multiply(model: BaseModel, a: Element, b: Element) -> Element:
    """Exact product: the model checks the operands, then forms a * b."""
    model.check_operands(a, b)
    return model.element_product(a, b)


def element_to_json(model: BaseModel, a: Element) -> dict:
    terms = []
    for idx in sorted(a.terms, key=model.index_sort_key):
        c = a.terms[idx]
        entry = {"index": model.index_to_json(idx)}
        entry.update(c.to_json())
        terms.append(entry)
    return {"model": model.name, "terms": terms}


def term_entries(terms, what: str) -> list:
    """The 'terms' value of an element or vector JSON object, checked entry
    by entry: ValueError with a stated message unless it is a list of
    objects that each hold an 'index'."""
    if not isinstance(terms, list):
        raise ValueError(f"{what} JSON 'terms' must be a list")
    for entry in terms:
        if not isinstance(entry, dict):
            raise ValueError("term entry must be an object")
        if "index" not in entry:
            raise ValueError("term entry missing 'index'")
    return terms


def element_from_json(model: BaseModel, data: dict) -> Element:
    if not isinstance(data, dict) or "terms" not in data:
        raise ValueError("element JSON needs a 'terms' list")
    declared = data.get("model")
    if declared is not None and declared != model.name:
        raise ValueError(f"element was serialized for model {declared!r}, not {model.name!r}")
    terms: dict[Index, GaussianRational] = {}
    for entry in term_entries(data["terms"], "element"):
        idx = model.index_from_json(entry["index"])
        c = GaussianRational.from_json(entry)
        if idx in terms:
            terms[idx] = terms[idx] + c
        else:
            terms[idx] = c
    return Element(terms)


def from_pairs(pairs: Iterable[tuple[Index, GaussianRational | Fraction | int]]) -> Element:
    out: dict[Index, GaussianRational] = {}
    for idx, c in pairs:
        c = GaussianRational.coerce(c)
        out[idx] = out.get(idx, GR_ZERO) + c
    return Element(out)


# ---------------------------------------------------------------------------
# model registry


def get_model(spec: str, hbar: Fraction | None = None, epsilon: Fraction | None = None, n: int | None = None):
    """Instantiate a model from its CLI name.

    poly:monomial | poly:factorial | laurent:plain | laurent:factorial |
    matrix:plain | matrix:hat | matrix:tilde | group:Z | group:Zd:<d> |
    group:free:<N> | wick:<n> | cone | disk
    """
    parts = spec.split(":")
    family = parts[0]

    def size(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise DomainError(f"unknown model {spec!r}") from None

    if family in ("cone", "disk") and len(parts) == 1:
        from .cone import ConeModel, DiskModel

        if hbar is None:
            raise DomainError(f"{family} model needs --hbar")
        dim = 1 if n is None else n
        if family == "cone":
            return ConeModel(dim, hbar)
        return DiskModel(dim, hbar)
    if family not in ("poly", "laurent", "matrix", "group", "wick"):
        raise DomainError(f"unknown model {spec!r}")
    from . import models

    eps = Fraction(1) if epsilon is None else Fraction(epsilon)
    if family == "poly" and len(parts) == 2:
        return models.PolynomialModel(parts[1])
    if family == "laurent" and len(parts) == 2:
        return models.LaurentModel(parts[1])
    if family == "matrix" and len(parts) == 2:
        return models.MatrixModel(parts[1])
    if family == "group":
        if len(parts) == 2 and parts[1] == "Z":
            return models.GroupModel("Z", epsilon=eps)
        if len(parts) == 3 and parts[1] == "Zd":
            return models.GroupModel("Zd", size(parts[2]), epsilon=eps)
        if len(parts) == 3 and parts[1] == "free":
            return models.GroupModel("free", size(parts[2]), epsilon=eps)
    if family == "wick" and len(parts) == 2:
        if hbar is None:
            raise DomainError("wick model needs --hbar")
        return models.WickFlatModel(size(parts[1]), hbar)
    raise DomainError(f"unknown model {spec!r}")


def model_registry() -> list[dict]:
    """Names and parameter hints for the CLI listing."""
    return [
        {"name": "poly:monomial", "params": ""},
        {"name": "poly:factorial", "params": ""},
        {"name": "laurent:plain", "params": ""},
        {"name": "laurent:factorial", "params": ""},
        {"name": "matrix:plain", "params": ""},
        {"name": "matrix:hat", "params": ""},
        {"name": "matrix:tilde", "params": ""},
        {"name": "group:Z", "params": "--epsilon 1|1/2"},
        {"name": "group:Zd:<d>", "params": "--epsilon 1|1/2"},
        {"name": "group:free:<N>", "params": "--epsilon 1|1/2"},
        {"name": "wick:<n>", "params": "--hbar p/q"},
        {"name": "cone", "params": "--hbar p/q --n <dim>"},
        {"name": "disk", "params": "--hbar p/q --n <dim>"},
    ]
