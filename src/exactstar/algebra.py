"""Sparse elements over a countable basis and products through structure
constants.

A model supplies, for each ordered pair of basis indices, the finite
expansion of their product in the basis.  Elements are finite maps
index -> Gaussian rational; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Iterator, Protocol, runtime_checkable

from .scalars import GR_ONE, GR_ZERO, GaussianRational, accumulate, gaussian_parts, settle

Index = Hashable


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class DimensionError(DomainError):
    """A multiindex whose length is not the model's dimension n."""


class InfiniteFanError(DomainError):
    """Raised when a finite enumeration of product contributors does not exist."""


@runtime_checkable
class StructureModel(Protocol):
    """Minimal protocol a basis-indexed algebra model implements."""

    name: str

    def validate_index(self, idx: Index) -> Index: ...

    def pair_product(self, left: Index, right: Index) -> dict[Index, Fraction]: ...

    def index_sort_key(self, idx: Index) -> Any: ...

    def index_to_json(self, idx: Index) -> Any: ...

    def index_from_json(self, data: Any) -> Index: ...


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

    def map_coeffs(self, f: Callable[[GaussianRational], GaussianRational]) -> "Element":
        return Element({idx: f(c) for idx, c in self.terms.items()})

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


def multiply(model: StructureModel, a: Element, b: Element) -> Element:
    """Product through the model's structure constants (exact)."""
    out: dict = {}
    b_parts = [(ib, gaussian_parts(cb)) for ib, cb in b.terms.items()]
    for ia, ca in a.terms.items():
        x, y, d = gaussian_parts(ca)
        for ib, (u, v, e) in b_parts:
            # ca*cb over the denominator d*e, normalised only by settle()
            factor = (x * u - y * v, x * v + y * u, d * e)
            for idx, const in model.pair_product(ia, ib).items():
                accumulate(out, idx, factor, const)
    return Element(settle(out))


def element_to_json(model: StructureModel, a: Element) -> dict:
    terms = []
    for idx in sorted(a.terms, key=model.index_sort_key):
        c = a.terms[idx]
        entry = {"index": model.index_to_json(idx)}
        entry.update(c.to_json())
        terms.append(entry)
    return {"model": model.name, "terms": terms}


def element_from_json(model: StructureModel, data: dict) -> Element:
    if not isinstance(data, dict) or "terms" not in data:
        raise ValueError("element JSON needs a 'terms' list")
    declared = data.get("model")
    if declared is not None and declared != model.name:
        raise ValueError(f"element was serialized for model {declared!r}, not {model.name!r}")
    terms: dict[Index, GaussianRational] = {}
    for entry in data["terms"]:
        if "index" not in entry:
            raise ValueError("term entry missing 'index'")
        idx = model.index_from_json(entry["index"])
        idx = model.validate_index(idx)
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
