"""Exact star products on countable bases: structure constants, recursive
seminorms, a Poincare-disk quantization, and its GNS representation."""

from .algebra import (
    DomainError,
    Element,
    InfiniteFanError,
    element_from_json,
    element_to_json,
    from_pairs,
    multiply,
)
from .scalars import (
    GaussianRational,
    MultiIndex,
    RootSum,
    parse_rational,
)
from .seminorms import Bracket, HTable, HVal, OmegaWeights, UnresolvedError, omega_h
from .models import get_model, model_registry

__version__ = "0.1.0"

__all__ = [
    "Bracket",
    "DomainError",
    "Element",
    "GaussianRational",
    "HTable",
    "HVal",
    "InfiniteFanError",
    "MultiIndex",
    "OmegaWeights",
    "RootSum",
    "UnresolvedError",
    "element_from_json",
    "element_to_json",
    "from_pairs",
    "get_model",
    "model_registry",
    "multiply",
    "omega_h",
    "parse_rational",
    "__version__",
]
