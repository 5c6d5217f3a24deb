"""Exact star products on countable bases: structure constants, recursive
seminorms, a Poincare-disk quantization, and its GNS representation.

The seminorm names below load `exactstar.seminorms` on first access, so that
importing the package (as every CLI process does) compiles only the layers a
command runs."""

from .algebra import (
    DomainError,
    Element,
    InfiniteFanError,
    UnresolvedError,
    element_from_json,
    element_to_json,
    from_pairs,
    get_model,
    model_registry,
    multiply,
)
from .scalars import (
    GaussianRational,
    MultiIndex,
    RootSum,
    parse_rational,
)

__version__ = "0.1.0"

_SEMINORM_NAMES = ("Bracket", "HTable", "HVal", "OmegaWeights", "omega_h")


def __getattr__(name: str):
    if name not in _SEMINORM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import seminorms

    value = getattr(seminorms, name)
    globals()[name] = value
    return value


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
