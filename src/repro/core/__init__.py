"""The dissertation's three contributions: Reptile, REDEEM, CLOSET.

The three algorithm subpackages and the hybrid pipeline load on first
use (PEP 562), so a Reptile-only run never imports CLOSET, REDEEM or
the scipy they pull in.
"""

from importlib import import_module

from .api import (
    ChunkedCorrector,
    ChunkedCorrectorMixin,
    Corrector,
    available_methods,
    build_corrector,
    register_corrector,
    supports_chunking,
)
from .hotpath import HotpathConfig

#: Lazily resolved name -> (submodule, attribute or None for the module).
_LAZY = {
    "closet": ("closet", None),
    "redeem": ("redeem", None),
    "reptile": ("reptile", None),
    "HybridCorrector": ("hybrid", "HybridCorrector"),
    "HybridResult": ("hybrid", "HybridResult"),
}

__all__ = [
    "HotpathConfig",
    "reptile",
    "redeem",
    "closet",
    "HybridCorrector",
    "HybridResult",
    "Corrector",
    "ChunkedCorrector",
    "ChunkedCorrectorMixin",
    "build_corrector",
    "register_corrector",
    "available_methods",
    "supports_chunking",
]


def __getattr__(name: str):
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = import_module(f".{module}", __name__)
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
