"""Exact-arithmetic transition formulas for Iwasawa invariants.

Transports (mu, lambda) invariants of two-dimensional modular Galois
representations along abelian p-extensions of the rationals:

    lambda' = [F'_infty : F_infty] * lambda + sum of local multiplicities

with all local factors (place counts, ramification data, h-table values,
character multiplicities) computed in exact integer arithmetic.

Submodules load on first use: ``import kida`` imports none of them, and
``kida.eta`` imports that module (PEP 562).  Library names are read from
their modules, as ``kida.eta.tau``; the package root re-exports none, so
``from kida import *`` binds no name.
"""

__version__ = "0.1.0"

_SUBMODULES = ("arith", "chargroup", "cli", "errors", "eta", "intlinalg",
               "localfactor", "qexp", "splitting", "transition", "verify")


def __getattr__(name):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return importlib.import_module(f"{__name__}.{name}")
