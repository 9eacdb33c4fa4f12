"""Exact-arithmetic transition formulas for Iwasawa invariants.

Transports (mu, lambda) invariants of two-dimensional modular Galois
representations along abelian p-extensions of the rationals:

    lambda' = [F'_infty : F_infty] * lambda + sum of local multiplicities

with all local factors (place counts, ramification data, h-table values,
character multiplicities) computed in exact integer arithmetic.

Submodules load on first use: ``import kida`` imports none of them, and
``kida.qexp`` or ``kida.tau`` imports the module that holds it (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports here
_EXPORTS = {
    "arith": ("factor", "padic_val", "unit_group"),
    "chargroup": ("Character", "FiniteAbelianGroup", "RepMultiset",
                  "Subgroup", "check_group_identity", "dual_group",
                  "multiplicity"),
    "localfactor": ("Generic", "LocalCharData", "RamifiedPS", "Special",
                    "Supercuspidal", "UnramifiedPS", "check_tower_additivity",
                    "h_v", "m_extension", "m_single"),
    "qexp": ("CoefficientTable", "EllipticCurve", "ModularFormData",
             "delta_form", "frobenius_data", "tau"),
    "splitting": ("AbelianField", "efg", "parse_field_spec", "ramified_set",
                  "rationals", "tower_places", "unramified_at_p_reduction"),
    "transition": ("InvariantRecord", "TransitionReport", "compose"),
}
# public name -> (module, attribute)
_ORIGIN = {name: (module, name)
           for module, names in _EXPORTS.items() for name in names}
_ORIGIN["run_transition"] = ("transition", "transition")

_SUBMODULES = ("arith", "chargroup", "cli", "errors", "intlinalg",
               "localfactor", "qexp", "splitting", "transition", "verify")

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _ORIGIN[name]
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
