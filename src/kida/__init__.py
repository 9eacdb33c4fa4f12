"""Exact-arithmetic transition formulas for Iwasawa invariants.

Transports (mu, lambda) invariants of two-dimensional modular Galois
representations along abelian p-extensions of the rationals:

    lambda' = [F'_infty : F_infty] * lambda + sum of local multiplicities

with all local factors (place counts, ramification data, h-table values,
character multiplicities) computed in exact integer arithmetic.
"""

from .arith import Residue, factor, mult_order, padic_val, unit_group
from .chargroup import (Character, FiniteAbelianGroup, RepMultiset, Subgroup,
                        check_group_identity, dual_group, multiplicity)
from .localfactor import (Generic, LocalCharData, RamifiedPS, Special,
                          Supercuspidal, UnramifiedPS,
                          check_tower_additivity, h_char, h_v, m_extension,
                          m_single)
from .qexp import (CoefficientTable, DirichletCharacter, EllipticCurve,
                   ModularFormData, delta_form, frobenius_data, tau,
                   twist_coefficients)
from .splitting import (AbelianField, efg, parse_field_spec, ramified_set,
                        rationals, tower_places, unramified_at_p_reduction)
from .transition import (InvariantRecord, TransitionReport, compose,
                         lambda_via_twists, mc_transfer)
from .transition import transition as run_transition

__version__ = "0.1.0"

__all__ = [
    "Residue", "factor", "mult_order", "padic_val", "unit_group",
    "Character", "FiniteAbelianGroup", "RepMultiset", "Subgroup",
    "check_group_identity", "dual_group", "multiplicity",
    "Generic", "LocalCharData", "RamifiedPS", "Special", "Supercuspidal",
    "UnramifiedPS", "check_tower_additivity", "h_char", "h_v",
    "m_extension", "m_single",
    "CoefficientTable", "DirichletCharacter", "EllipticCurve",
    "ModularFormData", "delta_form", "frobenius_data", "tau",
    "twist_coefficients",
    "AbelianField", "efg", "parse_field_spec", "ramified_set", "rationals",
    "tower_places", "unramified_at_p_reduction",
    "InvariantRecord", "TransitionReport", "compose", "lambda_via_twists",
    "mc_transfer", "run_transition",
]
