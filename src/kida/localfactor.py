"""Local types at primes ell != p and their multiplicity bookkeeping.

For a two-dimensional representation V of the absolute Galois group of a
local tower field L (ell != p), m(V) counts the trivial constituents of
the Galois invariants of the inertia coinvariants.  A finite p-extension
of L is cyclic and totally ramified, so twisting characters of the local
Galois group form a cyclic p-group of order d, a twist chi_j is its
exponent j mod d, and the extension multiplicity is

    m(L'/L, V) = sum over j mod d of (m(V) - m(V_chi_j)).

``m_extension`` prices it in O(1): it reads the h-table, one
(case, value) row per character line of V, and sums user values for
``Generic`` data.  ``twist_sum`` evaluates the sum above literally, one
``m_single(V, d, j)`` per exponent j, and serves the suites as the
table's oracle.  It keeps its last 128 values in an ``lru_cache`` keyed
on (V, d): ``check_tower_additivity`` meets each (V, d) several times
along a suite's chains of degrees.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import (GenericUnsupported, IncoherentGenericData, Record,
                     SpecParseError, parse_int_fields)


class LocalCharData(Record):
    """One character of the local Galois group, by the bits that matter.

    ``becomes_unramified_over_extension`` says whether the character is
    killed by restriction to the (context) extension; it is vacuous for
    unramified characters.  ``order_on_inertia`` (1 if unramified) pins
    the exact level at which a ramified character dies and is required
    for coherent restriction in towers with more than one step.
    """

    __slots__ = ("ramified", "trivial_mod_p",
                 "becomes_unramified_over_extension", "order_on_inertia")

    def __init__(self, ramified: bool, trivial_mod_p: bool,
                 becomes_unramified_over_extension: bool = True,
                 order_on_inertia: int | None = None):
        if not ramified:
            becomes_unramified_over_extension, order_on_inertia = True, 1
        elif order_on_inertia is not None and order_on_inertia < 2:
            raise ValueError("ramified character needs order > 1 on inertia")
        self._fill(ramified, trivial_mod_p, becomes_unramified_over_extension,
                   order_on_inertia)

    def dies_over(self, degree: int) -> bool:
        """Whether restriction to the degree-``degree`` extension is
        unramified: never for a ramified character and degree 1."""
        if not self.ramified:
            return True
        if self.order_on_inertia is not None:
            return degree % self.order_on_inertia == 0
        return degree > 1 and self.becomes_unramified_over_extension

    def restricted(self, degree: int) -> "LocalCharData":
        """The same character over the degree-``degree`` extension."""
        if not self.ramified:
            return self
        if self.order_on_inertia is None:
            if self.becomes_unramified_over_extension:
                return LocalCharData(False, self.trivial_mod_p)
            raise IncoherentGenericData(
                "restricting a surviving ramified character needs "
                "order_on_inertia")
        new_order = self.order_on_inertia // math.gcd(self.order_on_inertia,
                                                      degree)
        if new_order == 1:
            return LocalCharData(False, self.trivial_mod_p)
        return LocalCharData(True, self.trivial_mod_p,
                             becomes_unramified_over_extension=False,
                             order_on_inertia=new_order)


class UnramifiedPS(Record):
    """Unramified principal series: Frobenius polynomial x^2 - a x + c mod p."""

    __slots__ = ("a", "c", "p")

    def __init__(self, a: int, c: int, p: int):
        self._fill(a % p, c % p, p)


class RamifiedPS(Record):
    __slots__ = ("phi1", "phi2")

    def __init__(self, phi1: LocalCharData, phi2: LocalCharData):
        self._fill(phi1, phi2)


class Special(Record):
    __slots__ = ("phi",)

    def __init__(self, phi: LocalCharData):
        self._fill(phi)


class Supercuspidal(Record):
    """Supercuspidal or extraordinary: contributes 0 through every path."""

    __slots__ = ()


class Generic(Record):
    """User-supplied m-values per character of the local cyclic p-group.

    ``m_values[j]`` is m(V_{chi_j}) for the character of exponent j of
    the cyclic group of order ``degree`` (j = 0 the trivial character);
    equivalently the multiplicity of chi_j in an explicit character
    multiset, which is what makes restriction in towers well defined.
    """

    __slots__ = ("degree", "m_values")

    def __init__(self, degree: int, m_values: tuple[int, ...]):
        if len(m_values) != degree:
            raise IncoherentGenericData(
                "generic data must cover every character of its group")
        if any(v < 0 for v in m_values):
            raise IncoherentGenericData("generic m-values must be >= 0")
        self._fill(degree, m_values)


LocalType = UnramifiedPS | RamifiedPS | Special | Supercuspidal | Generic


def trivial_eigenvalues(V: UnramifiedPS) -> int:
    """How many Frobenius eigenvalues of V are trivial mod p: 0, 1 or 2."""
    p = V.p
    if V.a == 2 % p and V.c == 1 % p:
        return 2
    return 1 if V.a == (V.c + 1) % p else 0


# case names by the number of trivial Frobenius eigenvalues
_UPS_CASES = ("no_trivial_frobenius_eigenvalue",
              "one_frobenius_eigenvalue_trivial",
              "both_frobenius_eigenvalues_trivial")


def _char_row(phi: LocalCharData, e: int) -> tuple[str, int]:
    """(case, value) row of the h-table for one character line."""
    if not phi.trivial_mod_p:
        return "character_nontrivial_mod_p", 0
    if not phi.ramified:
        return "character_unramified_trivial_mod_p", e - 1
    if phi.dies_over(e):
        return "character_dies_over_extension", -1
    return "character_survives_ramified", 0


def _table_rows(V: LocalType, e: int) -> list[tuple[str, int]]:
    """The h-table: V's (case, value) rows at ramification index e, one
    per line of V (a character, or the Frobenius data)."""
    if e < 1:
        raise ValueError("ramification index must be >= 1")
    if isinstance(V, Generic):
        raise GenericUnsupported("generic types go through m_extension")
    if isinstance(V, Supercuspidal):
        return [("supercuspidal_or_extraordinary", 0)]
    if isinstance(V, UnramifiedPS):
        t = trivial_eigenvalues(V)
        return [(_UPS_CASES[t], t * (e - 1))]
    if isinstance(V, Special):
        return [_char_row(V.phi, e)]
    if isinstance(V, RamifiedPS):
        return [_char_row(V.phi1, e), _char_row(V.phi2, e)]
    raise TypeError(f"unknown local type {V!r}")


def h_v(V: LocalType, e: int) -> int:
    """Per-place table value for ramification index e."""
    return sum(value for _, value in _table_rows(V, e))


def case_of(V: LocalType, e: int) -> str:
    """Name of the table case V falls in at ramification index e."""
    if isinstance(V, Generic):
        return "generic_m_summation"
    return "+".join(case for case, _ in _table_rows(V, e))


def _generic_m_over(V: Generic, degree: int) -> list[int]:
    """m-values of V for the characters of the degree-``degree`` quotient."""
    if V.degree % degree:
        raise IncoherentGenericData(
            f"generic data over degree {V.degree} cannot serve degree {degree}")
    step = V.degree // degree
    return [V.m_values[step * i] for i in range(degree)]


def m_extension(V: LocalType, local_degree: int) -> int:
    """m(L'/L, V) over the local extension of degree ``local_degree``, in
    O(1): the sum of the user's values for generic data, the h-table for
    every other type."""
    if local_degree < 1:
        raise ValueError("local degree must be >= 1")
    if isinstance(V, Generic):
        vals = _generic_m_over(V, local_degree)
        return sum(vals[0] - v for v in vals)
    return h_v(V, local_degree)


# -- the twist-by-twist oracle ----------------------------------------------

def _m_char(phi: LocalCharData, degree: int, exponent: int) -> int:
    """Multiplicity contribution of one character line under the twist of
    exponent ``exponent`` (already reduced mod ``degree``): 1 if phi is trivial
    mod p and the twist is the unique one with twist*phi unramified, else 0.

    For unramified phi the match is the trivial twist.  For ramified phi
    that dies over the extension (so degree > 1), phi's inertia character
    factors through the cyclic group, and exactly one nontrivial twist
    cancels it; the labeling of that twist is a convention (sums over all
    twists are label-free).
    """
    if not phi.trivial_mod_p:
        return 0
    if not phi.ramified:
        return int(exponent == 0)
    if not phi.dies_over(degree):
        return 0
    order = phi.order_on_inertia or degree
    return int(exponent == degree // order)


def m_single(V: LocalType, degree: int = 1, exponent: int = 0) -> int:
    """m(V_chi) for the twist chi of exponent ``exponent`` mod ``degree``
    (by default the trivial twist): multiplicity of the trivial
    representation in the Galois invariants of the inertia coinvariants
    of the twist."""
    if isinstance(V, Generic):
        raise GenericUnsupported("generic types carry their m-values directly")
    exponent %= degree
    if isinstance(V, Supercuspidal):
        return 0
    if isinstance(V, UnramifiedPS):
        if exponent:
            return 0    # ramified twist kills the coinvariants
        return trivial_eigenvalues(V)
    if isinstance(V, Special):
        return _m_char(V.phi, degree, exponent)
    if isinstance(V, RamifiedPS):
        return (_m_char(V.phi1, degree, exponent)
                + _m_char(V.phi2, degree, exponent))
    raise TypeError(f"unknown local type {V!r}")


@lru_cache(maxsize=128)
def twist_sum(V: LocalType, local_degree: int) -> int:
    """m(L'/L, V) = sum over the local_degree twist exponents j of
    (m(V) - m(V_chi_j)), one ``m_single`` per twist: O(local_degree), the
    oracle the suites hold ``m_extension`` to."""
    if local_degree < 1:
        raise ValueError("local degree must be >= 1")
    if isinstance(V, Generic):
        return m_extension(V, local_degree)
    base = m_single(V, local_degree, 0)
    return sum(base - m_single(V, local_degree, j)
               for j in range(local_degree))


def restrict_type(V: LocalType, degree: int) -> LocalType:
    """The same representation over the degree-``degree`` extension.

    Unramified principal series keep their Frobenius data (the extension
    is totally ramified), supercuspidal stays supercuspidal by the
    contributes-zero convention, characters restrict by inertia order,
    and generic data restricts through its character-multiset model.
    """
    if degree == 1 or isinstance(V, (UnramifiedPS, Supercuspidal)):
        return V
    if isinstance(V, Special):
        return Special(V.phi.restricted(degree))
    if isinstance(V, RamifiedPS):
        return RamifiedPS(V.phi1.restricted(degree), V.phi2.restricted(degree))
    if isinstance(V, Generic):
        if V.degree % degree:
            raise IncoherentGenericData(
                f"generic data over degree {V.degree} cannot restrict "
                f"through degree {degree}")
        sub = V.degree // degree
        vals = [0] * sub
        for j, m in enumerate(V.m_values):
            vals[j % sub] += m
        return Generic(sub, tuple(vals))
    raise TypeError(f"unknown local type {V!r}")


def check_tower_additivity(V: LocalType, inner_degree: int,
                           outer_degree: int):
    """Both sides of m(L''/L,V) = [L'':L'] m(L'/L,V) + m(L''/L',V)
    for the chain of local degrees inner_degree | outer_degree, each
    term summed twist by twist (``twist_sum``).

    Returns (lhs == rhs, lhs, rhs).
    """
    if outer_degree % inner_degree:
        raise ValueError("chain degrees must be nested")
    lhs = twist_sum(V, outer_degree)
    step = outer_degree // inner_degree
    rhs = step * twist_sum(V, inner_degree) + twist_sum(
        restrict_type(V, inner_degree), step)
    return lhs == rhs, lhs, rhs


# -- local type grammar ----------------------------------------------------

def parse_char_spec(spec: str) -> LocalCharData:
    """charspec = ram|unram,triv|nontriv[,dies|survives]"""
    parts = [t.strip() for t in spec.split(",")]
    if len(parts) not in (2, 3):
        raise SpecParseError(f"bad character spec {spec!r}")
    if parts[0] not in ("ram", "unram") or parts[1] not in ("triv", "nontriv"):
        raise SpecParseError(f"bad character spec {spec!r}")
    ramified = parts[0] == "ram"
    trivial = parts[1] == "triv"
    if ramified:
        if len(parts) != 3 or parts[2] not in ("dies", "survives"):
            raise SpecParseError(
                f"ram characters need a dies|survives flag: {spec!r}")
        dies = parts[2] == "dies"
    else:
        if len(parts) == 3:
            raise SpecParseError("dies/survives only applies to ram characters")
        dies = True
    return LocalCharData(ramified=ramified, trivial_mod_p=trivial,
                         becomes_unramified_over_extension=dies)


def parse_local_type(spec: str, p: int) -> LocalType:
    """Grammar: ups:a=<int>,c=<int> | ramps:<charspec>;<charspec> |
    special:<charspec> | sc | generic:<m0,m1,...>"""
    s = spec.strip()
    if s == "sc":
        return Supercuspidal()
    if s.startswith(("ups:", "generic:")) and p < 2:
        raise SpecParseError(f"{spec!r} needs p >= 2, got p = {p}")
    if s.startswith("ups:"):
        fields = parse_int_fields(spec, s[len("ups:"):], ("a", "c"))
        if len(fields) != 2:
            raise SpecParseError(f"ups spec needs exactly a=..,c=..: {spec!r}")
        return UnramifiedPS(fields["a"], fields["c"], p)
    if s.startswith("ramps:"):
        body = s[len("ramps:"):]
        halves = body.split(";")
        if len(halves) != 2:
            raise SpecParseError(f"ramps spec needs two characters: {spec!r}")
        return RamifiedPS(parse_char_spec(halves[0]), parse_char_spec(halves[1]))
    if s.startswith("special:"):
        return Special(parse_char_spec(s[len("special:"):]))
    if s.startswith("generic:"):
        body = s[len("generic:"):]
        try:
            vals = tuple(int(x) for x in body.split(","))
        except ValueError:
            raise SpecParseError(f"bad generic values in {spec!r}")
        n = len(vals)
        t = n
        while t % p == 0:
            t //= p
        if t != 1:
            raise SpecParseError(
                f"generic data length {n} is not a power of {p}")
        return Generic(n, vals)
    raise SpecParseError(f"bad local type spec {spec!r}")


def describe_local_type(V: LocalType) -> str:
    """Inverse of the grammar, for reports."""
    if isinstance(V, Supercuspidal):
        return "sc"
    if isinstance(V, UnramifiedPS):
        return f"ups:a={V.a},c={V.c}"
    if isinstance(V, Special):
        return f"special:{_describe_char(V.phi)}"
    if isinstance(V, RamifiedPS):
        return f"ramps:{_describe_char(V.phi1)};{_describe_char(V.phi2)}"
    if isinstance(V, Generic):
        return "generic:" + ",".join(str(v) for v in V.m_values)
    raise TypeError(f"unknown local type {V!r}")


def _describe_char(phi: LocalCharData) -> str:
    base = f"{'ram' if phi.ramified else 'unram'}," \
           f"{'triv' if phi.trivial_mod_p else 'nontriv'}"
    if phi.ramified:
        base += ",dies" if phi.becomes_unramified_over_extension else ",survives"
    return base
