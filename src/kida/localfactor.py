"""Local types at primes ell != p and their multiplicity bookkeeping.

For a two-dimensional representation V of the absolute Galois group of a
local tower field L (ell != p), m(V) counts the trivial constituents of
the Galois invariants of the inertia coinvariants.  A finite p-extension
of L is cyclic and totally ramified, so twisting characters of the local
Galois group form a cyclic p-group of order d, a twist chi_j is its
exponent j mod d, and the extension multiplicity is

    m(L'/L, V) = sum over j mod d of (m(V) - m(V_chi_j)).

V is given by its Frobenius data (``UnramifiedPS``), by user m-values
(``Generic``), or, when ramified, by its character lines
(``CharacterLines``): the characters through which the local Galois
group acts on the lines of V that can reach the inertia coinvariants,
none for a supercuspidal V, one for a special V and two for a ramified
principal series.

Each type answers for itself through four methods: ``_rows(e)``, its
(case, value) rows of the h-table at ramification index e; ``_twist``,
its m(V_chi) for one twist; ``_restricted``, the type over a larger
field; and ``_spec``, its grammar string.  Two class attributes name the
rest: ``path``, the report path that prices it ("table", or "generic"
for the user's values), and ``hv_fields``, the fields ``kida hv`` prints
besides its type.  ``m_extension`` sums the rows: one per character line
of V, one for its Frobenius data, or one summing the user's values for
``Generic`` data.  ``twist_sum`` evaluates the sum above literally, one
``m_single(V, d, j)`` per exponent j, and serves the suites as the
table's oracle.  It keeps its last 128 values in an ``lru_cache`` keyed
on (V, d): ``check_tower_additivity`` meets each (V, d) several times
along a suite's chains of degrees.

Each type is a ``namedtuple``, so it equals a plain tuple of its values,
but no two types can be equal: ``UnramifiedPS`` has three fields and the
others one, which holds ``LocalCharData`` tuples for ``CharacterLines``
and at least one int for ``Generic``.  The cache above and ``compose``'s
comparison of restricted types rely on that.  A record here or in
``transition`` whose ``__new__`` checks or reduces its fields takes
``_checked_make`` as its ``_make``, so ``_make`` and ``_replace`` build
through ``__new__`` too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import IncoherentGenericData, SpecParseError, parse_int_fields


@classmethod
def _checked_make(cls, iterable):
    """A namedtuple's ``_make``, which ``_replace`` calls, built through
    ``cls(*iterable)``: a record's ``__new__`` checks every copy."""
    return cls(*iterable)


class LocalCharData(namedtuple("LocalCharData", (
        "ramified", "trivial_mod_p", "becomes_unramified_over_extension",
        "order_on_inertia"))):
    """One character of the local Galois group, by the bits that matter.

    ``becomes_unramified_over_extension`` says whether the character is
    killed by restriction to the (context) extension; it is vacuous for
    unramified characters.  ``order_on_inertia`` (1 if unramified) pins
    the exact level at which a ramified character dies and is required
    for coherent restriction in towers with more than one step.
    """

    __slots__ = ()

    def __new__(cls, ramified: bool, trivial_mod_p: bool,
                becomes_unramified_over_extension: bool = True,
                order_on_inertia: int | None = None):
        if not ramified:
            becomes_unramified_over_extension, order_on_inertia = True, 1
        elif order_on_inertia is not None and order_on_inertia < 2:
            raise SpecParseError(
                "ramified character needs order > 1 on inertia")
        return super().__new__(cls, ramified, trivial_mod_p,
                               becomes_unramified_over_extension,
                               order_on_inertia)

    _make = _checked_make

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


class UnramifiedPS(namedtuple("UnramifiedPS", "a c p")):
    """Unramified principal series: Frobenius polynomial x^2 - a x + c mod p."""

    __slots__ = ()
    path, hv_fields = "table", ("a", "c")

    def __new__(cls, a: int, c: int, p: int):
        if p < 2:
            raise SpecParseError(f"ups needs p >= 2, got {p}")
        return super().__new__(cls, a % p, c % p, p)

    _make = _checked_make

    def _rows(self, e: int) -> list[tuple[str, int]]:
        t = trivial_eigenvalues(self)
        return [(_UPS_CASES[t], t * (e - 1))]

    def _twist(self, degree: int, exponent: int) -> int:
        if exponent:
            return 0    # ramified twist kills the coinvariants
        return trivial_eigenvalues(self)

    def _restricted(self, degree: int) -> "UnramifiedPS":
        return self

    def _spec(self) -> str:
        return f"ups:a={self.a},c={self.c}"


class CharacterLines(namedtuple("CharacterLines", "chars")):
    """A ramified type, as the characters on V's lines that can reach
    the inertia coinvariants, a tuple of ``LocalCharData``.  Their number
    gives the grammar prefix: none ``sc`` (supercuspidal or extraordinary,
    0 through every path), one ``special:``, two ``ramps:``."""

    __slots__ = ()
    path, hv_fields = "table", ()

    def __new__(cls, chars: tuple[LocalCharData, ...]):
        if len(chars) > 2:
            raise SpecParseError("V has at most two character lines")
        return super().__new__(cls, chars)

    _make = _checked_make

    def _rows(self, e: int) -> list[tuple[str, int]]:
        rows = []
        for phi in self.chars:
            rows.append(_char_row(phi, e))
        return rows or [("supercuspidal_or_extraordinary", 0)]

    def _twist(self, degree: int, exponent: int) -> int:
        m = 0
        for phi in self.chars:
            m += _m_char(phi, degree, exponent)
        return m

    def _restricted(self, degree: int) -> "CharacterLines":
        chars = ()
        for phi in self.chars:
            chars += (phi.restricted(degree),)
        return self if chars == self.chars else CharacterLines(chars)

    def _spec(self) -> str:
        return (_LINE_PREFIXES[len(self.chars)]
                + ";".join(map(_describe_char, self.chars)))


class Generic(namedtuple("Generic", "m_values")):
    """User-supplied m-values per character of the local cyclic p-group.

    ``m_values[j]`` is m(V_{chi_j}) for the character of exponent j of
    the cyclic group whose order, the degree of the data, is the number
    of values (j = 0 the trivial character); equivalently the
    multiplicity of chi_j in an explicit character multiset, which is
    what makes restriction in towers well defined.
    """

    __slots__ = ()
    path, hv_fields = "generic", ()

    def __new__(cls, m_values: tuple[int, ...]):
        if not m_values:
            raise IncoherentGenericData("generic data needs at least one "
                                        "m-value")
        if any(v < 0 for v in m_values):
            raise IncoherentGenericData("generic m-values must be >= 0")
        return super().__new__(cls, m_values)

    _make = _checked_make

    def _step(self, degree: int) -> int:
        """The index step from a character of the degree-``degree``
        quotient to its value: exponent j there is exponent step * j
        here, and step is also the degree of the restricted data."""
        n = len(self.m_values)
        if n % degree:
            raise IncoherentGenericData(
                f"generic data over degree {n} cannot serve degree {degree}")
        return n // degree

    def _rows(self, e: int) -> list[tuple[str, int]]:
        step, vals = self._step(e), self.m_values
        return [("generic_m_summation",
                 sum(vals[0] - vals[step * i] for i in range(e)))]

    def _twist(self, degree: int, exponent: int) -> int:
        return self.m_values[self._step(degree) * exponent]

    def _restricted(self, degree: int) -> "Generic":
        sub = self._step(degree)
        vals = [0] * sub
        for j, m in enumerate(self.m_values):
            vals[j % sub] += m
        return Generic(tuple(vals))

    def _spec(self) -> str:
        return "generic:" + ",".join(str(v) for v in self.m_values)


LocalType = UnramifiedPS | CharacterLines | Generic

# the grammar's prefixes: a ramified type's by its number of character
# lines, then those of the types that read p
_LINE_PREFIXES = ("sc", "special:", "ramps:")
_P_PREFIXES = ("ups:", "generic:")


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


def case_of(V: LocalType, e: int) -> str:
    """Name of the table case V falls in at ramification index e."""
    return "+".join(case for case, _ in V._rows(e))


def m_extension(V: LocalType, local_degree: int) -> int:
    """m(L'/L, V) over the local extension of degree ``local_degree``: the
    sum of V's h-table rows, in O(1) for every type but generic data,
    whose one row sums the user's values."""
    if local_degree < 1:
        raise SpecParseError("local degree must be >= 1")
    return sum(value for _, value in V._rows(local_degree))


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


def m_single(V: LocalType, degree: int, exponent: int) -> int:
    """m(V_chi) for the twist chi of exponent ``exponent`` mod ``degree``:
    multiplicity of the trivial representation in the Galois invariants
    of the inertia coinvariants of the twist, the user's value for
    generic data; the check of the degree for ``twist_sum``."""
    if degree < 1:
        raise SpecParseError("local degree must be >= 1")
    return V._twist(degree, exponent % degree)


@lru_cache(maxsize=128)
def twist_sum(V: LocalType, local_degree: int) -> int:
    """m(L'/L, V) = sum over the local_degree twist exponents j of
    (m(V) - m(V_chi_j)), one ``m_single`` per twist: O(local_degree), the
    oracle the suites hold ``m_extension`` to."""
    base = m_single(V, local_degree, 0)
    return sum(base - m_single(V, local_degree, j)
               for j in range(local_degree))


def restrict_type(V: LocalType, degree: int) -> LocalType:
    """The same representation over the degree-``degree`` extension.

    Unramified principal series keep their Frobenius data (the extension
    is totally ramified), each character line restricts by its inertia
    order (a supercuspidal type has none, so stays supercuspidal), and
    generic data restricts through its character-multiset model.
    """
    if degree < 1:
        raise SpecParseError("local degree must be >= 1")
    return V if degree == 1 else V._restricted(degree)


def check_tower_additivity(V: LocalType, inner_degree: int,
                           outer_degree: int):
    """Both sides of m(L''/L,V) = [L'':L'] m(L'/L,V) + m(L''/L',V)
    for the chain of local degrees inner_degree | outer_degree, each
    term summed twist by twist (``twist_sum``).

    Returns (lhs == rhs, lhs, rhs).
    """
    inner = twist_sum(V, inner_degree)     # m_single refuses a degree < 1
    if outer_degree % inner_degree:
        raise IncoherentGenericData("chain degrees must be nested")
    step = outer_degree // inner_degree
    lhs = twist_sum(V, outer_degree)
    rhs = step * inner + twist_sum(restrict_type(V, inner_degree), step)
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


def is_local_type_spec(spec: str) -> bool:
    """Whether ``spec`` is written in this grammar rather than as a form:
    its word before any colon is a prefix's, so ``sc:`` is a malformed
    local type, not a malformed form."""
    head = spec.strip().partition(":")[0]
    return any(head == prefix.rstrip(":")
               for prefix in _LINE_PREFIXES + _P_PREFIXES)


def parse_local_type(spec: str, p: int) -> LocalType:
    """Grammar: ups:a=<int>,c=<int> | ramps:<charspec>;<charspec> |
    special:<charspec> | sc | generic:<m0,m1,...>; ``ups`` and
    ``generic`` read p, 0 when no prime is given."""
    prefix, colon, body = spec.strip().partition(":")
    prefix += colon
    if prefix in _LINE_PREFIXES:
        n = _LINE_PREFIXES.index(prefix)
        # a special: body is one charspec whole, so its errors quote it all
        lines = body.split(";") if n == 2 else [body][:n]
        if len(lines) != n:
            raise SpecParseError(f"ramps spec needs two characters: {spec!r}")
        return CharacterLines(tuple(map(parse_char_spec, lines)))
    if prefix in _P_PREFIXES and p < 2:
        raise SpecParseError(f"--p required for {spec!r}")
    if prefix == "ups:":
        fields = parse_int_fields(spec, body, ("a", "c"))
        if len(fields) != 2:
            raise SpecParseError(f"ups spec needs exactly a=..,c=..: {spec!r}")
        return UnramifiedPS(fields["a"], fields["c"], p)
    if prefix == "generic:":
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
        return Generic(vals)
    raise SpecParseError(f"bad local type spec {spec!r}")


def describe_local_type(V: LocalType) -> str:
    """Inverse of the grammar, for reports."""
    return V._spec()


def _describe_char(phi: LocalCharData) -> str:
    base = f"{'ram' if phi.ramified else 'unram'}," \
           f"{'triv' if phi.trivial_mod_p else 'nontriv'}"
    if phi.ramified:
        base += ",dies" if phi.becomes_unramified_over_extension else ",survives"
    return base
