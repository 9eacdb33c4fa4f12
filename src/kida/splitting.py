"""Splitting and ramification of rational primes in abelian fields, and
place counting in cyclotomic p-power towers.

An abelian field is (conductor N, subgroup H of (Z/N)^*): the fixed field
of H acting on the N-th cyclotomic field, N the least modulus it is
defined at.  Decomposition data at a prime ell comes from the standard
dictionary: inertia I at ell is the ell-component of the unit group U,
Frobenius is the class of ell prime to ell, and places correspond to
cosets of H times the decomposition subgroup D = I <Frob>.  e, f and g
are indices of Hermite lattices: [HI : H], [HD : HI] and [U : HD]
(``efg``).  F is a subfield of E iff F's conductor divides E's and E's
subgroup reduces into F's (``relative_degree``).  Place counts in the
layers of the cyclotomic p-tower over a field unramified at p follow from
efg and one p-adic valuation, with no layer built (tower_places); a field
ramified at p is counted through its reduction at p
(``unramified_at_p_reduction``), which has the same tower when every
p-part of its characters is wild.  A ``degree=d`` spec names the
subgroup of d-th powers, the only index-d subgroup when the gcds of d
with the invariant factors multiply to d (``_resolve_degree_subgroup``).

An AbelianField is a value: it is equal to, and hashes like, every field
with its (conductor, HNF basis of H's lattice), so ``==`` means "same
field".  It holds integers only, and reads its unit group from
``arith.unit_group``'s cache, so a cache keyed on fields pins no
UnitGroup or baby-step table.
Three bounded lru caches hold one fact each that repeats in the traffic;
errors are not stored:

- ``efg`` (256 entries) keys on (field, ell).
- ``ramified_set`` (128 entries) keys on (F, F', p) as given: a pair's
  p-side decision, reductions at p and place data are computed once per
  pair, not once per form carried along it.
- ``_resolve_degree_subgroup`` (128 entries) keys on (N, d) and keeps a
  ``degree=`` spec's presentation at its conductor (conductor, generator
  residues, HNF basis), so parsing it again builds the field with no
  power, discrete log, HNF or conductor test.

``relative_degree`` and ``unramified_at_p_reduction`` are not memoized:
in the pipeline only a ``ramified_set`` miss calls them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from . import arith
from .errors import (BoundExceeded, InternalAdditivityViolation, KidaError,
                     NotASubfield, NotPPower, SpecParseError, TameAtP)
from .intlinalg import Lattice, subgroup_lattice


class AbelianField:
    """The fixed field of the subgroup H of (Z/N)^* that ``subgroup_gens``
    generate, for any modulus N it is defined at, presented at its
    conductor M: when M < N it is built again at M from the generators'
    residues mod M that are not 1.  ``basis``, when given, is trusted to
    be H's HNF basis in (Z/N)^*'s invariant-factor basis, N the conductor;
    it spares the discrete logs, the HNF and the conductor test.  The
    conductor must be >= 1: ``arith.factor`` refuses any other (ZeroInput),
    and ``parse_field_spec`` first.  A generator that is not a unit is
    refused as written (SpecParseError).  ``degree``, [F : Q], is the
    index of H in the unit group.

    So ``==`` means "same field": the degree-11 subfields of Q(zeta_46)
    and Q(zeta_23) are both presented at 23, and equal.
    """

    def __init__(self, conductor: int, subgroup_gens=(), basis=None):
        U = arith.unit_group(conductor)
        for g in subgroup_gens:
            if math.gcd(g, conductor) != 1:
                raise SpecParseError(
                    f"subgroup generator {g} not a unit mod {conductor}")
        gens = sorted({g % conductor for g in subgroup_gens}) if conductor > 1 else []
        if basis is None:
            lattice = subgroup_lattice([U.log(g) for g in gens],
                                       U.invariant_factors)
            M = _conductor(U, lattice)
            if M < conductor:       # presented again at the conductor
                self.__init__(M, [g for g in gens if g % M != 1])
                return
        else:
            lattice = Lattice([list(r) for r in basis], U.rank, hermite=True)
        self.conductor, self.subgroup_gens, self._lattice = (
            conductor, tuple(gens), lattice)
        self.degree = lattice.det()
        self._key = (conductor, tuple(map(tuple, lattice.basis)))

    def __eq__(self, other):
        if not isinstance(other, AbelianField):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @property
    def unit_group(self) -> arith.UnitGroup:
        """(Z/conductor)^*, from ``arith.unit_group``'s cache."""
        return arith.unit_group(self.conductor)

    def spec_string(self) -> str:
        if self.degree == 1:
            return "Q"
        gens = ",".join(str(g) for g in self.subgroup_gens)
        return f"cyclotomic:{self.conductor}:gens={gens}"

    def __repr__(self):
        return (f"AbelianField(conductor={self.conductor}, "
                f"degree={self.degree})")


def rationals() -> AbelianField:
    return AbelianField(1)


def _conductor(U: arith.UnitGroup, lat: Lattice) -> int:
    """Conductor of the fixed field of H = ``lat`` in U = (Z/N)^*: the
    least M | N with H holding every unit that is 1 mod M (Washington,
    Introduction to Cyclotomic Fields, ch. 3).  For q^a || N the units of
    (Z/q^a)^* that are 1 mod q^c are the whole q-part for c = 0, and for
    q = 2, c = 1; else the order-q^(a-c) subgroup of the last local factor.
    """
    M = U.modulus
    for q, a in arith.factor(U.modulus):
        local = U.local_coordinates(q)
        for c in range(a - 1, -1, -1):
            if c == 0 or (q == 2 and c == 1):
                ones = local
            else:
                step = 2 ** (c - 2) if q == 2 else (q - 1) * q ** (c - 1)
                ones = [[step * x for x in local[-1]]]
            if not all(map(lat.contains, ones)):
                break
            M //= q
    return M


def relative_degree(F: AbelianField, Fp: AbelianField) -> int:
    """[Fp : F] for F contained in Fp: F's conductor divides Fp's, and the
    residue of each Hermite row of Fp's lattice (only ``rank`` of them,
    however many ``subgroup_gens``) reduces mod F's conductor into F's
    subgroup."""
    M, U, V = F.conductor, F.unit_group, Fp.unit_group
    if Fp.conductor % M or not all(
            F._lattice.contains(U.log(V.element(row) % M))
            for row in Fp._lattice.basis):
        raise NotASubfield("extension field does not contain the base field")
    return Fp.degree // F.degree


class PlaceData(namedtuple("PlaceData", "ell e f g")):
    """Decomposition data of a rational prime in a finite abelian field:
    its ramification index e, residue degree f and number of places g,
    whose product e f g is the field's degree."""

    __slots__ = ()


def _frobenius_residue(U: arith.UnitGroup, ell: int) -> int:
    """Class of ell on the prime-to-ell part, 1 on the ell-part."""
    res, mods = [], []
    for q, e in arith.factor(U.modulus):
        qe = q ** e
        res.append(1 if q == ell else ell % qe)
        mods.append(qe)
    return arith.crt(res, mods)


@lru_cache(maxsize=256)
def efg(F: AbelianField, ell: int) -> PlaceData:
    """Ramification index e = [HI : H], residue degree f = [HD : HI] and
    number of places g = [U : HD] of ell in F, with I the ell-part of U
    and D = I <Frob>: indices of Hermite lattices, of product [U : H].

    ell must be prime, and this is where it is checked, by
    ``arith.require_prime``: every function here that takes an ell calls
    efg before it reads ell."""
    arith.require_prime("ell", ell)
    U, L_H = F.unit_group, F._lattice
    L_HI = Lattice(L_H.basis + list(U.local_coordinates(ell)), U.rank)
    L_HD = Lattice(L_HI.basis + [U.log(_frobenius_residue(U, ell))], U.rank)
    hi, hd = L_HI.det(), L_HD.det()
    return PlaceData(ell, F.degree // hi, hi // hd, hd)


class TowerPlaceData(namedtuple("TowerPlaceData",
                                 "ell p g_layers g_infinity")):
    """Places above ell in the cyclotomic p-tower over a field.

    ``g_layers`` holds g_0, ..., g_s, g_(s + 1), where layer s, the first
    with ``g_infinity`` places, is ``g_layers.index(g_infinity)``.
    """

    __slots__ = ()


def _tame_rows(U: arith.UnitGroup, p: int, a: int) -> list:
    """Generators of K = (units prime to p) x (Teichmueller (p-1)-torsion
    at p, last) in U = (Z/N)^*, p^a || N: the subgroup on which every wild
    character is trivial, fixing the layer of degree p^(a-1) of Q_inf."""
    return [c for q, _ in arith.factor(U.modulus) if q != p
            for c in U.local_coordinates(q)] + [
        [x * p ** (a - 1) for x in U.local_coordinates(p)[0]]]


def tower_places(F: AbelianField, ell: int, p: int) -> TowerPlaceData:
    """Places above ell in the layers F_n = F Q_n of the cyclotomic p-tower
    over a field F unramified at p.

    With g, f from efg(F, ell) and k = v_p(ell^(p-1) - 1) + v_p(f), layer
    n has g p^min(n, k - 1) places and the tower g p^(k - 1), reached at
    layer k - 1 (Washington, Introduction to Cyclotomic Fields, section
    13): Gal(F_inf/F) = 1 + p Z_p, and the decomposition group of a place
    over ell is topologically generated by <ell>^f, which generates
    1 + p^k Z_p.  A field ramified at p is refused (KidaError): count the
    tower of its ``unramified_at_p_reduction``.

    p must be an odd prime, checked first with ``arith.require_prime``
    (p = 0 would divide by zero, and p = 1 divides every conductor), and
    ell a prime other than p: ``efg`` checks that ell is prime before the
    valuation loop (which would not end at ell = +-1), and
    ``ramified_set`` passes only the primes of a conductor prime to p.
    """
    arith.require_prime("p", p, odd=True)
    if F.conductor % p == 0:
        raise KidaError(f"{F.spec_string()} is ramified at {p}: count the "
                        f"tower of its unramified_at_p_reduction")
    place = efg(F, ell)
    k = 1
    while pow(ell, p - 1, p ** (k + 1)) == 1:
        k += 1
    k += arith.padic_val(place.f, p)
    gs = tuple(place.g * p ** min(n, k - 1) for n in range(k + 1))
    return TowerPlaceData(ell, p, gs, gs[-1])


class RamifiedPlace(namedtuple("RamifiedPlace",
                                "ell local_degree places f_prime_to_p")):
    """One prime-to-p prime ramified in the tower extension: its local
    degree [F'_{infty,w'} : F_{infty,w}], a p-power, the number of places
    of F'_infty above it, and the prime-to-p part f0 of its residue degree
    in F: Frobenius at ell in F_infty is the f0-th power of ell's."""

    __slots__ = ()


class RamifiedSet(namedtuple("RamifiedSet", "entries degree base ext")):
    """The ramified places of a tower extension (a tuple of
    ``RamifiedPlace``), its degree [F' : F] and the pair reduced at p
    that they are read from."""

    __slots__ = ()


@lru_cache(maxsize=128)
def ramified_set(F: AbelianField, Fp: AbelianField, p: int) -> RamifiedSet:
    """Prime-to-p places of Fp's tower ramified over F's tower.

    Inertia at p is mu_(p-1) x (a p-group), so a field whose H misses the
    Teichmueller row has a tame p-part, and a p-tower that no field
    unramified at p has: refused (TameAtP).  Otherwise both fields are
    replaced by their reductions at p, which have the same towers,
    returned as ``base`` and ``ext``.  For ell != p the tower layers are
    unramified at ell, so the local ramification equals e_ell(F'/F); the
    residue field of a tower-layer place has no p-extensions, so the whole
    local degree is e_ell(F'/F) and every place above a ramified ell is
    (totally) ramified.

    This is where the library checks that p is an odd prime, with
    ``arith.require_prime``, for ``unramified_at_p_reduction`` too, as
    ``tower_places`` does for itself; ``kida transition`` checks ``--p``
    the same way before it.
    """
    arith.require_prime("p", p, odd=True)
    for field in (F, Fp):
        a = arith.padic_val(field.conductor, p)
        if a and not field._lattice.contains(
                _tame_rows(field.unit_group, p, a)[-1]):
            raise TameAtP(
                f"{field.spec_string()} is tamely ramified at {p} "
                f"(e = {efg(field, p).e}): its {p}-tower is not that of a "
                f"field unramified at {p}")
    F, Fp = unramified_at_p_reduction(F, p), unramified_at_p_reduction(Fp, p)
    if F.conductor % p == 0 or Fp.conductor % p == 0:
        raise InternalAdditivityViolation("reduction left ramification at p")
    degree = relative_degree(F, Fp)
    if degree != p ** arith.padic_val(degree, p):
        raise NotPPower(f"[F':F] = {degree} is not a power of {p}")
    entries = []
    for ell, _ in arith.factor(Fp.conductor):
        base = efg(F, ell)
        e_ext = efg(Fp, ell).e
        if e_ext % base.e:
            raise InternalAdditivityViolation(
                f"e at {ell}: base {base.e} does not divide extension {e_ext}")
        e_rel = e_ext // base.e
        if e_rel == 1:
            continue
        entries.append(RamifiedPlace(
            ell=ell, local_degree=e_rel,
            places=tower_places(Fp, ell, p).g_infinity,
            f_prime_to_p=base.f // p ** arith.padic_val(base.f, p)))
    return RamifiedSet(entries=tuple(entries), degree=degree, base=F, ext=Fp)


def unramified_at_p_reduction(F: AbelianField, p: int) -> AbelianField:
    """The field cut out by the tame parts of F's characters.

    With N the prime-to-p part of the conductor, each character of F is
    chi = chi_N chi_p, chi_N of conductor dividing N and chi_p of p-power
    conductor.  The tame part of chi is chi_N, taken over the chi whose
    chi_p is wild (trivial on the (p-1)-th roots of unity, so a character
    of Gal(Q_inf/Q)).  When every chi_p is wild, as it is whenever [F : Q]
    is a power of p, the reduction has the same cyclotomic p-tower as F.
    It need not be a subfield of F: cyclotomic:63:gens=8,55,59 at p = 3
    reduces to the cubic field of conductor 7.

    Realized by the meet of H with K (``_tame_rows``), where every wild
    character is trivial, projected to (Z/N)^*.  A field whose conductor
    p does not divide is unramified at p and its own reduction.  p must be
    an odd prime, which ``ramified_set``, its caller, checks.
    """
    a = arith.padic_val(F.conductor, p)
    if a == 0:                  # unramified at p
        return F
    U, N = F.unit_group, F.conductor // p ** a
    meet = F._lattice.intersect(
        subgroup_lattice(_tame_rows(U, p, a), U.invariant_factors))
    return AbelianField(N, {U.element(row) % N for row in meet.basis})


# -- field input grammar --------------------------------------------------

@lru_cache(maxsize=128)
def _resolve_degree_subgroup(N: int, d: int) -> tuple[int, tuple, tuple]:
    """The unique index-d subgroup of U = (Z/N)^*, if unique, presented at
    its conductor M: M, the generator residues and the HNF basis of its
    lattice.

    An index-d subgroup H holds the d-th powers dU, as U/H has order d,
    and dU has index prod a_i with a_i = gcd(d, d_i) over U's invariant
    factors d_i.  So H is unique iff that product is d, and it is then
    dU, whose Hermite basis is diag(a_i) and whose generators are the
    g_i^a_i that are not 1: one per invariant factor dU does not fill.
    dU maps onto dU_M, the d-th powers mod M, resolved again at M.
    """
    U = arith.unit_group(N)
    if U.order % d:
        raise SpecParseError(f"(Z/{N})^* has no subgroup of index {d}")
    a = [math.gcd(d, di) for di in U.invariant_factors]
    if math.prod(a) != d:
        from .chargroup import subgroup_count
        count = subgroup_count(U.invariant_factors, d)
        raise SpecParseError(
            f"index-{d} subgroup of (Z/{N})^* is not unique "
            f"({count} candidates); use gens=...")
    rows = [[ai if j == i else 0 for j in range(U.rank)]
            for i, ai in enumerate(a)]
    M = _conductor(U, Lattice(rows, U.rank, hermite=True))
    if M < N:
        return _resolve_degree_subgroup(M, d)
    gens = tuple(sorted({U.element(row) for row in rows} - {1}))
    return N, gens, tuple(map(tuple, rows))


def parse_field_spec(spec: str) -> AbelianField:
    """Grammar: ``Q`` | ``cyclotomic:<N>:degree=<d>`` |
    ``cyclotomic:<N>:gens=<g1,g2,...>``."""
    s = spec.strip()
    if s == "Q":
        return rationals()
    parts = s.split(":")
    if len(parts) != 3 or parts[0] != "cyclotomic":
        raise SpecParseError(f"bad field spec {spec!r}")
    try:
        N = int(parts[1])
    except ValueError:
        raise SpecParseError(f"bad conductor in {spec!r}")
    if N < 1:
        raise SpecParseError(f"conductor must be >= 1 in {spec!r}")
    if N > arith._INPUT_BOUND:
        raise BoundExceeded(
            f"conductor {N} in {spec!r} exceeds the factorization bound "
            f"10^12")
    body = parts[2]
    if body.startswith("degree="):
        try:
            d = int(body[len("degree="):])
        except ValueError:
            raise SpecParseError(f"bad degree in {spec!r}")
        if d < 1:
            raise SpecParseError("degree must be >= 1")
        return AbelianField(*_resolve_degree_subgroup(N, d))
    if body.startswith("gens="):
        tail = body[len("gens="):]
        try:
            gens = tuple(int(x) for x in tail.split(",") if x != "")
        except ValueError:
            raise SpecParseError(f"bad generator list in {spec!r}")
        return AbelianField(N, gens)
    raise SpecParseError(f"bad field spec {spec!r}")
