"""Finite abelian groups, characters, and multiplicity pairings.

Groups are presented by invariant factors d_1 | d_2 | ... | d_r; elements
are coordinate tuples.  Characters are exponent vectors: the character
with exponents (c_1..c_r) sends g to zeta_e^(sum c_i g_i (e/d_i)) where
e = lcm(d_i).  All pairings are computed by exact counting; a second
route through exact cyclotomic-integer sums (reduced mod the e-th
cyclotomic polynomial) is provided as an independent oracle.  No
floating point anywhere.

Subgroups of G = Z^r / diag(d) are the lattices L between diag(d) Z^r
and Z^r; one walk over their Hermite normal forms lists each subgroup
once, and a form with diagonal a_1..a_r has order |G| / prod a_i.  A
subgroup keeps its Hermite rows and lists its elements from them.  Each
such lattice holds diag(d) Z^r, so it is a full-rank ``intlinalg.Lattice``.

Three bounded lru caches key on a group's value, so equal groups built
apart share them; errors are not stored:

- ``_exponent_weights`` (64 entries) keys on the invariant factors and
  keeps e = lcm(d) and the weights e/d_i.
- ``_dual`` (8 entries) keys on the group and keeps its characters;
  ``dual_group`` copies them into a new list on each call, so a caller
  cannot change the cached ones.  A sweep meets each group in one
  stretch, so a few groups suffice.
- ``_cyclotomic_polynomial`` (256 entries) keys on n.

``value_log`` evaluates a character at one element; ``multiplicity``
and the trace oracle call it per character and element.  The
annihilator and the restriction classes read every character of G on
H's generators, so they fold the weights into the generators once
(``_restrictions``).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add, mod, mul

from . import arith
from .errors import InternalAdditivityViolation, Record, SubgroupMismatch
from .intlinalg import Lattice, subgroup_lattice


class FiniteAbelianGroup(Record):
    """Product of cyclic groups C_{d_1} x ... x C_{d_r} with d_1 | ... | d_r."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        d = invariant_factors
        if any(x < 2 for x in d):
            raise ValueError("invariant factors must be >= 2")
        if any(d[i + 1] % d[i] for i in range(len(d) - 1)):
            raise ValueError("divisibility chain violated")
        self._fill(invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return _exponent_weights(self.invariant_factors)[0]


TRIVIAL_GROUP = FiniteAbelianGroup(())


@lru_cache(maxsize=64)
def _exponent_weights(d: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(e, (e/d_1, ..., e/d_r)) for invariant factors ``d``: the exponent
    e = lcm(d) and the weights that put each coordinate's log over zeta_e."""
    e = math.lcm(*d)
    return e, tuple(e // di for di in d)


def cyclic(n: int) -> FiniteAbelianGroup:
    return TRIVIAL_GROUP if n == 1 else FiniteAbelianGroup((n,))


class Character(Record):
    """Character of a FiniteAbelianGroup given by its exponent vector."""

    __slots__ = ("group", "exponents")

    def __init__(self, group: FiniteAbelianGroup, exponents: tuple[int, ...]):
        d = group.invariant_factors
        if len(exponents) != len(d):
            raise ValueError("exponent vector length mismatch")
        if any(not 0 <= c < di for c, di in zip(exponents, d)):
            raise ValueError("exponents out of range")
        self._fill(group, exponents)

    def __hash__(self):
        # equal characters have equal exponents; one tuple hash, where
        # Record's would hash the group through a second Python call
        return hash(self.exponents)

    def value_log(self, element) -> int:
        """log base zeta_e of the character value at ``element``."""
        e, w = _exponent_weights(self.group.invariant_factors)
        return sum(map(mul, map(mul, self.exponents, element), w)) % e

    def restriction_tuple(self, gens) -> tuple[int, ...]:
        """Value logs on a generator list; equal tuples = equal on <gens>."""
        return tuple(map(self.value_log, gens))


def _restrictions(G: FiniteAbelianGroup, chars, elements) -> list[tuple]:
    """Per character of G in ``chars``, the tuple of its value logs at
    ``elements``.  The weights e/d_i are folded into each element once,
    so each log is one dot product with the character's exponents, mod e:
    ``value_log``'s formula, read for many characters at a time."""
    e, w = _exponent_weights(G.invariant_factors)
    exps = [chi.exponents for chi in chars]
    cols = [[sum(map(mul, c, f)) % e for c in exps]
            for f in [tuple(map(mul, g, w)) for g in elements]]
    return list(zip(*cols)) if cols else [()] * len(exps)


def dual_group(G: FiniteAbelianGroup) -> list[Character]:
    """All |G| characters in lexicographic exponent order, trivial first
    (a new list each call, so a caller may change it)."""
    return list(_dual(G))


@lru_cache(maxsize=8)
def _dual(G: FiniteAbelianGroup) -> tuple[Character, ...]:
    # each exponent vector is in range by construction, so the characters
    # skip the checks of Character.__init__
    chars = []
    for exps in itertools.product(*map(range, G.invariant_factors)):
        chi = object.__new__(Character)
        chi._fill(G, exps)
        chars.append(chi)
    return tuple(chars)


def trivial_character(G: FiniteAbelianGroup) -> Character:
    return Character(G, (0,) * G.rank)


class Subgroup:
    """Subgroup of a FiniteAbelianGroup given by coordinate generators."""

    __slots__ = ("group", "generators", "order", "_rows")

    def __init__(self, group: FiniteAbelianGroup, generators):
        self.group = group
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if len(g) != group.rank:
                raise SubgroupMismatch("generator has wrong coordinate length")
        lattice = subgroup_lattice(self.generators, group.invariant_factors)
        self._rows = lattice.basis
        self.order = group.order // lattice.det()

    @classmethod
    def from_hermite(cls, group: FiniteAbelianGroup, rows) -> "Subgroup":
        """Subgroup of the lattice with Hermite rows ``rows``, trusted as
        ``subgroup_lattices`` yields them: pivots a_i on the diagonal give
        order |G| / prod a_i, and the rows with a_i < d_i generate it.

        Such a row is already reduced mod d: a_i | d_i, and each entry
        right of the pivot lies in [0, a_j) with a_j | d_j.  A row with
        a_i = d_i is d_i e_i, 0 mod d: its tail then lies in the lattice
        spanned by the rows below, and reduced against them it is 0.
        """
        d = group.invariant_factors
        gens, order = [], 1
        for i, row in enumerate(rows):
            if row[i] < d[i]:
                gens.append(row)
                order *= d[i] // row[i]
        H = cls.__new__(cls)
        H.group, H.generators, H._rows = group, tuple(gens), rows
        H.order = order
        return H

    def elements(self) -> list[tuple[int, ...]]:
        """The |H| elements in lexicographic order, as sums of c_i times
        the Hermite rows of H's lattice, 0 <= c_i < d_i / a_i, mod d: each
        element once, as (d_i / a_i) row_i lies in the span of the rows
        below it."""
        d = self.group.invariant_factors
        out = [(0,) * len(d)]
        for i, row in enumerate(self._rows):
            steps = [tuple(c * x % di for x, di in zip(row, d))
                     for c in range(1, d[i] // row[i])]
            out += [tuple(map(mod, map(add, el, step), d))
                    for el in out for step in steps]
        out.sort()
        return out

    def annihilator(self, dual=None) -> list[Character]:
        """Characters of G trivial on this subgroup (= (G/H)^dual)."""
        chars = dual if dual is not None else _dual(self.group)
        keys = _restrictions(self.group, chars, self.generators)
        return [chi for chi, key in zip(chars, keys) if not any(key)]


class RepMultiset:
    """Finite-dimensional representation as a character multiset."""

    def __init__(self, group: FiniteAbelianGroup, entries):
        self.group = group
        agg: dict[Character, int] = {}
        for chi, m in dict(entries).items():
            if chi.group != group:
                raise SubgroupMismatch("entry character over the wrong group")
            if m < 0:
                raise ValueError("multiplicities must be >= 0")
            if m:
                agg[chi] = agg.get(chi, 0) + m
        self.entries = agg


def multiplicity(W: RepMultiset, chi: Character,
                 H: Subgroup | None = None) -> int:
    """Multiplicity <W, chi> over W's group, or over the subgroup H.

    Over H the value counts entries whose restriction to H agrees with
    the restriction of ``chi``; for H = G this is the stored multiplicity.
    """
    if chi.group != W.group:
        raise SubgroupMismatch("character over the wrong group")
    if H is None:
        return W.entries.get(chi, 0)
    if H.group != W.group:
        raise SubgroupMismatch("subgroup of the wrong group")
    target = chi.restriction_tuple(H.generators)
    return sum(m for psi, m in W.entries.items()
               if psi.restriction_tuple(H.generators) == target)


# -- independent oracle: exact cyclotomic inner product -----------------

@lru_cache(maxsize=256)
def _cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending: the product of (x^d - 1)^mu(n/d)
    over d | n.  Multiplies by the binomials with mu = 1 first, then
    divides by those with mu = -1, each exactly."""
    primes = [q for q, _ in arith.factor(n)]
    # n / d is a product of distinct primes, mu(n / d) = (-1)^(their count)
    dropped = [c for k in range(len(primes) + 1)
               for c in itertools.combinations(primes, k)]
    poly = [1]
    for c in dropped:
        if len(c) % 2 == 0:
            poly = _times_binomial(poly, n // math.prod(c))
    for c in dropped:
        if len(c) % 2:
            poly = _over_binomial(poly, n // math.prod(c))
    return tuple(poly)


def _times_binomial(poly: list[int], d: int) -> list[int]:
    """poly * (x^d - 1)."""
    out = [0] * (len(poly) + d)
    for i, c in enumerate(poly):
        out[i] -= c
        out[i + d] += c
    return out


def _over_binomial(poly: list[int], d: int) -> list[int]:
    """poly / (x^d - 1), which must be exact: poly[i] = q[i - d] - q[i]."""
    q = []
    for i in range(len(poly) - d):
        q.append((q[i - d] if i >= d else 0) - poly[i])
    if any(poly[i] != (q[i - d] if i >= d else 0)
           for i in range(len(q), len(poly))):
        raise InternalAdditivityViolation("non-exact cyclotomic division")
    return q


def multiplicity_trace(W: RepMultiset, chi: Character, H: Subgroup) -> int:
    """<W, chi>_H via the exact trace sum (1/|H|) sum_h tr_W(h) chi(h)^-1.

    Accumulates the sum as an integer polynomial in zeta_e, reduces mod
    the e-th cyclotomic polynomial, and divides by |H|.  Serves as an
    independent oracle for ``multiplicity``.
    """
    if chi.group != W.group or H.group != W.group:
        raise SubgroupMismatch("mixed groups in trace pairing")
    e = W.group.exponent
    acc = [0] * e
    for h in H.elements():
        neg = chi.value_log(h)
        for psi, m in W.entries.items():
            acc[(psi.value_log(h) - neg) % e] += m
    phi = _cyclotomic_polynomial(e)         # monic, of degree top
    top = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi[:-1]) if c]
    for i in range(e - 1, top - 1, -1):
        q = acc[i]
        if q:
            for j, c in terms:
                acc[i - top + j] -= q * c
    if any(acc[1:top]):
        raise SubgroupMismatch("trace sum not rational")
    total = acc[0]
    q, r = divmod(total, H.order)
    if r:
        raise SubgroupMismatch(f"trace sum not divisible by |H|={H.order}")
    return q


# -- the group-theoretic identity ---------------------------------------

def check_group_identity(W: RepMultiset, H: Subgroup):
    """Evaluate both sides of the multiplicity identity over G, G/H and H.

    LHS = sum over chi in G^dual of (<W,1>_G - <W,chi>_G);
    RHS = |H| * sum over chi in (G/H)^dual of (<W,1>_G - <W,chi>_G)
          + sum over chi in H^dual of (<W,1>_H - <W,chi>_H).
    Returns (lhs == rhs, lhs, rhs).
    """
    if H.group != W.group:
        raise SubgroupMismatch("subgroup of the wrong group")
    G = W.group
    dual = _dual(G)
    m1 = W.entries.get(dual[0], 0)
    lhs = sum(m1 - W.entries.get(chi, 0) for chi in dual)

    rhs1 = H.order * sum(m1 - W.entries.get(chi, 0)
                         for chi in H.annihilator(dual))

    # H^dual realized as restriction classes of G^dual.
    classes = dict.fromkeys(_restrictions(G, dual, H.generators), 0)
    for key, m in zip(_restrictions(G, W.entries, H.generators),
                      W.entries.values()):
        classes[key] += m
    if len(classes) != H.order:
        raise SubgroupMismatch(
            f"{len(classes)} restriction classes != |H|={H.order}")
    m1h = classes[tuple([0] * len(H.generators))]
    rhs2 = sum(m1h - v for v in classes.values())
    rhs = rhs1 + rhs2
    return lhs == rhs, lhs, rhs


# -- enumeration: groups and subgroups ----------------------------------

def _partitions(n: int):
    """Partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return
    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - k, k):
                yield (k,) + tail
    yield from rec(n, n)


def abelian_groups_upto(max_order: int) -> list[FiniteAbelianGroup]:
    """All abelian groups of order <= max_order, invariant-factor form."""
    out = []
    for n in range(1, max_order + 1):
        fac = arith.factor(n)
        primes = [p for p, _ in fac]
        choices = [list(_partitions(e)) for _, e in fac]
        for combo in itertools.product(*choices):
            depth = max((len(lam) for lam in combo), default=0)
            ds = []
            for level in range(depth):
                d = 1
                for p, lam in zip(primes, combo):
                    if level < len(lam):
                        d *= p ** lam[level]
                ds.append(d)
            ds.reverse()
            out.append(FiniteAbelianGroup(tuple(ds)))
    return out


def subgroup_lattices(d) -> list[list[tuple[int, ...]]]:
    """Hermite normal forms of the lattices L with diag(d) Z^r <= L <= Z^r.

    Rows are built from the bottom up, one level at a time: row i has a
    pivot a_i | d_i on the diagonal and entries right of it in [0, a_j),
    and is kept iff (d_i / a_i) times its off-diagonal part lies in the
    span of the rows below, i.e. iff d_i e_i lies in L.  Those rows' tails
    are a full-rank Hermite lattice in the last r - 1 - i coordinates,
    built once per lower form (``Lattice.contains``).  Each L has one
    such form (Cohen, *A Course in Computational Algebraic Number Theory*,
    2.4).  Every off-diagonal part qualifies when d_r divides m = d_i / a_i,
    as m e_j then lies in diag(d) Z^r for each j; for a_i = d_i only 0
    does, as a nonzero part of the box is not in the span, so that row is
    d_i e_i.  Every entry is then already below its d_j, so a row is
    reduced mod d as it stands (``Subgroup.from_hermite``); each row is
    built once and shared by all the forms that contain it.  The forms
    come in lexicographic order of their rows' choices, bottom row first.
    """
    r = len(d)
    forms = [[]]
    for i in range(r - 1, -1, -1):
        di = d[i]
        full = (0,) * i + (di,) + (0,) * (r - 1 - i)
        pivots_below = [a for a in range(1, di) if di % a == 0]
        grown = []
        for below in forms:
            tails = [row[i + 1:] for row in below]
            span = Lattice(tails, r - 1 - i, hermite=True)
            boxes = [range(row[k]) for k, row in enumerate(tails)]
            for a in pivots_below:
                m, head = di // a, (0,) * i + (a,)
                offs = itertools.product(*boxes)
                if m % d[-1]:
                    offs = [off for off in offs
                            if span.contains([m * x for x in off])]
                grown += [[head + off, *below] for off in offs]
            grown.append([full, *below])
        forms = grown
    return forms


def birkhoff_count(lam, mu, q: int) -> int:
    """Number of subgroups of type ``mu`` in the abelian q-group of type
    ``lam`` (partitions as descending sequences; Birkhoff 1934; Butler,
    *Subgroup Lattices and Symmetric Functions*, 1994):
    prod_i q^(mu'_{i+1} (lambda'_i - mu'_i))
           [lambda'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_q,
    with ' the conjugate partition; 0 unless mu lies inside lambda.
    """
    def conj(part, i):
        return sum(1 for x in part if x >= i)

    def gaussian(n, k):
        num = den = 1
        for j in range(k):
            num *= q ** (n - j) - 1
            den *= q ** (j + 1) - 1
        return num // den

    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return 0
    return math.prod(q ** (conj(mu, i + 1) * (conj(lam, i) - conj(mu, i)))
                     * gaussian(conj(lam, i) - conj(mu, i + 1),
                                conj(mu, i) - conj(mu, i + 1))
                     for i in range(1, max(lam, default=0) + 1))


def subgroup_count(d, index: int) -> int:
    """Number of subgroups of index ``index`` in Z^r / diag(d).

    A subgroup is the product of its q-parts, and index q^v in a q-part
    of type lambda takes every type mu inside lambda with
    |mu| = |lambda| - v (``birkhoff_count``).
    """
    order = math.prod(d)
    if order % index:
        return 0
    count = 1
    for q, n in arith.factor(order):
        lam = sorted((arith.padic_val(x, q) for x in d if x % q == 0),
                     reverse=True)
        count *= sum(birkhoff_count(lam, mu, q) for mu in
                     _partitions(n - arith.padic_val(index, q)))
    return count


def subgroups(G: FiniteAbelianGroup) -> list[Subgroup]:
    """Every subgroup of G, one Subgroup per distinct subgroup.

    The subgroups of G = Z^r / diag(d) are the lattices between
    diag(d) Z^r and Z^r, each listed once by its Hermite normal form
    (``subgroup_lattices``).  A form with pivots a_i gives the subgroup
    of order |G| / prod a_i generated by its rows with a_i < d_i.
    """
    return [Subgroup.from_hermite(G, rows)
            for rows in subgroup_lattices(G.invariant_factors)]


def random_rep(G: FiniteAbelianGroup, rng, max_dim: int = 20) -> RepMultiset:
    """Random character multiset of dimension between 1 and max_dim."""
    dual = _dual(G)
    dim = rng.randint(1, max_dim)
    entries: dict[Character, int] = {}
    while dim > 0:
        chi = dual[rng.randrange(len(dual))]
        m = rng.randint(1, dim)
        entries[chi] = entries.get(chi, 0) + m
        dim -= m
    return RepMultiset(G, entries)
