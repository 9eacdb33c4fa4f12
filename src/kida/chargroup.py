"""Finite abelian groups, characters, and multiplicity pairings.

A group is the tuple d = (d_1, ..., d_r) of its invariant factors,
d_1 | d_2 | ... | d_r, each at least 2, and () is the trivial group: its
rank, order and exponent are len(d), prod(d) and lcm(d).  Elements are
coordinate tuples.  A character is its exponent vector: the tuple
(c_1..c_r), 0 <= c_i < d_i, sends g to zeta_e^(sum c_i g_i (e/d_i)) where
e = lcm(d_i).  Each is checked once, where it enters, with the typed
``SubgroupMismatch``: ``_check_group`` refuses any other tuple as the
group of a ``Subgroup``, a ``RepMultiset`` or ``subgroups``, and
``_check_character`` any other vector as an entry of a ``RepMultiset``
or the character given to ``multiplicity`` or ``multiplicity_trace``;
a ``RepMultiset`` refuses a negative multiplicity too.  All pairings are
computed by exact counting; a second route through exact
cyclotomic-integer sums (reduced mod the e-th cyclotomic polynomial) is
provided as an independent oracle.  No floating point anywhere.

Subgroups of G = Z^r / diag(d) are the lattices L between diag(d) Z^r
and Z^r; one walk over their Hermite normal forms lists each subgroup
once, and a form with diagonal a_1..a_r has order |G| / prod a_i.  A
subgroup keeps its Hermite rows and lists its elements from them.  Each
such lattice holds diag(d) Z^r, so it is a full-rank ``intlinalg.Lattice``.

Three bounded lru caches; errors are not stored:

- ``_exponent_weights`` (64 entries) keys on the group and keeps
  e = lcm(d) and the weights e/d_i.
- ``dual_group`` (8 entries) keys on the group and returns the tuple of
  its characters' exponent vectors, which no caller can change.  A sweep
  meets each group in one stretch, so a few groups suffice.
- ``_cyclotomic_polynomial`` (256 entries) keys on n.

``_restrictions`` reads characters on a list of elements, with the
weights e/d_i folded into the elements once: ``multiplicity`` over H
and the identity checker compare characters by their values on H's
generators through it, and the annihilator of H is the class of the
trivial restriction.  The trace oracle folds the weights into each of
its characters once instead.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add, mod, mul

from . import arith
from .errors import InternalAdditivityViolation, SubgroupMismatch
from .intlinalg import Lattice, subgroup_lattice


@lru_cache(maxsize=64)
def _exponent_weights(d: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(e, (e/d_1, ..., e/d_r)) for invariant factors ``d``: the exponent
    e = lcm(d) and the weights that put each coordinate's log over zeta_e."""
    e = math.lcm(*d)
    return e, tuple(e // di for di in d)


def cyclic(n: int) -> tuple:
    return () if n == 1 else (n,)


def _check_group(d: tuple):
    """Refuse ``d`` unless it is a chain of invariant factors: each at
    least 2, and each dividing the next."""
    if any(x < 2 for x in d) or any(b % a for a, b in zip(d, d[1:])):
        raise SubgroupMismatch(f"{d!r} is no chain of invariant factors")


def _check_character(d: tuple, chi: tuple[int, ...]):
    """Refuse ``chi`` unless it is the exponent vector of a character of
    the group d: one entry per invariant factor d_i, each in [0, d_i)."""
    if len(chi) != len(d) or any(not 0 <= c < di for c, di in zip(chi, d)):
        raise SubgroupMismatch(f"{chi!r} is no character of {d}")


def _restrictions(d: tuple, chars, elements) -> list[tuple]:
    """Per character of the group d in ``chars``, the tuple of its value
    logs at ``elements``.  The weights e/d_i are folded into each element
    once, so each log is one dot product with the character's exponents,
    mod e; equal tuples on generators mean equal restrictions to their
    span."""
    e, w = _exponent_weights(d)
    cols = [[sum(map(mul, c, f)) % e for c in chars]
            for f in [tuple(map(mul, g, w)) for g in elements]]
    return list(zip(*cols)) if cols else [()] * len(chars)


@lru_cache(maxsize=8)
def dual_group(G: tuple) -> tuple[tuple[int, ...], ...]:
    """All |G| characters in lexicographic exponent order, trivial first."""
    return tuple(itertools.product(*map(range, G)))


def trivial_character(G: tuple) -> tuple[int, ...]:
    return (0,) * len(G)


class Subgroup:
    """Subgroup of the group with invariant factors ``group``, given by
    coordinate generators."""

    __slots__ = ("group", "generators", "order", "_rows")

    def __init__(self, group: tuple, generators):
        _check_group(group)
        self.group = group
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if len(g) != len(group):
                raise SubgroupMismatch("generator has wrong coordinate length")
        lattice = subgroup_lattice(self.generators, group)
        self._rows = lattice.basis
        self.order = math.prod(group) // lattice.det()

    @classmethod
    def from_hermite(cls, group: tuple, rows) -> "Subgroup":
        """Subgroup of the lattice with Hermite rows ``rows``, trusted as
        ``subgroup_lattices`` yields them: pivots a_i on the diagonal give
        order |G| / prod a_i, and the rows with a_i < d_i generate it.

        Such a row is already reduced mod d: a_i | d_i, and each entry
        right of the pivot lies in [0, a_j) with a_j | d_j.  A row with
        a_i = d_i is d_i e_i, 0 mod d: its tail then lies in the lattice
        spanned by the rows below, and reduced against them it is 0.
        """
        gens, order = [], 1
        for i, row in enumerate(rows):
            if row[i] < group[i]:
                gens.append(row)
                order *= group[i] // row[i]
        H = cls.__new__(cls)
        H.group, H.generators, H._rows = group, tuple(gens), rows
        H.order = order
        return H

    def elements(self) -> list[tuple[int, ...]]:
        """The |H| elements in lexicographic order, as sums of c_i times
        the Hermite rows of H's lattice, 0 <= c_i < d_i / a_i, mod d: each
        element once, as (d_i / a_i) row_i lies in the span of the rows
        below it."""
        d = self.group
        out = [(0,) * len(d)]
        for i, row in enumerate(self._rows):
            steps = [tuple(c * x % di for x, di in zip(row, d))
                     for c in range(1, d[i] // row[i])]
            out += [tuple(map(mod, map(add, el, step), d))
                    for el in out for step in steps]
        out.sort()
        return out


class RepMultiset:
    """Finite-dimensional representation as a character multiset: each
    entry maps a character's exponent vector to its multiplicity."""

    def __init__(self, group: tuple, entries):
        _check_group(group)
        self.group = group
        agg: dict[tuple[int, ...], int] = {}
        for chi, m in dict(entries).items():
            _check_character(group, chi)
            if m < 0:
                raise SubgroupMismatch(f"multiplicity {m} of {chi!r} is < 0")
            if m:
                agg[chi] = m
        self.entries = agg


def multiplicity(W: RepMultiset, chi: tuple[int, ...], H: Subgroup) -> int:
    """Multiplicity <W, chi>_H over the subgroup H of W's group: the
    entries whose restriction to H agrees with the restriction of
    ``chi``; for H = G this is the stored multiplicity.
    """
    _check_character(W.group, chi)
    if H.group != W.group:
        raise SubgroupMismatch("subgroup of the wrong group")
    target, *keys = _restrictions(W.group, [chi, *W.entries], H.generators)
    return sum(m for key, m in zip(keys, W.entries.values())
               if key == target)


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


def multiplicity_trace(W: RepMultiset, chi: tuple[int, ...],
                       H: Subgroup) -> int:
    """<W, chi>_H via the exact trace sum (1/|H|) sum_h tr_W(h) chi(h)^-1.

    Accumulates the sum as an integer polynomial in zeta_e, reduces mod
    the e-th cyclotomic polynomial, and divides by |H|.  Serves as an
    independent oracle for ``multiplicity``.
    """
    if H.group != W.group:
        raise SubgroupMismatch("subgroup of the wrong group")
    _check_character(W.group, chi)
    # the weights e/d_i folded into each character once: a log at h is
    # then one dot product with h, mod e
    e, w = _exponent_weights(W.group)
    chi_weighted = tuple(map(mul, chi, w))
    weighted = [(tuple(map(mul, psi, w)), m)
                for psi, m in W.entries.items()]
    acc = [0] * e
    for h in H.elements():
        neg = sum(map(mul, chi_weighted, h))
        for psi_weighted, m in weighted:
            acc[(sum(map(mul, psi_weighted, h)) - neg) % e] += m
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
    G, entries = W.group, W.entries
    dual = dual_group(G)
    m1 = entries.get(dual[0], 0)
    # every character of W is one of G's, and each absent one counts m1
    lhs = math.prod(G) * m1 - sum(entries.values())

    # H^dual realized as restriction classes of G^dual; the annihilator
    # is the class of the trivial restriction
    keys = _restrictions(G, dual, H.generators)
    rhs1 = H.order * sum(m1 - entries.get(chi, 0)
                         for chi, key in zip(dual, keys) if not any(key))
    classes = dict.fromkeys(keys, 0)
    for key, m in zip(_restrictions(G, entries, H.generators),
                      entries.values()):
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
    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - k, k):
                yield (k,) + tail
    yield from rec(n, n)


def abelian_groups_upto(max_order: int) -> list[tuple]:
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
            out.append(tuple(ds))
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


def subgroups(G: tuple) -> list[Subgroup]:
    """Every subgroup of G, one Subgroup per distinct subgroup.

    The subgroups of G = Z^r / diag(d) are the lattices between
    diag(d) Z^r and Z^r, each listed once by its Hermite normal form
    (``subgroup_lattices``).  A form with pivots a_i gives the subgroup
    of order |G| / prod a_i generated by its rows with a_i < d_i.
    """
    _check_group(G)
    return [Subgroup.from_hermite(G, rows) for rows in subgroup_lattices(G)]


def random_rep(G: tuple, rng, max_dim: int) -> RepMultiset:
    """Random character multiset of dimension between 1 and max_dim."""
    dual = dual_group(G)
    dim = rng.randint(1, max_dim)
    entries: dict[tuple[int, ...], int] = {}
    while dim > 0:
        chi = dual[rng.randrange(len(dual))]
        m = rng.randint(1, dim)
        entries[chi] = entries.get(chi, 0) + m
        dim -= m
    return RepMultiset(G, entries)
