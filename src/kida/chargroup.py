"""Finite abelian groups, characters, and multiplicity pairings.

Groups are presented by invariant factors d_1 | d_2 | ... | d_r; elements
are coordinate tuples.  Characters are exponent vectors: the character
with exponents (c_1..c_r) sends g to zeta_e^(sum c_i g_i (e/d_i)) where
e = lcm(d_i).  All pairings are computed by exact counting; a second
route through exact cyclotomic-integer sums (reduced mod the e-th
cyclotomic polynomial) is provided as an independent oracle.  No
floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import arith
from .errors import SubgroupMismatch
from .intlinalg import subgroup_lattice


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups C_{d_1} x ... x C_{d_r} with d_1 | ... | d_r."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        d = self.invariant_factors
        if any(x < 2 for x in d):
            raise ValueError("invariant factors must be >= 2")
        if any(d[i + 1] % d[i] for i in range(len(d) - 1)):
            raise ValueError("divisibility chain violated")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        e = 1
        for d in self.invariant_factors:
            e = e * d // math.gcd(e, d)
        return e

    def elements(self):
        return itertools.product(*[range(d) for d in self.invariant_factors])

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d
                     in zip(a, b, self.invariant_factors))


TRIVIAL_GROUP = FiniteAbelianGroup(())


def cyclic(n: int) -> FiniteAbelianGroup:
    return TRIVIAL_GROUP if n == 1 else FiniteAbelianGroup((n,))


@dataclass(frozen=True)
class Character:
    """Character of a FiniteAbelianGroup given by its exponent vector."""

    group: FiniteAbelianGroup
    exponents: tuple[int, ...]

    def __post_init__(self):
        d = self.group.invariant_factors
        if len(self.exponents) != len(d):
            raise ValueError("exponent vector length mismatch")
        if any(not 0 <= c < di for c, di in zip(self.exponents, d)):
            raise ValueError("exponents out of range")

    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def value_log(self, element) -> int:
        """log base zeta_e of the character value at ``element``."""
        e = self.group.exponent
        d = self.group.invariant_factors
        return sum(c * g * (e // di)
                   for c, g, di in zip(self.exponents, element, d)) % e if d else 0

    def restriction_tuple(self, gens) -> tuple[int, ...]:
        """Value logs on a generator list; equal tuples = equal on <gens>."""
        return tuple(self.value_log(g) for g in gens)

    def mul(self, other: "Character") -> "Character":
        if other.group != self.group:
            raise ValueError("characters of different groups")
        d = self.group.invariant_factors
        return Character(self.group, tuple(
            (a + b) % di for a, b, di in zip(self.exponents, other.exponents, d)))

    def inverse(self) -> "Character":
        d = self.group.invariant_factors
        return Character(self.group, tuple(
            (-a) % di for a, di in zip(self.exponents, d)))

    def order(self) -> int:
        o = 1
        for c, di in zip(self.exponents, self.group.invariant_factors):
            if c:
                oc = di // math.gcd(c, di)
                o = o * oc // math.gcd(o, oc)
        return o


def dual_group(G: FiniteAbelianGroup) -> list[Character]:
    """All |G| characters in lexicographic exponent order, trivial first."""
    return [Character(G, exps) for exps in
            itertools.product(*[range(d) for d in G.invariant_factors])]


def trivial_character(G: FiniteAbelianGroup) -> Character:
    return Character(G, (0,) * G.rank)


class Subgroup:
    """Subgroup of a FiniteAbelianGroup given by coordinate generators."""

    def __init__(self, group: FiniteAbelianGroup, generators):
        self.group = group
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if len(g) != group.rank:
                raise SubgroupMismatch("generator has wrong coordinate length")
        self._lattice = subgroup_lattice(self.generators, group.invariant_factors)
        self.order = (group.order // self._lattice.det()
                      if group.rank else 1)

    def contains(self, element) -> bool:
        return self._lattice.contains(element)

    def key(self):
        return self._lattice.key()

    def elements(self):
        return [el for el in self.group.elements() if self.contains(el)]

    def annihilator(self, dual=None) -> list[Character]:
        """Characters of G trivial on this subgroup (= (G/H)^dual)."""
        chars = dual if dual is not None else dual_group(self.group)
        return [chi for chi in chars
                if all(chi.value_log(g) == 0 for g in self.generators)]


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

    @property
    def dim(self) -> int:
        return sum(self.entries.values())

    @classmethod
    def regular(cls, group: FiniteAbelianGroup) -> "RepMultiset":
        return cls(group, {chi: 1 for chi in dual_group(group)})

    @classmethod
    def isotypic(cls, chi: Character, mult: int) -> "RepMultiset":
        return cls(chi.group, {chi: mult})


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

_CYCLOTOMIC_CACHE: dict[int, list[int]] = {}


def _cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending, by exact division of x^n - 1."""
    if n in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]          # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, _cyclotomic_polynomial(d))
    _CYCLOTOMIC_CACHE[n] = poly
    return poly


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0, "non-exact cyclotomic division"
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    assert not any(num), "non-exact cyclotomic division"
    return out


def multiplicity_trace(W: RepMultiset, chi: Character, H: Subgroup) -> int:
    """<W, chi>_H via the exact trace sum (1/|H|) sum_h tr_W(h) chi(h)^-1.

    Accumulates the sum as an integer polynomial in zeta_e, reduces mod
    the e-th cyclotomic polynomial, and divides by |H|.  Serves as an
    independent oracle for ``multiplicity``.
    """
    if chi.group != W.group or H.group != W.group:
        raise SubgroupMismatch("mixed groups in trace pairing")
    e = W.group.exponent if W.group.rank else 1
    acc = [0] * max(e, 1)
    for h in H.elements():
        neg = chi.value_log(h)
        for psi, m in W.entries.items():
            acc[(psi.value_log(h) - neg) % e] += m
    if e == 1:
        total = acc[0]
    else:
        phi = _cyclotomic_polynomial(e)
        rem = list(acc)
        for i in range(len(rem) - 1, len(phi) - 2, -1):
            q, r = divmod(rem[i], phi[-1])
            assert r == 0
            for j, c in enumerate(phi):
                rem[i - len(phi) + 1 + j] -= q * c
        assert not any(rem[len(phi) - 1:]), "trace sum not rational"
        assert not any(rem[1:len(phi) - 1]), "trace sum not rational"
        total = rem[0]
    q, r = divmod(total, H.order)
    assert r == 0, "trace sum not divisible by |H|"
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
    dual = dual_group(G)
    m1 = W.entries.get(trivial_character(G), 0)
    lhs = sum(m1 - W.entries.get(chi, 0) for chi in dual)

    rhs1 = H.order * sum(m1 - W.entries.get(chi, 0)
                         for chi in H.annihilator(dual))

    # H^dual realized as restriction classes of G^dual.
    classes: dict[tuple, int] = {}
    for chi in dual:
        classes.setdefault(chi.restriction_tuple(H.generators), 0)
    for psi, m in W.entries.items():
        classes[psi.restriction_tuple(H.generators)] += m
    assert len(classes) == H.order, "restriction classes != |H|"
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


def _elementary_subgroup_matrices(p: int, r: int):
    """All subspaces of F_p^r as reduced-echelon generator matrices."""
    yield []
    for k in range(1, r + 1):
        for pivots in itertools.combinations(range(r), k):
            free_pos = []
            for i, pc in enumerate(pivots):
                for c in range(pc + 1, r):
                    if c not in pivots:
                        free_pos.append((i, c))
            for vals in itertools.product(range(p), repeat=len(free_pos)):
                mat = [[0] * r for _ in range(k)]
                for i, pc in enumerate(pivots):
                    mat[i][pc] = 1
                for (i, c), v in zip(free_pos, vals):
                    mat[i][c] = v
                yield [row[:] for row in mat]


def _p_component(G: FiniteAbelianGroup, p: int):
    """Exponents e_i with p^{e_i} || d_i (zeros dropped), plus embeddings."""
    exps, embed = [], []
    for i, d in enumerate(G.invariant_factors):
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            exps.append(e)
            embed.append((i, G.invariant_factors[i] // p ** e))
    return exps, embed


def _p_group_subgroups(p: int, exps: list[int]):
    """Generator matrices (rows of coordinates) of all subgroups of
    prod C_{p^{e_i}}."""
    r = len(exps)
    if r == 0:
        return [[]]
    if r == 1:
        e = exps[0]
        return [[[p ** j]] for j in range(e)] + [[]]
    if all(e == 1 for e in exps):
        return list(_elementary_subgroup_matrices(p, r))
    # Mixed shape: BFS over index-p extensions with element-set dedup.
    orders = [p ** e for e in exps]
    elements = list(itertools.product(*[range(o) for o in orders]))
    index = {el: i for i, el in enumerate(elements)}
    n = len(elements)
    add = [[index[tuple((a[t] + b[t]) % orders[t] for t in range(r))]
            for b in elements] for a in elements]
    pmul = [index[tuple((p * a[t]) % orders[t] for t in range(r))]
            for a in elements]
    zero = index[(0,) * r]
    found = {frozenset([zero]): []}
    frontier = [(frozenset([zero]), [])]
    while frontier:
        new_frontier = []
        for elems, gens in frontier:
            for g in range(n):
                if g in elems or pmul[g] not in elems:
                    continue
                block = set(elems)
                cur = g
                for _ in range(p - 1):
                    addc = add[cur]
                    block.update(addc[s] for s in elems)
                    cur = addc[g]
                key = frozenset(block)
                if key not in found:
                    item = (key, gens + [g])
                    found[key] = item[1]
                    new_frontier.append(item)
        frontier = new_frontier
    return [[list(elements[g]) for g in gens] for gens in found.values()]


def subgroups(G: FiniteAbelianGroup) -> list[Subgroup]:
    """Every subgroup of G, one Subgroup per distinct subgroup.

    Decomposes G into p-primary components (every subgroup is the direct
    sum of its p-parts), enumerates each component, and recombines.
    """
    if G.rank == 0:
        return [Subgroup(G, [])]
    primes = sorted({p for d in G.invariant_factors
                     for p, _ in arith.factor(d)})
    per_prime = []
    for p in primes:
        exps, embed = _p_component(G, p)
        mats = _p_group_subgroups(p, exps)
        embedded = []
        for mat in mats:
            gens = []
            for row in mat:
                vec = [0] * G.rank
                for (coord, mult), v in zip(embed, row):
                    vec[coord] = (v * mult) % G.invariant_factors[coord]
                gens.append(tuple(vec))
            embedded.append(gens)
        per_prime.append(embedded)
    out = []
    for combo in itertools.product(*per_prime):
        gens = [g for part in combo for g in part]
        out.append(Subgroup(G, gens))
    return out


def random_rep(G: FiniteAbelianGroup, rng, max_dim: int = 20) -> RepMultiset:
    """Random character multiset of dimension between 1 and max_dim."""
    dual = dual_group(G)
    dim = rng.randint(1, max_dim)
    entries: dict[Character, int] = {}
    while dim > 0:
        chi = dual[rng.randrange(len(dual))]
        m = rng.randint(1, dim)
        entries[chi] = entries.get(chi, 0) + m
        dim -= m
    return RepMultiset(G, entries)
