"""Exact integer and residue arithmetic.

Trial-division factorization, multiplicative orders, p-adic valuations,
and the unit group (Z/N)^* presented in invariant-factor form with
bidirectional residue <-> coordinate maps.  Everything is plain Python
int arithmetic, so there is no overflow to detect; inputs are desk-scale
(factorization targets up to ~10^12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotAUnit, ZeroInput


@dataclass(frozen=True)
class Residue:
    """Integer residue; the constructor reduces into [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "value", self.value % self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return Residue(self.value * other.value, self.modulus)

    def __pow__(self, k: int) -> "Residue":
        return Residue(pow(self.value, k, self.modulus), self.modulus)


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, ascending primes."""
    if n < 1:
        raise ValueError("factor() needs n >= 1")
    out = []
    m = n
    for d in (2, 3):
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
    d = 5
    step = 2  # alternate 5,7,11,13,... (6k +- 1)
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += step
        step = 6 - step
    if m > 1:
        out.append((m, 1))
    return out


def unfactor(pairs) -> int:
    prod = 1
    for p, e in pairs:
        prod *= p ** e
    return prod


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factor(n) == [(n, 1)]


def padic_val(n: int, p: int) -> int:
    """Largest t with p^t | n; rejects n = 0."""
    if n == 0:
        raise ZeroInput("valuation of 0 is undefined")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    n = abs(n)
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return t


def mult_order(a: Residue | int, modulus: int | None = None) -> int:
    """Least k >= 1 with a^k = 1 modulo the modulus."""
    if isinstance(a, Residue):
        value, mod = a.value, a.modulus
    else:
        if modulus is None:
            raise ValueError("modulus required when a is a plain int")
        value, mod = a % modulus, modulus
    if math.gcd(value, mod) != 1:
        raise NotAUnit(f"{value} is not a unit mod {mod}")
    if mod == 1:
        return 1
    # Start from the group order and strip prime factors while possible.
    order = euler_phi(mod)
    for q, _ in factor(order):
        while order % q == 0 and pow(value, order // q, mod) == 1:
            order //= q
    return order


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factor(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve x = residues[i] mod moduli[i] for pairwise coprime moduli."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        try:
            inv = pow(m, -1, q)
        except ValueError:
            raise ValueError("moduli not coprime") from None
        t = ((r - x) * inv) % q
        x += m * t
        m *= q
    return x % m


def _primitive_root(q: int, e: int) -> int:
    """Primitive root mod q^e for odd prime q."""
    phi_q = q - 1
    fac = [p for p, _ in factor(phi_q)]
    g = None
    for cand in range(2, q):
        if all(pow(cand, phi_q // p, q) != 1 for p in fac):
            g = cand
            break
    if e == 1:
        return g
    # g or g+q generates mod q^2, and then mod every higher power.
    if pow(g, q - 1, q * q) == 1:
        g += q
    return g


class _CyclicComponent:
    """One cyclic factor of (Z/N)^*.

    ``kind`` is "cyclic" for factors whose generator spans the whole local
    unit group, "sign" / "five" for the two joint factors of (Z/2^e)^*
    with e >= 3, where x = (-1)^s * 5^t.
    """

    __slots__ = ("prime_power", "order", "gen_local", "kind", "_dlog")

    def __init__(self, prime_power: int, order: int, gen_local: int,
                 kind: str = "cyclic"):
        self.prime_power = prime_power
        self.order = order
        self.gen_local = gen_local % prime_power
        self.kind = kind
        self._dlog = None

    def _table(self) -> dict:
        if self._dlog is None:
            table = {}
            acc = 1
            for k in range(self.order):
                table[acc] = k
                acc = (acc * self.gen_local) % self.prime_power
            self._dlog = table
        return self._dlog

    def dlog(self, x: int) -> int:
        x %= self.prime_power
        if self.kind == "sign":
            return 0 if x % 4 == 1 else 1
        if self.kind == "five":
            if x % 4 != 1:
                x = self.prime_power - x
        try:
            return self._table()[x]
        except KeyError:
            raise NotAUnit(f"{x} not generated mod {self.prime_power}")


def _components_of(N: int) -> list[_CyclicComponent]:
    comps = []
    for q, e in factor(N):
        qe = q ** e
        if q == 2:
            if e == 1:
                continue
            if e == 2:
                comps.append(_CyclicComponent(4, 2, 3))
            else:
                comps.append(_CyclicComponent(qe, 2, qe - 1, kind="sign"))
                comps.append(_CyclicComponent(qe, 2 ** (e - 2), 5, kind="five"))
        else:
            comps.append(_CyclicComponent(qe, (q - 1) * q ** (e - 1),
                                          _primitive_root(q, e)))
    return comps


class UnitGroup:
    """(Z/N)^* in invariant-factor form d_1 | d_2 | ... | d_r.

    ``generators[j]`` is a residue mod N generating the C_{d_j} factor;
    ``log`` and ``element`` are mutually inverse bijections between unit
    residues and coordinate tuples.
    """

    def __init__(self, modulus: int):
        self.modulus = modulus
        self._components = _components_of(modulus)
        self.order = 1
        for c in self._components:
            self.order *= c.order
        self._build_invariant_factors()

    # -- construction ---------------------------------------------------

    def _lift(self, comp_idx: int, local_value: int) -> int:
        """CRT-lift a value on one component to a residue mod N (1 elsewhere).

        For the two components at 2^e (e >= 3) the lift keeps the other
        2-adic generator coordinate at 1 by multiplying values inside the
        same prime power, so the moduli list stays coprime.
        """
        res, mods = [], []
        seen = {}
        for i, c in enumerate(self._components):
            if c.prime_power in seen:
                j = seen[c.prime_power]
                res[j] = (res[j] * (local_value if i == comp_idx else 1)) % c.prime_power
                continue
            seen[c.prime_power] = len(res)
            res.append(local_value % c.prime_power if i == comp_idx else 1)
            mods.append(c.prime_power)
        rest = self.modulus
        for m in mods:
            rest //= m
        if rest > 1:
            res.append(1)
            mods.append(rest)
        return crt(res, mods) if mods else 0 if self.modulus == 1 else 1

    def _component_dlogs(self, x: int) -> list[int]:
        if math.gcd(x, self.modulus) != 1:
            raise NotAUnit(f"{x} is not a unit mod {self.modulus}")
        return [c.dlog(x) for c in self._components]

    def _build_invariant_factors(self):
        # Split each cyclic component into prime-power pieces, regroup by
        # prime, and zip the largest pieces across primes into invariant
        # factors (descending), then store ascending.
        per_prime: dict[int, list[tuple[int, int, int]]] = {}
        for idx, comp in enumerate(self._components):
            for rho, a in factor(comp.order):
                cof = comp.order // rho ** a
                per_prime.setdefault(rho, []).append((rho ** a, idx, cof))
        for rho in per_prime:
            per_prime[rho].sort(reverse=True)
        depth = max((len(v) for v in per_prime.values()), default=0)
        inv_factors = []
        generators = []
        gen_recipes = []  # per factor: list of (comp_idx, power, rho_part)
        for level in range(depth):
            d = 1
            recipe = []
            for rho, pieces in per_prime.items():
                if level < len(pieces):
                    rho_a, idx, cof = pieces[level]
                    d *= rho_a
                    recipe.append((idx, cof, rho_a))
            inv_factors.append(d)
            gen_recipes.append(recipe)
            g = 1
            for idx, cof, _ in recipe:
                comp = self._components[idx]
                local = pow(comp.gen_local, cof, comp.prime_power)
                g = (g * self._lift(idx, local)) % self.modulus
            generators.append(g if self.modulus > 1 else 0)
        inv_factors.reverse()
        generators.reverse()
        gen_recipes.reverse()
        self.invariant_factors = tuple(inv_factors)
        self.generators = tuple(generators)
        self._gen_recipes = gen_recipes
        self.rank = len(inv_factors)

    # -- maps -------------------------------------------------------------

    def log(self, x: int) -> tuple[int, ...]:
        """Coordinates of the unit x in the invariant-factor basis."""
        if self.modulus == 1:
            return ()
        dlogs = self._component_dlogs(x % self.modulus)
        coords = []
        for d, recipe in zip(self.invariant_factors, self._gen_recipes):
            res, mods = [], []
            for idx, cof, rho_a in recipe:
                comp = self._components[idx]
                # coordinate of x's rho-part w.r.t. gen^cof inside C_{comp.order}
                w = pow(cof, -1, rho_a)
                res.append((dlogs[idx] * w) % rho_a)
                mods.append(rho_a)
            coords.append(crt(res, mods) % d)
        return tuple(coords)

    def element(self, coords) -> int:
        if self.modulus == 1:
            return 0
        x = 1
        for g, c, d in zip(self.generators, coords, self.invariant_factors):
            x = (x * pow(g, c % d, self.modulus)) % self.modulus
        return x


@lru_cache(maxsize=None)
def unit_group(N: int) -> UnitGroup:
    """Unit group (Z/N)^* with invariant factors and coordinate maps."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return UnitGroup(N)
