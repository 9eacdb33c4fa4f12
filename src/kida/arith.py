"""Exact integer and residue arithmetic.

Trial-division factorization, p-adic valuations, and the unit group
(Z/N)^* presented in invariant-factor form with bidirectional residue <->
coordinate maps.  ``UnitGroup`` is the one place that knows how (Z/N)^*
is built: from the cyclic factors of each (Z/q^e)^*, whose generators, 1
at the other prime powers, have the coordinates ``local_coordinates(q)``.
``log`` stores no table of the group: it projects x onto each cyclic
piece of prime-power order rho^a and solves there by Pohlig-Hellman, one
base-rho digit at a time by baby-step giant-step, in O(sqrt(rho)) memory
(Cohen, *A Course in Computational Algebraic Number Theory*, 1.4).  A
piece's map and its table depend on q^e alone, and are shared by the unit
groups of every modulus that q^e divides.  Everything is plain Python int
arithmetic, so there is no overflow to detect; inputs are desk-scale
(``factor`` refuses targets above FACTOR_BOUND = 10^14).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import BoundExceeded, NotAUnit, SpecParseError, ZeroInput

FACTOR_BOUND = 10 ** 14
# conductors and the primes --p and --ell: trial division up to 10^6
_INPUT_BOUND = 10 ** 12


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, ascending primes;
    ZeroInput below 1, the check for every modulus kida builds a unit group
    of (the loop would not end at 0), and BoundExceeded past FACTOR_BOUND."""
    if n < 1:
        raise ZeroInput("factor() needs n >= 1")
    if n > FACTOR_BOUND:
        raise BoundExceeded(f"{n} beyond the trial-division bound 10^14")
    return list(_factor(n))


@lru_cache(maxsize=4096)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """factor(n) as a tuple, cached: a unit group mod q factors q - 1 for
    its primitive root and for its pieces, and a degree= spec factors the
    group order again, each up to 10^6 trial divisions at q ~ 10^12."""
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
    return tuple(out)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factor(n) == [(n, 1)]


def require_prime(name: str, n: int, odd: bool = False):
    """Refuse ``n`` unless it is a prime, odd if ``odd``, within the input
    bound; ``name``, the flag that gave it, opens the message."""
    if n > _INPUT_BOUND:
        raise BoundExceeded(f"{name} {n} beyond bound {_INPUT_BOUND}")
    if not is_prime(n) or (odd and n == 2):
        raise SpecParseError(f"{name} {n} is not {'an odd ' * odd}prime")


def padic_val(n: int, p: int) -> int:
    """Largest t with p^t | n; ZeroInput for n = 0 or p < 2 (endless loops)."""
    if n == 0:
        raise ZeroInput("valuation of 0 is undefined")
    if p < 2:
        raise ZeroInput("p must be a prime >= 2")
    n = abs(n)
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return t


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve x = residues[i] mod moduli[i]; NotAUnit unless coprime."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        try:
            inv = pow(m, -1, q)
        except ValueError:
            raise NotAUnit("moduli not coprime") from None
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


def _local_cyclic(q: int, e: int) -> list[tuple[int, int, int]]:
    """(generator mod q^e, order, modulus it is read at) of each cyclic
    factor of (Z/q^e)^*: a primitive root for odd q, 3 mod 4, and -1, 5
    mod 2^e for e >= 3, where the sign of x = +-5^t is read mod 4."""
    if q > 2:
        return [(_primitive_root(q, e), (q - 1) * q ** (e - 1), q ** e)]
    if e < 3:
        return [(3, 2, 4)] if e == 2 else []
    return [(q ** e - 1, 2, 4), (5, 2 ** (e - 2), q ** e)]


@lru_cache(maxsize=128)
def _piece_log(mod: int, g: int, n: int, rho: int, a: int):
    """The map x -> log_g(x) mod rho^a on the cyclic factor <g> = C_n of
    (Z/mod)^*, where rho^a || n.

    Pohlig-Hellman: x^(n / rho^a) = h^t with h = g^(n / rho^a) of order
    rho^a and t = log_g(x) mod rho^a, found one digit at a time, each by
    baby-step giant-step in the subgroup of order B.  The base B is the
    largest rho^b <= 64 with b | a, whose digits take one lookup in a
    table of all B of them, or rho > 64 itself, with a table of about
    sqrt(rho) baby steps, built on the first call: a piece that is never
    asked for a log keeps no table.  Mod 2^e with e >= 3 the factor <5>
    reads x up to sign.  Cached: the arguments depend on q^e alone, so
    every unit group whose modulus q^e divides shares the map and table.
    """
    cof = n // rho ** a
    b = max((b for b in range(1, a + 1) if a % b == 0 and rho ** b <= 64),
            default=1)
    rho, a = rho ** b, a // b
    h_inv = pow(g, -cof, mod)
    gamma = pow(h_inv, -rho ** (a - 1), mod)
    m = rho if rho <= 64 else math.isqrt(rho - 1) + 1
    giant = pow(gamma, -m, mod)
    table = None        # gamma^j -> j for j < m, built on the first log
    fold = mod % 8 == 0
    # digit i: raise to rho^(a-1-i), and strip it with h^(-rho^i)
    digits = [(rho ** (a - 1 - i), pow(h_inv, rho ** i, mod), rho ** i)
              for i in range(a)]

    def log(x: int) -> int:
        nonlocal table
        baby = table
        if baby is None:    # built whole, then published
            baby, z = {}, 1
            for j in range(m):
                baby[z] = j
                z = z * gamma % mod
            table = baby
        x %= mod
        if fold and x % 4 == 3:
            x = mod - x
        y = pow(x, cof, mod)
        k = 0
        for exponent, strip, place in digits:
            z = pow(y, exponent, mod)
            for step in range(m):  # z is in <gamma>, so this finds it
                if z in baby:
                    break
                z = z * giant % mod
            digit = step * m + baby[z]
            if digit:
                y = y * pow(strip, digit, mod) % mod
                k += digit * place
        return k

    return log


class UnitGroup:
    """(Z/N)^* in invariant-factor form d_1 | d_2 | ... | d_r.

    ``generators[j]`` is a residue mod N generating the C_{d_j} factor;
    ``log`` and ``element`` are mutually inverse bijections between unit
    residues and coordinate tuples.
    """

    def __init__(self, modulus: int):
        self.modulus = modulus
        # rho -> [(rho^a, local factor index, n / rho^a, generator mod N,
        #          x -> log_g(x) mod rho^a)] over the local factors <g> = C_n
        pieces: dict[int, list] = {}
        primes = []         # the prime of each local factor, by index
        self.order = 1
        for q, e in factor(modulus):
            qe = q ** e
            for g, n, mod in _local_cyclic(q, e):
                lift = crt([g, 1], [qe, modulus // qe])
                for rho, a in factor(n):
                    cof = n // rho ** a
                    pieces.setdefault(rho, []).append(
                        (rho ** a, len(primes), cof, pow(lift, cof, modulus),
                         _piece_log(mod, g, n, rho, a)))
                self.order *= n
                primes.append(q)
        # Invariant factors, largest first: the largest piece of every prime
        # together, then the next largest, ...; of two equal pieces the one
        # of the later local factor comes first.  Stored ascending.
        for column in pieces.values():
            column.sort(key=lambda piece: piece[:2], reverse=True)
        levels = [[piece for piece in level if piece] for level in
                  itertools.zip_longest(*pieces.values())][::-1]
        self.invariant_factors = tuple(math.prod(piece[0] for piece in level)
                                       for level in levels)
        self.generators = tuple(
            math.prod(piece[3] for piece in level) % modulus
            for level in levels)
        # coordinate j: by CRT over its pieces, log_g(x) / (n / rho^a) mod
        # rho^a, the exponent of the piece's generator g^(n / rho^a)
        self._coordinates = [
            (d, [(log, d // r * pow(d // r * cof, -1, r), index)
                 for r, index, cof, _, log in level])
            for d, level in zip(self.invariant_factors, levels)]
        self.rank = len(levels)
        # a local generator has log 1 on its own pieces and 0 on the
        # others, so its coordinate j is its pieces' weights in level j
        self._local = {q: tuple(
            tuple(sum(w for _, w, i in maps if i == index) % d
                  for d, maps in self._coordinates)
            for index, r in enumerate(primes) if r == q) for q in primes}

    def local_coordinates(self, q: int) -> tuple[tuple[int, ...], ...]:
        """Coordinates of the generators of the q-part of (Z/N)^*, each 1
        modulo the other prime powers of N: a primitive root mod q^e for
        odd q, 3 for 4 || N, and -1, 5 mod 2^e for 2^e || N with e >= 3.
        Empty when the q-part is trivial."""
        return self._local.get(q, ())

    # -- maps -------------------------------------------------------------

    def log(self, x: int) -> tuple[int, ...]:
        """Coordinates of the unit x in the invariant-factor basis."""
        x %= self.modulus
        if math.gcd(x, self.modulus) != 1:
            raise NotAUnit(f"{x} is not a unit mod {self.modulus}")
        return tuple(sum(log(x) * w for log, w, _ in maps) % d
                     for d, maps in self._coordinates)

    def element(self, coords) -> int:
        x = 1 % self.modulus
        for g, c, d in zip(self.generators, coords, self.invariant_factors):
            x = (x * pow(g, c % d, self.modulus)) % self.modulus
        return x


@lru_cache(maxsize=128)
def unit_group(N: int) -> UnitGroup:
    """Unit group (Z/N)^* with invariant factors and coordinate maps;
    ``factor`` refuses N < 1."""
    return UnitGroup(N)
