"""Dirichlet characters by brute force, for test oracles.

Nothing here imports kida.  ``DirichletGroup(N)`` finds generators of
(Z/N)^* by search, lists the characters of (Z/N)^* trivial on a set of
units, and finds the conductor of a character as the least M | N with the
character trivial on the units that are 1 mod M.
"""

import itertools
import math


def mult_order(x, m):
    k, y = 1, x % m
    while y != 1 % m:
        y, k = y * x % m, k + 1
    return k


def phi(n):
    """Euler's phi, by counting the units mod n."""
    return sum(math.gcd(x, n) == 1 for x in range(n))


def crt(x, m, y, n):
    """The residue mod m * n that is x mod m and y mod n (coprime m, n)."""
    return (x + m * ((y - x) * pow(m, -1, n) % n)) % (m * n)


def closure(gens, N):
    """The subgroup of (Z/N)^* generated by ``gens``, as a set."""
    out = {1 % N}
    frontier = list(out)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g % N
                if y not in out:
                    out.add(y)
                    new.append(y)
        frontier = new
    return out


def spanning_subset(elements, N):
    """Some of ``elements`` that generate the subgroup they generate."""
    gens, span = [], {1 % N}
    for x in elements:
        if x not in span:
            gens.append(x)
            span = closure(gens, N)
    return gens


class DirichletGroup:
    """(Z/N)^* with generators found by search, per prime power q^e || N
    (-1 and 5 for 2^e, e >= 3), lifted by CRT to 1 mod the rest of N.

    ``log`` maps each unit mod N to its exponent vector in those
    generators.  A character is an exponent vector c, with
    chi_c(x) = exp(2 pi i ``value(c, x)`` / ``exponent``).
    """

    def __init__(self, N):
        self.N = N
        gens, self.orders, m, q = [], [], N, 2
        while m > 1:
            if m % q == 0:
                qe = 1
                while m % q == 0:
                    m, qe = m // q, qe * q
                phi = qe - qe // q
                if q == 2 and qe >= 8:
                    local = [(qe - 1, 2), (5, qe // 4)]
                else:
                    local = [(next(g for g in range(2, qe) if g % q
                                   and mult_order(g, qe) == phi), phi)
                             ] if phi > 1 else []
                for g, order in local:
                    gens.append(crt(g, qe, 1, N // qe))
                    self.orders.append(order)
            q += 1
        self.log = {}
        for exps in itertools.product(*map(range, self.orders)):
            x = 1 % N
            for g, k in zip(gens, exps):
                x = x * pow(g, k, N) % N
            self.log[x] = exps
        self.units = sorted(self.log)
        assert len(self.units) == sum(math.gcd(x, N) == 1 for x in range(N))
        self.exponent = math.lcm(*self.orders)
        self.weights = [self.exponent // o for o in self.orders]
        self._kernels = None

    def value(self, c, x):
        return sum(map(math.prod, zip(c, self.log[x % self.N],
                                      self.weights))) % self.exponent

    def characters(self, H=()):
        """Every character trivial on the units in ``H``."""
        return [c for c in itertools.product(*map(range, self.orders))
                if all(self.value(c, h) == 0 for h in H)]

    def conductor(self, chi):
        """Least M | N with chi(x) == 0 for every unit x = 1 mod M; ``chi``
        maps units mod N to Z / (its order), 0 for the trivial value."""
        if self._kernels is None:
            self._kernels = [
                (M, spanning_subset([x for x in self.units
                                     if x % M == 1 % M], self.N))
                for M in range(1, self.N + 1) if self.N % M == 0]
        return next(M for M, gens in self._kernels
                    if all(chi(x) == 0 for x in gens))
