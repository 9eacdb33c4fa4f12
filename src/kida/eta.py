"""Delta, the eta-product, and the Frobenius data of any form.

``Delta`` is the weight-12 level-1 cusp form eta(q)^24 = sum tau(n) q^n,
a value that carries its series budget, ``precision``: its a_ell is
tau(ell) within that budget.  ``DELTA`` is Delta at the default budget.
tau(n) comes from Ramanujan's identity (1916), the coefficients of
E_6^2 = E_12 - (762048/691) Delta in M_12(SL_2(Z)) (Serre, *A Course in
Arithmetic*, VII.3): 756 tau(n) = 65 sigma_11(n) + 691 sigma_5(n) - 691 *
252 * sum_(0<k<n) sigma_5(k) sigma_5(n - k), over one growable table of
sigma_5.

``frobenius_data`` and ``local_type`` give a form's type at a good prime.
They read a form only through ``weight``, ``level`` and ``a_prime(ell)``,
so they serve Delta, a curve and a table alike (``qexp`` holds the last
two); each form bounds its own coefficients.  ``local_type`` loads
``localfactor`` when called, so ``kida tau`` loads this module alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .errors import (BoundExceeded, InternalAdditivityViolation,
                     PrecisionExceeded, RamifiedLevel, SpecParseError)

DEFAULT_PRECISION = 2000
MAX_PRECISION = 10_000


# sigma_5(0), sigma_5(1), ...: the divisor sums sum_(d | k) d^5 (index 0
# holds 0), grown on demand by _sigma5_table.  A new table is built whole
# and published by rebinding this name; a published list is never mutated,
# so concurrent readers need no lock.  It starts empty so that the first
# call, whatever its index, builds the default table.
_sigma5: list[int] = []


def _sigma5_table(size: int) -> list[int]:
    """Publish and return sigma_5(0..size), by a divisor sieve over the
    pairs d <= k with d k <= size: each adds d^5 + k^5 to sigma_5(d k),
    and d = k adds d^5 once."""
    global _sigma5
    fifth = [k ** 5 for k in range(size + 1)]
    s = [0] * (size + 1)
    for d in range(1, math.isqrt(size) + 1):
        d5 = fifth[d]
        s[d * d] += d5
        for k in range(d + 1, size // d + 1):
            s[d * k] += d5 + fifth[k]
    _sigma5 = s
    return s


def tau(n: int, precision: int | None = None) -> int:
    """n-th coefficient of the eta-product, exact, by Ramanujan's identity
    756 tau(n) = 65 sigma_11(n) + 691 sigma_5(n)
                 - 691 * 252 * sum_(0<k<n) sigma_5(k) sigma_5(n - k).

    M_12(SL_2(Z)) is spanned by E_12 and Delta, so E_6^2 = E_12 -
    (762048/691) Delta (Serre, *A Course in Arithmetic*, VII.3); comparing
    coefficients gives the identity (Ramanujan, 1916).  A division by 756
    that is not exact raises InternalAdditivityViolation.

    An index below 1 raises SpecParseError.  ``precision`` (default
    DEFAULT_PRECISION) is a budget: indices past it raise
    PrecisionExceeded, and budgets past MAX_PRECISION raise BoundExceeded
    before any work.  The budget never sets the work: the first miss
    builds sigma_5 up to max(n, DEFAULT_PRECISION), and a later one at
    least doubles the table, to min(max(n, 2 * size), MAX_PRECISION), so
    a walk of n upward costs O(log n) sieves.  The last 256 values are
    kept (``_tau``).
    """
    budget = DEFAULT_PRECISION if precision is None else precision
    if budget > MAX_PRECISION:
        raise BoundExceeded(f"precision budget {budget} beyond bound "
                            f"{MAX_PRECISION}")
    if n < 1:
        raise SpecParseError(f"tau index {n} must be >= 1")
    if n > budget:
        raise PrecisionExceeded(f"tau({n}) beyond precision budget {budget}")
    return _tau(n)


@lru_cache(maxsize=256)
def _tau(n: int) -> int:
    """tau(n) for 1 <= n <= MAX_PRECISION: Ramanujan's identity on the
    sigma_5 table, its convolution summed over k < n/2 and doubled."""
    s = _sigma5
    if n >= len(s):
        s = _sigma5_table(min(max(n, 2 * (len(s) - 1)), MAX_PRECISION) if s
                          else max(n, DEFAULT_PRECISION))
    half = (n - 1) // 2
    conv = 2 * sum(map(mul, s[1:half + 1], s[n - 1:n - half - 1:-1]))
    if n % 2 == 0:
        conv += s[n // 2] ** 2
    r = math.isqrt(n)
    sigma11 = sum(d ** 11 + (n // d) ** 11
                  for d in range(1, r + 1) if n % d == 0)
    if r * r == n:
        sigma11 -= r ** 11
    value, rest = divmod(65 * sigma11 + 691 * s[n] - 691 * 252 * conv, 756)
    if rest:
        raise InternalAdditivityViolation(
            f"Ramanujan's identity at n = {n}: 756 does not divide the sum")
    return value


class Delta(namedtuple("Delta", "precision", defaults=(None,))):
    """The eta-product as a form: weight 12, level 1, a_ell = tau(ell)
    within the budget ``precision`` (None for DEFAULT_PRECISION)."""

    __slots__ = ()
    weight, level = 12, 1

    def describe(self) -> str:
        return "delta"

    def a_prime(self, ell: int) -> int:
        return tau(ell, self.precision)


DELTA = Delta()


# -- Frobenius data and local types --------------------------------------

def frobenius_data(f: Delta | qexp.EllipticCurve | qexp.CoefficientTable,
                   ell: int, p: int) -> tuple[int, int]:
    """(a_ell mod p, ell^(k-1) mod p) for primes ell not dividing Np;
    ``local_type`` makes them the form's local type at ell.  Every form
    has trivial character, so ell^(k-1) is the Frobenius determinant.

    ell and p must be distinct primes.  The callers check that: ``kida
    hv`` with ``arith.require_prime`` and its ``--ell`` != ``--p`` test,
    and ``transition`` takes ell from ``splitting.ramified_set``, whose
    conductors are prime to the odd prime p it checks.  Here only a prime
    dividing the level is refused (RamifiedLevel)."""
    if f.level % ell == 0:
        raise RamifiedLevel(f"{ell} divides the level {f.level}; "
                            "supply a local type instead")
    return f.a_prime(ell) % p, pow(ell, f.weight - 1, p)


def local_type(f: Delta | qexp.EllipticCurve | qexp.CoefficientTable,
               ell: int, p: int, f0: int = 1):
    """f's type at ell over a field where ell has residue degree f0: the
    unramified principal series x^2 - s_f0 x + c^f0 mod p of Frob_ell^f0,
    for (a, c) from ``frobenius_data`` (its checks and errors apply) and
    Newton's recursion s_0 = 2, s_1 = a, s_j = a s_(j-1) - c s_(j-2)."""
    from .localfactor import UnramifiedPS
    a, c = frobenius_data(f, ell, p)
    s_prev, s_cur = 2 % p, a
    for _ in range(f0 - 1):
        s_prev, s_cur = s_cur, (a * s_cur - c * s_prev) % p
    return UnramifiedPS(s_cur, pow(c, f0, p), p)
