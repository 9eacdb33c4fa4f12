"""Exact q-expansion arithmetic and Fourier-coefficient sources.

Coefficient sources: the weight-12 level-1 cusp form (eta-product),
elliptic curves over Q by point counting (the Legendre sum at primes up
to 229, Shanks-Mestre baby-step giant-step above: one walk per point;
strip only when the Hasse interval holds more than one multiple), and
user tables of prime-indexed eigenvalues.  a_ell of a curve is kept for
the last 256 (curve, ell) pairs.  Only forms with rational-integer
coefficients are supported natively, so reduction "mod pi" is reduction
mod p throughout; nothing is ever a float.

tau(n) comes from Ramanujan's identity (1916), the coefficients of
E_6^2 = E_12 - (762048/691) Delta in M_12(SL_2(Z)) (Serre, *A Course in
Arithmetic*, VII.3): 756 tau(n) = 65 sigma_11(n) + 691 sigma_5(n) - 691 *
252 * sum_(0<k<n) sigma_5(k) sigma_5(n - k), over one growable table of
sigma_5.  The curve, table and Frobenius functions load ``arith`` (and
``local_type``, a form's local type at a good prime, ``localfactor``)
when called, so ``kida tau`` loads this module alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .errors import (BadReduction, BoundExceeded, InternalAdditivityViolation,
                     MissingCoefficient, PrecisionExceeded, RamifiedLevel,
                     Record, SpecParseError)

DEFAULT_PRECISION = 2000
MAX_PRECISION = 10_000
EC_PRIME_BOUND = 100_000


# -- the eta-product ------------------------------------------------------

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

    ``precision`` (default DEFAULT_PRECISION) is a budget: indices past it
    raise PrecisionExceeded, and budgets past MAX_PRECISION raise
    BoundExceeded before any work.  The budget never sets the work: the
    first miss builds sigma_5 up to max(n, DEFAULT_PRECISION), and a later
    one at least doubles the table, to min(max(n, 2 * size), MAX_PRECISION),
    so a walk of n upward costs O(log n) sieves.  The last 256 values are
    kept (``_tau``).
    """
    budget = DEFAULT_PRECISION if precision is None else precision
    if budget > MAX_PRECISION:
        raise BoundExceeded(f"precision budget {budget} beyond bound "
                            f"{MAX_PRECISION}")
    if n < 1 or n > budget:
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


# -- elliptic curves over Q ---------------------------------------------

class EllipticCurve(Record):
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6")

    def __init__(self, a1: int = 0, a2: int = 0, a3: int = 0, a4: int = 0,
                 a6: int = 0):
        self._fill(a1, a2, a3, a4, a6)

    def b_invariants(self) -> tuple[int, int, int, int]:
        b2 = self.a1 ** 2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 ** 2 + 4 * self.a6
        b8 = (self.a1 ** 2 * self.a6 + 4 * self.a2 * self.a6
              - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 ** 2
              - self.a4 ** 2)
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return (-b2 ** 2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2
                + 9 * b2 * b4 * b6)

    def count_points(self, ell: int) -> int:
        """#E(F_ell) including the point at infinity, good reduction only:
        the Legendre sum up to ell = 229, baby-step giant-step above."""
        from . import arith
        if ell > EC_PRIME_BOUND:
            raise BoundExceeded(f"prime {ell} beyond bound {EC_PRIME_BOUND}")
        if not arith.is_prime(ell):
            raise ValueError(f"ell must be prime, got {ell}")
        if self.discriminant() % ell == 0:
            raise BadReduction(f"prime {ell} divides the discriminant")
        if ell > _MESTRE_BOUND:
            return _count_bsgs(self, ell)
        return _count_legendre(self, ell)

    def ap(self, ell: int) -> int:
        """Trace of Frobenius a_ell = ell + 1 - #E(F_ell), with
        |a_ell| <= 2 sqrt(ell)."""
        return _ap(self, ell)


# keyed on the coefficients, so equal curves parsed apart share an entry;
# lru_cache keeps no errors, so each call re-raises them
@lru_cache(maxsize=256)
def _ap(E: EllipticCurve, ell: int) -> int:
    return ell + 1 - E.count_points(ell)


# Mestre: past this prime, E or its quadratic twist has a point whose
# order has one multiple in the Hasse interval.  The bound is sharp:
# y^2 = x^3 + 1 at ell = 229 is not decided by point orders.
_MESTRE_BOUND = 229


def _count_legendre(E: EllipticCurve, ell: int) -> int:
    """#E(F_ell) by the O(ell) Legendre sum, the oracle of _count_bsgs."""
    if ell == 2:
        cnt = 1
        for x in range(2):
            for y in range(2):
                if (y * y + E.a1 * x * y + E.a3 * y
                        - (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6)) % 2 == 0:
                    cnt += 1
        return cnt
    # Complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6,
    # so each x has 1 + chi(4x^3 + b2 x^2 + 2 b4 x + b6) points
    b2, b4, b6, _ = E.b_invariants()
    chi = [-1] * ell
    chi[0] = 0
    for r in range(1, ell // 2 + 1):
        chi[r * r % ell] = 1
    return ell + 1 + sum([chi[(((4 * x + b2) * x + 2 * b4) * x + b6) % ell]
                          for x in range(ell)])


def _ec_add(P, Q, a: int, ell: int):
    """P + Q on y^2 = x^3 + a x + b over F_ell in affine coordinates
    reduced mod ell; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        m = (3 * x1 * x1 + a) * pow(2 * y1, -1, ell) % ell
    else:
        m = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (m * m - x1 - x2) % ell
    return x3, (m * (x1 - x3) - y1) % ell


def _ec_mul(n: int, P, a: int, ell: int):
    """nP for n >= 0 by double-and-add."""
    R = None
    while n:
        if n & 1:
            R = _ec_add(R, P, a, ell)
        n >>= 1
        if n:
            P = _ec_add(P, P, a, ell)
    return R


def _hasse_multiples(P, a: int, ell: int, r: int) -> tuple[list[int], bool]:
    """(ms, whole): positive multiples m of the order of a point P != O
    of a group whose order lies in the Hasse interval [ell+1-r, ell+1+r].

    Baby steps store x(jP) for 1 <= j <= s; giant steps walk G = (ell+1 -
    kt)P for |k| <= K, t = 2s+1.  A shared abscissa means G = +-jP, so
    ell+1 - kt -+ j kills P; the windows |j| <= s tile the interval.  If
    P has order > 2s, each window holds at most one multiple of it, and
    the walk lists every m in the interval with mP = O (whole).  If not,
    O, a 2-torsion point or a repeated abscissa among the baby steps gives
    one multiple m <= 2s at once.
    """
    s = math.isqrt(r) + 1
    t = 2 * s + 1
    baby = {}                       # x(jP) -> (j, y(jP))
    R = P
    for j in range(1, s + 1):
        if R is None:               # P has order j
            return [j], False
        if R[0] in baby or R[1] == 0:
            # jP = -iP, i < j (were jP = iP, O came at j - i), or jP = -jP
            i = baby[R[0]][0] if R[0] in baby else j
            return [i + j], False
        baby[R[0]] = (j, R[1])
        R = _ec_add(R, P, a, ell)
    K = r // t + 1
    T = _ec_mul(t, P, a, ell)
    minus_T = None if T is None else (T[0], -T[1] % ell)
    G = _ec_mul(ell + 1 + K * t, P, a, ell)
    ms = []
    for k in range(-K, K + 1):
        n = ell + 1 - k * t
        if G is None:
            ms.append(n)
        elif G[0] in baby:
            j, y = baby[G[0]]
            ms.append(n - j if G[1] == y else n + j)
        G = _ec_add(G, minus_T, a, ell)
    ms = [m for m in ms if abs(m - ell - 1) <= r]
    if not ms:
        raise BoundExceeded(f"no multiple of a point order within {r} of "
                            f"{ell + 1}")
    return ms, True


def _point_order(P, n: int, a: int, ell: int) -> int:
    """The order of P, stripped from a positive multiple n of it."""
    from . import arith
    for q, _ in arith.factor(n):
        while n % q == 0 and _ec_mul(n // q, P, a, ell) is None:
            n //= q
    return n


def _count_bsgs(E: EllipticCurve, ell: int) -> int:
    """#E(F_ell) for a good prime ell >= 5 by Shanks-Mestre baby-step
    giant-step, O(ell^(1/4)) group operations per point (Cohen, GTM 138,
    7.4; Washington, *Elliptic Curves*, ch. 4; Schoof, J. Theor. Nombres
    Bordeaux 7 (1995), 3).  It counts on every call; the (curve, ell)
    cache of 256 entries sits above it, at ``EllipticCurve.ap``.

    On the short model y^2 = x^3 + Ax + B, A = -27 c4, B = -54 c6, each
    abscissa x = 0, 1, ... with d = x^3 + Ax + B != 0 gives the point
    (dx, d^2) of y^2 = x^3 + A d^2 x + B d^3: E itself when d is a square
    mod ell, its quadratic twist E' when not, told apart by Euler's
    criterion; #E + #E' = 2(ell + 1).  One walk per point; strip only
    when the Hasse interval holds more than one multiple: a walk that
    finds exactly one multiple of the point's order has found its side's
    count.  Otherwise (or when the order is too small for the walk) the
    order is stripped from the first multiple, each side keeps the lcm of
    its point orders, and the count is settled once one side's lcm has a
    single multiple in the interval.  By x = ell every point of E and E'
    but the 2-torsion has been seen, so past ell = 229 (Mestre) the
    points decide before they run out.
    """
    b2, b4, b6, _ = E.b_invariants()
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    A, B = -27 * c4 % ell, -54 * c6 % ell
    r = math.isqrt(4 * ell)
    lo, hi = ell + 1 - r, ell + 1 + r
    lcms = {1: 1, ell - 1: 1}       # Euler's criterion -> lcm of orders
    half = (ell - 1) // 2
    for x in range(ell):
        d = (x * x * x + A * x + B) % ell
        if not d:
            continue
        side = pow(d, half, ell)
        a = A * d * d % ell
        P = (d * x % ell, d * d % ell)
        ms, whole = _hasse_multiples(P, a, ell, r)
        if whole and len(ms) == 1:
            n = ms[0]
        else:
            L = lcms[side] = math.lcm(lcms[side],
                                      _point_order(P, ms[0], a, ell))
            if hi // L - (lo - 1) // L != 1:
                continue
            n = hi // L * L
        return n if side == 1 else 2 * (ell + 1) - n
    raise BoundExceeded(f"no point order decides #E(F_{ell}): Mestre's "
                        f"bound needs ell > {_MESTRE_BOUND}")


# -- coefficient tables --------------------------------------------------

class CoefficientTable(Record):
    __slots__ = ("weight", "level", "ap")

    def __init__(self, weight: int, level: int, ap: dict[int, int]):
        self._fill(weight, level, ap)

    def __hash__(self):
        return hash((self.weight, self.level,
                     tuple(sorted(self.ap.items()))))


def _ints(lineno: int, *fields: str) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise SpecParseError(f"line {lineno}: expected integers")


def parse_table(text: str) -> CoefficientTable:
    """Parse the table file format: header ``weight k level N`` (k >= 2,
    N >= 1) then one ``ell a_ell`` record per line; ``#`` starts a
    comment.  Anything else raises SpecParseError."""
    from . import arith
    header = None
    ap: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if (len(parts) != 4 or parts[0] != "weight"
                    or parts[2] != "level"):
                raise SpecParseError(
                    f"line {lineno}: expected header 'weight k level N'")
            header = _ints(lineno, parts[1], parts[3])
            if header[0] < 2 or header[1] < 1:
                raise SpecParseError(
                    f"line {lineno}: need weight >= 2 and level >= 1")
            continue
        if len(parts) != 2:
            raise SpecParseError(f"line {lineno}: expected 'ell a_ell'")
        ell, a = _ints(lineno, *parts)
        try:
            prime = arith.is_prime(ell)
        except BoundExceeded as exc:    # past the trial-division bound
            raise BoundExceeded(f"line {lineno}: {exc}") from None
        if not prime:
            raise SpecParseError(f"line {lineno}: index {ell} is not prime")
        if ell in ap:
            raise SpecParseError(f"line {lineno}: duplicate entry for {ell}")
        ap[ell] = a
    if header is None:
        raise SpecParseError("missing 'weight k level N' header")
    return CoefficientTable(weight=header[0], level=header[1], ap=ap)


# -- modular form data ----------------------------------------------------

class _DeltaSource:
    def __repr__(self):
        return "Delta"


DELTA_SOURCE = _DeltaSource()


class ModularFormData(Record):
    """Weight, level and an exact coefficient source.

    Every source (the eta-product, a curve over Q, a table) has trivial
    character, so the Frobenius determinant at ell is ell^(k-1).
    """

    __slots__ = ("weight", "level", "source")

    def __init__(self, weight: int, level: int, source: object):
        if weight < 2 or level < 1:
            raise ValueError("need weight >= 2 and level >= 1")
        if isinstance(source, _DeltaSource):
            if (weight, level) != (12, 1):
                raise ValueError("eta-product source forces weight 12, level 1")
        if isinstance(source, EllipticCurve) and weight != 2:
            raise ValueError("elliptic-curve source forces weight 2")
        self._fill(weight, level, source)

    def describe(self) -> str:
        if isinstance(self.source, _DeltaSource):
            return "delta"
        if isinstance(self.source, EllipticCurve):
            e = self.source
            return (f"ec:a1={e.a1},a2={e.a2},a3={e.a3},"
                    f"a4={e.a4},a6={e.a6}")
        return f"table:weight={self.weight},level={self.level}"

    def a_prime(self, ell: int, precision: int | None = None) -> int:
        """Exact eigenvalue a_ell for a prime ell not dividing the level."""
        if isinstance(self.source, _DeltaSource):
            return tau(ell, precision)
        if isinstance(self.source, EllipticCurve):
            return self.source.ap(ell)
        if isinstance(self.source, CoefficientTable):
            try:
                return self.source.ap[ell]
            except KeyError:
                raise MissingCoefficient(f"table has no entry for {ell}")
        raise TypeError(f"unknown source {self.source!r}")


def delta_form() -> ModularFormData:
    return ModularFormData(weight=12, level=1, source=DELTA_SOURCE)


def ec_form(curve: EllipticCurve) -> ModularFormData:
    """Level: the product of the primes dividing the discriminant."""
    from . import arith
    try:
        primes = arith.factor(abs(curve.discriminant()))
    except BoundExceeded as exc:
        raise BoundExceeded(f"curve discriminant {exc}") from None
    level = math.prod(q for q, _ in primes)
    return ModularFormData(weight=2, level=level, source=curve)


def table_form(table: CoefficientTable) -> ModularFormData:
    return ModularFormData(weight=table.weight, level=table.level,
                           source=table)


def frobenius_data(f: ModularFormData, ell: int, p: int,
                   precision: int | None = None) -> tuple[int, int]:
    """(a_ell mod p, ell^(k-1) mod p) for primes ell not dividing Np;
    ``local_type`` makes them the form's local type at ell."""
    from . import arith
    if not arith.is_prime(ell) or not arith.is_prime(p):
        raise ValueError("ell and p must be prime")
    if ell == p:
        raise ValueError("Frobenius data needs ell != p")
    if f.level % ell == 0:
        raise RamifiedLevel(f"{ell} divides the level {f.level}; "
                            "supply a local type instead")
    return f.a_prime(ell, precision) % p, pow(ell, f.weight - 1, p)


def local_type(f: ModularFormData, ell: int, p: int, f0: int = 1,
               precision: int | None = None):
    """f's type at ell over a field where ell has residue degree f0: the
    unramified principal series x^2 - s_f0 x + c^f0 mod p of Frob_ell^f0,
    for (a, c) from ``frobenius_data`` (its checks and errors apply) and
    Newton's recursion s_0 = 2, s_1 = a, s_j = a s_(j-1) - c s_(j-2)."""
    from .localfactor import UnramifiedPS
    a, c = frobenius_data(f, ell, p, precision)
    s_prev, s_cur = 2 % p, a
    for _ in range(f0 - 1):
        s_prev, s_cur = s_cur, (a * s_cur - c * s_prev) % p
    return UnramifiedPS(s_cur, pow(c, f0, p), p)
