"""The elliptic curves and coefficient tables kida reads coefficients from.

A form is ``Delta``, the weight-12 level-1 cusp form (``eta``), an
``EllipticCurve`` over Q (weight 2) or a ``CoefficientTable``; each has
``weight``, ``level``, ``describe()`` and ``a_prime(ell)``, and bounds
its own coefficients: Delta by its series budget ``precision``, a curve
by EC_PRIME_BOUND, a table by its rows.
A curve's a_ell comes from point counting (the Legendre sum at primes up
to 229, Shanks-Mestre baby-step giant-step above: one walk per point;
strip only when the Hasse interval holds more than one multiple), kept
for the last 256 (curve, ell) pairs; a table lists prime-indexed
eigenvalues.  Only forms with rational-integer coefficients are supported
natively, so reduction "mod pi" is reduction mod p throughout; nothing is
ever a float.

``DELTA`` and ``tau`` are ``eta``'s, imported here at load, so this
module names every form and loading it loads ``eta`` too: perfbench's
worker warms up through ``qexp.tau``, and its timed requests then load
no module.  A curve's level, a point order past 229 and the table
parser load ``arith`` when called; a count below 229 loads none.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import (BadReduction, BoundExceeded, MissingCoefficient,
                     SpecParseError)
from .eta import DELTA, tau

EC_PRIME_BOUND = 100_000


# -- elliptic curves over Q ---------------------------------------------

class EllipticCurve(namedtuple("EllipticCurve", "a1 a2 a3 a4 a6",
                               defaults=(0,) * 5)):
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6,
    a form of weight 2."""

    __slots__ = ()
    weight = 2

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

    @property
    @lru_cache(maxsize=256)     # read at every place of a transition
    def level(self) -> int:
        """The product of the primes dividing the discriminant."""
        from . import arith
        try:
            primes = arith.factor(abs(self.discriminant()))
        except BoundExceeded as exc:
            raise BoundExceeded(f"curve discriminant {exc}") from None
        return math.prod(q for q, _ in primes)

    def describe(self) -> str:
        return (f"ec:a1={self.a1},a2={self.a2},a3={self.a3},"
                f"a4={self.a4},a6={self.a6}")

    def count_points(self, ell: int) -> int:
        """#E(F_ell) including the point at infinity, good reduction only:
        the Legendre sum up to ell = 229, baby-step giant-step above.
        ell must be prime, which the callers see to: ``kida hv`` checks
        ``--ell`` with ``arith.require_prime``, ``transition`` reads ell
        off a factored conductor and the hasse suite off a sieve."""
        if ell > EC_PRIME_BOUND:
            raise BoundExceeded(f"prime {ell} beyond bound {EC_PRIME_BOUND}")
        if self.discriminant() % ell == 0:
            raise BadReduction(f"prime {ell} divides the discriminant")
        if ell > _MESTRE_BOUND:
            return _count_bsgs(self, ell)
        return _count_legendre(self, ell)

    def a_prime(self, ell: int) -> int:
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
    a 2-torsion point or a repeated abscissa among the baby steps gives
    one multiple m <= 2s at once.
    """
    s = math.isqrt(r) + 1
    t = 2 * s + 1
    baby = {}                       # x(jP) -> (j, y(jP))
    R = P
    for j in range(1, s + 1):
        # R = jP != O: else (j-1)P = -P, on which step j - 1 returned
        if R[0] in baby or R[1] == 0:
            # jP = -iP, i < j (jP = iP would give (j - i)P = O), or jP = -jP
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
    cache of 256 entries sits above it, at ``EllipticCurve.a_prime``.

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

class CoefficientTable(namedtuple("CoefficientTable", "weight level ap")):
    """A form of weight k >= 2 and level N >= 1 given by its eigenvalues
    ``ap`` at primes, a dict; ``parse_table`` checks the weight and level,
    with the header's line."""

    __slots__ = ()

    def __hash__(self):
        return hash((self.weight, self.level,
                     tuple(sorted(self.ap.items()))))

    def describe(self) -> str:
        return f"table:weight={self.weight},level={self.level}"

    def a_prime(self, ell: int) -> int:
        try:
            return self.ap[ell]
        except KeyError:
            raise MissingCoefficient(f"table has no entry for {ell}")


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
