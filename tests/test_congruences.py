"""Congruent forms checked one coefficient source against the other.

Delta = eta(z)^24 is congruent mod 11 to eta(z)^2 eta(11z)^2, the newform
of X_0(11) (the curve 11a1: y^2 + y = x^3 - x^2 - 10x - 20).  So
tau(ell) = a_ell(11a1) (mod 11) at every prime ell != 11: Ramanujan's
sigma_5 identity on one side, point counting on the other.  Kida's local terms
at p = 11 depend only on the residual representation, so a transition
prices Delta and 11a1 alike, and their documents differ in ``form`` only.

Mod 23 (Wilton), Delta is congruent to the weight-1 form of the
splitting field of x^3 - x - 1, whose discriminant is -23: at a prime
ell != 23, tau(ell) = 2, -1 or 0 (mod 23) as the cubic has 3, 0 or 1
roots mod ell, that is as Frobenius has order 1, 3 or 2 in S_3.
"""

import random

from kida import arith, qexp, splitting as sp, transition as tr

P = 11
X0_11 = qexp.EllipticCurve(a1=0, a2=-1, a3=1, a4=-10, a6=-20)
X0_11_SPEC = "ec:a1=0,a2=-1,a3=1,a4=-10,a6=-20"


def test_tau_is_a_ell_of_x0_11_mod_11():
    primes = [ell for ell in range(2, 10 ** 4)
              if ell != P and arith.is_prime(ell)]
    assert len(primes) == 1228
    for ell in primes:
        tau = qexp.tau(ell, precision=10 ** 4)
        assert (tau - X0_11.ap(ell)) % P == 0, ell


def _mulmod_cubic(a, b, ell):
    """a * b mod (x^3 - x - 1, ell), for coefficient lists [c0, c1, c2]."""
    c = [0] * 5
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            c[i + j] += ai * bj
    # x^3 = x + 1 and x^4 = x^2 + x
    return [(c[0] + c[3]) % ell, (c[1] + c[3] + c[4]) % ell,
            (c[2] + c[4]) % ell]


def _polymod(a, b, ell):
    """a mod b over F_ell; coefficient lists, constant first, b trimmed."""
    a = a[:]
    inv = pow(b[-1], -1, ell)
    while len(a) >= len(b):
        q = a[-1] * inv % ell
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - q * bi) % ell
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _cubic_root_count(ell):
    """Roots of x^3 - x - 1 mod ell (squarefree for ell != 23): the degree
    of its gcd with x^ell - x, x^ell reduced mod the cubic by squaring."""
    power, base, e = [1, 0, 0], [0, 1, 0], ell
    while e:
        if e & 1:
            power = _mulmod_cubic(power, base, ell)
        base = _mulmod_cubic(base, base, ell)
        e >>= 1
    power[1] = (power[1] - 1) % ell
    a, b = [ell - 1, ell - 1, 0, 1], power
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _polymod(a, b, ell)
    return len(a) - 1


def test_tau_mod_23_follows_the_roots_of_x3_minus_x_minus_1():
    residue = {3: 2, 0: 22, 1: 0}
    primes = [ell for ell in range(2, 10 ** 4)
              if ell != 23 and arith.is_prime(ell)]
    assert len(primes) == 1228
    seen = set()
    for ell in primes:
        roots = _cubic_root_count(ell)
        seen.add(roots)
        assert qexp.tau(ell, 10 ** 4) % 23 == residue[roots], (ell, roots)
    assert seen == set(residue)


def _conductors():
    """A seeded sample of the primes = 1 mod 11 below 2000, and composite
    conductors whose unit group has a cyclic 11-part."""
    primes = [q for q in range(2, 2000) if q % P == 1 and arith.is_prime(q)]
    sample = sorted(random.Random(11).sample(primes, 8))
    return sample + [3 * 23, 4 * 199, 7 * 67, 19 * 23 * 59]


def test_congruent_forms_have_equal_transitions():
    # Delta first: its chain's RamifiedSet is then cached, and 11a1, run
    # in the same process, is served that entry and prices its places
    # from point counts
    Q = sp.rationals()
    delta, curve = qexp.delta_form(), qexp.ec_form(X0_11)
    for N in _conductors():
        F = sp.parse_field_spec(f"cyclotomic:{N}:degree={P}")

        def document(form):
            return tr.transition(
                p=P, base_field=Q, ext_field=F, form=form,
                base=tr.InvariantRecord("algebraic", 0, 1)).as_mapping()

        first = document(delta)
        info = sp.ramified_set.cache_info()
        second = document(curve)
        after = sp.ramified_set.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)
        assert first.pop("form") == "delta"
        assert second.pop("form") == X0_11_SPEC
        assert first == second, N
        assert any(k.endswith(".path") for k in first), N
