"""Congruent forms checked one coefficient source against the other.

Delta = eta(z)^24 is congruent mod 11 to eta(z)^2 eta(11z)^2, the newform
of X_0(11) (the curve 11a1: y^2 + y = x^3 - x^2 - 10x - 20).  So
tau(ell) = a_ell(11a1) (mod 11) at every prime ell != 11: Miller's eta^24
recurrence on one side, point counting on the other.  Kida's local terms
at p = 11 depend only on the residual representation, so a transition
prices Delta and 11a1 alike, and their documents differ in ``form`` only.
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
        cached = sp._ramified[(Q._key, F._key, P)]
        second = document(curve)
        assert sp._ramified[(Q._key, F._key, P)] is cached
        assert first.pop("form") == "delta"
        assert second.pop("form") == X0_11_SPEC
        assert first == second, N
        assert any(k.endswith(".path") for k in first), N
