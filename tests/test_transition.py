import itertools
import json
import math
import random
import subprocess
import sys

import pytest

from characters import DirichletGroup, spanning_subset
from kida import localfactor as lf
from kida import qexp, splitting as sp, transition as tr
from kida.errors import (ChainMismatch, MissingLocalType, MuNonzero,
                         NegativeLambda, TameAtP)

DELTA = qexp.delta_form()
Q = sp.rationals()
F23 = sp.parse_field_spec("cyclotomic:23:degree=11")
F1123 = sp.parse_field_spec("cyclotomic:1123:degree=11")
BASE_ALG = tr.InvariantRecord("algebraic", 0, 1)


class TestInvariantRecord:
    def test_lambda_requires_mu_zero(self):
        with pytest.raises(ValueError):
            tr.InvariantRecord("algebraic", 1, 3)
        with pytest.raises(ValueError):
            tr.InvariantRecord("algebraic", None, 3)

    def test_mu_zero_requires_lambda(self):
        with pytest.raises(ValueError):
            tr.InvariantRecord("algebraic", 0, None)

    def test_kinds(self):
        with pytest.raises(ValueError):
            tr.InvariantRecord("spectral", 0, 1)


class TestTransitionExamples:
    def test_real_cyclotomic_23(self):
        rep = tr.transition(p=11, base_field=Q, ext_field=F23,
                            base=BASE_ALG, form=DELTA)
        assert rep.lambda_out == 11
        assert rep.degree == 11 and rep.mu_out == 0
        place = rep.places[0]
        assert (place.ell, place.m, place.h, place.places) == (23, 0, 0, 1)

    def test_1123_subfield(self):
        rep = tr.transition(p=11, base_field=Q, ext_field=F1123,
                            base=BASE_ALG, form=DELTA, precision=1200)
        assert rep.lambda_out == 31
        place = rep.places[0]
        assert (place.ell, place.m, place.places) == (1123, 20, 1)

    def test_degree_one_is_identity(self):
        rep = tr.transition(p=11, base_field=F23, ext_field=F23,
                            base=BASE_ALG, form=DELTA)
        assert (rep.degree, rep.lambda_out, rep.mu_out) == (1, 1, 0)
        assert rep.places == ()

    def test_mu_nonzero_rejected(self):
        bad = tr.InvariantRecord("algebraic", 3, None)
        with pytest.raises(MuNonzero):
            tr.transition(p=11, base_field=Q, ext_field=F23,
                          base=bad, form=DELTA)

    def test_missing_local_type(self):
        with pytest.raises(MissingLocalType):
            tr.transition(p=11, base_field=Q, ext_field=F23, base=BASE_ALG)

    def test_level_prime_needs_override(self):
        f = qexp.ec_form(qexp.EllipticCurve(0, -1, 1, -10, -20))
        F11s = sp.parse_field_spec("cyclotomic:23:degree=11")
        # extension ramified exactly at 23 (prime to the level): fine
        rep = tr.transition(p=3, base_field=Q,
                            ext_field=sp.parse_field_spec(
                                "cyclotomic:7:degree=3"),
                            base=tr.InvariantRecord("algebraic", 0, 0),
                            form=f)
        assert rep.degree == 3
        # extension ramified at the level prime 11 needs an override
        F11ram = sp.parse_field_spec("cyclotomic:121:degree=5")
        assert F11ram.degree == 5
        with pytest.raises(MissingLocalType):
            tr.transition(p=5, base_field=Q, ext_field=F11ram,
                          base=tr.InvariantRecord("algebraic", 0, 0), form=f)
        rep = tr.transition(p=5, base_field=Q, ext_field=F11ram,
                            base=tr.InvariantRecord("algebraic", 0, 0),
                            form=f, local_types={11: lf.Supercuspidal()})
        assert rep.lambda_out == 0

    def test_negative_lambda_rejected(self):
        # 9 places above 109, each with m = -1: lambda.out = 3 * lambda.in - 9
        F109 = sp.parse_field_spec("cyclotomic:109:degree=3")
        dying = {109: lf.parse_local_type("special:ram,triv,dies", 3)}

        def run(lam):
            return tr.transition(p=3, base_field=Q, ext_field=F109,
                                 base=tr.InvariantRecord("algebraic", 0, lam),
                                 form=DELTA, local_types=dying)
        with pytest.raises(NegativeLambda,
                           match="local sum -9 with lambda.in = 2"):
            run(2)
        assert run(3).lambda_out == 0
        assert run(3).to_invariant_record().lam == 0

    def test_ramified_at_p_reduction_warns(self):
        # the first tower layer inside Q(zeta_121) reduces away entirely
        F_layer = sp.parse_field_spec("cyclotomic:121:degree=11")
        rep = tr.transition(p=11, base_field=Q, ext_field=F_layer,
                            base=BASE_ALG, form=DELTA)
        assert rep.degree == 1 and rep.lambda_out == 1
        assert any("tame parts of their characters" in w
                   for w in rep.warnings)

    def test_supercuspidal_contributes_zero(self):
        rep = tr.transition(p=11, base_field=Q, ext_field=F23,
                            base=BASE_ALG, form=DELTA,
                            local_types={23: lf.Supercuspidal()})
        assert rep.lambda_out == 11 and rep.places[0].m == 0

    def test_signed_kinds_share_the_formula(self):
        plus = tr.transition(p=11, base_field=Q, ext_field=F23,
                             base=tr.InvariantRecord("plus", 0, 2),
                             form=DELTA)
        minus = tr.transition(p=11, base_field=Q, ext_field=F23,
                              base=tr.InvariantRecord("minus", 0, 2),
                              form=DELTA)
        assert plus.lambda_out == minus.lambda_out
        assert plus.degree == minus.degree
        assert [(r.ell, r.m) for r in plus.places] == \
            [(r.ell, r.m) for r in minus.places]

    def test_chaining_via_computed_record(self):
        F3 = sp.parse_field_spec("cyclotomic:109:degree=3")
        F9 = sp.parse_field_spec("cyclotomic:109:degree=9")
        V9 = lf.Generic(9, (2, 1, 0, 1, 0, 0, 1, 0, 0))
        r1 = tr.transition(p=3, base_field=Q, ext_field=F3,
                           base=tr.InvariantRecord("algebraic", 0, 1),
                           local_types={109: V9})
        rec = r1.to_invariant_record()
        assert rec == tr.InvariantRecord("algebraic", 0, r1.lambda_out)
        r2 = tr.transition(p=3, base_field=F3, ext_field=F9, base=rec,
                           local_types={109: lf.restrict_type(V9, 3)})
        comp = tr.compose(r1, r2)
        assert comp.lambda_in == 1 and comp.lambda_out == r2.lambda_out

    def test_repeated_reduction_gives_the_same_report(self):
        # p = 3 divides the conductor 63 = 9 * 7, so the extension is
        # reduced; run again, the report is the same.  Q's conductor is
        # prime to 3: it is its own reduction
        F = sp.parse_field_spec("cyclotomic:63:gens=8,55,59")

        def run():
            return tr.transition(p=3, base_field=Q, ext_field=F,
                                 base=BASE_ALG, form=DELTA)

        first = run()
        again = run()
        assert again == first
        assert sp.unramified_at_p_reduction(Q, 3) is Q

    def test_repeated_delta_transition_reads_tau_from_the_memo(self):
        # the second run asks for the same tau(1123): hits, no miss
        def run():
            return tr.transition(p=11, base_field=Q, ext_field=F1123,
                                 base=BASE_ALG, form=DELTA, precision=1200)

        first = run()
        before = qexp._tau.cache_info()
        again = run()
        after = qexp._tau.cache_info()
        assert after.hits > before.hits
        assert after.misses == before.misses
        assert again == first

    def test_hypotheses_echoed(self):
        rep = tr.transition(p=11, base_field=Q, ext_field=F23,
                            base=BASE_ALG, form=DELTA,
                            assert_hypotheses=True)
        assert all(v for _, v in rep.hypotheses)
        assert not any("hypotheses" in w for w in rep.warnings)


class TestTameAtP:
    """A field with a character whose p-part is tame has a p-tower that no
    field unramified at p has, so the reduction would count places in
    another tower: refused.  Fields whose p-parts are all wild still
    reduce, and their reports are pinned."""

    BASE = sp.parse_field_spec("cyclotomic:11:degree=10")       # Q(zeta_11)
    EXT = sp.parse_field_spec("cyclotomic:12353:gens=925")

    def test_tame_fields_are_refused(self):
        # Q(zeta_11) times the degree-11 field of conductor 1123: its
        # tower has 10 places above 1123, the reduced field's tower 1
        assert self.EXT.degree == 110
        assert sp.tower_places(self.EXT, 1123, 11).g_infinity == 10
        assert sp.tower_places(F1123, 1123, 11).g_infinity == 1
        for base, ext in [(self.BASE, self.EXT), (Q, self.EXT),
                          (Q, self.BASE)]:
            with pytest.raises(TameAtP, match="tamely ramified at 11"):
                tr.transition(p=11, base_field=base, ext_field=ext,
                              base=BASE_ALG, form=DELTA)

    # 2783 = 121 * 23: the kernel of chi_121 chi_23, of order 11
    @pytest.mark.parametrize("spec, p, lam, ell", [
        ("cyclotomic:63:gens=8,55,59", 3, 7, 7),
        ("cyclotomic:2783:gens=18,60", 11, 11, 23),
        ("cyclotomic:121:degree=11", 11, 1, None),    # in the tower
    ])
    def test_wild_fields_still_reduce(self, spec, p, lam, ell):
        rep = tr.transition(p=p, base_field=Q,
                            ext_field=sp.parse_field_spec(spec),
                            base=BASE_ALG, form=DELTA)
        assert rep.lambda_out == lam
        assert [(r.ell, r.places) for r in rep.places] == (
            [(ell, 1)] if ell else [])
        assert rep.warnings[0].startswith("extension ramified above p")

    # presented at their conductors 11 and 1123, prime to p
    @pytest.mark.parametrize("spec, minimal, p, lam", [
        ("cyclotomic:15015:degree=5", "cyclotomic:11:degree=5", 5, 13),
        ("cyclotomic:12353:degree=11", "cyclotomic:1123:degree=11", 11, 31),
    ], ids=["15015", "12353"])
    def test_unramified_fields_are_not_reduced(self, spec, minimal, p, lam):
        F, G = sp.parse_field_spec(spec), sp.parse_field_spec(minimal)
        assert F == G and sp.efg(F, p).e == 1
        reports = [tr.transition(p=p, base_field=Q, ext_field=field,
                                 base=BASE_ALG, form=DELTA, precision=1200)
                   for field in (F, G)]
        assert reports[0].lambda_out == lam
        assert reports[0].ext_spec == F.spec_string()
        assert not any("ramified above p" in w for w in reports[0].warnings)
        docs = [dict(r.as_mapping()) for r in reports]
        for doc in docs:
            del doc["extension"]
        assert docs[0] == docs[1]


class TestLambdaViaTwists:
    """Delta at p = 11: lambda' is the sum of the per-twist lambdas."""

    def test_23_example_decomposition(self):
        rep = tr.transition(p=11, base_field=Q, ext_field=F23,
                            base=BASE_ALG, form=DELTA)
        # per-twist values: lambda(A) = 1 and all local differences 0
        per_twist = [1] + [1] * 10
        assert rep.lambda_out == sum(per_twist) == 11

    def test_1123_example_decomposition(self):
        rep = tr.transition(p=11, base_field=Q, ext_field=F1123,
                            base=BASE_ALG, form=DELTA, precision=1200)
        # nontrivial twists each pick up the m-difference 2 at one place
        per_twist = [1] + [1 + 2] * 10
        assert rep.lambda_out == sum(per_twist) == 31
        assert sum(r.places * r.m for r in rep.places) == 10 * 2


def synthetic_chain(lam0=2, seed=5):
    """Q < F3 < F9 inside Q(zeta_109) with generic local data at 109."""
    F3 = sp.parse_field_spec("cyclotomic:109:degree=3")
    F9 = sp.parse_field_spec("cyclotomic:109:degree=9")
    rng = random.Random(seed)
    V9 = lf.Generic(9, tuple(rng.randint(0, 3) for _ in range(9)))
    V3 = lf.restrict_type(V9, 3)
    r_ab = tr.transition(p=3, base_field=Q, ext_field=F3,
                         base=tr.InvariantRecord("algebraic", 0, lam0),
                         local_types={109: V9})
    r_bc = tr.transition(p=3, base_field=F3, ext_field=F9,
                         base=tr.InvariantRecord("algebraic", 0,
                                                 r_ab.lambda_out),
                         local_types={109: V3})
    direct = tr.transition(p=3, base_field=Q, ext_field=F9,
                           base=tr.InvariantRecord("algebraic", 0, lam0),
                           local_types={109: V9})
    return r_ab, r_bc, direct


class TestCompose:
    def test_synthetic_generic_chain(self):
        r_ab, r_bc, direct = synthetic_chain()
        comp = tr.compose(r_ab, r_bc)
        assert comp.degree == direct.degree == 9
        assert comp.lambda_out == direct.lambda_out
        assert [(r.ell, r.local_degree, r.places, r.m) for r in comp.places] \
            == [(r.ell, r.local_degree, r.places, r.m) for r in direct.places]

    def test_trivial_middle_step(self):
        r_ab, _, _ = synthetic_chain()
        r_id = tr.transition(p=3, base_field=Q, ext_field=Q,
                             base=tr.InvariantRecord("algebraic", 0, 2))
        comp = tr.compose(r_id, r_ab)
        assert comp.lambda_out == r_ab.lambda_out
        assert comp.degree == r_ab.degree

    def test_associativity(self):
        F3 = sp.parse_field_spec("cyclotomic:109:degree=3")
        F9 = sp.parse_field_spec("cyclotomic:109:degree=9")
        F27 = sp.parse_field_spec("cyclotomic:109:degree=27")
        rng = random.Random(11)
        V27 = lf.Generic(27, tuple(rng.randint(0, 2) for _ in range(27)))
        lam = 60   # headroom: synthetic generic data can push lambda down
        reps = []
        chain = [(Q, F3, V27, 1), (F3, F9, lf.restrict_type(V27, 3), None),
                 (F9, F27, lf.restrict_type(V27, 9), None)]
        lam_in = lam
        for base_f, ext_f, V, _ in chain:
            rep = tr.transition(p=3, base_field=base_f, ext_field=ext_f,
                                base=tr.InvariantRecord("algebraic", 0,
                                                        lam_in),
                                local_types={109: V})
            reps.append(rep)
            lam_in = rep.lambda_out
        left = tr.compose(tr.compose(reps[0], reps[1]), reps[2])
        right = tr.compose(reps[0], tr.compose(reps[1], reps[2]))
        assert left.lambda_out == right.lambda_out
        assert left.degree == right.degree == 27
        assert [(r.ell, r.local_degree, r.places, r.m) for r in left.places] \
            == [(r.ell, r.local_degree, r.places, r.m) for r in right.places]

    def test_steps_ramified_at_different_primes(self):
        # Q < cubic of conductor 7 < bicubic field of conductor 763:
        # the lower step is ramified at 7 only, the upper at 109 only,
        # and the composite at both, so composition must recompute
        # tower counts for the prime missing from each report.
        from kida import arith
        F7 = sp.parse_field_spec("cyclotomic:7:degree=3")
        U = arith.unit_group(763)
        assert U.invariant_factors == (6, 108)
        F763 = sp.AbelianField(763, (U.element((3, 0)), U.element((0, 3))))
        assert F763.degree == 9
        assert sp.relative_degree(F7, F763) == 3
        # tau(7) = tau(109) = 2 mod 3, c = 1 mod 3 at both primes: each
        # ramified place contributes 2(e-1) = 4 per place
        r_ab = tr.transition(p=3, base_field=Q, ext_field=F7,
                             base=tr.InvariantRecord("algebraic", 0, 1),
                             form=DELTA)
        assert [x.ell for x in r_ab.places] == [7]
        r_bc = tr.transition(p=3, base_field=F7, ext_field=F763,
                             base=r_ab.to_invariant_record(), form=DELTA)
        assert [x.ell for x in r_bc.places] == [109]
        direct = tr.transition(p=3, base_field=Q, ext_field=F763,
                               base=tr.InvariantRecord("algebraic", 0, 1),
                               form=DELTA)
        assert {x.ell for x in direct.places} == {7, 109}
        comp = tr.compose(r_ab, r_bc)
        assert comp.lambda_out == direct.lambda_out
        assert comp.degree == direct.degree == 9
        assert [(x.ell, x.local_degree, x.places, x.m) for x in comp.places] \
            == [(x.ell, x.local_degree, x.places, x.m) for x in direct.places]

    def test_places_are_priced_by_the_table_alone(self, monkeypatch):
        # no twist-by-twist sum runs.  109 is unramified in the lower
        # step, so compose prices its dying character at local degree 1,
        # where it must read 0 for the tower bookkeeping to close
        def refuse(*args):
            raise AssertionError("twist-by-twist sum reached")
        monkeypatch.setattr(lf, "m_single", refuse)
        from kida import arith
        F7 = sp.parse_field_spec("cyclotomic:7:degree=3")
        U = arith.unit_group(763)
        F763 = sp.AbelianField(763, (U.element((3, 0)), U.element((0, 3))))
        dying = {109: lf.parse_local_type("special:ram,triv,dies", 3)}
        base = tr.InvariantRecord("algebraic", 0, 10)
        r_ab = tr.transition(p=3, base_field=Q, ext_field=F7, base=base,
                             form=DELTA)
        r_bc = tr.transition(p=3, base_field=F7, ext_field=F763,
                             base=r_ab.to_invariant_record(), form=DELTA,
                             local_types=dying)
        direct = tr.transition(p=3, base_field=Q, ext_field=F763, base=base,
                               form=DELTA, local_types=dying)
        comp = tr.compose(r_ab, r_bc)
        assert comp.lambda_out == direct.lambda_out == 9 * 10 + 3 * 4 - 27
        assert [(x.ell, x.local_degree, x.places, x.m, x.h)
                for x in comp.places] == [(7, 3, 3, 4, 4), (109, 3, 27, -1, -1)]

    def test_inconsistent_local_restriction_rejected(self):
        F3 = sp.parse_field_spec("cyclotomic:109:degree=3")
        F9 = sp.parse_field_spec("cyclotomic:109:degree=9")
        V9 = lf.Generic(9, (2, 1, 0, 1, 0, 0, 1, 0, 0))
        r_ab = tr.transition(p=3, base_field=Q, ext_field=F3,
                             base=tr.InvariantRecord("algebraic", 0, 5),
                             local_types={109: V9})
        wrong_v3 = lf.Generic(3, (9, 0, 0))   # not the restriction of V9
        r_bc = tr.transition(p=3, base_field=F3, ext_field=F9,
                             base=r_ab.to_invariant_record(),
                             local_types={109: wrong_v3})
        with pytest.raises(ChainMismatch):
            tr.compose(r_ab, r_bc)

    def test_chain_mismatch_fields(self):
        r_ab, r_bc, _ = synthetic_chain()
        with pytest.raises(ChainMismatch):
            tr.compose(r_bc, r_ab)

    def test_chain_mismatch_lambda(self):
        r_ab, _, _ = synthetic_chain()
        F3 = sp.parse_field_spec("cyclotomic:109:degree=3")
        F9 = sp.parse_field_spec("cyclotomic:109:degree=9")
        V3 = lf.restrict_type(lf.Generic(9, (1,) * 9), 3)
        bad_bc = tr.transition(p=3, base_field=F3, ext_field=F9,
                               base=tr.InvariantRecord("algebraic", 0,
                                                       r_ab.lambda_out + 1),
                               local_types={109: V3})
        with pytest.raises(ChainMismatch):
            tr.compose(r_ab, bad_bc)


class TestEllipticCurveCriterion:
    def test_good_ramified_primes_order_p(self):
        # h_v != 0 at a good prime ell = 1 mod 11 iff 11 | #E(F_ell)
        E = qexp.EllipticCurve(0, -1, 1, -10, -20)
        f = qexp.ec_form(E)
        hits = 0
        for ell in range(23, 1200, 22):
            if any(ell % q == 0 for q in range(2, ell)) or ell == 11:
                continue
            n_points = E.count_points(ell)
            a, c = qexp.frobenius_data(f, ell, 11)
            h = lf.h_v(lf.UnramifiedPS(a, c, 11), 11)
            assert (h != 0) == (n_points % 11 == 0), ell
            hits += h != 0
        assert hits >= 1   # the criterion fires somewhere in range


def _padic_val(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _twist_form(name):
    return DELTA if name == "delta" else qexp.ec_form(
        qexp.EllipticCurve(0, -1, 1, -10, -20))


def _twist_primes(f, p, bound):
    """Odd primes ell = 1 mod p (that is, 1 mod 2p) below ``bound`` that do
    not divide the level."""
    return [ell for ell in range(2 * p + 1, bound, 2 * p)
            if f.level % ell and all(
                ell % q for q in range(3, math.isqrt(ell) + 1, 2))]


def _g_t(f, p, ell):
    """(g, t) at ell: g = p^(v_p(ell^(p-1) - 1) - 1) and t the Frobenius
    eigenvalues at ell that are 1 mod p.  For x^2 - a x + c, x = 1 is a
    root iff 1 - a + c = 0 mod p, and then the other root is c."""
    g = p ** (_padic_val(ell ** (p - 1) - 1, p) - 1)
    a, c = f.a_prime(ell), ell ** (f.weight - 1)
    return g, 0 if (1 - a + c) % p else 1 + (c % p == 1)


def _primitive_root(ell):
    return next(r for r in range(2, ell)
                if len({pow(r, k, ell) for k in range(ell - 1)}) == ell - 1)


def _crt(a1, ell1, a2, ell2):
    return (a1 + ell1 * ((a2 - a1) * pow(ell1, -1, ell2))) % (ell1 * ell2)


class TestPerTwistClosedForm:
    """The per-twist sum of Pollack-Weston, in closed form.

    Over F' = cyclotomic:ell:degree=p with ell = 1 mod p, Gal(F'/Q) has
    p - 1 nontrivial characters, each ramified at ell alone.  Its twist of
    f has lambda + g*t, where g = p^(v_p(ell^(p-1) - 1) - 1) counts the
    places above ell in Q_infinity and t the Frobenius eigenvalues at ell
    that are 1 mod p.  Summed over the characters:
    lambda' = p*lambda + (p - 1)*g*t.  Neither g nor t comes from kida.
    """

    @pytest.mark.parametrize("name, p", [
        ("delta", 3), ("delta", 5), ("delta", 7), ("delta", 11),
        ("11a1", 3), ("11a1", 7)])
    def test_lambda_out_is_the_twist_sum(self, name, p):
        f = _twist_form(name)
        ts = set()
        for ell in _twist_primes(f, p, 2000):
            g, t = _g_t(f, p, ell)
            ts.add(t)
            ext = sp.parse_field_spec(f"cyclotomic:{ell}:degree={p}")
            for lam in (0, 1, 2):
                rep = tr.transition(p=p, base_field=Q, ext_field=ext,
                                    base=tr.InvariantRecord("algebraic", 0,
                                                            lam),
                                    form=f)
                assert rep.lambda_out == p * lam + (p - 1) * g * t, (ell, lam)
        assert 2 in ts   # some prime carries a local term

    @pytest.mark.parametrize("name, p", [
        ("delta", 3), ("delta", 5), ("11a1", 3), ("11a1", 5)])
    def test_two_prime_compositum(self, name, p):
        # F' = K1 K2 with Ki = cyclotomic:ell_i:degree=p has Gal(F'/Q) =
        # (Z/p)^2, and p(p - 1) of its characters are ramified at each
        # ell_i.  With d_i = g_i t_i: lambda' = p^2 lambda + p(p - 1)(d1 +
        # d2) over Q, and over K1, whose lambda is p lambda + (p - 1) d1,
        # lambda' = p lambda_K1 + p(p - 1) d2.  H is built here by CRT from
        # p-th powers of primitive roots, then from a second generator set
        # of the same H, whose equal field every cache serves again
        f = _twist_form(name)
        # every third prime, for a spread of g and of t
        ells = _twist_primes(f, p, 400)[::3][:5]
        local = 0
        for i, ell1 in enumerate(ells):
            K1 = sp.parse_field_spec(f"cyclotomic:{ell1}:degree={p}")
            for ell2 in ells[i + 1:]:
                N = ell1 * ell2
                x1 = _crt(pow(_primitive_root(ell1), p, ell1), ell1, 1, ell2)
                x2 = _crt(1, ell1, pow(_primitive_root(ell2), p, ell2), ell2)
                ext, again = (sp.AbelianField(N, (x1, x2)),
                              sp.AbelianField(N, (x1 * x2 % N, x1)))
                assert ext.degree == p * p and ext == again
                (g1, t1), (g2, t2) = _g_t(f, p, ell1), _g_t(f, p, ell2)
                d1, d2 = g1 * t1, g2 * t2
                local += d1 + d2
                for F in (ext, again):
                    misses = sp.ramified_set.cache_info().misses
                    for lam in (0, 1, 2):
                        lam_K1 = p * lam + (p - 1) * d1
                        over_Q = tr.transition(
                            p=p, base_field=Q, ext_field=F, form=f,
                            base=tr.InvariantRecord("algebraic", 0, lam))
                        over_K1 = tr.transition(
                            p=p, base_field=K1, ext_field=F, form=f,
                            base=tr.InvariantRecord("algebraic", 0, lam_K1))
                        assert over_Q.lambda_out == (
                            p * p * lam + p * (p - 1) * (d1 + d2))
                        assert over_K1.lambda_out == (
                            p * lam_K1 + p * (p - 1) * d2)
                    if F is again:
                        assert sp.ramified_set.cache_info().misses == misses
        assert local    # some prime carries a local term


def _affine_points(coeffs, ell):
    """Solutions mod ell of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6,
    singular points included: ell - a_ell at good and multiplicative
    primes alike."""
    a1, a2, a3, a4, a6 = coeffs
    return sum((y * y + a1 * x * y + a3 * y
                - x ** 3 - a2 * x * x - a4 * x - a6) % ell == 0
               for x in range(ell) for y in range(ell))


class TestTwistSumOverCharacters:
    """Kida's formula as Pollack-Weston prove it: lambda of F'_inf is the
    sum over the characters chi of Gal(F'/Q) of lambda(f (x) chi) =
    lambda + the sum of d_ell = g_ell t_ell over the primes ell of chi's
    conductor.  The characters of (Z/N)^*/H are listed by brute force, so
    no field data comes from kida."""

    def test_random_p_extensions(self):
        # N is two or three primes ell = 1 mod p below 400 (N < 15000, so
        # that (Z/N)^* is listed whole), and H holds the units of order
        # prime to p and a few random units, so Gal(F'/Q) = (Z/N)^*/H is
        # a p-group; F lies between Q and F', fixed by H and one more
        # unit.  Over Q and over F, lambda_out is the twist sum over F'
        rng = random.Random(29)
        seen = {"three primes": 0, "order p^2": 0, "proper F": 0,
                "local term": 0}
        for _ in range(24):
            p = rng.choice((3, 5))
            f = _twist_form(rng.choice(("delta", "11a1")))
            primes = _twist_primes(f, p, 400)
            by_count = [[c for c in itertools.combinations(primes, k)
                         if math.prod(c) < 15000] for k in (2, 3)]
            ells = rng.choice(rng.choice([c for c in by_count if c]))
            N = math.prod(ells)
            G = DirichletGroup(N)
            wild = p ** _padic_val(G.exponent, p)
            H = spanning_subset(sorted({pow(x, wild, N) for x in G.units}), N)
            H += [pow(rng.choice(G.units), p ** rng.randint(0, 1), N)
                  for _ in range(rng.randint(0, 2))]
            H_F = H + [rng.choice(G.units)]
            # the units 1 mod N/ell: chi is ramified at ell iff it is
            # nontrivial on them
            local = {ell: spanning_subset([x for x in G.units
                                           if x % (N // ell) == 1], N)
                     for ell in ells}
            delta = {ell: math.prod(_g_t(f, p, ell)) for ell in ells}

            def twist_sum(chars, lam):
                return sum(lam + sum(delta[ell] for ell in ells if any(
                    G.value(c, x) for x in local[ell])) for c in chars)

            chars, chars_F = G.characters(H), G.characters(H_F)
            lam = rng.randint(0, 3)
            lam_F = twist_sum(chars_F, lam)
            ext, F = sp.AbelianField(N, H), sp.AbelianField(N, H_F)
            for base_field, lam_in in ((Q, lam), (F, lam_F)):
                rep = tr.transition(
                    p=p, base_field=base_field, ext_field=ext, form=f,
                    base=tr.InvariantRecord("algebraic", 0, lam_in))
                assert rep.lambda_out == twist_sum(chars, lam), (
                    p, N, H, base_field)
            gens = [x for ell in ells for x in local[ell]]
            seen["three primes"] += len(ells) == 3
            seen["order p^2"] += any(G.exponent // math.gcd(G.exponent, *(
                G.value(c, x) for x in gens)) == p * p for c in chars)
            seen["proper F"] += 1 < len(chars_F) < len(chars)
            seen["local term"] += twist_sum(chars, 0) > 0
        assert min(seen.values()) >= 3, seen

    def test_random_p_extensions_ramified_at_p(self, monkeypatch):
        # N p^k for k = 1, 2, N one or two primes ell = 1 mod p, and H
        # holding the units of order prime to p, the (p-1)-torsion at p
        # among them, so every character's p-part is wild: the tower of F'
        # is that of the field cut out by the tame parts of its
        # characters, and lambda_out sums over those tame parts.  For
        # k = 1 F' is unramified at p.  A draw repeated from the same
        # units is a ramified_set hit, with no reduction at p run again
        reductions, reduce = [], sp.unramified_at_p_reduction

        def counted(F, p):
            reductions.append(F)
            return reduce(F, p)

        monkeypatch.setattr(sp, "unramified_at_p_reduction", counted)
        rng = random.Random(31)
        seen = {"k = 1": 0, "ramified at p": 0, "smaller tower degree": 0,
                "proper F": 0, "local term": 0}
        for _ in range(24):
            p, k = rng.choice((3, 5)), rng.choice((1, 2))
            f = _twist_form(rng.choice(("delta", "11a1")))
            primes = _twist_primes(f, p, 200)
            ells = rng.choice([c for n in (1, 2)
                               for c in itertools.combinations(primes, n)
                               if math.prod(c) * p ** k < 10000])
            N = math.prod(ells) * p ** k
            G = DirichletGroup(N)
            wild = p ** _padic_val(G.exponent, p)
            H = spanning_subset(sorted({pow(x, wild, N) for x in G.units}), N)
            H += [pow(rng.choice(G.units), p ** rng.randint(0, 1), N)
                  for _ in range(rng.randint(0, 2))]
            H_F = H + [rng.choice(G.units)]
            local = {ell: spanning_subset([x for x in G.units
                                           if x % (N // ell) == 1], N)
                     for ell in ells}
            # a character's tame part is its restriction to the units
            # that are 1 mod p^k
            tame = spanning_subset([x for x in G.units
                                    if x % p ** k == 1], N)
            delta = {ell: math.prod(_g_t(f, p, ell)) for ell in ells}

            def tame_parts(chars):
                return list({tuple(G.value(c, x) for x in tame): c
                             for c in chars}.values())

            def twist_sum(chars, lam):
                return sum(lam + sum(delta[ell] for ell in ells if any(
                    G.value(c, x) for x in local[ell]))
                    for c in tame_parts(chars))

            chars, chars_F = G.characters(H), G.characters(H_F)
            lam = rng.randint(0, 3)
            lam_F = twist_sum(chars_F, lam)
            ext, F = sp.AbelianField(N, H), sp.AbelianField(N, H_F)
            assert k == 2 or ext.conductor % p
            for base_field, lam_in in ((Q, lam), (F, lam_F)):
                def run(ext_field):
                    return tr.transition(
                        p=p, base_field=base_field, ext_field=ext_field,
                        form=f, base=tr.InvariantRecord("algebraic", 0,
                                                        lam_in))
                rep = run(ext)
                assert rep.lambda_out == twist_sum(chars, lam), (
                    p, N, H, base_field)
                assert rep.warnings[0].startswith(
                    "extension ramified above p") == (ext.conductor % p == 0)
                if base_field == Q:
                    assert rep.degree == len(tame_parts(chars))
                    seen["smaller tower degree"] += rep.degree < ext.degree
                info, ran = sp.ramified_set.cache_info(), len(reductions)
                assert run(sp.AbelianField(N, H)) == rep
                after = sp.ramified_set.cache_info()
                assert (after.hits, after.misses) == (info.hits + 1,
                                                      info.misses)
                assert len(reductions) == ran
            seen["k = 1"] += k == 1
            seen["ramified at p"] += ext.conductor % p == 0
            seen["proper F"] += 1 < len(chars_F) < len(chars)
            seen["local term"] += twist_sum(chars, 0) > 0
        assert reductions and min(seen.values()) >= 3, seen

    def test_prime_of_the_level(self):
        # 11a1 at p = 5 over the quintic field of conductor 11: the twists
        # lose the Euler factor 1 - a_11 X at 11, with a_11 = 11 - (affine
        # points) = +-1, so d_11 = g_11 (a_11 = 1 mod 5), and --local names
        # the special type a_11 gives: lambda' = 5 lambda + 4 d_11
        p, ell = 5, 11
        f = _twist_form("11a1")
        a = ell - _affine_points((0, -1, 1, -10, -20), ell)
        assert a in (1, -1)
        g = p ** (_padic_val(ell ** (p - 1) - 1, p) - 1)
        local = lf.parse_local_type(
            "special:unram," + ("triv" if a == 1 else "nontriv"), p)
        rep = tr.transition(
            p=p, base_field=Q, form=f, local_types={ell: local},
            ext_field=sp.parse_field_spec("cyclotomic:11:degree=5"),
            base=tr.InvariantRecord("algebraic", 0, 1))
        assert rep.lambda_out == p + (p - 1) * g * ((a - 1) % p == 0) == 9


# Each fault breaks one invariant the library checks; every check must
# raise InternalAdditivityViolation, also when python -O strips asserts.
FAULT_INJECTION = r"""
import json
from kida import qexp, splitting as sp, transition as tr
from kida.errors import InternalAdditivityViolation

Q = sp.rationals()
F23 = sp.parse_field_spec("cyclotomic:23:degree=11")
F121 = sp.parse_field_spec("cyclotomic:121:degree=11")     # wild at 11
real = {name: getattr(sp, name)
        for name in ("efg", "unramified_at_p_reduction")}

def run(name, call, attr, fake):
    setattr(sp, attr, fake)
    try:
        call()
        out[name] = "no error"
    except InternalAdditivityViolation as exc:
        out[name] = str(exc)
    finally:
        setattr(sp, attr, real[attr])

out = {}
run("ramified_set", lambda: sp.ramified_set(Q, F23, 11),
    "efg", lambda F, ell: sp.PlaceData(
        ell, 2 if F.degree == 1 else 3, 1, 1, 1))
run("transition", lambda: tr.transition(
    p=11, base_field=Q, ext_field=F121,
    base=tr.InvariantRecord("algebraic", 0, 1), form=qexp.delta_form()),
    "unramified_at_p_reduction", lambda F, p: F)
print(json.dumps(out, sort_keys=True))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "-O"])
def test_broken_invariants_raise_typed_errors(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", FAULT_INJECTION],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "ramified_set": "e at 23: base 2 does not divide extension 3",
        "transition": "reduction left ramification at p",
    }
