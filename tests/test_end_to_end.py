"""End-to-end paths not covered by the per-module tests: table and
elliptic-curve form sources through the CLI, even-conductor fields,
signed-kind hypothesis echoes, and the full local-type override grammar."""

import collections
import itertools
import json
import math
import os
import subprocess
import sys

import pytest

from kida import arith, localfactor as lf, qexp, splitting as sp, \
    transition as tr
from kida.errors import MissingCoefficient, RamifiedLevel

Q = sp.rationals()


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("KIDA_PRECISION", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "kida.cli", *argv],
        capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestTableFormThroughCli:
    def test_transition_with_table_source(self, tmp_path):
        # user table with a_7 = 2: both Frobenius eigenvalues trivial mod 3
        path = tmp_path / "aps.txt"
        path.write_text("weight 2 level 11\n2 -2\n3 -1\n5 1\n7 2\n",
                        encoding="ascii")
        code, out, err = run_cli(
            "transition", "--form", f"table:{path}", "--p", "3",
            "--base", "Q", "--ext", "cyclotomic:7:degree=3",
            "--lambda", "0", "--mu", "0", "--json")
        assert code == 0, err
        doc = json.loads(out)
        # a = 2, c = 1 mod 3: h = 2(e-1) = 4, one place above 7
        assert doc["local.7.m"] == 4
        assert doc["lambda.out"] == 4
        assert doc["form"].startswith("table:")

    def test_missing_entry_is_reported(self, tmp_path):
        path = tmp_path / "aps.txt"
        path.write_text("weight 2 level 11\n2 -2\n", encoding="ascii")
        code, _, err = run_cli(
            "transition", "--form", f"table:{path}", "--p", "3",
            "--base", "Q", "--ext", "cyclotomic:7:degree=3",
            "--lambda", "0", "--mu", "0")
        assert code == 2 and "error" in err


class TestEcFormThroughCli:
    def test_transition_with_curve_source(self):
        # conductor-11 curve; p = 3; at 67 the curve has a = -7 = 2 mod 3
        # and 3 | #E(F_67), so the place contributes 2(e-1) = 4
        code, out, err = run_cli(
            "transition", "--form", "ec:a1=0,a2=-1,a3=1,a4=-10,a6=-20",
            "--p", "3", "--base", "Q", "--ext", "cyclotomic:67:degree=3",
            "--lambda", "0", "--mu", "0", "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["local.67.type"] == "ups:a=2,c=1"
        assert doc["local.67.m"] == 4
        assert doc["lambda.out"] == doc["local.67.places"] * 4

    def test_transition_with_curve_zero_contribution(self):
        # at 7 the same curve has a = -2 = 1 mod 3: no trivial eigenvalue
        code, out, err = run_cli(
            "transition", "--form", "ec:a1=0,a2=-1,a3=1,a4=-10,a6=-20",
            "--p", "3", "--base", "Q", "--ext", "cyclotomic:7:degree=3",
            "--lambda", "1", "--mu", "0", "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["local.7.type"] == "ups:a=1,c=1"
        assert doc["local.7.m"] == 0
        assert doc["lambda.out"] == 3

    def test_singular_curve_rejected(self):
        code, _, _ = run_cli(
            "transition", "--form", "ec:a1=0,a2=0,a3=0,a4=0,a6=0",
            "--p", "3", "--base", "Q", "--ext", "cyclotomic:7:degree=3",
            "--lambda", "0", "--mu", "0")
        assert code == 3

    def test_hv_with_curve(self):
        code, out, _ = run_cli(
            "hv", "--form", "ec:a1=0,a2=-1,a3=1,a4=-10,a6=-20",
            "--p", "11", "--ell", "23", "--e", "11")
        assert code == 0
        lines = out.splitlines()
        # a_23 = -1 = 10 mod 11, c = 23 = 1 mod 11: no trivial eigenvalue
        assert "a = 10" in lines and "h = 0" in lines


class TestLocalOverrideGrammarThroughCli:
    def test_special_and_ramps_overrides(self):
        code, out, err = run_cli(
            "transition", "--p", "3", "--base", "Q",
            "--ext", "cyclotomic:7:degree=3", "--lambda", "1", "--mu", "0",
            "--local", "7=special:unram,triv", "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["local.7.m"] == 2 and doc["lambda.out"] == 5
        code, out, _ = run_cli(
            "transition", "--p", "3", "--base", "Q",
            "--ext", "cyclotomic:7:degree=3", "--lambda", "1", "--mu", "0",
            "--local", "7=ramps:ram,triv,dies;ram,nontriv,survives", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["local.7.m"] == -1
        assert doc["lambda.out"] == 3 - 1

    def test_generic_p_squared(self):
        code, out, _ = run_cli(
            "transition", "--p", "3", "--base", "Q",
            "--ext", "cyclotomic:109:degree=9", "--lambda", "2", "--mu", "0",
            "--local", "109=generic:3,1,0,2,0,0,1,0,0", "--json")
        assert code == 0
        doc = json.loads(out)
        # m = sum(3 - v) over the nine values = 27 - 7 = 20
        assert doc["local.109.degree"] == 9
        assert doc["local.109.m"] == 20
        assert doc["lambda.out"] == 2 * 9 + doc["local.109.places"] * 20


class TestSignedKinds:
    def test_plus_minus_hypotheses_echoed(self):
        F23 = sp.parse_field_spec("cyclotomic:23:degree=11")
        rep = tr.transition(p=11, base_field=Q, ext_field=F23,
                            base=tr.InvariantRecord("plus", 0, 1),
                            form=qexp.delta_form(), assert_hypotheses=True)
        names = [n for n, _ in rep.hypotheses]
        assert "supersingular_weight_two" in names
        assert "congruent_to_zp_coefficient_form" in names
        assert all(v for _, v in rep.hypotheses)

    def test_kind_flag_through_cli(self):
        code, out, _ = run_cli(
            "transition", "--form", "delta", "--p", "11", "--base", "Q",
            "--ext", "cyclotomic:23:degree=11", "--lambda", "1", "--mu", "0",
            "--kind", "minus", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["kind"] == "minus"
        assert doc["lambda.out"] == 11


class TestEvenConductorFields:
    def test_real_quadratic_of_conductor_8(self):
        F8 = sp.AbelianField(8, (7,))
        assert F8.degree == 2
        pd = sp.efg(F8, 2)
        assert (pd.e, pd.f, pd.g) == (2, 1, 1)

    def test_split_prime_in_real_quadratic(self):
        # 7 = -1 mod 8 is fixed by the subgroup: split
        F8 = sp.AbelianField(8, (7,))
        assert sp.efg(F8, 7).g == 2

    def test_towers_over_even_conductor(self):
        F8 = sp.AbelianField(8, (7,))
        assert sp.tower_places(F8, 7, 3).g_infinity == 2
        assert sp.tower_places(F8, 2, 3).g_infinity == 1
        assert sp.tower_places(Q, 2, 3).g_infinity == 1

    def test_p_two_rejected_everywhere(self):
        F8 = sp.AbelianField(8, (7,))
        with pytest.raises(ValueError):
            sp.ramified_set(Q, F8, 2)
        with pytest.raises(ValueError):
            sp.unramified_at_p_reduction(F8, 2)


class TestMultiPlaceTransition:
    def test_extension_ramified_at_two_primes(self):
        # degree-11 field cut out by the product of order-11 characters
        # mod 23 and mod 1123: ramified at both primes.  In invariant
        # coordinates (22, 1122) the kernel is v1 + v2 = 0 mod 11.
        N = 23 * 1123
        U = arith.unit_group(N)
        assert U.invariant_factors == (22, 1122)
        gens = (U.element((1, 1121)), U.element((0, 11)))
        F = sp.AbelianField(N, gens)
        assert F.degree == 11
        assert sp.efg(F, 23).e == 11 and sp.efg(F, 1123).e == 11
        rep = tr.transition(p=11, base_field=Q, ext_field=F,
                            base=tr.InvariantRecord("algebraic", 0, 1),
                            form=qexp.delta_form(), precision=1200)
        assert rep.degree == 11
        by_ell = {r.ell: r for r in rep.places}
        assert set(by_ell) == {23, 1123}
        assert by_ell[23].m == 0
        assert by_ell[1123].m == 20
        assert rep.lambda_out == 11 * 1 + \
            by_ell[23].places * 0 + by_ell[1123].places * 20


def _small_primes(bound):
    return [q for q in range(2, bound + 1) if arith.is_prime(q)]


def _count_over_extension(curve, ell, n):
    """#E(F_(ell^n)), n <= 3, for a curve with a1 = 0, by listing the
    points of y^2 + a3 y = x^3 + a2 x^2 + a4 x + a6.  F_(ell^n) is
    F_ell[t]/(g) for the first monic g of degree n with no root (for
    n <= 3, irreducible); an element is its coefficient tuple."""
    assert curve.a1 == 0 and 1 <= n <= 3
    tails = itertools.product(range(ell), repeat=n)
    tail = next(g for g in tails if n == 1 or all(
        (r ** n + sum(c * r ** i for i, c in enumerate(g))) % ell
        for r in range(ell)))

    def mul(u, v):
        prod = [0] * (2 * n - 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                prod[i + j] += ui * vj
        for k in range(2 * n - 2, n - 1, -1):   # t^n = -sum tail_i t^i
            for i, c in enumerate(tail):
                prod[k - n + i] -= prod[k] * c
        return tuple(x % ell for x in prod[:n])

    def plus(u, c):
        return ((u[0] + c) % ell,) + u[1:]

    field = list(itertools.product(range(ell), repeat=n))
    lhs = collections.Counter(mul(y, plus(y, curve.a3)) for y in field)
    return 1 + sum(
        lhs[plus(mul(plus(mul(plus(x, curve.a2), x), curve.a4), x), curve.a6)]
        for x in field)


class TestInertBaseResidueDegree:
    MODULI = (3, 5, 7, 11, 691, 10007)

    def test_local_type_of_delta_against_hecke(self):
        # Hecke: tau(ell^f) = h_f(alpha, beta), so the power sum is
        # trace(Frob^f) = tau(ell^f) - ell^11 tau(ell^(f-2)), with
        # tau(ell^-1) = 0; det(Frob^f) = ell^(11 f)
        delta = qexp.delta_form()
        primes = _small_primes(2000)
        for f0 in (1, 2, 3):
            for ell in (q for q in primes if q ** f0 <= 2000):
                lower = qexp.tau(ell ** (f0 - 2)) if f0 >= 2 else 0
                trace = qexp.tau(ell ** f0) - ell ** 11 * lower
                for p in self.MODULI:
                    if p != ell:
                        V = qexp.local_type(delta, ell, p, f0)
                        assert isinstance(V, lf.UnramifiedPS)
                        assert (V.a, V.c) == (trace % p,
                                              pow(ell, 11 * f0, p))

    def test_local_type_of_11a1_against_point_counts(self):
        # trace(Frob^f) = ell^f + 1 - #E(F_(ell^f)), counted by listing
        # F_(ell^f): f = 1, 2 up to 31 and f = 3 up to 7, 11 bad
        form = qexp.ec_form(qexp.EllipticCurve(0, -1, 1, -10, -20))
        for f0, bound in ((1, 31), (2, 31), (3, 7)):
            for ell in _small_primes(bound):
                if ell == 11:
                    continue
                q = ell ** f0
                trace = q + 1 - _count_over_extension(form.source, ell, f0)
                assert abs(trace) <= 2 * math.isqrt(q) + 2
                for p in self.MODULI:
                    if p != ell:
                        V = qexp.local_type(form, ell, p, f0)
                        assert (V.a, V.c) == (trace % p, q % p)

    def test_local_type_of_table_forms(self):
        f = qexp.table_form(qexp.CoefficientTable(2, 3, {11: 3, 107: 5}))
        # x^2 - 3x + 1 mod 5 has the double root 4; Frob^2 has trace
        # 4^2 + 4^2 = 32 = 2 and determinant 1, Frob^3 trace 128 = 3
        assert qexp.local_type(f, 11, 5) == lf.UnramifiedPS(3, 1, 5)
        assert qexp.local_type(f, 11, 5, 2) == lf.UnramifiedPS(2, 1, 5)
        assert qexp.local_type(f, 11, 5, 3) == lf.UnramifiedPS(3, 1, 5)
        # 107 = 6 mod 101: x^2 - 5x + 6 = (x-2)(x-3); Frob^f has trace
        # 2^f + 3^f and determinant 6^f
        for f0 in (1, 2, 3):
            assert qexp.local_type(f, 107, 101, f0) == lf.UnramifiedPS(
                2 ** f0 + 3 ** f0, 6 ** f0, 101)
        # frobenius_data's refusals stand: a level prime, a missing entry
        with pytest.raises(RamifiedLevel):
            qexp.local_type(f, 3, 5, 2)
        with pytest.raises(MissingCoefficient):
            qexp.local_type(f, 13, 5, 2)

    def test_cli_over_base_where_13_is_inert(self):
        # README's command: 13 is inert in Q(sqrt 2); a_13 = 4 and
        # #E(F_169) = 180, so Frob^2 has trace -10 = 2 and determinant
        # 169 = 1 mod 3, h = 2(e - 1) = 4.  Over Q the type is ups:a=1,c=1,
        # whose h is 0
        spec = "ec:a1=0,a2=-1,a3=1,a4=-10,a6=-20"
        assert _count_over_extension(
            qexp.EllipticCurve(0, -1, 1, -10, -20), 13, 2) == 180
        code, out, err = run_cli(
            "transition", "--form", spec, "--p", "3", "--base",
            "cyclotomic:8:gens=7", "--ext", "cyclotomic:104:gens=57,79",
            "--lambda", "1", "--mu", "0")
        assert code == 0, err
        lines = out.splitlines()
        assert "lambda.out = 7" in lines
        assert "local.13.type = ups:a=2,c=1" in lines
        assert "local.13.h = 4" in lines
        code, out, err = run_cli("hv", "--form", spec, "--p", "3", "--ell",
                                 "13", "--e", "3")
        assert code == 0, err
        assert {"h = 0", "type = ups:a=1,c=1"} <= set(out.splitlines())

    def test_transition_over_base_with_inert_ramified_prime(self):
        # base Q(sqrt 2) (conductor 8, fixed by {1,7}); 11 is inert there
        # (Frobenius class 3 mod 8).  Extension: compositum with the
        # quintic field of conductor 11, cut out inside (Z/88)^* by
        # H = {x = +-1 mod 8} meet {x = +-1 mod 11} = <23, 65>.
        F = sp.AbelianField(8, (7,))
        Fp = sp.AbelianField(88, (23, 65))
        assert sp.relative_degree(F, Fp) == 5
        assert sp.efg(F, 11).f == 2
        # table form with a_11 = 3 = -2 mod 5: over Q neither Frobenius
        # eigenvalue is trivial mod 5, but over the inert base the
        # squared Frobenius has both eigenvalues trivial
        tbl = qexp.CoefficientTable(2, 3, {11: 3})
        f = qexp.table_form(tbl)
        rep = tr.transition(p=5, base_field=F, ext_field=Fp,
                            base=tr.InvariantRecord("algebraic", 0, 1),
                            form=f)
        assert rep.degree == 5
        place = rep.places[0]
        assert place.ell == 11
        assert place.type_spec == "ups:a=2,c=1"
        assert place.m == 2 * (5 - 1) == place.h
        assert rep.lambda_out == 5 * 1 + place.places * 8
        # the place-count identity ties the two splitting routes together
        g_base = sp.tower_places(F, 11, 5).g_infinity
        assert place.local_degree * place.places == rep.degree * g_base


class TestTransitionWithTableAtLevelPrime:
    def test_override_at_level_prime(self):
        # level 11 table form, extension ramified at 11 for p = 5 needs a
        # user type; with a dying special character the drop is -1
        tbl = qexp.CoefficientTable(2, 11, {2: -2, 3: -1})
        f = qexp.table_form(tbl)
        F121 = sp.parse_field_spec("cyclotomic:121:degree=5")
        from kida import localfactor as lf
        rep = tr.transition(
            p=5, base_field=Q, ext_field=F121,
            base=tr.InvariantRecord("algebraic", 0, 3), form=f,
            local_types={11: lf.Special(lf.LocalCharData(
                True, True, True, order_on_inertia=5))})
        assert rep.degree == 5
        assert rep.places[0].m == -1
        assert rep.lambda_out == 5 * 3 + rep.places[0].places * -1
