"""End-to-end paths not covered by the per-module tests: table and
elliptic-curve form sources through the CLI, even-conductor fields,
signed-kind hypothesis echoes, and the full local-type override grammar."""

import json
import os
import subprocess
import sys

import pytest

from kida import arith, qexp, splitting as sp, transition as tr

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


class TestInertBaseResidueDegree:
    def test_frobenius_power_helper(self):
        from kida.transition import _frobenius_power
        # x^2 - 3x + 1 mod 5 has the double root 4; Frob^2 has trace
        # 4^2 + 4^2 = 32 = 2 and determinant 1
        assert _frobenius_power(3, 1, 2, 5) == (2, 1)
        assert _frobenius_power(3, 1, 1, 5) == (3, 1)
        # coprime roots: x^2 - 5x + 6 = (x-2)(x-3); f = 3 gives
        # trace 8 + 27 = 35, det 216
        assert _frobenius_power(5, 6, 3, 101) == (35, 216 % 101)

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
