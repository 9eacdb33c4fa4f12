import ast
import json
import math
import subprocess
import sys

import pytest

from kida import arith, chargroup, cli, qexp, verify
from kida.errors import BoundExceeded, KidaError, SpecParseError

GROUP_IDENTITY_DOC = """checks = {checks}
param.max_order = {size}
param.reps = 100
param.seed = {seed}
result = pass
suite = group-identity
"""

# the sweep at size 12, seed 0 with <(0, 1)> of C_2 x C_4 claiming order 8
WRONG_ORDER_SWEEP = """
import json
from kida import chargroup, verify
G24 = (2, 4)
target = chargroup.Subgroup(G24, [(0, 1)]).elements()
real = chargroup.subgroups

def faulty(G):
    subs = real(G)
    if G == G24:
        next(H for H in subs if H.elements() == target).order *= 2
    return subs

chargroup.subgroups = faulty
print(json.dumps(verify.group_identity_suite(12, 0).as_mapping()))
"""


def _parameters(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    return [arg.arg for arg in [*a.posonlyargs, *a.args, a.vararg,
                                *a.kwonlyargs, a.kwarg] if arg]


def test_a_suite_takes_only_its_seed_and_size():
    # run_suite passes a suite its seed and its --size keyword, and a
    # suite fills in its result: any other parameter is one no caller sets
    with open(verify.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for suite, size_kw, _ in verify.SUITES.values():
        assert sorted(_parameters(defs[suite])) == sorted(
            filter(None, ["seed", size_kw])), suite
    init = next(node for node in defs["SuiteResult"].body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    assert _parameters(init) == ["self", "name", "params"]


class TestGroupIdentitySuite:
    def test_value_logs_match_characters(self):
        # the sweep's outer-sum lists against the reference's dot
        # products, read over dual_group
        for G in chargroup.abelian_groups_upto(64):
            dual = chargroup.dual_group(G)
            gens = {g for H in chargroup.subgroups(G) for g in H.generators}
            for g in gens:
                column = [key for key, in
                          chargroup._restrictions(G, dual, [g])]
                assert (verify._value_logs(G, math.lcm(*G), g)
                        == column), (G, g)

    def test_small_sweep_passes(self):
        res = verify.group_identity_suite(max_order=48, seed=7)
        assert res.passed and res.checks == 148362

    def test_deterministic(self):
        a = verify.group_identity_suite(max_order=24, seed=3)
        b = verify.group_identity_suite(max_order=24, seed=3)
        assert a.checks == b.checks and a.failures == b.failures

    @pytest.mark.parametrize("size,seed,checks", [
        (12, 0, 8032), (64, 1, 602432), (70, 3, 606646), (64, 0, 602432),
        (66, 0, 603636), (68, 0, 605442), (70, 0, 606646)])
    def test_golden_stdout(self, size, seed, checks, capsys):
        argv = ["verify", "--suite", "group-identity",
                "--size", str(size), "--seed", str(seed)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == GROUP_IDENTITY_DOC.format(
            checks=checks, size=size, seed=seed)

    def test_golden_json(self, capsys):
        argv = ["verify", "--suite", "group-identity", "--size", "40",
                "--seed", "2", "--json"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            '{"checks": 118134, "param.max_order": 40, "param.reps": 100, '
            '"param.seed": 2, "result": "pass", "suite": "group-identity"}\n')

    def test_wrong_subgroup_order_is_caught(self, monkeypatch):
        # the subgroup <(1, 2)> of C_2 x C_4 claims order 4 instead of 2;
        # the annihilator count must expose it (and the reference
        # subsample at this seed does not draw it)
        real = chargroup.subgroups
        G24 = (2, 4)
        target = chargroup.Subgroup(G24, [(1, 2)]).elements()

        def faulty(G):
            subs = real(G)
            if G == G24:
                next(H for H in subs if H.elements() == target).order *= 2
            return subs

        monkeypatch.setattr(chargroup, "subgroups", faulty)
        res = verify.group_identity_suite(max_order=12, seed=0)
        assert res.as_mapping() == {
            "suite": "group-identity", "checks": 7932, "result": "FAIL",
            "param.max_order": 12, "param.reps": 100, "param.seed": 0,
            "counterexample.0": "annihilator size 4 != 8/4 "
                                "for G=(2, 4) H=((1, 2),)"}

    def test_split_restriction_classes_are_caught(self, monkeypatch):
        # value logs that tell apart characters equal on H (a nonzero log
        # x at character j read as x + j e) keep every annihilator but
        # split the restriction classes
        real = verify._value_logs

        def faulty(d, e, g):
            return [x and x + j * e for j, x in enumerate(real(d, e, g))]

        monkeypatch.setattr(verify, "_value_logs", faulty)
        res = verify.group_identity_suite(max_order=4, seed=0)
        assert res.checks == 908 and res.failures == [
            f"3 restriction classes != |H|=2 for G={d} H=({g},)"
            for d, g in [((4,), (2,)), ((2, 2), (0, 1)), ((2, 2), (1, 0)),
                         ((2, 2), (1, 1))]]

    def test_nontrivial_first_key_is_caught(self, monkeypatch):
        # value logs rotated by one character keep the annihilator size
        # and the class count but put a nontrivial character first; the
        # trivial class then differs from the annihilator wherever that
        # character is nontrivial on H
        real = verify._value_logs

        def rotated(d, e, g):
            logs = real(d, e, g)
            return logs[1:] + logs[:1]

        monkeypatch.setattr(verify, "_value_logs", rotated)
        res = verify.group_identity_suite(max_order=4, seed=0)
        assert res.checks == 608 and res.failures == [
            f"trivial-class != annihilator for G={d} H={gens}"
            for d, gens in [((2,), ((1,),)), ((3,), ((1,),)),
                            ((4,), ((1,),)), ((4,), ((2,),)),
                            ((2, 2), ((1, 0), (0, 1))), ((2, 2), ((0, 1),)),
                            ((2, 2), ((1, 1),))]]

    @pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "-O"])
    def test_wrong_order_in_reference_draw_is_a_fail(self, flags):
        # the reference subsample at this seed draws <(0, 1)> of C_2 x C_4;
        # claiming order 8 for it must give FAIL counterexamples, not an
        # AssertionError, and the same ones when python -O strips asserts
        proc = subprocess.run(
            [sys.executable, *flags, "-c", WRONG_ORDER_SWEEP],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "suite": "group-identity", "checks": 7931, "result": "FAIL",
            "param.max_order": 12, "param.reps": 100, "param.seed": 0,
            "counterexample.0": "annihilator size 2 != 8/8 "
                                "for G=(2, 4) H=((0, 1),)",
            "counterexample.1": "reference check fails: G=(2, 4) "
                                "H=((0, 1),): 4 restriction classes "
                                "!= |H|=8"}


class TestTowerAdditivitySuite:
    def test_passes(self):
        res = verify.tower_additivity_suite(max_size=27, seed=1)
        assert res.passed and res.checks > 500


class TestPathAgreementSuite:
    def test_passes(self):
        res = verify.path_agreement_suite(seed=3)
        assert res.passed
        # full cartesian product: 3 primes x 2 exponents x all types
        assert res.checks >= 2 * (9 + 25 + 121)


class TestHasseSuite:
    def test_sieve_matches_is_prime(self):
        assert verify._primes_upto(8000) == [
            n for n in range(8001) if arith.is_prime(n)]
        assert verify._primes_upto(1) == verify._primes_upto(0) == []

    def test_tabulated_recount_matches_double_loop(self):
        # the recount's per-b tables against a loop over every (x, y)
        def double_loop(E, ell):
            cnt = 1
            for x in range(ell):
                rhs = (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6) % ell
                for y in range(ell):
                    if (y * y + E.a1 * x * y + E.a3 * y - rhs) % ell == 0:
                        cnt += 1
            return cnt

        cases = 0
        for coefficients in verify.TEST_CURVES:
            E = qexp.EllipticCurve(*coefficients)
            for ell in verify._primes_upto(150):
                if E.discriminant() % ell:
                    assert (verify._count_points_naive(E, ell)
                            == double_loop(E, ell)), (coefficients, ell)
                    cases += 1
        assert cases == 137

    def test_passes(self):
        res = verify.hasse_suite(bound=100)
        assert res.passed and res.checks > 100

    def test_legendre_recounts_past_229_and_a_seeded_sample(self,
                                                            monkeypatch):
        real = qexp._count_legendre

        def recounted(seed):
            seen = set()

            def spy(E, ell):
                if ell <= 229:
                    return real(E, ell)
                seen.add(ell)
                return qexp._count_bsgs(E, ell)
            monkeypatch.setattr(qexp, "_count_legendre", spy)
            assert verify.hasse_suite(bound=2400, seed=seed).passed
            return seen
        primes = {ell for ell in range(230, 2401) if arith.is_prime(ell)}
        s0, s1 = recounted(0), recounted(1)
        for seen in (s0, s1):
            assert {ell for ell in seen if ell <= 2000} == {
                ell for ell in primes if ell <= 2000}
            assert len({ell for ell in seen if ell > 2000}) == 32
        assert s0 != s1

    def test_recount_catches_a_wrong_count(self, monkeypatch):
        real = qexp._count_bsgs
        monkeypatch.setattr(qexp, "_count_bsgs",
                            lambda E, ell: real(E, ell) + (ell == 1009))
        res = verify.hasse_suite(bound=1100)
        assert len(res.failures) == len(verify.TEST_CURVES)
        assert all(f.startswith("recount mismatch") and "ell=1009" in f
                   for f in res.failures)


class TestRendering:
    def test_mapping_sorted_and_complete(self):
        res = verify.path_agreement_suite(seed=0)
        m = res.as_mapping()
        assert m["suite"] == "path-agreement"
        assert m["result"] == "pass"
        assert m["checks"] == res.checks


class TestRunSuite:
    def test_size_reaches_the_suite_keyword(self):
        assert verify.run_suite("hasse", size=30).params["bound"] == 30
        res = verify.run_suite("tower-additivity", seed=1, size=9)
        assert res.params["max_size"] == 9
        res = verify.run_suite("group-identity", size=12)
        assert res.params["max_order"] == 12

    @pytest.mark.parametrize("size", [None])
    def test_unset_size_keeps_the_suite_default(self, size):
        assert verify.run_suite("hasse", size=size).params["bound"] == 100
        res = verify.run_suite("tower-additivity", size=size)
        assert res.params["max_size"] == 27

    @pytest.mark.parametrize("name, size, error", [
        ("hasse", 0, SpecParseError),
        ("tower-additivity", -1, SpecParseError),
        ("group-identity", 0, SpecParseError),
        ("group-identity", 201, BoundExceeded),
        ("tower-additivity", 2198, BoundExceeded),
        ("hasse", 8001, BoundExceeded),
    ])
    def test_size_out_of_range_is_refused(self, name, size, error,
                                          monkeypatch):
        def must_not_run(**kw):
            raise AssertionError(f"suite ran with {kw}")

        monkeypatch.setattr(verify, verify.SUITES[name][0], must_not_run)
        with pytest.raises(error):
            verify.run_suite(name, size=size)

    @pytest.mark.parametrize("name", ["group-identity", "tower-additivity",
                                      "hasse"])
    def test_largest_size_is_accepted(self, name, monkeypatch):
        suite, keyword, largest = verify.SUITES[name]
        monkeypatch.setattr(verify, suite, lambda **kw: kw)
        assert verify.run_suite(name, size=largest) == {"seed": 0,
                                                        keyword: largest}

    def test_path_agreement_ignores_size(self):
        res = verify.run_suite("path-agreement", seed=2, size=5)
        ref = verify.path_agreement_suite(seed=2)
        assert res.as_mapping() == ref.as_mapping()

    def test_suite_is_looked_up_at_call_time(self, monkeypatch):
        # a wrapper installed on the module attribute after import (as a
        # tracer does) must be the function that run_suite reaches
        calls = []
        real = verify.hasse_suite

        def wrapped(**kw):
            calls.append(kw)
            return real(**kw)

        monkeypatch.setattr(verify, "hasse_suite", wrapped)
        res = verify.run_suite("hasse", seed=3, size=20)
        assert calls == [{"seed": 3, "bound": 20}]
        assert res.params == {"bound": 20, "seed": 3}

    def test_unknown_name(self):
        with pytest.raises(KidaError, match="unknown suite"):
            verify.run_suite("no-such-suite")
