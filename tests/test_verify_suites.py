import pytest

from kida import chargroup, cli, verify
from kida.errors import KidaError

GROUP_IDENTITY_DOC = """checks = {checks}
param.max_order = {size}
param.reps = 100
param.seed = {seed}
result = pass
suite = group-identity
"""


class TestGroupIdentitySuite:
    def test_small_sweep_passes(self):
        res = verify.group_identity_suite(max_order=48, reps=30, seed=7)
        assert res.passed and res.checks == 44622

    def test_deterministic(self):
        a = verify.group_identity_suite(max_order=24, reps=10, seed=3)
        b = verify.group_identity_suite(max_order=24, reps=10, seed=3)
        assert a.checks == b.checks and a.failures == b.failures

    @pytest.mark.parametrize("size,seed,checks", [
        (12, 0, 8032), (64, 1, 602432), (70, 3, 606646)])
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
        # one subgroup of C_2 x C_4 claims order 4 instead of 2; the
        # annihilator count must expose it (and the reference subsample
        # at this seed does not draw it)
        real = chargroup.subgroups

        def faulty(G):
            subs = real(G)
            if G.invariant_factors == (2, 4):
                subs[3].order *= 2
            return subs

        monkeypatch.setattr(chargroup, "subgroups", faulty)
        res = verify.group_identity_suite(max_order=12, reps=100, seed=0)
        assert res.as_mapping() == {
            "suite": "group-identity", "checks": 7932, "result": "FAIL",
            "param.max_order": 12, "param.reps": 100, "param.seed": 0,
            "counterexample.0": "annihilator size 4 != 8/4 "
                                "for G=(2, 4) H=((1, 2),)"}


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
    def test_passes(self):
        res = verify.hasse_suite(bound=100)
        assert res.passed and res.checks > 100


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

    @pytest.mark.parametrize("size", [None, 0])
    def test_unset_size_keeps_the_suite_default(self, size):
        assert verify.run_suite("hasse", size=size).params["bound"] == 100
        res = verify.run_suite("tower-additivity", size=size)
        assert res.params["max_size"] == 27

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
