import random

import pytest

from kida import chargroup as cg
from kida import localfactor as lf
from kida.errors import (GenericUnsupported, IncoherentGenericData,
                         SpecParseError)

UNRAM_TRIV = lf.LocalCharData(ramified=False, trivial_mod_p=True)
UNRAM_NONTRIV = lf.LocalCharData(ramified=False, trivial_mod_p=False)


def ram_char(trivial, order):
    return lf.LocalCharData(True, trivial, True, order_on_inertia=order)


class TestMSingle:
    def test_ups_neither_eigenvalue_trivial(self):
        assert lf.m_single(lf.UnramifiedPS(10, 1, 11)) == 0

    def test_ups_both_eigenvalues_trivial(self):
        assert lf.m_single(lf.UnramifiedPS(2, 1, 11)) == 2

    def test_ups_one_eigenvalue(self):
        assert lf.m_single(lf.UnramifiedPS(5, 4, 11)) == 1

    def test_ups_ramified_twist_kills(self):
        V = lf.UnramifiedPS(2, 1, 11)
        for j in range(1, 11):
            assert lf.m_single(V, 11, j) == 0

    def test_supercuspidal_zero_for_every_twist(self):
        for degree in (1, 3, 9, 27):
            for j in range(degree):
                assert lf.m_single(lf.Supercuspidal(), degree, j) == 0

    def test_special_unramified(self):
        V = lf.Special(UNRAM_TRIV)
        assert lf.m_single(V) == 1
        assert lf.m_single(V, 5, 2) == 0

    def test_special_dying_ramified(self):
        V = lf.Special(ram_char(True, 5))
        assert lf.m_single(V) == 0
        hits = [lf.m_single(V, 5, j) for j in range(5)]
        assert sum(hits) == 1 and hits[0] == 0

    def test_generic_unsupported(self):
        with pytest.raises(GenericUnsupported):
            lf.m_single(lf.Generic(3, (1, 0, 0)))

    def test_values_bounded(self):
        for V in [lf.UnramifiedPS(a, c, 5) for a in range(5)
                  for c in range(5)]:
            for j in range(5):
                assert 0 <= lf.m_single(V, 5, j) <= 2

    def test_exponent_reduced_mod_degree(self):
        V = lf.Special(ram_char(True, 9))   # cancelled by exponent 9 // 9
        assert lf.m_single(V, 9, 10) == lf.m_single(V, 9, -8) == 1
        assert lf.m_single(V, 9, -1) == lf.m_single(V, 9, 8) == 0
        W = lf.Special(UNRAM_TRIV)          # cancelled by the trivial twist
        assert lf.m_single(W, 1, 5) == lf.m_single(W, 9, -9) == 1
        assert lf.m_single(W, 9, 13) == lf.m_single(W, 9, 4) == 0
        ups = lf.UnramifiedPS(2, 1, 11)
        assert lf.m_single(ups, 9, 18) == 2 and lf.m_single(ups, 9, 13) == 0


class TestMExtension:
    def test_degree_one_always_zero(self):
        for V in (lf.UnramifiedPS(2, 1, 3), lf.Special(UNRAM_TRIV),
                  lf.Supercuspidal(), lf.Generic(1, (4,))):
            assert lf.m_extension(V, 1) == 0
            assert lf.twist_sum(V, 1) == 0

    def test_special_unramified_trivial(self):
        for p in (3, 5, 11):
            assert lf.m_extension(lf.Special(UNRAM_TRIV), p) == p - 1

    def test_special_dying_ramified_trivial(self):
        for p in (3, 5, 11):
            V = lf.Special(ram_char(True, p))
            assert lf.m_extension(V, p) == -1

    def test_bounded_for_two_dimensional_types(self):
        for p in (3, 5):
            types = [lf.UnramifiedPS(a, c, p) for a in range(p)
                     for c in range(p)]
            types += [lf.Special(phi) for phi in
                      (UNRAM_TRIV, UNRAM_NONTRIV, ram_char(True, p))]
            types += [lf.RamifiedPS(ram_char(True, p), ram_char(True, p))]
            for V in types:
                for e in (p, p * p):
                    m = lf.m_extension(V, e)
                    assert -2 <= m <= 2 * (e - 1)


class TestHTables:
    def test_h_char_cases(self):
        # Special(phi) prices the one table row of its character phi
        assert lf.h_v(lf.Special(UNRAM_TRIV), 11) == 10
        assert lf.h_v(lf.Special(ram_char(True, 5)), 5) == -1
        assert lf.h_v(lf.Special(UNRAM_NONTRIV), 7) == 0
        # nontrivial mod p
        assert lf.h_v(lf.Special(ram_char(False, 5)), 5) == 0
        surv = lf.LocalCharData(True, True, False, order_on_inertia=25)
        assert lf.h_v(lf.Special(surv), 5) == 0

    def test_char_case_follows_inertia_order(self):
        surv = lf.Special(lf.LocalCharData(True, True, False,
                                           order_on_inertia=25))
        assert lf.case_of(surv, 5) == "character_survives_ramified"
        assert lf.case_of(surv, 25) == "character_dies_over_extension"
        assert lf.h_v(surv, 25) == -1
        assert lf.case_of(lf.RamifiedPS(surv.phi, UNRAM_NONTRIV), 25) == (
            "character_dies_over_extension+character_nontrivial_mod_p")

    def test_no_character_dies_over_the_trivial_extension(self):
        dies = lf.LocalCharData(True, True, True)   # flag only, no order
        assert dies.dies_over(5) and not dies.dies_over(1)
        assert lf.case_of(lf.Special(dies), 1) == "character_survives_ramified"
        assert lf.h_v(lf.RamifiedPS(dies, dies), 1) == 0

    def test_h_v_reference_cases(self):
        assert lf.h_v(lf.UnramifiedPS(10, 1, 11), 11) == 0
        assert lf.h_v(lf.UnramifiedPS(2, 1, 11), 11) == 20
        assert lf.h_v(lf.Supercuspidal(), 7) == 0

    def test_h_v_one_trivial_eigenvalue(self):
        assert lf.h_v(lf.UnramifiedPS(5, 4, 11), 11) == 10

    def test_ramified_ps_sums_characters(self):
        V = lf.RamifiedPS(UNRAM_TRIV, ram_char(True, 5))
        assert lf.h_v(V, 5) == (5 - 1) + (-1)

    def test_generic_rejected(self):
        with pytest.raises(GenericUnsupported):
            lf.h_v(lf.Generic(3, (1, 0, 0)), 3)

    def test_path_agreement_cross_product(self):
        # the h-table against the twist-by-twist oracle: every tabulated
        # type, from flag characters and from inertia orders p .. p^4, at
        # e = 1, p, ... up to 30000
        cases, bad = 0, []
        for p in (3, 5, 7, 11, 13):
            chars = [UNRAM_TRIV, UNRAM_NONTRIV]
            for triv in (True, False):
                chars += [lf.LocalCharData(True, triv, dies)
                          for dies in (True, False)]
                chars += [ram_char(triv, p ** k) for k in range(1, 5)]
            types = [lf.Supercuspidal()]
            types += [lf.UnramifiedPS(a, c, p) for a in range(p)
                      for c in range(p)]
            types += [lf.Special(phi) for phi in chars]
            types += [lf.RamifiedPS(c1, c2) for i, c1 in enumerate(chars)
                      for c2 in chars[i:]]
            for V in types:
                for e in (p ** k for k in range(5) if p ** k <= 30000):
                    cases += 1
                    h, m = lf.h_v(V, e), lf.twist_sum(V, e)
                    if h != m:
                        bad.append((p, e, lf.describe_local_type(V), h, m))
        assert cases == 4865
        assert not bad, f"{len(bad)} disagreements, first {bad[:5]}"


class TestTwistSum:
    def test_one_m_single_per_twist(self, monkeypatch):
        # the oracle stays literal: the base twist plus one m_single per
        # exponent, never a closed form borrowed from the table it checks
        calls = []
        real = lf.m_single

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lf, "m_single", counted)
        for V in (lf.Special(ram_char(True, 9)), lf.UnramifiedPS(2, 1, 3),
                  lf.RamifiedPS(UNRAM_TRIV, ram_char(True, 3))):
            for d in (1, 3, 9, 27, 81):
                calls.clear()
                assert lf.twist_sum(V, d) == lf.h_v(V, d)
                assert len(calls) == d + 1
                assert sorted(j for _, _, j in calls[1:]) == list(range(d))


class TestTowerAdditivity:
    def test_special_unramified_chain(self):
        for p in (3, 5):
            ok, lhs, rhs = lf.check_tower_additivity(
                lf.Special(UNRAM_TRIV), p, p * p)
            assert ok
            assert lhs == p * p - 1 == p * (p - 1) + (p - 1)

    def test_trivial_chain(self):
        ok, lhs, rhs = lf.check_tower_additivity(lf.Supercuspidal(), 1, 1)
        assert ok and lhs == 0 and rhs == 0

    def test_all_tabulated(self):
        for p in (3, 5):
            types = [lf.UnramifiedPS(a, c, p) for a in range(p)
                     for c in range(p)]
            types += [lf.Supercuspidal(), lf.Special(UNRAM_TRIV),
                      lf.Special(UNRAM_NONTRIV)]
            types += [lf.Special(ram_char(t, o)) for t in (True, False)
                      for o in (p, p * p)]
            types += [lf.RamifiedPS(ram_char(True, p), ram_char(True, p * p))]
            chains = [(1, 1), (1, p), (p, p), (1, p * p), (p, p * p),
                      (p * p, p * p)]
            for V in types:
                for inner, outer in chains:
                    ok, lhs, rhs = lf.check_tower_additivity(V, inner, outer)
                    assert ok, (p, V, inner, outer, lhs, rhs)

    def test_generic_random_multisets_vs_chargroup(self):
        rng = random.Random(7)
        for t in (3, 9, 27):
            G = cg.cyclic(t)
            dual = cg.dual_group(G)
            for _ in range(15):
                W = cg.random_rep(G, rng, 15)
                mvals = tuple(W.entries.get(chi, 0) for chi in dual)
                V = lf.Generic(t, mvals)
                inner = 3
                while inner <= t:
                    ok, lhs, rhs = lf.check_tower_additivity(V, inner, t)
                    assert ok, (t, inner, mvals)
                    # the brute-force multiplicity oracle agrees
                    H = (cg.Subgroup(G, [(inner,)]) if inner < t
                         else cg.Subgroup(G, []))
                    ok2, l2, _ = cg.check_group_identity(W, H)
                    assert ok2 and l2 == lhs
                    inner *= 3

    def test_incoherent_generic_rejected(self):
        with pytest.raises(IncoherentGenericData):
            lf.Generic(3, (1, 0))
        with pytest.raises(IncoherentGenericData):
            lf.m_extension(lf.Generic(3, (1, 0, 0)), 9)

    def test_surviving_char_without_order_rejected_in_towers(self):
        phi = lf.LocalCharData(True, True, False)   # no order given
        with pytest.raises(IncoherentGenericData):
            lf.check_tower_additivity(lf.Special(phi), 3, 9)


class TestRestriction:
    def test_generic_bucketing(self):
        V = lf.Generic(9, (3, 1, 2, 0, 1, 1, 0, 2, 1))
        assert lf.restrict_type(V, 3) == lf.Generic(3, (3, 4, 4))

    def test_character_order_drops(self):
        phi = ram_char(True, 25)
        r = phi.restricted(5)
        assert r.ramified and r.order_on_inertia == 5
        assert phi.restricted(25).ramified is False

    def test_ups_and_sc_unchanged(self):
        V = lf.UnramifiedPS(2, 1, 5)
        assert lf.restrict_type(V, 5) == V
        assert lf.restrict_type(lf.Supercuspidal(), 5) == lf.Supercuspidal()


class TestGrammar:
    def test_round_trips(self):
        for spec in ("sc", "ups:a=2,c=1", "special:ram,triv,dies",
                     "ramps:unram,triv;ram,nontriv,survives",
                     "generic:1,0,0"):
            V = lf.parse_local_type(spec, 3)
            assert lf.parse_local_type(lf.describe_local_type(V), 3) == V

    def test_ups_reduces_mod_p(self):
        V = lf.parse_local_type("ups:a=13,c=12", 11)
        assert (V.a, V.c) == (2, 1)

    @pytest.mark.parametrize("bad", [
        "ups:a=2", "ups:a=2,c=x", "ramps:unram,triv", "special:ram,triv",
        "special:foo,triv", "generic:1,2", "generic:a,b,c", "nonsense",
        "special:unram,triv,dies",
    ])
    def test_malformed(self, bad):
        with pytest.raises(SpecParseError):
            lf.parse_local_type(bad, 3)
