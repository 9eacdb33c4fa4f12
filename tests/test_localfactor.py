import ast
import random
from pathlib import Path

import pytest

from kida import chargroup as cg
from kida import localfactor as lf, verify
from kida.errors import IncoherentGenericData, SpecParseError

UNRAM_TRIV = lf.LocalCharData(ramified=False, trivial_mod_p=True)
UNRAM_NONTRIV = lf.LocalCharData(ramified=False, trivial_mod_p=False)


def ram_char(trivial, order):
    return lf.LocalCharData(True, trivial, True, order_on_inertia=order)


def lines(*chars):
    """The ramified type on these character lines: none is ``sc``, one
    ``special:``, two ``ramps:``."""
    return lf.CharacterLines(chars)


def root_one_multiplicity(a, c, p):
    """How often x - 1 divides x^2 - a x + c over F_p: divide by it,
    synthetically, while the remainder is 0."""
    coeffs, count = [1, -a % p, c % p], 0
    while len(coeffs) > 1:
        quotient = [coeffs[0]]
        for coeff in coeffs[1:]:
            quotient.append((coeff + quotient[-1]) % p)
        if quotient.pop():
            break
        coeffs, count = quotient, count + 1
    return count


def test_no_module_switches_on_the_local_type():
    # each type names its own rows, path and hv fields, so no isinstance
    # (or issubclass) in src/kida asks which local type it holds
    types = {"UnramifiedPS", "CharacterLines", "Generic", "LocalType"}
    found = []
    for path in sorted(Path(lf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "issubclass")):
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for arg in node.args[1:] for n in ast.walk(arg)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if names & types:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_trivial_eigenvalues_count_the_root_one(p):
    # m_extension and twist_sum both read trivial_eigenvalues, so the
    # path-agreement suite cannot tell a wrong count; this oracle can
    for a in range(p):
        for c in range(p):
            assert lf.trivial_eigenvalues(lf.UnramifiedPS(a, c, p)) == \
                root_one_multiplicity(a, c, p), (a, c)


class TestMSingle:
    def test_ups_neither_eigenvalue_trivial(self):
        assert lf.m_single(lf.UnramifiedPS(10, 1, 11), 1, 0) == 0

    def test_ups_both_eigenvalues_trivial(self):
        assert lf.m_single(lf.UnramifiedPS(2, 1, 11), 1, 0) == 2

    def test_ups_one_eigenvalue(self):
        assert lf.m_single(lf.UnramifiedPS(5, 4, 11), 1, 0) == 1

    def test_ups_ramified_twist_kills(self):
        V = lf.UnramifiedPS(2, 1, 11)
        for j in range(1, 11):
            assert lf.m_single(V, 11, j) == 0

    def test_supercuspidal_zero_for_every_twist(self):
        for degree in (1, 3, 9, 27):
            for j in range(degree):
                assert lf.m_single(lines(), degree, j) == 0

    def test_special_unramified(self):
        V = lines(UNRAM_TRIV)
        assert lf.m_single(V, 1, 0) == 1
        assert lf.m_single(V, 5, 2) == 0

    def test_special_dying_ramified(self):
        V = lines(ram_char(True, 5))
        assert lf.m_single(V, 1, 0) == 0
        hits = [lf.m_single(V, 5, j) for j in range(5)]
        assert sum(hits) == 1 and hits[0] == 0

    def test_generic_reads_the_quotients_values(self):
        # a twist of the degree-3 quotient is exponent 3 j of the degree-9
        # data: the user's values at 0, 3 and 6
        V = lf.Generic((3, 0, 1, 1, 2, 0, 1, 0, 0))
        for j in range(3):
            assert lf.m_single(V, 3, j) == (3, 1, 1)[j]
        for j in range(9):
            assert lf.m_single(V, 9, j) == V.m_values[j]

    def test_values_bounded(self):
        for V in [lf.UnramifiedPS(a, c, 5) for a in range(5)
                  for c in range(5)]:
            for j in range(5):
                assert 0 <= lf.m_single(V, 5, j) <= 2

    def test_exponent_reduced_mod_degree(self):
        V = lines(ram_char(True, 9))   # cancelled by exponent 9 // 9
        assert lf.m_single(V, 9, 10) == lf.m_single(V, 9, -8) == 1
        assert lf.m_single(V, 9, -1) == lf.m_single(V, 9, 8) == 0
        W = lines(UNRAM_TRIV)          # cancelled by the trivial twist
        assert lf.m_single(W, 1, 5) == lf.m_single(W, 9, -9) == 1
        assert lf.m_single(W, 9, 13) == lf.m_single(W, 9, 4) == 0
        ups = lf.UnramifiedPS(2, 1, 11)
        assert lf.m_single(ups, 9, 18) == 2 and lf.m_single(ups, 9, 13) == 0


class TestMExtension:
    def test_degree_one_always_zero(self):
        # compose counts a prime that a report lacks as 0 on this: every
        # tabulated type, every grammar type and random generic data
        rng = random.Random(5)
        chars = [f"{r},{t}{s}" for t in ("triv", "nontriv")
                 for r, s in (("unram", ""), ("ram", ",dies"),
                              ("ram", ",survives"))]
        grammar = (["sc"] + [f"special:{c}" for c in chars]
                   + [f"ramps:{c1};{c2}" for c1 in chars for c2 in chars])
        for p in (3, 5, 7, 11, 13):
            types = verify._tabulated_types(p)
            types += [lf.parse_local_type(spec, p) for spec in grammar]
            types += [lf.Generic(tuple(rng.randint(0, 3)
                                       for _ in range(p ** b)))
                      for b in (0, 1, 2) for _ in range(3)]
            for V in types:
                assert lf.m_extension(V, 1) == 0, V
                assert lf.twist_sum(V, 1) == 0, V

    def test_special_unramified_trivial(self):
        for p in (3, 5, 11):
            assert lf.m_extension(lines(UNRAM_TRIV), p) == p - 1

    def test_special_dying_ramified_trivial(self):
        for p in (3, 5, 11):
            V = lines(ram_char(True, p))
            assert lf.m_extension(V, p) == -1

    def test_bounded_for_two_dimensional_types(self):
        for p in (3, 5):
            types = [lf.UnramifiedPS(a, c, p) for a in range(p)
                     for c in range(p)]
            types += [lines(phi) for phi in
                      (UNRAM_TRIV, UNRAM_NONTRIV, ram_char(True, p))]
            types += [lines(ram_char(True, p), ram_char(True, p))]
            for V in types:
                for e in (p, p * p):
                    m = lf.m_extension(V, e)
                    assert -2 <= m <= 2 * (e - 1)


class TestHTables:
    def test_h_char_cases(self):
        # a special type prices the one table row of its character
        assert lf.m_extension(lines(UNRAM_TRIV), 11) == 10
        assert lf.m_extension(lines(ram_char(True, 5)), 5) == -1
        assert lf.m_extension(lines(UNRAM_NONTRIV), 7) == 0
        # nontrivial mod p
        assert lf.m_extension(lines(ram_char(False, 5)), 5) == 0
        surv = lf.LocalCharData(True, True, False, order_on_inertia=25)
        assert lf.m_extension(lines(surv), 5) == 0

    def test_char_case_follows_inertia_order(self):
        surv = lines(lf.LocalCharData(True, True, False,
                                      order_on_inertia=25))
        assert lf.case_of(surv, 5) == "character_survives_ramified"
        assert lf.case_of(surv, 25) == "character_dies_over_extension"
        assert lf.m_extension(surv, 25) == -1
        assert lf.case_of(lines(*surv.chars, UNRAM_NONTRIV), 25) == (
            "character_dies_over_extension+character_nontrivial_mod_p")

    def test_no_character_dies_over_the_trivial_extension(self):
        dies = lf.LocalCharData(True, True, True)   # flag only, no order
        assert dies.dies_over(5) and not dies.dies_over(1)
        assert lf.case_of(lines(dies), 1) == "character_survives_ramified"
        assert lf.m_extension(lines(dies, dies), 1) == 0

    def test_reference_cases(self):
        assert lf.m_extension(lf.UnramifiedPS(10, 1, 11), 11) == 0
        assert lf.m_extension(lf.UnramifiedPS(2, 1, 11), 11) == 20
        assert lf.m_extension(lines(), 7) == 0

    def test_one_trivial_eigenvalue(self):
        assert lf.m_extension(lf.UnramifiedPS(5, 4, 11), 11) == 10

    def test_ramified_ps_sums_characters(self):
        V = lines(UNRAM_TRIV, ram_char(True, 5))
        assert lf.m_extension(V, 5) == (5 - 1) + (-1)

    def test_generic_is_one_summation_row(self):
        # generic data is priced by one row: the sum of m(V) - m(V_chi_j)
        # over the user's values at the quotient's exponents
        V = lf.Generic((1, 0, 0))
        assert lf.m_extension(V, 3) == 2 and lf.m_extension(V, 1) == 0
        assert lf.case_of(V, 3) == lf.case_of(V, 1) == "generic_m_summation"

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
            types = [lines()]
            types += [lf.UnramifiedPS(a, c, p) for a in range(p)
                      for c in range(p)]
            types += [lines(phi) for phi in chars]
            types += [lines(c1, c2) for i, c1 in enumerate(chars)
                      for c2 in chars[i:]]
            for V in types:
                for e in (p ** k for k in range(5) if p ** k <= 30000):
                    cases += 1
                    h, m = lf.m_extension(V, e), lf.twist_sum(V, e)
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
        for V in (lines(ram_char(True, 9)), lf.UnramifiedPS(2, 1, 3),
                  lines(UNRAM_TRIV, ram_char(True, 3))):
            for d in (1, 3, 9, 27, 81):
                calls.clear()
                assert lf.twist_sum(V, d) == lf.m_extension(V, d)
                assert len(calls) == d + 1
                assert sorted(j for _, _, j in calls[1:]) == list(range(d))

    def test_generic_data_at_every_divisor_degree(self):
        # the twist-by-twist sum reads the user's values one twist at a
        # time, the table sums them in its one row: both must agree
        rng = random.Random(11)
        for p in (3, 5):
            for b in range(4):
                n = p ** b
                for _ in range(5):
                    V = lf.Generic(tuple(rng.randint(0, 4) for _ in range(n)))
                    for d in (p ** k for k in range(b + 1)):
                        assert lf.twist_sum(V, d) == lf.m_extension(V, d)


class TestTowerAdditivity:
    def test_special_unramified_chain(self):
        for p in (3, 5):
            ok, lhs, rhs = lf.check_tower_additivity(
                lines(UNRAM_TRIV), p, p * p)
            assert ok
            assert lhs == p * p - 1 == p * (p - 1) + (p - 1)

    def test_trivial_chain(self):
        ok, lhs, rhs = lf.check_tower_additivity(lines(), 1, 1)
        assert ok and lhs == 0 and rhs == 0

    def test_all_tabulated(self):
        for p in (3, 5):
            types = [lf.UnramifiedPS(a, c, p) for a in range(p)
                     for c in range(p)]
            types += [lines(), lines(UNRAM_TRIV),
                      lines(UNRAM_NONTRIV)]
            types += [lines(ram_char(t, o)) for t in (True, False)
                      for o in (p, p * p)]
            types += [lines(ram_char(True, p), ram_char(True, p * p))]
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
                V = lf.Generic(mvals)
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
            lf.m_extension(lf.Generic((1, 0, 0)), 9)

    @pytest.mark.parametrize("call", [
        lambda: lf.m_extension(lf.Generic(()), 3),
        lambda: lf.m_single(lf.Generic(()), 3, 0),
        lambda: lf.restrict_type(lf.Generic(()), 3),
    ], ids=["m_extension", "m_single", "restrict_type"])
    def test_empty_generic_data_is_refused(self, call):
        # the grammar refuses "generic:" first, so only a library caller
        # can build empty data, and it gets a typed error
        with pytest.raises(IncoherentGenericData, match="at least one"):
            call()

    def test_surviving_char_without_order_rejected_in_towers(self):
        phi = lf.LocalCharData(True, True, False)   # no order given
        with pytest.raises(IncoherentGenericData):
            lf.check_tower_additivity(lines(phi), 3, 9)


class TestRestriction:
    def test_generic_bucketing(self):
        V = lf.Generic((3, 1, 2, 0, 1, 1, 0, 2, 1))
        assert lf.restrict_type(V, 3) == lf.Generic((3, 4, 4))

    def test_character_order_drops(self):
        phi = ram_char(True, 25)
        r = phi.restricted(5)
        assert r.ramified and r.order_on_inertia == 5
        assert phi.restricted(25).ramified is False

    @pytest.mark.parametrize("spec, restricted", [
        ("special:ram,triv,dies", "special:unram,triv"),
        ("ramps:ram,triv,dies;unram,nontriv",
         "ramps:unram,triv;unram,nontriv"),
    ])
    def test_grammar_dies_character_restricts_unramified(self, spec,
                                                         restricted):
        # a ramified character of unknown order that dies is unramified
        # over the extension, and an unramified character dies over any
        V = lf.parse_local_type(spec, 3)
        assert lf.restrict_type(V, 3) == lf.parse_local_type(restricted, 3)
        assert lf.LocalCharData(False, True).dies_over(3)
        assert lf.check_tower_additivity(V, 3, 9) == (True, -1, -1)

    def test_ups_and_sc_unchanged(self):
        V = lf.UnramifiedPS(2, 1, 5)
        assert lf.restrict_type(V, 5) == V
        assert lf.restrict_type(lines(), 5) == lines()


class TestGrammar:
    def test_round_trips(self):
        for spec in ("sc", "ups:a=2,c=1", "special:ram,triv,dies",
                     "ramps:unram,triv;ram,nontriv,survives",
                     "generic:1,0,0"):
            V = lf.parse_local_type(spec, 3)
            assert lf.parse_local_type(lf.describe_local_type(V), 3) == V

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_line_count_is_the_prefix(self, p):
        # a ramified type is its character lines, and their number is its
        # prefix: every spec of 0, 1 or 2 lines over the six kinds of
        # character parses to that many lines, describes back byte for
        # byte, and keeps its count (so its prefix) along p-power degrees
        kinds = ["unram,triv", "unram,nontriv"] + [
            f"ram,{t},{d}" for t in ("triv", "nontriv")
            for d in ("dies", "survives")]
        specs = (["sc"] + [f"special:{k}" for k in kinds]
                 + [f"ramps:{k1};{k2}" for k1 in kinds for k2 in kinds])
        assert len(specs) == 43
        for spec in specs:
            V = lf.parse_local_type(spec, p)
            n = len(V.chars)
            prefix = ("sc", "special:", "ramps:")[n]
            assert spec.startswith(prefix), spec
            assert lf.describe_local_type(V) == spec
            for degree in (1, p, p * p, p ** 3):
                if degree > 1 and "survives" in spec:
                    # a surviving line of unknown inertia order
                    with pytest.raises(IncoherentGenericData):
                        lf.restrict_type(V, degree)
                    continue
                W = lf.restrict_type(V, degree)
                assert isinstance(W, lf.CharacterLines) and len(W.chars) == n
                text = lf.describe_local_type(W)
                assert text.startswith(prefix)
                assert lf.parse_local_type(text, p) == W

    def test_ups_reduces_mod_p(self):
        V = lf.parse_local_type("ups:a=13,c=12", 11)
        assert (V.a, V.c) == (2, 1)

    def test_a_given_prime_is_read_as_it_is(self):
        # the grammar asks only that a prime was given, 0 standing for
        # none; that p is odd is checked where it enters (kida hv --p,
        # kida transition --p, splitting.ramified_set)
        assert (lf.parse_local_type("ups:a=3,c=1", 2)
                == lf.UnramifiedPS(1, 1, 2))
        assert lf.parse_local_type("generic:1,0", 2) == lf.Generic((1, 0))
        for p in (0, 1):
            with pytest.raises(SpecParseError, match="--p required"):
                lf.parse_local_type("ups:a=3,c=1", p)

    @pytest.mark.parametrize("bad", [
        "ups:a=2", "ups:a=2,c=x", "ramps:unram,triv", "special:ram,triv",
        "special:foo,triv", "generic:1,2", "generic:a,b,c", "nonsense",
        "special:unram,triv,dies", "sc:", "scx",
        "special:unram,triv;unram,triv",
        "ramps:unram,triv;unram,triv;unram,triv",
    ])
    def test_malformed(self, bad):
        with pytest.raises(SpecParseError):
            lf.parse_local_type(bad, 3)
