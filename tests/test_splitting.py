import gc
import itertools
import math
import os
import random
import subprocess
import sys
import weakref

import pytest

from characters import (DirichletGroup, closure as _closure, crt as _crt,
                        mult_order, phi, spanning_subset)
from kida import arith, chargroup, splitting as sp
from kida.errors import (BoundExceeded, KidaError, NotASubfield, NotPPower,
                         SpecParseError, TameAtP)
from kida.errors import InternalAdditivityViolation
from kida.intlinalg import Lattice, hnf, subgroup_lattice

Q = sp.rationals()
F23 = sp.parse_field_spec("cyclotomic:23:degree=11")
F1123 = sp.parse_field_spec("cyclotomic:1123:degree=11")


class TestAbelianField:
    def test_rationals(self):
        assert Q.degree == 1

    def test_real_cyclotomic_23(self):
        # the unique degree-11 subfield is fixed by {+-1}
        assert F23.degree == 11
        assert F23.subgroup_gens == (22,)

    def test_subgroup_closure_verified(self):
        with pytest.raises(SpecParseError, match="3 not a unit mod 9"):
            sp.AbelianField(9, (3,))

    def test_full_subgroup_is_Q(self):
        U = arith.unit_group(20)
        F = sp.AbelianField(20, U.generators)
        assert F.degree == 1

    def test_containment_and_degree(self):
        z23 = sp.AbelianField(23)
        assert sp.relative_degree(F23, z23) == 2
        assert sp.relative_degree(Q, F23) == 11
        with pytest.raises(NotASubfield, match="does not contain"):
            sp.relative_degree(z23, F23)

    def test_alignment_across_presentations(self):
        # the full subgroup mod 23 cuts out Q, presented at conductor 1
        U = arith.unit_group(23)
        Q23 = sp.AbelianField(23, U.generators)
        assert Q23 == Q and Q23.conductor == 1 and Q23.spec_string() == "Q"
        assert sp.relative_degree(Q23, F23) == 11

    def test_equal_presentations_are_equal_without_alignment(self):
        # a spec parsed twice, and again from its spec_string() (a gens=
        # spec), gives three equal objects with equal hashes
        spec = "cyclotomic:1123:degree=11"
        fields = [sp.parse_field_spec(spec), sp.parse_field_spec(spec)]
        fields.append(sp.parse_field_spec(fields[0].spec_string()))
        assert len({id(F) for F in fields}) == 3
        assert len(set(fields)) == 1

    def test_unequal_presentations_of_one_field_are_aligned(self):
        # Q(zeta_46) = Q(zeta_23), so the degree-11 subfield of Q(zeta_46)
        # is presented at conductor 23, and is F23 with its generators
        F46 = sp.parse_field_spec("cyclotomic:46:degree=11")
        assert F46 == F23 and hash(F46) == hash(F23)
        assert (F46.conductor, F46.subgroup_gens) == (23, (22,))
        assert F46.spec_string() == F23.spec_string()
        # 2 || N is never the conductor: (Z/2)^* is trivial
        for N, gens, M in [(46, (3,), 23), (12, (5,), 4), (16, (9,), 8),
                           (27, (10,), 9), (2, (), 1)]:
            assert sp.AbelianField(N, gens).conductor == M, (N, gens)

    def test_equal_is_same_presentation(self):
        # two generator sets of one subgroup give equal fields with equal
        # hashes, which then stand for each other as dict keys; a field
        # holds no unit group of its own
        N, gens = 1123, (1038, 1089, 1122)
        F = sp.AbelianField(N, gens)
        G = sp.AbelianField(N, sorted(_closure(gens, N)))
        assert F == G and hash(F) == hash(G)
        assert {F: "first"}[G] == "first"
        assert F != sp.AbelianField(N) and F != F.spec_string()
        assert "unit_group" not in vars(F)
        assert F.unit_group is arith.unit_group(N)


class TestEfg:
    def test_totally_ramified_23(self):
        pd = sp.efg(F23, 23)
        assert (pd.e, pd.f, pd.g) == (11, 1, 1)

    def test_split_prime(self):
        # 47 = 1 mod 23 lands in H = {+-1}: completely split
        pd = sp.efg(F23, 47)
        assert (pd.e, pd.f, pd.g) == (1, 1, 11)

    def test_1123_totally_ramified_in_own_subfield(self):
        pd = sp.efg(F1123, 1123)
        assert (pd.e, pd.f, pd.g) == (11, 1, 1)

    def test_inert_prime(self):
        # 5 generates (Z/23)^* (order 22), so f = 11 in the +-1 quotient
        assert mult_order(5, 23) == 22
        pd = sp.efg(F23, 5)
        assert (pd.e, pd.f, pd.g) == (1, 11, 1)

    @pytest.mark.parametrize("ell", [2, 3, 23])
    def test_rationals_take_the_general_path(self, ell):
        # (Z/1)^* has rank 0: every lattice is Z^0, of index 1, and the
        # Frobenius residue is crt([], []) = 0.  __wrapped__ skips the cache
        for efg in (sp.efg, sp.efg.__wrapped__):
            assert efg(sp.rationals(), ell) == sp.PlaceData(ell, 1, 1, 1)

    def test_efg_multiplies_to_degree_exhaustive(self):
        primes = [p for p in range(2, 50)
                  if all(p % q for q in range(2, p))]
        for N in range(1, 61):
            U = arith.unit_group(N)
            if U.rank == 0:
                subs = [()]
            else:
                G = U.invariant_factors
                subs = [tuple(U.element(g) for g in H.generators)
                        for H in chargroup.subgroups(G)]
            for gens in subs:
                F = sp.AbelianField(N, gens)
                for ell in primes:
                    pd = sp.efg(F, ell)
                    assert pd.e * pd.f * pd.g == F.degree, (N, gens, ell)

    def test_full_cyclotomic_closed_form(self):
        # in the N-th cyclotomic field: e = phi(ell-part), f = order of
        # ell modulo the prime-to-ell part, g = phi(prime-to-ell)/f
        for N in range(3, 80):
            F = sp.AbelianField(N)
            for ell in (2, 3, 5, 7, 11, 13):
                v, M = 0, N
                while M % ell == 0:
                    M //= ell
                    v += 1
                e_exp = phi(ell ** v)
                f_exp = mult_order(ell, M)
                g_exp = phi(M) // f_exp
                pd = sp.efg(F, ell)
                assert (pd.e, pd.f, pd.g) == (e_exp, f_exp, g_exp), (N, ell)

    def test_sampled_larger_conductors(self):
        rng = random.Random(4)
        primes = [2, 3, 5, 7, 11, 13]
        for N in range(61, 201, 7):
            U = arith.unit_group(N)
            if U.rank == 0:
                continue
            G = U.invariant_factors
            subs = chargroup.subgroups(G)
            for H in rng.sample(subs, min(6, len(subs))):
                gens = tuple(U.element(g) for g in H.generators)
                F = sp.AbelianField(N, gens)
                for ell in primes:
                    pd = sp.efg(F, ell)
                    assert pd.e * pd.f * pd.g == F.degree


def layer_place_count(F, ell, p, n):
    """Reference oracle: places above ell in the n-th tower layer of F,
    counted in (Z/M)^*, M = lcm(N, p^(n+1)), as the index of the layer's
    fixer times inertia and Frobenius at ell."""
    pk = p ** (n + 1)
    U = arith.unit_group(F.conductor * pk // math.gcd(F.conductor, pk))
    # fixer of the layer: the unique index-p^n subgroup of cyclic U(p^(n+1))
    layer = sp.AbelianField(pk, (arith.unit_group(pk).element((p ** n,)),))
    L_Hn = _pullback_by_reduction(U, F).intersect(
        _pullback_by_reduction(U, layer))
    rows = [list(r) for r in L_Hn.basis] + list(U.local_coordinates(ell))
    rows.append(list(U.log(sp._frobenius_residue(U, ell))))
    return Lattice(rows, U.rank).det()


def _all_fields(max_conductor):
    """Every (conductor, subgroup) presentation with conductor <= bound."""
    for N in range(1, max_conductor + 1):
        U = arith.unit_group(N)
        if U.rank == 0:
            yield sp.AbelianField(N)
            continue
        G = U.invariant_factors
        for H in chargroup.subgroups(G):
            yield sp.AbelianField(N, [U.element(g) for g in H.generators])


def _identity(n):
    return [[1 if j == i else 0 for j in range(n)] for i in range(n)]


def preimage_lattice(n, amat, target):
    """Oracle: {x in Z^n : x amat in target}, with ``amat`` n x target.n
    describing a group homomorphism.  If x amat + v T = 0 for T the basis
    of ``target``, x lies in the preimage, so the rows of
    hnf([[amat, I], [T, 0]]) whose first part is 0 end in a basis of it."""
    m = target.n
    rows = ([list(a) + [int(i == j) for j in range(n)]
             for i, a in enumerate(amat)]
            + [list(t) + [0] * n for t in target.basis])
    return Lattice([r[m:] for r in hnf(rows, m + n) if not any(r[:m])], n)


def _reduction_matrix(UM, N):
    """Coordinate matrix of the reduction map U(M) -> (Z/N)^*, N | M."""
    U = arith.unit_group(N)
    return [list(U.log(g % N)) for g in UM.generators]


def _pullback_by_reduction(UM, F):
    """Oracle: the preimage of F's subgroup in U(M)-coordinates by the
    general route, the reduction matrix pulled back through a block HNF;
    a trivial unit group pulls back to all of U(M)."""
    if F.unit_group.rank == 0:
        return subgroup_lattice(_identity(UM.rank), UM.invariant_factors)
    return preimage_lattice(UM.rank, _reduction_matrix(UM, F.conductor),
                            F._lattice)


class TestSameConductorPullback:
    def test_degree_and_equality_match_the_reduction_route(self):
        # every pair of presentations with one conductor <= 40, and a
        # seeded sample of pairs with two conductors
        fields = list(_all_fields(40))
        by_conductor = {}
        for F in fields:
            by_conductor.setdefault(F.conductor, []).append(F)
        pairs = [(F, G) for group in by_conductor.values()
                 for F in group for G in group]
        rng = random.Random(16)
        pairs += [tuple(rng.sample(fields, 2)) for _ in range(1500)]
        seen = {"equal": 0, "unequal": 0, "subfield": 0, "not": 0}
        for F, G in pairs:
            UM = arith.unit_group(math.lcm(F.conductor, G.conductor))
            LF, LG = (_pullback_by_reduction(UM, F),
                      _pullback_by_reduction(UM, G))
            assert (F == G) is (LF.basis == LG.basis)
            # LF holds LG iff LG's rows leave LF's Hermite form unchanged
            if hnf(LF.basis + LG.basis, UM.rank) == LF.basis:
                assert sp.relative_degree(F, G) == LG.det() // LF.det()
                seen["subfield"] += 1
            else:
                with pytest.raises(NotASubfield):
                    sp.relative_degree(F, G)
                seen["not"] += 1
            seen["equal" if F.conductor == G.conductor else "unequal"] += 1
        assert min(seen.values()) > 500, seen


def walked_tower_count(F, ell, p):
    """Oracle: the stable count of places above ell in F's own tower, by
    the layer walk.  Counts stall below layer t = v_p([F cap Q_inf : Q]),
    which is below v_p(N), then grow by a factor p a layer until they
    stabilize: the first repeat from layer v_p(N) - 1 on is the tower's."""
    n = max(arith.padic_val(F.conductor, p) - 1, 0)
    last = layer_place_count(F, ell, p, n)
    while True:
        n += 1
        count = layer_place_count(F, ell, p, n)
        if count == last:
            return count
        last = count


def counted_through_reduction(F, ell, p):
    """For p | N: tower_places refuses F.  A field whose p-parts are all
    wild has the tower of its reduction at p, checked against the walk of
    its own; one with a tame p-part is refused by ramified_set too.
    Returns whether F is tame at p."""
    with pytest.raises(KidaError, match="unramified_at_p_reduction") as exc:
        sp.tower_places(F, ell, p)
    assert type(exc.value) is KidaError
    if _tame_at_p(F, p):
        with pytest.raises(TameAtP):
            sp.ramified_set(F, F, p)
        return True
    R = sp.unramified_at_p_reduction(F, p)
    assert sp.tower_places(R, ell, p).g_infinity == walked_tower_count(
        F, ell, p), (F.conductor, F.subgroup_gens, ell, p)
    return False


class TestTowerPlaces:
    def test_closed_form_matches_layer_walk_grid(self):
        # p prime to N: the closed form against the walk, layer by layer;
        # p | N: counted through the reduction at p, or refused
        seen = {"p prime to N": 0, "wild at p": 0, "tame at p": 0}
        for F in _all_fields(30):
            for p in (3, 5, 7):
                for ell in (2, 7, 13, 53, 251):
                    if ell == p:
                        continue
                    if F.conductor % p == 0:
                        tame = counted_through_reduction(F, ell, p)
                        seen["tame at p" if tame else "wild at p"] += 1
                        continue
                    t = sp.tower_places(F, ell, p)
                    n_end = len(t.g_layers) - 1
                    # the layers end one past the first with g_infinity
                    assert n_end == t.g_layers.index(t.g_infinity) + 1
                    walked = tuple(layer_place_count(F, ell, p, n)
                                   for n in range(n_end + 3))
                    assert t.g_layers == walked[:n_end + 1], \
                        (F.conductor, F.subgroup_gens, ell, p, walked)
                    assert walked[-2:] == (t.g_infinity,) * 2
                    seen["p prime to N"] += 1
        assert seen == {"p prime to N": 1816, "wild at p": 25,
                        "tame at p": 413}, seen

    # a field of conductor N, p | N, counted through its reduction at p
    @pytest.mark.parametrize("N,gens,ell,p,g_inf", [
        (9, (8,), 53, 3, 9),      # F = Q_1: counts stall for one layer
        (9, (), 53, 3, 9),        # Q(zeta_9): its p-part is tame
        (25, (7,), 251, 5, 25),
    ])
    def test_field_meeting_the_tower(self, N, gens, ell, p, g_inf):
        F = sp.AbelianField(N, gens)
        assert walked_tower_count(F, ell, p) == g_inf
        assert counted_through_reduction(F, ell, p) is (gens == ())

    def test_1123_over_Q_at_11(self):
        t = sp.tower_places(Q, 1123, 11)
        assert t.g_infinity == 1
        # cross-check against the valuation oracle
        assert arith.padic_val(1123 ** 10 - 1, 11) == 1

    def test_23_over_Q_at_11(self):
        assert sp.tower_places(Q, 23, 11).g_infinity == 1

    def test_wieferich_style_prime_splits_once(self):
        # 17^2 = 1 mod 9 but not mod 27 (brute-force search gave ell = 17)
        assert pow(17, 2, 9) == 1 and pow(17, 2, 27) != 1
        t = sp.tower_places(Q, 17, 3)
        assert t.g_infinity == 3

    def test_layers_nondecreasing_by_p_steps(self):
        for (F, ell, p) in [(Q, 1123, 11), (Q, 17, 3), (F23, 23, 11),
                            (Q, 7, 3), (Q, 13, 3)]:
            t = sp.tower_places(F, ell, p)
            for a, b in zip(t.g_layers, t.g_layers[1:]):
                assert b in (a, a * p)

    def test_stability_three_layers_past(self):
        for (F, ell, p) in [(Q, 1123, 11), (Q, 17, 3), (F23, 23, 11)]:
            t = sp.tower_places(F, ell, p)
            n0 = t.g_layers.index(t.g_infinity)
            for extra in (1, 2, 3):
                assert layer_place_count(F, ell, p, n0 + extra) == \
                    t.g_infinity

    def test_a_non_prime_ell_is_refused_by_efg(self):
        # efg checks ell for tower_places, before a valuation loop that
        # would not end at ell = +-1; those two are asked of efg alone, so
        # that without its check this test fails and hangs nothing
        for ell in (0, 4):
            with pytest.raises(SpecParseError, match=f"ell {ell} is not "):
                sp.tower_places(Q, ell, 11)
        for ell in (1, -1):
            with pytest.raises(SpecParseError, match=f"ell {ell} is not "):
                sp.efg(Q, ell)

    def test_base_tower_valuation_formula(self):
        # over Q the stable count is p^(v-1) with v the valuation of
        # ell^(p-1) - 1 at p (independent Fermat-quotient oracle)
        for p in (3, 5, 7, 11):
            for ell in (2, 3, 5, 7, 13, 17, 19, 23, 29, 1123):
                if ell == p:
                    continue
                v = arith.padic_val(ell ** (p - 1) - 1, p)
                t = sp.tower_places(Q, ell, p)
                assert t.g_infinity == p ** (v - 1), (p, ell, v, t)

    def test_local_degree_place_count_identity(self):
        # local degree x places(F') = [F':F] x places(F) at every
        # ramified prime: the two routes (relative e via efg, tower
        # counts via layer stabilization) must fit together
        cases = [(Q, F23, 11), (Q, F1123, 11),
                 (Q, sp.parse_field_spec("cyclotomic:109:degree=3"), 3),
                 (Q, sp.parse_field_spec("cyclotomic:109:degree=27"), 3),
                 (sp.parse_field_spec("cyclotomic:109:degree=3"),
                  sp.parse_field_spec("cyclotomic:109:degree=27"), 3),
                 (Q, sp.parse_field_spec("cyclotomic:7:degree=3"), 3)]
        for F, Fp, p in cases:
            rs = sp.ramified_set(F, Fp, p)
            for ent in rs.entries:
                g_base = sp.tower_places(F, ent.ell, p).g_infinity
                assert ent.local_degree * ent.places == rs.degree * g_base, \
                    (F.conductor, Fp.conductor, ent)


def _overlap_by_residue_orders(N, gens, p):
    """t = v_p([F cap Q_inf : Q]) for F = Q(zeta_N)^<gens>, p^a || N,
    a >= 1: Q(zeta_N) meets Q_inf in the layer of degree p^(a-1), and H's
    image in the cyclic p-part of (Z/p^a)^* has order p^j, j least with
    h^((p-1) p^j) = 1 mod p^a for every generator h."""
    a = arith.padic_val(N, p)
    pa, j = p ** a, 0
    for h in gens:
        while pow(h, (p - 1) * p ** j, pa) != 1:
            j += 1
    return a - 1 - j


class TestTowerOverlap:
    def test_index_matches_the_residue_order_route(self):
        # N < 2000 with p | N, generators raised to random p-powers so
        # that H's p-part is often small and t > 0.  K = _tame_rows is
        # checked by brute force: the units x with x^(p-1) = 1 mod p^b,
        # p^b || the conductor; and the join HK has index p^t, t from the
        # residue orders
        rng = random.Random(30)
        seen = {"t = 0": 0, "t > 0": 0, "p | conductor": 0}
        for p in (3, 5, 7):
            for _ in range(60):
                a = rng.randint(1, max(a for a in range(1, 8)
                                       if p ** a * 2 < 2000))
                N = p ** a * rng.choice([m for m in range(1, 2000 // p ** a)
                                         if m % p])
                units = [x for x in range(N) if math.gcd(x, N) == 1]
                gens = [pow(x, p ** rng.randint(0, a), N)
                        for x in rng.sample(units, rng.randint(0, 3))]
                F = sp.AbelianField(N, gens)
                t = _overlap_by_residue_orders(N, gens, p)
                seen["t > 0" if t else "t = 0"] += 1
                M = F.conductor
                b = arith.padic_val(M, p)
                if b == 0:      # F meets Q_inf in Q alone
                    assert t == 0, (N, gens, p)
                    continue
                U = F.unit_group
                rows = sp._tame_rows(U, p, b)
                assert _closure([U.element(r) for r in rows], M) == {
                    x for x in range(M) if math.gcd(x, M) == 1
                    and pow(x, p - 1, p ** b) == 1}, (M, p)
                join = Lattice(F._lattice.basis + rows, U.rank)
                assert join.det() == p ** t, (N, gens, p)
                seen["p | conductor"] += 1
        assert min(seen.values()) > 30, seen


def _tame_at_p(F, p):
    """e_p of F has a prime-to-p part: F has a character whose p-part is
    tame."""
    e = sp.efg(F, p).e
    return e != p ** arith.padic_val(e, p)


class TestTameDecision:
    def test_teichmueller_row_matches_efg_and_characters(self):
        # N = p^a m < 2000 and H of random units raised to random p-powers,
        # every other time with the Teichmueller (p-1)-torsion at p added
        # (so that F is often wild and ramified at p).  The verdict, F is
        # tame iff H's lattice misses the Teichmueller row of _tame_rows,
        # is checked against e_p having a prime-to-p part, and, by brute
        # force, against some character of (Z/N)^*/H having a p-part that
        # is nontrivial on the torsion; ramified_set refuses F iff tame
        rng = random.Random(31)
        seen = {"tame": 0, "wild, p | conductor": 0}
        for p in (3, 5, 7):
            for _ in range(70):
                a = rng.randint(1, max(a for a in range(1, 8)
                                       if p ** a * 2 < 2000))
                m = rng.choice([m for m in range(1, 2000 // p ** a) if m % p])
                N = p ** a * m
                G = DirichletGroup(N)
                torsion = spanning_subset(
                    [x for x in G.units
                     if x % m == 1 % m and pow(x, p - 1, N) == 1], N)
                H = [pow(x, p ** rng.randint(0, a), N) for x in rng.sample(
                    G.units, min(len(G.units), rng.randint(0, 3)))]
                if rng.random() < 1 / 2:
                    H += torsion
                F = sp.AbelianField(N, H)
                b = arith.padic_val(F.conductor, p)
                tame = b > 0 and not F._lattice.contains(
                    sp._tame_rows(F.unit_group, p, b)[-1])
                assert tame == _tame_at_p(F, p) == any(
                    any(G.value(c, x) for x in torsion)
                    for c in G.characters(H)), (N, H, p)
                if tame:
                    with pytest.raises(TameAtP):
                        sp.ramified_set(F, F, p)
                else:
                    assert sp.ramified_set(F, F, p).degree == 1
                seen["tame"] += tame
                seen["wild, p | conductor"] += not tame and b > 0
        assert min(seen.values()) >= 50, seen


class TestRamifiedSet:
    def test_real_cyclotomic_23_extension(self):
        rs = sp.ramified_set(Q, F23, 11)
        assert rs.degree == 11 and (rs.base, rs.ext) == (Q, F23)
        assert len(rs.entries) == 1
        ent = rs.entries[0]
        assert (ent.ell, ent.local_degree, ent.places) == (23, 11, 1)

    def test_conductor_1123_extension(self):
        rs = sp.ramified_set(Q, F1123, 11)
        ent = rs.entries[0]
        assert (ent.ell, ent.local_degree, ent.places) == (1123, 11, 1)

    def test_equal_fields_empty(self):
        rs = sp.ramified_set(F23, F23, 11)
        assert rs.entries == () and rs.degree == 1

    def test_not_a_subfield(self):
        with pytest.raises(NotASubfield):
            sp.ramified_set(F23, F1123, 11)

    def test_not_p_power(self):
        z23 = sp.AbelianField(23)
        with pytest.raises(NotPPower):
            sp.ramified_set(Q, z23, 11)

    def test_chain_covering(self):
        # ramified primes of F''/F are covered by those of F'/F and F''/F'
        F3 = sp.parse_field_spec("cyclotomic:109:degree=3")
        F9 = sp.parse_field_spec("cyclotomic:109:degree=9")
        low = {e.ell for e in sp.ramified_set(Q, F3, 3).entries}
        up = {e.ell for e in sp.ramified_set(F3, F9, 3).entries}
        full = {e.ell for e in sp.ramified_set(Q, F9, 3).entries}
        assert full <= low | up


class TestUnramifiedAtPReduction:
    def test_already_unramified(self):
        assert sp.unramified_at_p_reduction(F23, 11) is F23

    def test_full_p_cyclotomic_reduces_to_Q(self):
        R = sp.unramified_at_p_reduction(sp.AbelianField(11), 11)
        assert R.degree == 1

    def test_first_layer_field_reduces_to_Q(self):
        # degree-p subfield of Q(zeta_p^2) sits inside the tower itself
        F = sp.parse_field_spec("cyclotomic:121:degree=11")
        R = sp.unramified_at_p_reduction(F, 11)
        assert R.degree == 1

    def test_composite_conductor_keeps_tame_part(self):
        R = sp.unramified_at_p_reduction(sp.AbelianField(253), 11)
        assert R == sp.AbelianField(23)

    def test_mixed_graph_field_keeps_only_23_part(self):
        # pair an order-11 character mod 23 with an order-11 character
        # mod 121: the fixed field of the kernel of their ratio is a
        # degree-11 field ramified at both 23 and 11, whose reduction at
        # 11 is the 23-part alone
        N = 23 * 121
        d23 = {}
        x = 1
        for k in range(22):
            d23[x] = k
            x = x * 5 % 23
        d121 = {}
        x = 1
        for k in range(110):
            d121[x] = k
            x = x * 2 % 121
        assert len(d23) == 22 and len(d121) == 110
        gens = [x for x in range(1, N) if math.gcd(x, N) == 1
                and d23[x % 23] % 11 == d121[x % 121] % 11]
        F = sp.AbelianField(N, gens)
        assert F.degree == 11
        assert sp.efg(F, 23).e == 11 and sp.efg(F, 11).e == 11
        R = sp.unramified_at_p_reduction(F, 11)
        assert R == F23, (R.conductor, R.subgroup_gens)

    def test_reduction_need_not_be_a_subfield(self):
        # a cubic field of conductor 63 whose character is wild at 3 times
        # cubic at 7 reduces at 3 to the cubic field of conductor 7: the
        # two have one 3-tower (equal composita with the first layer Q_1),
        # but neither contains the other
        F = sp.parse_field_spec("cyclotomic:63:gens=8,55,59")
        R = sp.unramified_at_p_reduction(F, 3)
        assert F.degree == R.degree == 3
        assert R == sp.parse_field_spec("cyclotomic:7:degree=3")
        with pytest.raises(NotASubfield):
            sp.relative_degree(R, F)
        U = arith.unit_group(63)
        Q1 = sp.parse_field_spec("cyclotomic:9:degree=3")
        layer = _pullback_by_reduction(U, Q1)
        assert (_pullback_by_reduction(U, F).intersect(layer).basis
                == _pullback_by_reduction(U, R).intersect(layer).basis)


class TestReductionAgainstCharacters:
    def test_tame_parts_cut_out_the_reduction(self):
        # F = Q(zeta_N)^H with N = N' p^a and H holding the Teichmueller
        # part at p.  Every character of (Z/N)^*/H is listed by brute force;
        # it is trivial on the Teichmueller part, so its p-part is wild and
        # its tame part is its restriction to the units that are 1 mod p^a,
        # read mod N'.  The tame parts cut out the reduction at p: the same
        # field, with one character per tame part, presented at the lcm of
        # the tame parts' conductors
        rng = random.Random(25)
        seen = {"smaller": 0, "same degree": 0, "below N'": 0}
        for p, a_max in ((3, 3), (5, 2)):
            for _ in range(40):
                pa = p ** rng.randint(1, a_max)
                Np = rng.choice([n for n in range(1, 1000 // pa) if n % p])
                N = Np * pa
                G, Gp = DirichletGroup(N), DirichletGroup(Np)
                teich = next(t for t in range(2, pa) if t % p
                             and mult_order(t, pa) == p - 1)
                H = [_crt(teich, pa, 1, Np)] + [
                    rng.choice(list(G.log)) for _ in range(rng.randint(0, 2))]
                chars = G.characters(H)
                lifts = [_crt(x, Np, 1, pa) for x in Gp.units]
                tame = {tuple(G.value(c, y) for y in lifts): c for c in chars}
                kernel = [x for i, x in enumerate(Gp.units)
                          if all(t[i] == 0 for t in tame)]
                conductor = math.lcm(*(
                    Gp.conductor(lambda x, c=c: G.value(c, _crt(x, Np, 1, pa)))
                    for c in tame.values()))
                F = sp.AbelianField(N, H)
                R = sp.unramified_at_p_reduction(F, p)
                assert F.degree == len(chars), (N, H)
                assert R.degree == len(tame), (N, H)
                assert R == sp.AbelianField(Np, kernel), (N, H)
                assert R.conductor == conductor, (N, H)
                M = R.conductor
                span = _closure(R.subgroup_gens, M)
                assert {x for x in Gp.units if x % M in span} == set(kernel)
                seen["smaller" if R.degree < F.degree
                     else "same degree"] += 1
                seen["below N'"] += M < Np
        assert min(seen.values()) > 10, seen


def _drawn_fields(seed, count):
    """(N, H, AbelianField(N, H)) for N < 2000 and H of up to two random
    units, half the time with the units that are 1 mod a random divisor
    of N added, so that the field has a smaller conductor."""
    rng = random.Random(seed)
    for _ in range(count):
        N = rng.randrange(1, 2000)
        units = [x for x in range(N) if math.gcd(x, N) == 1]
        H = rng.sample(units, min(len(units), rng.randint(0, 2)))
        if rng.random() < 0.5:
            D = rng.choice([D for D in range(1, N + 1) if N % D == 0])
            H += spanning_subset([x for x in units if x % D == 1 % D], N)
        yield N, H, sp.AbelianField(N, H)


def _written_lattice(UM, N, H):
    """The lattice of H at the modulus N it was written at, pulled back to
    UM = (Z/M)^*, N | M: the lcm-alignment route, which compares
    presentations at the moduli they were written at."""
    U = arith.unit_group(N)
    if U.rank == 0:
        return subgroup_lattice(_identity(UM.rank), UM.invariant_factors)
    L = subgroup_lattice([U.log(h) for h in H], U.invariant_factors)
    return preimage_lattice(UM.rank, _reduction_matrix(UM, N), L)


class TestConductorOracle:
    def test_conductor_is_the_lcm_of_the_character_conductors(self):
        # the characters of (Z/N)^*/H are listed by brute force, and the
        # lcm of their conductors is the field's conductor.  Each field is
        # written again at N k as the preimage of H, and paired with that
        # and with the next field drawn: on every pair, the lcm-alignment
        # route says "same field" exactly when == does
        rng = random.Random(26)
        seen = {"reduced": 0, "kept": 0, "equal": 0, "unequal": 0}
        drawn = list(_drawn_fields(26, 60))
        for i, (N, H, F) in enumerate(drawn):
            G = DirichletGroup(N)
            conductor = math.lcm(*(G.conductor(lambda x, c=c: G.value(c, x))
                                   for c in G.characters(H)))
            assert F.conductor == conductor, (N, H)
            seen["reduced" if conductor < N else "kept"] += 1
            Nk = N * rng.randint(2, 4)
            lifts = [next(x for x in range(h, Nk, N) if math.gcd(x, Nk) == 1)
                     for h in H]
            Hk = lifts + spanning_subset(
                [x for x in range(Nk) if math.gcd(x, Nk) == 1
                 and x % N == 1 % N], Nk)
            assert sp.AbelianField(Nk, Hk) == F
            N2, H2, F2 = drawn[(i + 1) % len(drawn)]
            for M, HM, FM in [(Nk, Hk, F), (N2, H2, F2)]:
                UM = arith.unit_group(math.lcm(N, M))
                same = (_written_lattice(UM, N, H).basis
                        == _written_lattice(UM, M, HM).basis)
                assert same is (F == FM), (N, H, M, HM)
                seen["equal" if same else "unequal"] += 1
        assert min(seen.values()) > 10, seen


class TestConductorExactness:
    """Presented at its conductor, a field is ramified at p exactly when p
    divides the conductor, and a subfield's conductor divides the
    field's."""

    def test_reduction_is_the_field_iff_unramified_at_p(self):
        seen = {"ramified": 0, "unramified": 0}
        for N, H, F in _drawn_fields(27, 150):
            for p in (3, 5, 7):
                unramified = sp.efg(F, p).e == 1
                assert (sp.unramified_at_p_reduction(F, p) is F) \
                    is unramified is (F.conductor % p != 0), (N, H, p)
                seen["unramified" if unramified else "ramified"] += 1
        assert min(seen.values()) > 50, seen

    def test_ramified_primes_divide_the_conductor(self):
        # F = the fixed field of H and y^m, with m the prime-to-p part of
        # the order of y mod H, so [F' : F] is a power of p.  A pair with
        # a tame p-part is refused; otherwise the pair is read reduced at
        # p, which divides [F' : F] by [F' cap Q_inf : F cap Q_inf]
        rng = random.Random(28)
        entries = refused = 0
        for N, H, Fp in _drawn_fields(28, 150):
            span = _closure(H, N)
            y = rng.choice([x for x in range(N) if math.gcd(x, N) == 1])
            k = next(k for k in itertools.count(1) if pow(y, k, N) in span)
            for p in (3, 5, 7):
                m = k // p ** (arith.padic_val(k, p))
                H_F = H + [pow(y, m, N)]
                F = sp.AbelianField(N, H_F)
                if _tame_at_p(F, p) or _tame_at_p(Fp, p):
                    with pytest.raises(TameAtP):
                        sp.ramified_set(F, Fp, p)
                    refused += 1
                    continue
                t, t_F = (_overlap_by_residue_orders(N, gens, p)
                          if N % p == 0 else 0 for gens in (H, H_F))
                rs = sp.ramified_set(F, Fp, p)
                assert rs.degree == p ** (arith.padic_val(k, p) - t + t_F)
                for entry in rs.entries:
                    assert Fp.conductor % entry.ell == 0, (N, H, p, entry)
                    entries += 1
        assert entries > 20 and refused > 20, (entries, refused)

    def test_no_subfield_across_non_dividing_conductors(self):
        drawn = [F for _, _, F in _drawn_fields(29, 150)]
        refused = 0
        for F, Fp in zip(drawn, drawn[1:] + drawn[:1]):
            if Fp.conductor % F.conductor:
                with pytest.raises(NotASubfield):
                    sp.relative_degree(F, Fp)
                refused += 1
        assert refused > 50


def _orbit_efg(N, gens, ell):
    """(e, f, g, degree) of ell in the fixed field of H = <gens> by
    orbit counting: places of ell are the orbits of the decomposition
    group D = <H, inertia, Frobenius> on (Z/N)^* / H, so g = |G| / |D|,
    e = |H I| / |H| and f = order of Frobenius mod H I."""
    units = [x for x in range(N) if math.gcd(x, N) == 1]
    H = _closure(gens, N)
    k = arith.padic_val(N, ell) if N > 1 else 0
    rest = N // ell ** k
    inertia = [x for x in units if x % rest == 1 % rest]
    frob = arith.crt([1, ell % rest], [ell ** k, rest])
    HI = _closure(list(H) + inertia, N)
    D = _closure(list(HI) + [frob], N)
    f = 1
    while pow(frob, f, N) not in HI:
        f += 1
    return len(HI) // len(H), f, len(units) // len(D), len(units) // len(H)


def _efg_inputs(seed, max_conductor):
    """(N, gens, ell): up to two random generators per draw, three draws
    per conductor, ell over N's primes and the primes up to 13."""
    rng = random.Random(seed)
    for N in range(1, max_conductor + 1):
        units = [x for x in range(N) if math.gcd(x, N) == 1]
        for _ in range(3):
            gens = rng.sample(units, min(len(units), rng.randint(0, 2)))
            for ell in sorted({q for q, _ in arith.factor(N)}
                              | {2, 3, 5, 7, 11, 13}):
                yield N, gens, ell


class TestEfgOrbitOracle:
    def test_efg_by_orbit_counting(self):
        for N, gens, ell in _efg_inputs(100, 100):
            F = sp.AbelianField(N, gens)
            data = sp.efg(F, ell)
            assert (data.e, data.f, data.g, F.degree) == _orbit_efg(
                N, gens, ell), (N, gens, ell)


class TestPresentationCaches:
    CACHES = (sp.efg, sp.ramified_set)

    def test_caches_are_bounded(self):
        for cache in self.CACHES:
            assert cache.cache_info().maxsize is not None

    def test_reparsed_fields_hit_the_cache(self):
        # a field parsed again, from its generators or from the whole
        # subgroup they generate, is a new object with the same key; its
        # efg is the first one's cached PlaceData, and right by the
        # orbit-counting oracle
        checked = 0
        for N, gens, ell in _efg_inputs(101, 60):
            first = sp.parse_field_spec(
                f"cyclotomic:{N}:gens={','.join(map(str, gens))}")
            whole = sorted(_closure(gens, N)) if N > 1 else []
            again = sp.parse_field_spec(
                f"cyclotomic:{N}:gens={','.join(map(str, whole))}")
            assert again is not first and again == first
            data = sp.efg(first, ell)
            hits = sp.efg.cache_info().hits
            assert sp.efg(again, ell) is data
            assert sp.efg.cache_info().hits == hits + 1
            assert (data.e, data.f, data.g, first.degree) == _orbit_efg(
                N, gens, ell), (N, gens, ell)
            checked += 1
        assert checked > 1000

    def test_evicted_entries_rebuild_equal(self):
        # past maxsize the oldest entry is dropped; asked again, it is
        # computed again (no hit) and equal to the first answer
        primes = [q for q in range(2, 5000) if arith.is_prime(q)]
        assert len(primes) > sp.efg.cache_info().maxsize + 1
        first = sp.efg(F23, primes[0])
        for ell in primes[1:]:
            sp.efg(F23, ell)
            assert (sp.efg.cache_info().currsize
                    <= sp.efg.cache_info().maxsize)
        hits = sp.efg.cache_info().hits
        again = sp.efg(F23, primes[0])
        assert again == first and again is not first
        assert sp.efg.cache_info().hits == hits

    def test_errors_raise_on_every_call(self):
        z23 = sp.AbelianField(23)
        for _ in range(3):
            with pytest.raises(NotASubfield):
                sp.relative_degree(z23, F23)
            misses = sp.efg.cache_info().misses
            with pytest.raises(SpecParseError, match="ell 4 is not prime"):
                sp.efg(F23, 4)
            assert sp.efg.cache_info().misses == misses + 1

    def test_no_entry_pins_a_unit_group(self):
        # once the unit-group cache lets go of (Z/N)^*, nothing the efg
        # cache holds, or the pair comparisons leave behind, keeps it alive
        F = sp.AbelianField(1009 * 17, (2,))
        unit_group = weakref.ref(F.unit_group)
        sp.efg(F, 2), sp.efg(F, 17), sp.relative_degree(F, F)
        sp.relative_degree(Q, F)
        del F
        arith.unit_group.cache_clear()
        gc.collect()
        assert unit_group() is None


def _reachable(root):
    """Every object reachable from ``root`` through gc referents, not
    entering classes (an instance refers to its class, and a class to
    its module)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


class TestRamifiedSetCache:
    CHAINS = [("Q", "cyclotomic:23:degree=11", 11),
              ("Q", "cyclotomic:25783:degree=11", 11),
              ("cyclotomic:109:degree=3", "cyclotomic:109:degree=27", 3),
              ("cyclotomic:7:degree=3", "cyclotomic:63:degree=9", 3)]

    def test_reparsed_chains_hit_the_cache(self):
        # a chain parsed again, or from the generators its fields print,
        # is served the first RamifiedSet, equal to the uncached body's
        for base, ext, p in self.CHAINS:
            F, Fp = sp.parse_field_spec(base), sp.parse_field_spec(ext)
            first = sp.ramified_set(F, Fp, p)
            assert first == sp.ramified_set.__wrapped__(F, Fp, p)
            for specs in ((base, ext), (F.spec_string(), Fp.spec_string())):
                G, Gp = map(sp.parse_field_spec, specs)
                assert G is not F and Gp is not Fp
                hits = sp.ramified_set.cache_info().hits
                assert sp.ramified_set(G, Gp, p) is first
                assert sp.ramified_set.cache_info().hits == hits + 1

    def test_errors_raise_on_every_call(self, monkeypatch):
        z23 = sp.AbelianField(23)
        F47 = sp.parse_field_spec("cyclotomic:47:degree=23")

        def fake(F, ell):       # e = 2 over Q, 3 above: 2 does not divide 3
            return sp.PlaceData(ell, 2 if F.degree == 1 else 3, 1, 1)

        sp.ramified_set.cache_clear()
        for _ in range(3):
            with pytest.raises(NotPPower):
                sp.ramified_set(Q, z23, 11)
            with pytest.raises(NotASubfield):
                sp.ramified_set(F23, F1123, 11)
            with pytest.raises(SpecParseError, match="p 9 is not an odd "):
                sp.ramified_set(Q, F23, 9)
            with monkeypatch.context() as patch:
                patch.setattr(sp, "efg", fake)
                with pytest.raises(InternalAdditivityViolation):
                    sp.ramified_set(Q, F47, 23)
            assert sp.ramified_set.cache_info().currsize == 0
        # the real efg is reached again once the fault is gone
        assert sp.ramified_set(Q, F47, 23).entries[0].local_degree == 23

    def test_cache_is_bounded(self):
        # the cubic subfield of Q(zeta_q) over Q, for more primes q than
        # the cache holds; an evicted chain is computed again, equal
        maxsize = sp.ramified_set.cache_info().maxsize
        primes = [q for q in range(7, 5000)
                  if q % 3 == 1 and arith.is_prime(q)][:maxsize + 2]
        assert len(primes) == maxsize + 2

        def chain(q):
            return sp.ramified_set(
                Q, sp.parse_field_spec(f"cyclotomic:{q}:degree=3"), 3)

        first = chain(primes[0])
        assert [(e.ell, e.local_degree) for e in first.entries] == [
            (primes[0], 3)]
        for q in primes[1:]:
            chain(q)
            assert sp.ramified_set.cache_info().currsize <= maxsize
        again = chain(primes[0])
        assert again == first and again is not first

    def test_entries_hold_no_unit_group(self):
        # an entry is its arguments, fields, and its RamifiedSet; no unit
        # group is reachable from them, so the unit group of a field the
        # cache has seen dies once the unit-group cache lets go of it
        F = sp.parse_field_spec("cyclotomic:17153:degree=7")
        unit_group = weakref.ref(F.unit_group)
        rs = sp.ramified_set(Q, F, 7)
        for obj in _reachable((Q, F, 7, rs)):
            assert not isinstance(obj, arith.UnitGroup), obj
        del F
        arith.unit_group.cache_clear()
        gc.collect()
        assert unit_group() is None


class TestFieldSpecGrammar:
    def test_Q(self):
        assert sp.parse_field_spec("Q").degree == 1

    def test_gens_form(self):
        F = sp.parse_field_spec("cyclotomic:23:gens=22")
        assert F == F23

    def test_degree_must_be_unique(self):
        # (Z/8)^* = C2 x C2 has three subgroups of index 2
        with pytest.raises(SpecParseError):
            sp.parse_field_spec("cyclotomic:8:degree=2")

    # the cubic field of conductor 13 and the quintic field of conductor
    # 11 print as cyclotomic:13:degree=3 and cyclotomic:11:degree=5 do
    @pytest.mark.parametrize("spec,printed", [
        ("cyclotomic:23:degree=11", "cyclotomic:23:gens=22"),
        ("cyclotomic:1123:degree=11", "cyclotomic:1123:gens=812"),
        ("cyclotomic:65:degree=3", "cyclotomic:13:gens=5"),
        ("cyclotomic:15015:degree=5", "cyclotomic:11:gens=10"),
    ])
    def test_degree_spec_golden(self, spec, printed):
        assert sp.parse_field_spec(spec).spec_string() == printed

    def test_degree_cache_is_bounded(self):
        # the quadratic subfield of Q(zeta_q) for more primes q >= 5 than
        # the cache holds: its size stays at most maxsize, and an evicted
        # (q, 2) resolves again to the same presentation: conductor 5, the
        # square 4 of the primitive root 2 mod 5, and the lattice 2Z
        cache = sp._resolve_degree_subgroup
        maxsize = cache.cache_info().maxsize
        primes = [q for q in range(5, 2000) if arith.is_prime(q)]
        assert len(primes) > maxsize + 1
        first = cache(primes[0], 2)
        for q in primes[1:]:
            cache(q, 2)
            assert cache.cache_info().currsize <= maxsize
        hits = cache.cache_info().hits
        assert cache(primes[0], 2) == first == (5, (4,), ((2,),))
        assert cache.cache_info().hits == hits      # rebuilt, not a hit

    @pytest.mark.parametrize("N,d,count", [
        (8, 2, 3), (15015, 2, 31), (15015, 3, 4), (4849845, 8, 26179),
        (111546435, 16, 859891)])
    def test_non_unique_degree_golden(self, N, d, count):
        with pytest.raises(SpecParseError) as info:
            sp.parse_field_spec(f"cyclotomic:{N}:degree={d}")
        assert str(info.value) == (
            f"index-{d} subgroup of (Z/{N})^* is not unique "
            f"({count} candidates); use gens=...")

    def test_conductor_beyond_factorization_bound(self):
        with pytest.raises(BoundExceeded):
            sp.parse_field_spec("cyclotomic:10000000000000000051:degree=2")
        with pytest.raises(BoundExceeded):
            sp.parse_field_spec(f"cyclotomic:{10 ** 12 + 1}:gens=2")

    def test_degree_must_divide(self):
        with pytest.raises(SpecParseError):
            sp.parse_field_spec("cyclotomic:23:degree=7")

    @pytest.mark.parametrize("bad", [
        "cyclotomic:23", "cyclotomic:x:degree=2", "cyclotomic:23:deg=2",
        "maximal:23:degree=2", "cyclotomic:23:gens=5;7",
        "cyclotomic:0:degree=1",
    ])
    def test_malformed(self, bad):
        with pytest.raises(SpecParseError):
            sp.parse_field_spec(bad)

    def test_spec_string_round_trip(self):
        for s in ["Q", "cyclotomic:23:gens=22"]:
            F = sp.parse_field_spec(s)
            assert sp.parse_field_spec(F.spec_string()) == F

    def test_degree_spec_rows_match_discrete_logs(self):
        # parse_field_spec builds the field from the cached presentation at
        # the conductor M | N; the field the residues' discrete logs give
        # mod M has the same presentation, generators, degree and spec
        # string, and the residues generate a subgroup of index d (by
        # closure), whose preimage mod N is the index-d subgroup
        checked = reduced = 0
        for N in range(1, 301):
            U = arith.unit_group(N)
            for d in range(1, U.order + 1):
                if U.order % d:
                    continue
                try:
                    F = sp.parse_field_spec(f"cyclotomic:{N}:degree={d}")
                except SpecParseError:
                    continue
                M = F.conductor
                G = sp.AbelianField(M, F.subgroup_gens)
                assert N % M == 0 and F == G, (N, d)
                assert F.subgroup_gens == G.subgroup_gens
                assert F.degree == G.degree == d
                assert F.spec_string() == G.spec_string()
                span = _closure(F.subgroup_gens, M)
                assert len(span) * d == phi(M)
                if M < N:
                    H = [x for x in range(N) if math.gcd(x, N) == 1
                         and x % M in span]
                    assert sp.AbelianField(N, H) == F
                    assert len(H) * d == U.order
                    reduced += 1
                checked += 1
        assert checked > 1500 and reduced > 500, (checked, reduced)

    def test_degree_spec_is_the_dth_powers(self):
        # a degree=d spec resolves iff (Z/N)^* has one subgroup of index d
        # (the closed-form count), and its generators, read mod the
        # conductor M, generate {x^d mod M}, of phi(M) / d elements
        resolve = sp._resolve_degree_subgroup.__wrapped__
        powers = {}
        seen = {"unique": 0, "not unique": 0}
        for N in range(1, 401):
            U = arith.unit_group(N)
            for d in range(1, U.order + 1):
                if U.order % d:
                    continue
                unique = chargroup.subgroup_count(U.invariant_factors, d) == 1
                seen["unique" if unique else "not unique"] += 1
                if not unique:
                    with pytest.raises(SpecParseError, match="not unique"):
                        resolve(N, d)
                    continue
                M, gens, _ = resolve(N, d)
                if (M, d) not in powers:
                    powers[M, d] = {pow(x, d, M) for x in range(M)
                                    if math.gcd(x, M) == 1}
                span = _closure(gens, M)
                assert span == powers[M, d], (N, d)
                assert len(span) * d == phi(M), (N, d)
        assert min(seen.values()) > 1000, seen


# The degree=2 subfield of Q(zeta_q), q = 999999999959 prime: (Z/q)^* has
# a piece of prime order about 5 * 10^11, whose baby-step table would hold
# about 707,000 entries.  Parsing the spec takes no discrete log there, so
# it builds no table; the first log does.  Time is CPU time, so that other
# load on the machine does not count.  Memory is the peak resident set of
# the interpreter's own address space (VmHWM): ru_maxrss of a child also
# counts the peak of the process it was forked from.
LARGE_PRIME_SPEC = r"""
import time
from kida import splitting

def peak_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024

t0 = time.process_time()
F = splitting.parse_field_spec("cyclotomic:999999999959:degree=2")
seconds = time.process_time() - t0
rss_mb = peak_mb()
assert F.degree == 2
U = F.unit_group
for x in (2, 10 ** 11 + 3, 999999999958):
    assert U.element(U.log(x)) == x
print(seconds, rss_mb, peak_mb())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
def test_large_prime_degree_spec_builds_no_table():
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-c", LARGE_PRIME_SPEC], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seconds, rss_mb, rss_after_logs = map(float, proc.stdout.split())
    assert seconds < 0.3
    assert rss_mb < 64
    assert rss_after_logs > rss_mb + 20     # the logs built the table


# cyclotomic:2q:gens=h is the field cyclotomic:q:gens=h, q = 10^10 + 259
# prime with (q - 1) / 2 prime: written at 2q, its generator is logged
# mod 2q before the conductor test, and again mod q.  The baby-step table
# of the piece of order (q - 1) / 2 (about 70,700 entries) belongs to
# (Z/q)^* alone, so both unit groups share one: parsing at 2q peaks
# within 2 MB of parsing at q (VmHWM, as above).
PIECE_TABLE_SPEC = r"""
import sys
from kida import splitting

F = splitting.parse_field_spec(sys.argv[1])
assert (F.conductor, F.degree) == (10000000259, 2)
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) / 1024 for line in fh
               if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
def test_a_prime_power_piece_table_is_built_once():
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    peaks = []
    for N in (10000000259, 20000000518):
        proc = subprocess.run(
            [sys.executable, "-c", PIECE_TABLE_SPEC,
             f"cyclotomic:{N}:gens=10000000257"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peaks.append(float(proc.stdout))
    assert peaks[1] < peaks[0] + 2, peaks


# The quadratic subfield of Q(zeta_q) for more safe primes q > 10^7 than
# any per-conductor cache holds (unit groups, their pieces' log maps,
# degree= subgroups, efg and the ramified sets), each parsed, priced by
# efg at 2 and compared with Q; and the chain Q < Q(zeta_q)^+, of prime
# degree r = (q - 1) / 2, parsed and run through ramified_set at p = r.
# The log of 2 builds a baby-step table of about sqrt(r) = 2,236 entries
# per unit group.  The unit-group and piece caches keep 128 entries each
# and the other caches keep integers only, so the peak resident set
# (VmHWM) stops growing once the unit-group cache is full; a cache that
# kept the fields would keep their tables too.
MANY_CONDUCTORS = r"""
from kida import arith, splitting

def peak_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024

caches = [arith.unit_group, arith._piece_log,
          splitting._resolve_degree_subgroup, splitting.efg,
          splitting.ramified_set]
count = max(c.cache_info().maxsize for c in caches) + 64
full = arith.unit_group.cache_info().maxsize
conductors = []
q = 10 ** 7 + 7                     # safe primes > 7 are 11 mod 12
while len(conductors) < count:
    if arith.is_prime(q) and arith.is_prime(q // 2):
        conductors.append(q)
    q += 12
Q = splitting.rationals()
for i, q in enumerate(conductors):
    F = splitting.parse_field_spec(f"cyclotomic:{q}:degree=2")
    place = splitting.efg(F, 2)
    assert place.e * place.f * place.g == F.degree == 2
    assert splitting.relative_degree(Q, F) == 2
    assert F != Q
    r = (q - 1) // 2
    Fr = splitting.parse_field_spec(f"cyclotomic:{q}:degree={r}")
    rs = splitting.ramified_set(Q, Fr, r)
    assert rs.degree == r and rs.ext == Fr
    assert [(e.ell, e.local_degree) for e in rs.entries] == [(q, r)]
    if i + 1 == full:
        full_mb = peak_mb()
for c in caches:
    assert c.cache_info().currsize <= c.cache_info().maxsize
info = splitting.ramified_set.cache_info()
assert info.currsize == info.maxsize
print(full_mb, peak_mb())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
def test_peak_memory_is_bounded_over_many_large_conductors():
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-c", MANY_CONDUCTORS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    full_mb, end_mb = map(float, proc.stdout.split())
    assert end_mb < 64
    assert end_mb < full_mb + 8
