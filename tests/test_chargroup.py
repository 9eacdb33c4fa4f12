import itertools
import math
import random
from collections import Counter

import pytest

from kida import arith, chargroup as cg
from kida.intlinalg import hnf
from kida.errors import InternalAdditivityViolation, SubgroupMismatch


def add(G, a, b):
    """The group law of G on exponent vectors."""
    return tuple((x + y) % d for x, y, d in zip(a, b, G))


def elements(G):
    """Every element of G, in lexicographic order."""
    return itertools.product(*map(range, G))


def contains(H, element):
    """The reference membership filter: reduce ``element`` against H's
    Hermite rows, row i's pivot in column i (the lattice holds the
    relations d_i e_i, so it has full rank); what is left once every
    pivot divides is 0."""
    v = list(element)
    for i, row in enumerate(H._rows):
        q, r = divmod(v[i], row[i])
        if r:
            return False
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return True


def whole(G):
    """G as a subgroup of itself, generated by its unit vectors."""
    return cg.Subgroup(G, [tuple(int(i == j) for j in range(len(G)))
                           for i in range(len(G))])


def hermite_rows(H):
    """H's Hermite rows as tuples: equal exactly for equal subgroups."""
    return tuple(map(tuple, H._rows))


class TestDualGroup:
    def test_trivial_group(self):
        chars = cg.dual_group(())
        assert len(chars) == 1
        assert chars[0] == cg.trivial_character(())

    def test_cyclic_3(self):
        assert len(cg.dual_group(cg.cyclic(3))) == 3

    def test_z2_x_z4_distinct(self):
        G = (2, 4)
        chars = cg.dual_group(G)
        assert len(chars) == 8 == len(set(chars))
        assert chars[0] == cg.trivial_character(G)

    def test_lex_order(self):
        G = (2, 6)
        exps = cg.dual_group(G)
        assert list(exps) == sorted(exps)


class TestCaches:
    def test_dual_group_is_one_cached_tuple(self):
        # a tuple cannot be changed, so every caller may share the
        # cached one
        G = (2, 6)
        chars = cg.dual_group(G)
        assert type(chars) is tuple and cg.dual_group(G) is chars
        assert chars == tuple(itertools.product(range(2), range(6)))

    def test_equal_groups_give_equal_characters(self):
        # a group is its invariant factors: equal tuples are one group,
        # and groups of one order with other factors have other duals
        assert cg.dual_group((3, 9)) == cg.dual_group(tuple([3, 9]))
        assert cg.dual_group((3, 9)) != cg.dual_group((27,))

    def test_weights_follow_the_invariant_factors(self):
        for d in [(2, 4), (2, 2, 2), (3, 6), (12,), ()]:
            e, w = cg._exponent_weights(d)
            assert e == math.lcm(*d)
            assert w == tuple(e // di for di in d)

    def test_every_cache_reports_its_bound(self):
        from kida import localfactor
        for cache, size in [(cg._exponent_weights, 64), (cg.dual_group, 8),
                            (cg._cyclotomic_polynomial, 256),
                            (localfactor.twist_sum, 128)]:
            assert cache.cache_info().maxsize == size


class TestMultiplicity:
    def test_isotypic_trivial(self):
        G = (4,)
        W = cg.RepMultiset(G, {cg.trivial_character(G): 5})
        assert cg.multiplicity(W, cg.trivial_character(G), whole(G)) == 5

    def test_regular_rep(self):
        G = cg.cyclic(3)
        W = cg.RepMultiset(G, dict.fromkeys(cg.dual_group(G), 1))
        for chi in cg.dual_group(G):
            assert cg.multiplicity(W, chi, whole(G)) == 1

    def test_total_is_dimension(self):
        rng = random.Random(11)
        for factors in [(2,), (3,), (2, 4), (3, 9), (2, 2, 2)]:
            G = factors
            W = cg.random_rep(G, rng, 20)
            assert sum(cg.multiplicity(W, chi, whole(G))
                       for chi in cg.dual_group(G)) == sum(W.entries.values())

    def test_diagonal_subgroup_vs_trace_oracle(self):
        G = (2, 2)
        H = cg.Subgroup(G, [(1, 1)])
        rng = random.Random(5)
        for _ in range(50):
            W = cg.random_rep(G, rng, 10)
            for chi in cg.dual_group(G):
                assert (cg.multiplicity(W, chi, H)
                        == cg.multiplicity_trace(W, chi, H))

    def test_trace_oracle_more_groups(self):
        rng = random.Random(6)
        for factors in [(3,), (4,), (2, 4), (3, 3)]:
            G = factors
            subs = cg.subgroups(G)
            for _ in range(10):
                W = cg.random_rep(G, rng, 8)
                H = subs[rng.randrange(len(subs))]
                for chi in cg.dual_group(G):
                    assert (cg.multiplicity(W, chi, H)
                            == cg.multiplicity_trace(W, chi, H))

    def test_subgroup_mismatch(self):
        G = (2, 2)
        G2 = (4,)
        W = cg.RepMultiset(G, dict.fromkeys(cg.dual_group(G), 1))
        with pytest.raises(SubgroupMismatch, match="is no character of"):
            cg.multiplicity(W, cg.trivial_character(G2), whole(G))
        with pytest.raises(SubgroupMismatch, match="of the wrong group"):
            cg.multiplicity(W, cg.trivial_character(G), whole(G2))

    @pytest.mark.parametrize("chi", [(1,), (1, 0, 0), (2, 0), (0, 4),
                                     (0, -1)])
    def test_a_vector_that_is_no_character_is_refused(self, chi):
        # a character of C_2 x C_4 is an exponent vector of length 2 with
        # entries in [0, 2) x [0, 4); each place one enters refuses others
        G = (2, 4)
        W = cg.RepMultiset(G, dict.fromkeys(cg.dual_group(G), 1))
        H = cg.Subgroup(G, [(1, 2)])
        with pytest.raises(SubgroupMismatch, match="is no character of"):
            cg.RepMultiset(G, {chi: 1})
        with pytest.raises(SubgroupMismatch, match="is no character of"):
            cg.multiplicity(W, chi, H)
        with pytest.raises(SubgroupMismatch, match="is no character of"):
            cg.multiplicity_trace(W, chi, H)


class TestMalformedGroupData:
    # a group enters as a Subgroup's, a RepMultiset's or subgroups'
    # argument, and each refuses a tuple that is no chain of invariant
    # factors there, with the typed error
    @staticmethod
    def refused_everywhere(d):
        for enter in (lambda: cg.Subgroup(d, []),
                      lambda: cg.RepMultiset(d, {}),
                      lambda: cg.subgroups(d)):
            with pytest.raises(SubgroupMismatch,
                               match="is no chain of invariant factors"):
                enter()

    @pytest.mark.parametrize("d", [(1,), (0,), (-2,), (1, 4), (1, 1)])
    def test_a_factor_below_2_is_refused(self, d):
        self.refused_everywhere(d)

    @pytest.mark.parametrize("d", [(4, 2), (2, 3), (2, 4, 6), (3, 6, 4)])
    def test_a_broken_chain_is_refused(self, d):
        self.refused_everywhere(d)

    def test_a_negative_multiplicity_is_refused(self):
        # the one entry point of a multiplicity, checked with its character
        with pytest.raises(SubgroupMismatch, match="is < 0"):
            cg.RepMultiset((2, 4), {(1, 2): 3, (0, 1): -1})
        assert cg.RepMultiset((2, 4), {(1, 2): 3, (0, 1): 0}).entries == \
            {(1, 2): 3}


class TestGroupIdentity:
    def test_zero_representation(self):
        G = (3, 3)
        W = cg.RepMultiset(G, {})
        for H in cg.subgroups(G):
            ok, lhs, rhs = cg.check_group_identity(W, H)
            assert ok and lhs == 0 and rhs == 0

    def test_one_dimensional_trivial(self):
        G = (8,)
        W = cg.RepMultiset(G, {cg.trivial_character(G): 1})
        for H in cg.subgroups(G):
            ok, lhs, rhs = cg.check_group_identity(W, H)
            assert ok and lhs == math.prod(G) - 1

    def test_z9_regular_with_z3(self):
        G = cg.cyclic(9)
        W = cg.RepMultiset(G, dict.fromkeys(cg.dual_group(G), 1))
        H = cg.Subgroup(G, [(3,)])
        ok, lhs, rhs = cg.check_group_identity(W, H)
        assert ok and lhs == rhs == 0

    def test_z3_x_z9_random_all_subgroups(self):
        G = (3, 9)
        rng = random.Random(1)
        subs = cg.subgroups(G)
        for _ in range(25):
            W = cg.random_rep(G, rng, 20)
            for H in subs:
                ok, lhs, rhs = cg.check_group_identity(W, H)
                assert ok, (W.entries, H.generators, lhs, rhs)

    def test_small_sweep_every_group_every_subgroup(self):
        rng = random.Random(2)
        for G in cg.abelian_groups_upto(40):
            subs = cg.subgroups(G)
            for _ in range(3):
                W = cg.random_rep(G, rng, 15)
                for H in subs:
                    ok, lhs, rhs = cg.check_group_identity(W, H)
                    assert ok, (G, H.generators)


class TestCyclotomicPolynomial:
    def test_product_over_divisors_is_x_n_minus_1(self):
        for n in range(1, 201):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    phi = cg._cyclotomic_polynomial(d)
                    out = [0] * (len(prod) + len(phi) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi):
                            out[i + j] += a * b
                    prod = out
            assert prod == [-1] + [0] * (n - 1) + [1], n

    def test_cache_is_bounded(self):
        assert cg._cyclotomic_polynomial.cache_info().maxsize == 256

    def test_inexact_division_is_a_typed_error(self):
        # x^2 + 1 is not a multiple of x - 1
        with pytest.raises(InternalAdditivityViolation):
            cg._over_binomial([1, 0, 1], 1)


def gcd_sum_subgroup_count(m, n):
    # divisor-pair gcd formula for the subgroup count of C_m x C_n
    return sum(math.gcd(a, b)
               for a in range(1, m + 1) if m % a == 0
               for b in range(1, n + 1) if n % b == 0)


class TestSubgroups:
    def test_cyclic_counts(self):
        for n in (2, 6, 12, 49, 100):
            G = cg.cyclic(n)
            count = len(cg.subgroups(G))
            divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert count == divisors

    @pytest.mark.parametrize("mn", [(2, 2), (2, 4), (4, 4), (3, 9), (6, 12),
                                    (4, 8), (2, 8)])
    def test_rank2_gcd_formula(self, mn):
        m, n = mn
        G = (m, n)
        assert len(cg.subgroups(G)) == gcd_sum_subgroup_count(m, n)

    def test_elementary_galois_numbers(self):
        for r, expect in [(1, 2), (2, 5), (3, 16), (4, 67), (5, 374)]:
            G = (2,) * r
            assert len(cg.subgroups(G)) == expect

    def test_subgroups_distinct_and_closed(self):
        G = (2, 4)
        subs = cg.subgroups(G)
        keys = {hermite_rows(H) for H in subs}
        assert len(keys) == len(subs)
        for H in subs:
            els = H.elements()
            assert len(els) == H.order
            for a in els:
                for b in els:
                    assert contains(H, add(G, a, b))

    def test_brute_force_closure_oracle(self):
        # every subgroup is reached from {0} by adding one element at a
        # time and closing under +; the enumerator must list exactly those
        for G in cg.abelian_groups_upto(32):
            zero = (0,) * len(G)
            found = {frozenset([zero])}
            frontier = list(found)
            while frontier:
                new = []
                for H in frontier:
                    for g in elements(G):
                        if g in H:
                            continue
                        # H + <g>: the cosets H + kg until they return to H
                        block = set(H)
                        coset = frozenset(add(G, h, g) for h in H)
                        while coset != H:
                            block |= coset
                            coset = frozenset(add(G, h, g) for h in coset)
                        closed = frozenset(block)
                        if closed not in found:
                            found.add(closed)
                            new.append(closed)
                frontier = new
            subs = cg.subgroups(G)
            listed = [frozenset(H.elements()) for H in subs]
            assert set(listed) == found, G
            assert len(listed) == len(found)
            for H in subs:
                assert len(H.elements()) == H.order

    def test_birkhoff_count_matches_enumeration(self):
        # subgroup_count is Birkhoff's closed form; the oracle is the list
        # of every subgroup, filtered by order
        for G in cg.abelian_groups_upto(96):
            orders = [H.order for H in cg.subgroups(G)]
            n = math.prod(G)
            for index in range(1, n + 1):
                want = orders.count(n // index) if n % index == 0 else 0
                assert cg.subgroup_count(G, index) == want, (G, index)

    def test_birkhoff_count_per_type(self):
        # each subgroup's type, read off its element orders: the elements
        # of q-order <= q^k number |H_q'| * q^(mu'_1 + ... + mu'_k), so
        # successive ratios give the conjugate partition mu'
        def q_type(H, q):
            d = H.group
            vals = [max(arith.padic_val(di // math.gcd(g, di), q)
                        for g, di in zip(h, d)) for h in H.elements()]
            counts = [sum(v <= k for v in vals) for k in range(max(vals) + 1)]
            conj = [arith.padic_val(b // a, q)
                    for a, b in zip(counts, counts[1:])]
            return tuple(sum(c >= j for c in conj)
                         for j in range(1, max(conj, default=0) + 1))

        def inside(lam):
            return [tuple(x for x in mu if x) for mu in
                    itertools.product(*(range(x + 1) for x in lam))
                    if list(mu) == sorted(mu, reverse=True)]

        for d in cg.abelian_groups_upto(96):
            primes = [q for q, _ in arith.factor(math.prod(d))]
            lams = [tuple(sorted((arith.padic_val(x, q) for x in d
                                  if x % q == 0), reverse=True))
                    for q in primes]
            found = Counter(tuple(q_type(H, q) for q in primes)
                            for H in cg.subgroups(d))
            want = {mus: math.prod(map(cg.birkhoff_count, lams, mus, primes))
                    for mus in itertools.product(*map(inside, lams))}
            assert found == want, d

    def test_birkhoff_count_large(self):
        # (Z/111546435)^*: the walk over its index-16 lattices visited
        # 859,891 of them to count them
        d = (2, 2, 2, 2, 2, 12, 12, 7920)
        assert cg.subgroup_count(d, 16) == 859891
        assert cg.subgroup_count(d, 1) == 1
        assert cg.subgroup_count((4,), 3) == 0

    def test_hermite_rows_match_hnf_route(self):
        # subgroups() trusts the walk's rows (tuples); the reference is
        # hnf of those rows and a Subgroup rebuilt from its generators by hnf
        for G in cg.abelian_groups_upto(64):
            for rows in cg.subgroup_lattices(G):
                assert hnf(rows, len(G)) == list(map(list, rows)), (G, rows)
            subs = cg.subgroups(G)
            rebuilt = [cg.Subgroup(G, H.generators) for H in subs]
            assert ([hermite_rows(H) for H in subs]
                    == [hermite_rows(R) for R in rebuilt])
            assert [H.order for H in subs] == [R.order for R in rebuilt]

    def test_hermite_generators_match_reduction_mod_d(self):
        # from_hermite keeps the rows with pivot below d_i; the reference
        # reduces every entry mod d and drops the rows that become 0
        for d in cg.abelian_groups_upto(96):
            for rows in cg.subgroup_lattices(d):
                gens = (tuple(x % m for x, m in zip(row, d)) for row in rows)
                assert (cg.Subgroup.from_hermite(d, rows).generators
                        == tuple(g for g in gens if any(g))), (d, rows)

    def test_elements_match_the_membership_filter(self):
        # elements() sums multiples of the Hermite rows; the reference
        # keeps the elements of G, in G's lexicographic order, that H
        # contains.  The same subgroup rebuilt from its generators by hnf
        # has the same lattice, so the same filter, and the same elements
        for G in cg.abelian_groups_upto(64):
            for H in cg.subgroups(G):
                want = [g for g in elements(G) if contains(H, g)]
                assert H.elements() == want, (G, H.generators)
                assert len(want) == H.order
                S = cg.Subgroup(G, H.generators)
                assert hermite_rows(S) == hermite_rows(H)
                assert S.elements() == want, (G, H.generators)

    def test_subgroup_order(self):
        assert cg.Subgroup(cg.cyclic(8), [(2,)]).order == 4
        assert cg.Subgroup(cg.cyclic(8), []).order == 1
        assert cg.Subgroup((2, 4),
                           [(1, 0), (0, 1)]).order == 8

    def test_annihilator_size(self):
        # the characters trivial on H, (G/H)^dual, number |G| / |H|
        G = (2, 6)
        for H in cg.subgroups(G):
            keys = cg._restrictions(G, cg.dual_group(G), H.generators)
            assert sum(not any(key) for key in keys) == 12 // H.order


class TestGroupEnumeration:
    def test_counts_match_partition_products(self):
        by_order = Counter(map(math.prod, cg.abelian_groups_upto(36)))
        # number of abelian groups of order n (OEIS A000688 prefix)
        expected = {1: 1, 2: 1, 3: 1, 4: 2, 8: 3, 16: 5, 32: 7, 12: 2,
                    36: 4, 24: 3, 30: 1}
        for n, cnt in expected.items():
            assert by_order[n] == cnt

    def test_invariant_chains(self):
        for d in cg.abelian_groups_upto(60):
            assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
