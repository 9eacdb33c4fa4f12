import hashlib
import math
import random
import time
import tracemalloc

import pytest

from characters import mult_order, phi
from kida import arith
from kida.errors import NotAUnit, ZeroInput


def trial_division_oracle(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class TestFactor:
    def test_one_gives_empty_product(self):
        assert arith.factor(1) == []

    def test_prime_1123(self):
        # oracle: no divisor up to sqrt(1123)
        assert all(1123 % d for d in range(2, 34))
        assert arith.factor(1123) == [(1123, 1)]

    def test_tau23_value(self):
        # brute-force oracle run confirms the decomposition before freezing
        n = 18643272
        expected = trial_division_oracle(n)
        assert expected == [(2, 3), (3, 1), (617, 1), (1259, 1)]
        assert arith.factor(n) == expected
        assert math.prod(p ** e for p, e in expected) == n

    def test_reconstruction_random(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(1, 10 ** 7)
            fac = arith.factor(n)
            assert math.prod(p ** e for p, e in fac) == n
            assert all(e >= 1 for _, e in fac)
            assert [p for p, _ in fac] == sorted({p for p, _ in fac})
            assert fac == trial_division_oracle(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            arith.factor(0)


class TestPadicVal:
    def test_simple(self):
        assert arith.padic_val(121, 11) == 2
        assert arith.padic_val(5, 7) == 0

    def test_1123_fermat_quotient(self):
        # oracle: modular exponentiation mod 11^3 certifies valuation 1
        r = pow(1123, 10, 11 ** 3) - 1
        assert r % 11 == 0 and r % 121 != 0
        assert arith.padic_val(1123 ** 10 - 1, 11) == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            arith.padic_val(0, 5)

    def test_exact_power_property(self):
        rng = random.Random(9)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            t = rng.randint(0, 12)
            m = rng.randint(1, 10 ** 6)
            if m % p == 0:
                m += 1
                if m % p == 0:
                    continue
            assert arith.padic_val(p ** t * m, p) == t


class TestUnitGroup:
    def test_N1_trivial(self):
        U = arith.unit_group(1)
        assert U.invariant_factors == ()
        assert U.order == 1
        assert U.log(0) == () and U.element(()) == 0

    def test_N23_cyclic_22(self):
        U = arith.unit_group(23)
        assert U.invariant_factors == (22,)
        g = U.generators[0]
        # brute-force order check of the emitted generator
        x, k = g, 1
        while x != 1:
            x = x * g % 23
            k += 1
        assert k == 22

    def test_N8_klein(self):
        U = arith.unit_group(8)
        assert U.invariant_factors == (2, 2)
        # enumeration oracle: {1,3,5,7} all have square 1
        assert all(pow(x, 2, 8) == 1 for x in (1, 3, 5, 7))

    @pytest.mark.parametrize("N", [2, 4, 7, 8, 12, 15, 16, 24, 45, 56, 105,
                                   120, 121, 253, 1123])
    def test_bijection_and_chain(self, N):
        U = arith.unit_group(N)
        d = U.invariant_factors
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
        seen = set()
        for x in range(N):
            if math.gcd(x, N) != 1:
                with pytest.raises(NotAUnit):
                    U.log(x)
                continue
            c = U.log(x)
            assert all(0 <= ci < di for ci, di in zip(c, d))
            assert U.element(c) == x
            seen.add(c)
        assert len(seen) == U.order == phi(N)

    def test_generator_orders_match_factors(self):
        for N in (23, 40, 72, 100):
            U = arith.unit_group(N)
            for g, d in zip(U.generators, U.invariant_factors):
                assert mult_order(g, N) == d

    def test_cache_is_bounded_and_rebuilds_on_eviction(self):
        # more distinct conductors than the cache holds: its size stays
        # at most maxsize, and an evicted conductor rebuilds an equal group
        maxsize = arith.unit_group.cache_info().maxsize
        first = arith.unit_group(1000)
        logs = [first.log(x) for x in range(1000) if math.gcd(x, 1000) == 1]
        for N in range(1001, 1002 + maxsize):
            arith.unit_group(N)
            assert arith.unit_group.cache_info().currsize <= maxsize
        again = arith.unit_group(1000)
        assert again is not first
        assert again.invariant_factors == first.invariant_factors
        assert [again.log(x) for x in range(1000)
                if math.gcd(x, 1000) == 1] == logs


class TestCrt:
    def test_matches_brute_force(self):
        moduli = [4, 9, 5, 7]
        for residues in ([1, 2, 3, 4], [0, 0, 0, 0], [3, 8, 4, 6]):
            x = arith.crt(residues, moduli)
            assert 0 <= x < 4 * 9 * 5 * 7
            assert [x % q for q in moduli] == residues

    def test_unit_modulus(self):
        assert arith.crt([5, 0], [7, 1]) == 5

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError, match="moduli not coprime"):
            arith.crt([1, 2], [6, 9])


# sha256 of f"{N}:{invariant_factors}:{generators}\n" over N = 1..2000
UNIT_GROUP_DIGEST = (
    "c5548f5e78b99e4a1de98109e0a87ac767cffd15d43f767e55c23828d82d0f34")
UNIT_GROUP_SAMPLE = {
    1: ((), ()),
    2: ((), ()),
    4: ((2,), (3,)),
    8: ((2, 2), (7, 5)),
    16: ((2, 4), (15, 5)),
    23: ((22,), (21,)),
    40: ((2, 2, 4), (31, 21, 17)),
    72: ((2, 2, 6), (55, 37, 41)),
    105: ((2, 2, 12), (71, 76, 37)),
    1123: ((1122,), (756,)),
    1680: ((2, 2, 2, 4, 12), (1471, 1121, 1441, 421, 1297)),
    2000: ((2, 4, 100), (751, 501, 1537)),
}


class TestUnitGroupGolden:
    def test_sample(self):
        for N, (d, gens) in UNIT_GROUP_SAMPLE.items():
            U = arith.unit_group(N)
            assert (U.invariant_factors, U.generators) == (d, gens), N

    def test_digest_up_to_2000(self):
        h = hashlib.sha256()
        for N in range(1, 2001):
            U = arith.unit_group(N)
            h.update(f"{N}:{U.invariant_factors}:{U.generators}\n".encode())
        assert h.hexdigest() == UNIT_GROUP_DIGEST

    @pytest.mark.parametrize("N", [999983, 9999991, 2 ** 10 * 3 ** 5 * 7,
                                   1000000000039])
    def test_log_round_trip_large_moduli(self, N):
        U = arith.unit_group(N)
        rng = random.Random(N)
        for _ in range(20):
            x = rng.randrange(1, N)
            if math.gcd(x, N) != 1:
                continue
            c = U.log(x)
            assert all(0 <= ci < di for ci, di in zip(c, U.invariant_factors))
            assert U.element(c) == x


class TestLocalGenerators:
    @pytest.mark.parametrize("N", [2, 4, 8, 32, 3 * 25, 8 * 9 * 7,
                                   4 * 11 ** 2, 16 * 3 * 5 * 13])
    def test_generate_the_local_parts(self, N):
        U = arith.unit_group(N)
        fac = arith.factor(N)
        total = 1
        for q, e in fac:
            coords = U.local_coordinates(q)
            gens = [U.element(v) for v in coords]
            qe = q ** e
            # the coordinates are those of the residues they stand for
            assert [U.log(g) for g in gens] == list(coords)
            # 1 at every other prime power of N
            assert all(g % (N // qe) == 1 % (N // qe) for g in gens)
            # independent generators of (Z/q^e)^*: their orders multiply
            # to phi(q^e) and their products are pairwise distinct
            orders = [mult_order(g, qe) for g in gens]
            local = {1 % qe}
            for g, n in zip(gens, orders):
                local = {x * pow(g, k, qe) % qe for x in local
                         for k in range(n)}
            assert len(local) == math.prod(orders) == phi(qe)
            total *= len(local)
        assert total == U.order
        assert U.local_coordinates(101) == ()

    def test_two_adic_generators(self):
        U = arith.unit_group(16 * 3)
        assert [U.element(v) % 16 for v in U.local_coordinates(2)] == [15, 5]
        U = arith.unit_group(4 * 3)
        assert [U.element(v) % 4 for v in U.local_coordinates(2)] == [3]


def test_log_mod_prime_near_10_7_is_small_and_fast():
    # a table-based log holds phi(N) entries: about 1 GB and seconds here
    tracemalloc.start()
    try:
        t = time.perf_counter()
        U = arith.UnitGroup(9999991)
        coords = U.log(5)
        ms = (time.perf_counter() - t) * 1000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert U.element(coords) == 5
    assert peak < 50 * 2 ** 20, peak
    assert ms < 1000, ms
