import hashlib
import inspect
import math
import random
from functools import lru_cache

import pytest

from kida import arith, cli, eta, qexp, verify
from kida.errors import (BadReduction, BoundExceeded,
                         InternalAdditivityViolation, MissingCoefficient,
                         PrecisionExceeded, RamifiedLevel, SpecParseError)


def eta24_naive(B):
    """Independent oracle: multiply the 24 factors (1-q^n) one at a time."""
    cur = [0] * B
    cur[0] = 1
    for n in range(1, B):
        for _ in range(24):
            for i in range(B - 1, n - 1, -1):
                cur[i] -= cur[i - n]
    return cur


@lru_cache(maxsize=1)
def miller_tau(size):
    """Reference tau(1..size), independent of the sigma_5 route: Delta/q
    is the 8th power of Jacobi's eta^3/q^(1/8) = sum_k (-1)^k (2k+1)
    q^(k(k+1)/2), and J. C. P. Miller's power recurrence (Knuth, TAOCP
    vol. 2, 4.7) gives b_n = (1/n) sum_j (9j - n) a_j b_(n-j) over the
    triangular j, the division exact."""
    b = [1]
    terms = [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1))
             for k in range(1, (math.isqrt(8 * size) + 1) // 2 + 1)]
    for n in range(1, size):
        s = 0
        for j, a in terms:
            if j > n:
                break
            s += (9 * j - n) * a * b[n - j]
        assert s % n == 0, n
        b.append(s // n)
    return b


def reset_tau():
    """The cold state of a fresh process: no sigma_5 table, no memo."""
    eta._sigma5 = []
    eta._tau.cache_clear()


X0_11 = qexp.EllipticCurve(0, -1, 1, -10, -20)

# (a1, a2, a3, a4, a6) of the curves perfbench/workloads.py draws from
BENCHMARK_CURVES = (
    (0, -1, 1, -10, -20),
    (0, 0, 1, -1, 0),
    (1, 0, 1, -1, 0),
    (0, 1, 1, 0, 0),
    (1, -1, 1, -1, 0),
)
J0 = (0, 0, 0, 0, 1)            # y^2 = x^3 + 1, j = 0
ORACLE_CURVES = sorted({(0, -1, 1, -10, -20), *verify.TEST_CURVES,
                        *BENCHMARK_CURVES, J0})


def primes_upto(n):
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(sieve[d * d::d]))
    return [ell for ell in range(n + 1) if sieve[ell]]


PRIMES = primes_upto(10 ** 5)
# every prime in (229, 3000], 16 drawn from (3000, 10^5], and 99991
ORACLE_PRIMES = ([ell for ell in PRIMES if 229 < ell <= 3000]
                 + sorted(random.Random(0).sample(
                     [ell for ell in PRIMES if ell > 3000], 16))
                 + [99991])

# SHA-256 of ",".join(map(str, tau(1..5000))) as the 24-pass product of
# Euler's pentagonal series computed it, before Miller's power recurrence
# and Ramanujan's sigma_5 identity.
TAU_5000_SHA256 = ("91d9b02b8dbb749d6754b63493bf3df8"
                   "b495447a5af441ab8093e33e4c0fbca6")


class TestTau:
    def test_leading(self):
        assert eta.tau(1) == 1

    def test_tau23_known_value(self):
        assert eta.tau(23) == 18643272

    def test_tau1123_mod_11(self):
        assert eta.tau(1123, 1200) % 11 == 2

    def test_series_vs_naive_oracle(self):
        B = 40
        assert [eta.tau(n) for n in range(1, B + 1)] == eta24_naive(B)

    def test_golden_digest_5000(self):
        coeffs = [eta.tau(n, 5000) for n in range(1, 5001)]
        digest = hashlib.sha256(",".join(map(str, coeffs)).encode())
        assert digest.hexdigest() == TAU_5000_SHA256

    def test_matches_miller_reference_to_2000(self):
        reset_tau()
        want = miller_tau(eta.MAX_PRECISION)
        assert [eta.tau(n) for n in range(1, 2001)] == want[:2000]

    def test_matches_miller_reference_on_a_sample_to_max_precision(self):
        want = miller_tau(eta.MAX_PRECISION)
        sample = random.Random(23).sample(range(1, eta.MAX_PRECISION + 1),
                                          300)
        for n in sample + [eta.MAX_PRECISION]:
            assert eta.tau(n, eta.MAX_PRECISION) == want[n - 1], n

    def test_budget_edges_pinned_in_ci(self):
        # the CI step "kida tau at the budget edges" diffs these values
        want = miller_tau(eta.MAX_PRECISION)
        assert (want[0], want[1999], want[9999]) == (
            1, -354382910343168000, -482606811957501440000)

    def test_corrupted_sigma5_table_is_a_typed_error(self, monkeypatch):
        # one wrong sigma_5(n) moves 756 tau(n) by 691, which 756 does not
        # divide; the error is raised, never an assert, and not memoized
        eta.tau(23)
        table = list(eta._sigma5)
        table[23] += 1
        monkeypatch.setattr(eta, "_sigma5", table)
        eta._tau.cache_clear()
        try:
            with pytest.raises(InternalAdditivityViolation, match="756"):
                eta.tau(23)
            assert eta.tau(22) == miller_tau(eta.MAX_PRECISION)[21]
        finally:
            eta._tau.cache_clear()

    def test_memo_is_bounded(self):
        assert eta._tau.cache_info().maxsize == 256

    def test_ramanujan_congruence_mod_691(self):
        # tau(n) = sigma_11(n) mod 691, with sigma_11 from a divisor sieve.
        # Ramanujan's identity, which computes tau, implies it: mod 691 it
        # reads 756 tau(n) = 65 sigma_11(n), and 756 = 65 mod 691.  The
        # golden digest and eta24_naive are the independent checks
        B = 5000
        sigma = [0] * (B + 1)
        for d in range(1, B + 1):
            d11 = pow(d, 11, 691)
            for m in range(d, B + 1, d):
                sigma[m] += d11
        for n in range(1, B + 1):
            assert (eta.tau(n, B) - sigma[n]) % 691 == 0, n

    def test_prefix_grows_to_index_not_budget(self):
        # a cold tau(1) is a warm-up: it sieves sigma_5 to the default size
        for n in (1, 23):
            reset_tau()
            eta.tau(n, precision=eta.MAX_PRECISION)
            assert len(eta._sigma5) - 1 == eta.DEFAULT_PRECISION
        # a later miss doubles the table, past the budget, and stops at
        # MAX_PRECISION
        eta.tau(2500, precision=3000)
        assert len(eta._sigma5) - 1 == 4000
        eta.tau(7000, precision=eta.MAX_PRECISION)
        assert len(eta._sigma5) - 1 == 8000
        eta.tau(8001, precision=eta.MAX_PRECISION)
        assert len(eta._sigma5) - 1 == eta.MAX_PRECISION

    def test_upward_walk_extends_logarithmically(self, monkeypatch):
        # n = 1..5000 in order: sigma_5 to 2000, then 4000, then 8000
        sizes = []
        real = eta._sigma5_table

        def counted(size):
            sizes.append(size)
            return real(size)

        monkeypatch.setattr(eta, "_sigma5_table", counted)
        reset_tau()
        walked = [eta.tau(n, 5000) for n in range(1, 5001)]
        assert sizes == [2000, 4000, 8000]
        digest = hashlib.sha256(",".join(map(str, walked)).encode())
        assert digest.hexdigest() == TAU_5000_SHA256

    def test_multiplicativity(self):
        for m, n in [(2, 3), (3, 4), (4, 5), (5, 7), (8, 9), (6, 35)]:
            assert math.gcd(m, n) == 1
            assert eta.tau(m * n) == eta.tau(m) * eta.tau(n)

    def test_hecke_recursion_at_prime_squares(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            assert eta.tau(p * p) == eta.tau(p) ** 2 - p ** 11

    def test_precision_budget(self):
        with pytest.raises(PrecisionExceeded):
            eta.tau(2001)
        with pytest.raises(PrecisionExceeded):
            eta.tau(101, precision=100)
        assert eta.tau(100, precision=100) == eta.tau(100)

    @pytest.mark.parametrize("n", [0, -1])
    def test_index_below_1_is_malformed(self, n):
        # once PrecisionExceeded, "tau(0) beyond precision budget 2000"
        with pytest.raises(SpecParseError,
                           match=f"^tau index {n} must be >= 1$"):
            eta.tau(n)

    def test_budget_cap_before_any_work(self):
        reset_tau()
        for n in (5, eta.MAX_PRECISION + 1):
            with pytest.raises(BoundExceeded):
                eta.tau(n, precision=eta.MAX_PRECISION + 1)
        with pytest.raises(PrecisionExceeded):
            eta.tau(eta.MAX_PRECISION + 1, precision=eta.MAX_PRECISION)
        assert eta._sigma5 == []
        assert eta._tau.cache_info()[:2] == (0, 0)
        assert eta.tau(eta.MAX_PRECISION,
                        precision=eta.MAX_PRECISION) != 0


class TestEllipticCurve:
    def test_x0_11_discriminant(self):
        assert X0_11.discriminant() == -(11 ** 5)

    def test_x0_11_small_ap_match_naive_enumeration(self):
        # oracle: enumerate all (x, y) pairs directly
        for ell, expected in [(2, -2), (3, -1), (5, 1), (7, -2),
                              (13, 4), (23, -1)]:
            cnt = 1
            for x in range(ell):
                for y in range(ell):
                    if (y * y + X0_11.a1 * x * y + X0_11.a3 * y
                            - (x ** 3 + X0_11.a2 * x * x + X0_11.a4 * x
                               + X0_11.a6)) % ell == 0:
                        cnt += 1
            assert ell + 1 - cnt == expected
            assert X0_11.a_prime(ell) == expected

    def test_hasse_bound_and_recount(self):
        for ell in (2, 3, 5, 7, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97):
            a = X0_11.a_prime(ell)
            assert a * a <= 4 * ell
            assert X0_11.count_points(ell) == ell + 1 - a

    def test_order_11_point_criterion_at_23(self):
        # a_23 = 2 mod 11 iff 11 | #E(F_23); both sides by point counting
        n = X0_11.count_points(23)
        a = 23 + 1 - n
        assert (a % 11 == 2 % 11) == (n % 11 == 0)

    def test_bad_reduction(self):
        with pytest.raises(BadReduction):
            X0_11.a_prime(11)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            X0_11.a_prime(100003)


class TestPointCountRoutes:
    """Baby-step giant-step past 229, the Legendre sum as its oracle."""

    @pytest.mark.parametrize("coefficients", ORACLE_CURVES, ids=str)
    def test_bsgs_matches_legendre(self, coefficients):
        E = qexp.EllipticCurve(*coefficients)
        disc = E.discriminant()
        for ell in ORACLE_PRIMES:
            if disc % ell:
                assert E.count_points(ell) == qexp._count_legendre(E, ell), ell

    @pytest.mark.parametrize("coefficients", ORACLE_CURVES, ids=str)
    def test_below_mestre_bound_right_or_refused(self, coefficients):
        # the walk only answers when one count is left, so at small
        # primes it is right or raises, never wrong
        E = qexp.EllipticCurve(*coefficients)
        for ell in PRIMES[2:PRIMES.index(229) + 1]:
            if E.discriminant() % ell == 0:
                continue
            want = qexp._count_legendre(E, ell)
            assert E.count_points(ell) == want
            try:
                assert qexp._count_bsgs(E, ell) == want, ell
            except BoundExceeded:
                pass

    def test_additions_bounded(self, monkeypatch):
        adds = 0
        real = qexp._ec_add

        def counted(*args):
            nonlocal adds
            adds += 1
            return real(*args)
        monkeypatch.setattr(qexp, "_ec_add", counted)
        # one walk per curve: 82 additions for seven of the curves and 84
        # for J0, the worst case measured; stripping a point's order would
        # cost about 30 more
        for coefficients in ORACLE_CURVES:
            adds = 0
            qexp.EllipticCurve(*coefficients).count_points(99991)
            assert 0 < adds <= 90, coefficients

    def test_walk_lists_every_multiple_or_a_small_one(self):
        # every point of y^2 = x^3 + A x + B and its twist, as _count_bsgs
        # makes them, against its order stripped from the group order
        rng = random.Random(2)
        primes = [ell for ell in PRIMES if 229 < ell < 400]
        seen = {"whole": 0, "small": 0, "order 2s": 0}
        for _ in range(20):
            ell = rng.choice(primes)
            A, B = rng.randrange(ell), rng.randrange(ell)
            if (4 * A ** 3 + 27 * B ** 2) % ell == 0:
                continue
            r = math.isqrt(4 * ell)
            s = math.isqrt(r) + 1
            count = qexp._count_legendre(qexp.EllipticCurve(a4=A, a6=B), ell)
            for x in range(ell):
                d = (x ** 3 + A * x + B) % ell
                if not d:
                    continue
                a, P = A * d * d % ell, (d * x % ell, d * d % ell)
                order = count if pow(d, (ell - 1) // 2, ell) == 1 \
                    else 2 * (ell + 1) - count
                for q in [q for q in PRIMES[:80] if order % q == 0]:
                    while (order % q == 0
                           and qexp._ec_mul(order // q, P, a, ell) is None):
                        order //= q
                ms, whole = qexp._hasse_multiples(P, a, ell, r)
                if order > 2 * s:
                    assert whole and sorted(ms) == [
                        m for m in range(ell + 1 - r, ell + 2 + r)
                        if m % order == 0], (ell, A, B, x)
                    seen["whole"] += 1
                else:
                    assert not whole and len(ms) == 1
                    assert ms[0] % order == 0 and ms[0] <= 2 * s
                    seen["small"] += 1
                    seen["order 2s"] += order == 2 * s
        # a point of order 2s puts a 2-torsion point among the baby steps
        assert seen["whole"] > 5000 and seen["small"] and seen["order 2s"]

    def test_routes_agree_on_torsion_and_random_models(self, monkeypatch):
        # y^2 = x^3 + a x^2 + b x has the rational 2-torsion point (0, 0),
        # y^2 + a1 xy + a3 y = x^3 the rational 3-torsion point (0, 0);
        # both kinds, and random small models, at primes in (229, 3000)
        decided, stripped = [], []
        real_walk, real_order = qexp._hasse_multiples, qexp._point_order

        def walk(*args):
            ms, whole = real_walk(*args)
            decided.append(whole and len(ms) == 1)
            return ms, whole

        def order(*args):
            stripped.append(args)
            return real_order(*args)
        monkeypatch.setattr(qexp, "_hasse_multiples", walk)
        monkeypatch.setattr(qexp, "_point_order", order)
        rng = random.Random(31)
        primes = [ell for ell in PRIMES if 229 < ell < 3000]
        models = [lambda: (0, rng.randint(-9, 9), 0, rng.randint(-9, 9), 0),
                  lambda: (rng.randint(-9, 9), 0, rng.randint(-9, 9), 0, 0),
                  lambda: tuple(rng.randint(-9, 9) for _ in range(5))]
        draws = 0
        for model in models:
            for _ in range(40):
                E = qexp.EllipticCurve(*model())
                disc = E.discriminant()
                if disc == 0:
                    continue
                for ell in rng.sample(primes, 3):
                    if disc % ell:
                        assert E.count_points(ell) == qexp._count_legendre(
                            E, ell), (E, ell)
                        draws += 1
        assert draws > 300
        assert any(decided) and stripped

    def test_legendre_sum_not_entered_above_229(self, monkeypatch):
        calls = []
        real = qexp._count_legendre

        def spy(E, ell):
            calls.append(ell)
            return real(E, ell)
        monkeypatch.setattr(qexp, "_count_legendre", spy)
        for ell in (233, 239, 1009, 99991):
            X0_11.count_points(ell)
        assert calls == []
        X0_11.count_points(229)
        assert calls == [229]

    def test_j0_at_229_is_below_mestre_bound(self):
        E = qexp.EllipticCurve(*J0)
        assert E.count_points(229) == qexp._count_legendre(E, 229) == 252
        with pytest.raises(BoundExceeded, match="Mestre"):
            qexp._count_bsgs(E, 229)


class TestApMemo:
    """a_ell is counted once per (curve, ell); errors are never kept."""

    def test_equal_curves_share_one_count(self, monkeypatch):
        qexp._ap.cache_clear()
        counts = []
        real = qexp._count_bsgs

        def spy(E, ell):
            counts.append(ell)
            return real(E, ell)
        monkeypatch.setattr(qexp, "_count_bsgs", spy)
        curves = [qexp.EllipticCurve(0, -1, 1, -10, -20)
                  for _ in range(2)]
        assert curves[0] is not curves[1]
        assert (eta.frobenius_data(curves[0], 1009, 5)
                == eta.frobenius_data(curves[1], 1009, 5))
        assert counts == [1009]

    def test_errors_raised_on_every_call(self):
        qexp._ap.cache_clear()
        for ell, error in ((11, BadReduction), (100003, BoundExceeded)):
            for _ in range(2):
                with pytest.raises(error):
                    X0_11.a_prime(ell)
        assert qexp._ap.cache_info().currsize == 0

    def test_ramified_level_refused_before_counting(self, monkeypatch):
        qexp._ap.cache_clear()

        def refuse(E, ell):
            raise AssertionError(f"counted at {ell}")
        monkeypatch.setattr(qexp.EllipticCurve, "count_points", refuse)
        with pytest.raises(RamifiedLevel):
            eta.frobenius_data(X0_11, 11, 5)


class TestFrobeniusData:
    def test_delta_23(self):
        assert eta.frobenius_data(eta.DELTA, 23, 11) == (10, 1)

    def test_delta_1123(self):
        assert eta.frobenius_data(eta.Delta(1200), 1123, 11) == (2, 1)

    def test_zero_coefficient(self):
        tbl = qexp.CoefficientTable(weight=2, level=5, ap={3: 0})
        a, c = eta.frobenius_data(tbl, 3, 7)
        assert a == 0 and c == 3 % 7

    def test_level_one_c_is_ell_power(self):
        f = eta.DELTA
        for ell in (2, 3, 5, 7, 13):
            for p in (11, 13, 17):
                if ell == p:
                    continue
                _, c = eta.frobenius_data(f, ell, p)
                assert c == pow(ell, 11, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_c_is_ell_power_for_every_source(self, p):
        # every source has trivial character, so c = ell^(k-1) mod p;
        # the oracle reduces the exact power once, over primes from a sieve
        primes = [ell for ell in PRIMES if ell < 2000 and ell != p]
        delta, curve = eta.DELTA, X0_11
        for ell in primes:
            assert eta.frobenius_data(delta, ell, p) == (
                eta.tau(ell) % p, ell ** 11 % p), ell
            if ell != 11:
                assert eta.frobenius_data(curve, ell, p) == (
                    X0_11.a_prime(ell) % p, ell % p), ell

    def test_ramified_level(self):
        f = X0_11
        assert f.level == 11
        with pytest.raises(RamifiedLevel):
            eta.frobenius_data(f, 11, 5)

    def test_missing_coefficient(self):
        f = qexp.CoefficientTable(2, 11, {2: -2})
        with pytest.raises(MissingCoefficient):
            eta.frobenius_data(f, 3, 5)


class TestTableParser:
    GOOD = """# sample table
weight 2 level 11
2 -2
3 -1  # inline comment
5 1
"""

    def test_round_trip(self):
        tbl = qexp.parse_table(self.GOOD)
        assert tbl.weight == 2 and tbl.level == 11
        assert tbl.ap == {2: -2, 3: -1, 5: 1}

    def test_missing_header(self):
        with pytest.raises(SpecParseError):
            qexp.parse_table("2 -2\n")

    def test_composite_index_rejected(self):
        with pytest.raises(SpecParseError):
            qexp.parse_table("weight 2 level 11\n4 5\n")

    def test_duplicate_rejected(self):
        with pytest.raises(SpecParseError):
            qexp.parse_table("weight 2 level 11\n2 -2\n2 -2\n")

    def test_file_loading(self, tmp_path):
        path = tmp_path / "aps.txt"
        path.write_text(self.GOOD, encoding="ascii")
        tbl = cli.parse_form_spec(f"table:{path}")
        assert tbl.ap[5] == 1


class TestForms:
    """Each coefficient source is a form: weight, level, describe() and
    a_prime(ell), and each bounds its own coefficients."""

    @pytest.mark.parametrize("form", [
        eta.DELTA, eta.Delta(1200), X0_11, qexp.CoefficientTable(2, 11, {})])
    def test_a_prime_takes_ell_alone(self, form):
        assert list(inspect.signature(form.a_prime).parameters) == ["ell"]

    def test_delta(self):
        delta = eta.DELTA
        assert (delta.weight, delta.level, delta.describe()) == (
            12, 1, "delta")
        assert delta.a_prime(23) == eta.tau(23) == 18643272
        with pytest.raises(AttributeError):
            delta.level = 11

    def test_delta_carries_its_budget(self):
        # a stated decision: Delta equals the plain tuple of its budget,
        # so a budgeted Delta is another value with the same describe()
        assert eta.DELTA == eta.Delta() == (None,)
        assert eta.Delta(1200) == (1200,) and eta.Delta(1200) != eta.DELTA
        assert eta.Delta(1200).describe() == eta.DELTA.describe()
        assert eta.Delta(23).a_prime(23) == 18643272
        with pytest.raises(PrecisionExceeded,
                           match="^tau.23. beyond precision budget 22$"):
            eta.Delta(22).a_prime(23)
        with pytest.raises(PrecisionExceeded):
            eta.DELTA.a_prime(2003)
        with pytest.raises(BoundExceeded):
            eta.Delta(eta.MAX_PRECISION + 1).a_prime(2)

    def test_curve(self):
        assert (X0_11.weight, X0_11.level) == (2, 11)
        assert X0_11.describe() == "ec:a1=0,a2=-1,a3=1,a4=-10,a6=-20"
        assert X0_11.a_prime(13) == 4

    @pytest.mark.parametrize("coefficients, disc, level", [
        ((0, -1, 1, -10, -20), -161051, 11),        # 11a1: -11^5
        ((0, 0, 1, -1, 0), 37, 37),                 # 37a1
        ((0, 0, 0, 0, 1), -432, 6),                 # y^2 = x^3 + 1: -2^4 3^3
        ((0, 0, 0, -1, 0), 64, 2),                  # y^2 = x^3 - x: 2^6
    ])
    def test_curve_level_is_the_radical_of_the_discriminant(
            self, coefficients, disc, level):
        E = qexp.EllipticCurve(*coefficients)
        assert (E.discriminant(), E.level) == (disc, level)

    def test_curve_level_past_the_factoring_bound(self):
        E = qexp.EllipticCurve(a4=1000000007, a6=1000000009)
        with pytest.raises(BoundExceeded, match="^curve discriminant "):
            E.level

    def test_table(self):
        tbl = qexp.CoefficientTable(2, 11, {2: -2})
        assert (tbl.weight, tbl.level) == (2, 11)
        assert tbl.describe() == "table:weight=2,level=11"
        assert tbl.a_prime(2) == -2
        with pytest.raises(MissingCoefficient, match="no entry for 3"):
            tbl.a_prime(3)

    @pytest.mark.parametrize("weight, level", [(1, 11), (0, 11), (2, 0),
                                               (2, -11)])
    def test_table_shape_enforced(self, weight, level):
        # parse_table owns the check, and names the header's line
        with pytest.raises(SpecParseError,
                           match="line 1: need weight >= 2 and level >= 1"):
            qexp.parse_table(f"weight {weight} level {level}\n2 -2\n")


class TestConcurrentCoefficientAccess:
    def test_parallel_tau_reads_consistent(self):
        # threads race to grow the sigma_5 table from cold; each must read
        # exact values whichever table gets published
        import sys
        import threading
        want = miller_tau(eta.MAX_PRECISION)[:4000]
        reset_tau()
        results = []
        lock = threading.Lock()

        def worker(seed):
            ns = [1, 23, 60, 120] + [2000 + 97 * seed + 13 * k
                                     for k in range(10)]
            vals = [(n, eta.tau(n, precision=4000)) for n in ns]
            with lock:
                results.append(vals)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        for vals in results:
            assert all(v == want[n - 1] for n, v in vals)
