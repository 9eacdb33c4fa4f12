"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact integer equality; the two timed criteria state
their wall-clock budgets explicitly and measure fresh computations (the
sigma_5 table and the tau memo are reset to their cold state first).
"""

import time

from kida import localfactor as lf
from kida import qexp, splitting as sp, transition as tr, verify

Q = sp.rationals()
F23 = sp.parse_field_spec("cyclotomic:23:degree=11")
F1123 = sp.parse_field_spec("cyclotomic:1123:degree=11")
DELTA = qexp.delta_form()
X0_11 = qexp.EllipticCurve(0, -1, 1, -10, -20)


def report(num, ok, desc):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {desc}")
    assert ok, f"criterion {num}: {desc}"


class TestAcceptance:
    def test_c01_tau_23(self):
        qexp._sigma5 = []
        qexp._tau.cache_clear()
        t0 = time.perf_counter()
        value = qexp.tau(23, precision=2000)
        dt = time.perf_counter() - t0
        report(1, value == 18643272 and dt < 1.0,
               f"tau(23) = {value} at precision 2000 in {dt:.2f}s (< 1s)")

    def test_c02_tau_1123_mod_11(self):
        qexp._sigma5 = []
        qexp._tau.cache_clear()
        t0 = time.perf_counter()
        value = qexp.tau(1123, precision=1200) % 11
        dt = time.perf_counter() - t0
        report(2, value == 2 and dt < 5.0,
               f"tau(1123) mod 11 = {value} at precision 1200 in "
               f"{dt:.2f}s (< 5s)")

    def test_c03_h_values(self):
        a23, c23 = qexp.frobenius_data(DELTA, 23, 11)
        h23 = lf.h_v(lf.UnramifiedPS(a23, c23, 11), 11)
        a1123, c1123 = qexp.frobenius_data(DELTA, 1123, 11, precision=1200)
        h1123 = lf.h_v(lf.UnramifiedPS(a1123, c1123, 11), 11)
        report(3, h23 == 0 and h1123 == 20,
               f"h_23 = {h23} (expect 0), h_1123 = {h1123} (expect 20) "
               f"at p = 11, e = 11")

    def test_c04_transition_23(self):
        rep = tr.transition(p=11, base_field=Q, ext_field=F23,
                            base=tr.InvariantRecord("algebraic", 0, 1),
                            form=DELTA)
        report(4, rep.lambda_out == 11 and rep.mu_out == 0,
               f"lambda over the real 23rd cyclotomic field = "
               f"{rep.lambda_out} (expect 11)")

    def test_c05_transition_1123(self):
        rep = tr.transition(p=11, base_field=Q, ext_field=F1123,
                            base=tr.InvariantRecord("algebraic", 0, 1),
                            form=DELTA, precision=1200)
        g = rep.places[0].places if rep.places else None
        report(5, rep.lambda_out == 31 and g == 1,
               f"lambda over the degree-11 field of conductor 1123 = "
               f"{rep.lambda_out} (expect 31), tower place count = {g} "
               f"(expect 1)")

    def test_c06_group_identity_sweep(self):
        t0 = time.perf_counter()
        res = verify.group_identity_suite(max_order=200, reps=100, seed=7)
        dt = time.perf_counter() - t0
        report(6, res.passed and res.checks == 6166476 and dt < 60.0,
               f"group identity: {res.checks} checks (expect 6166476) over "
               f"all abelian groups of order <= 200, every subgroup, 100 "
               f"random reps each; {len(res.failures)} counterexamples in "
               f"{dt:.1f}s (< 60s)")

    def test_c07_tower_additivity(self):
        res = verify.tower_additivity_suite(max_size=27, seed=1)
        report(7, res.passed,
               f"tower additivity: {res.checks} checks (tabulated types + "
               f"generic multisets over cyclic groups <= 27); "
               f"{len(res.failures)} counterexamples")

    def test_c08_path_agreement(self):
        res = verify.path_agreement_suite(seed=3)
        report(8, res.passed,
               f"path agreement h-table vs m-summation: {res.checks} "
               f"cases over p in (3,5,11), e in (p, p^2); "
               f"{len(res.failures)} disagreements")

    def test_c09_elliptic_points_of_order_p(self):
        f = qexp.ec_form(X0_11)
        checked = 0
        fired = 0
        ok = True
        for ell in range(12, 5001):
            if ell % 11 != 1 or any(ell % q == 0
                                    for q in range(2, int(ell ** 0.5) + 1)):
                continue
            n_points = X0_11.count_points(ell)
            a, c = qexp.frobenius_data(f, ell, 11)
            h = lf.h_v(lf.UnramifiedPS(a, c, 11), 11)
            checked += 1
            fired += h != 0
            if (h != 0) != (n_points % 11 == 0):
                ok = False
                break
            if ell <= 300:   # independent naive recount at small primes
                cnt = 1
                for x in range(ell):
                    rhs = (x ** 3 - x * x - 10 * x - 20) % ell
                    for y in range(ell):
                        if (y * y + y - rhs) % ell == 0:
                            cnt += 1
                if cnt != n_points:
                    ok = False
                    break
        report(9, ok and checked >= 50,
               f"X_0(11) curve, p = 11: h_v != 0 iff 11 | #E(F_ell) at all "
               f"{checked} good primes ell = 1 mod 11 up to 5000 "
               f"({fired} nonzero cases)")

    def test_c10_main_conjecture_transfer(self):
        # both kinds share one formula, so with equal inputs the reports
        # differ only in the kind and the hypotheses it names
        results = []
        for ext, expect in ((F23, 11), (F1123, 31)):
            alg, an = (tr.transition(p=11, base_field=Q, ext_field=ext,
                                     base=tr.InvariantRecord(kind, 0, 1),
                                     form=DELTA, precision=1200)
                       for kind in ("algebraic", "analytic"))
            a, b = alg.as_mapping(), an.as_mapping()
            differing = {key for key in a.keys() | b.keys()
                         if a.get(key) != b.get(key)}
            results.append(
                alg.lambda_out == an.lambda_out == expect
                and alg.places == an.places
                and all(key == "kind" or key.startswith("hypothesis.")
                        for key in differing))
        report(10, all(results),
               "main-conjecture transfer: algebraic and analytic reports "
               "agree (lambda 11 and 31, equal places) on both extensions, "
               "up to kind and hypotheses")

    def test_c11_degenerate_contracts(self):
        ok = True
        # degree-1 transition is the identity
        rep = tr.transition(p=11, base_field=F23, ext_field=F23,
                            base=tr.InvariantRecord("algebraic", 0, 5),
                            form=DELTA)
        ok &= rep.lambda_out == 5 and rep.degree == 1 and rep.mu_out == 0
        # mu != 0 is rejected with the documented error
        try:
            tr.transition(p=11, base_field=Q, ext_field=F23,
                          base=tr.InvariantRecord("algebraic", 4, None),
                          form=DELTA)
            ok = False
        except tr.MuNonzero:
            pass
        # supercuspidal contributes 0 through every path
        sc = lf.Supercuspidal()
        for degree in (1, 3, 9, 11, 121):
            ok &= lf.m_extension(sc, degree) == 0
            ok &= lf.h_v(sc, degree) == 0
            for j in range(min(degree, 12)):
                ok &= lf.m_single(sc, degree, j) == 0
        rep_sc = tr.transition(p=11, base_field=Q, ext_field=F23,
                               base=tr.InvariantRecord("algebraic", 0, 1),
                               form=DELTA, local_types={23: sc})
        ok &= rep_sc.lambda_out == 11 and rep_sc.places[0].contribution == 0
        report(11, bool(ok),
               "degenerate contracts: degree-1 identity, mu != 0 rejected, "
               "supercuspidal contributes 0 through every path")
