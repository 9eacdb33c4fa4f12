"""Self-tests of the benchmark's own logic (no kida needed).

Run from the repository root:  python3 -m unittest discover perfbench
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload: str, seed: int, rounds: int = 3):
    gen = workloads.generator(workload, seed)
    out = []
    for i in range(rounds):
        for req in gen.round(i):
            out.append(req.argv if isinstance(req, workloads.CliRequest)
                       else req)
    return out


class TestSeeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(_inputs(w, 7), _inputs(w, 7), w)

    def test_other_seed_other_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertNotEqual(_inputs(w, 7), _inputs(w, 8), w)

    def test_round_is_stable_when_asked_again(self):
        gen = workloads.generator("transition-batch", 3)
        first = [gen.round(i) for i in range(3)]
        self.assertEqual(first, [gen.round(i) for i in range(3)])

    def test_conductors_do_not_repeat_across_jobs(self):
        gen = workloads.generator("transition-batch", 5)
        seen = []
        for i in range(12):
            for job in gen.round(i):
                seen.append(job["conductors"][1][0])
        self.assertEqual(len(seen), len(set(seen)))

    def test_local_types_cover_primes_dividing_the_level(self):
        gen = workloads.generator("cli-session", 2)
        for i in range(8):
            for req in gen.round(i):
                if req.kind != "transition-ec":
                    continue
                spec = req.argv[req.argv.index("--form") + 1]
                curve = tuple(int(x.split("=")[1])
                              for x in spec[3:].split(","))
                ell = req.conductors[0]
                if workloads.curve_level(curve) % ell == 0:
                    self.assertIn("--local", req.argv)


class TestOracle(unittest.TestCase):
    def test_tau(self):
        tau = workloads.tau_table()
        self.assertEqual(tau[22], 18643272)
        self.assertEqual(tau[1122] % 11, 2)
        self.assertEqual(tau[:5], [1, -24, 252, -1472, 4830])
        self.assertEqual(tau[6 - 1], tau[1] * tau[2])          # multiplicative
        for n in (97, 1000, 1999):                               # mod 691
            sigma11 = sum(d ** 11 for d in range(1, n + 1) if n % d == 0)
            self.assertEqual((tau[n - 1] - sigma11) % 691, 0)


class TestSelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root 0..10 with children 1..4 and 3..6 (overlapping: union 1..6)
        # and 8..9; grandchild 2..3 inside the first child.
        spans = [[0, None, "root", 0.0, 10.0, 0],
                 [1, 0, "a", 1.0, 4.0, 0],
                 [2, 1, "b", 2.0, 3.0, 0],
                 [3, 0, "c", 3.0, 6.0, 0],
                 [4, 0, "d", 8.0, 9.0, 0],
                 [5, None, "lone", 20.0, 21.5, 1]]
        self.assertEqual(tracer.self_times(spans),
                         [10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 1.0, 1.5])

    def test_layer_metrics_sum_self_time(self):
        spans = [[0, None, "transition.transition", 0.0, 0.010, 0],
                 [1, 0, "splitting.efg", 0.002, 0.005, 0],
                 [2, 0, "localfactor.h_v", 0.006, 0.007, 0]]
        m = tracer.layer_metrics(spans, {"localfactor.h_v.calls": 1})
        self.assertAlmostEqual(m["transition.ms"], 6.0)
        self.assertAlmostEqual(m["splitting.efg.ms"], 3.0)
        self.assertAlmostEqual(m["localfactor.ms"], 1.0)
        self.assertEqual(m["localfactor.calls"], 1)
        self.assertEqual(set(m) | {"trace.overhead_ratio"},
                         {name for name, _ in tracer.PER_LAYER})


class TestTailRule(unittest.TestCase):
    def test_at_least_ten_beyond(self):
        for n in range(20, 3000, 7):
            pct = run.tail_percentile(n)
            self.assertGreaterEqual(run.beyond(n, pct), 10, n)
            higher = [p for p in run.PCT_GRID if p > pct]
            if higher:
                self.assertLess(run.beyond(n, higher[0]), 10, n)

    def test_examples(self):
        self.assertEqual(run.tail_percentile(60), 80)
        self.assertEqual(run.tail_percentile(200), 95)
        self.assertEqual(run.tail_percentile(30), 60)
        self.assertEqual(run.tail_percentile(12), 50)
        self.assertEqual(run.nearest_rank([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(run.nearest_rank(list(range(1, 101)), 95), 95)


class TestSpeed(unittest.TestCase):
    def test_scale_to_reference_speed(self):
        ref = speed.REFERENCE_S
        self.assertAlmostEqual(speed.scale(0.010, ref, ref), 0.010)
        # the machine at half speed: the probes and the work take twice
        # as long, and the scaled time stays
        self.assertAlmostEqual(speed.scale(0.020, 2 * ref, 2 * ref), 0.010)
        self.assertAlmostEqual(speed.scale(0.015, ref, 2 * ref), 0.010)

    def test_probe_times_the_kernel(self):
        self.assertGreater(speed.probe(), 0.0)


class TestGate(unittest.TestCase):
    def setUp(self):
        self.tau = workloads.tau_table()

    def test_readme_answer(self):
        req = workloads.CliRequest("readme", ["tau", "--n", "23"],
                                   expect={"stdout": "18643272"})
        self.assertEqual(gate.check_cli(req, 0, "18643272\n", self.tau), [])
        self.assertTrue(gate.check_cli(req, 0, "18643273\n", self.tau))
        self.assertTrue(gate.check_cli(req, 2, "", self.tau))

    def test_tau_against_oracle(self):
        req = workloads.CliRequest("tau", ["tau", "--n", "11", "--mod", "7"],
                                   expect={"tau": 11, "mod": 7})
        good = str(self.tau[10] % 7)
        self.assertEqual(gate.check_cli(req, 0, good + "\n", self.tau), [])
        self.assertTrue(gate.check_cli(req, 0, str((int(good) + 1) % 7),
                                       self.tau))

    def test_error_exit_code(self):
        req = workloads.CliRequest("error", ["tau", "--n", "3000"], exit=2)
        self.assertEqual(gate.check_cli(req, 2, "", self.tau), [])
        self.assertTrue(gate.check_cli(req, 3, "", self.tau))

    def test_transition_identity(self):
        report = {"degree": "11", "lambda.in": "1", "lambda.out": "31",
                  "mu.out": "0", "local.1123.places": "1",
                  "local.1123.m": "20", "local.1123.h": "20",
                  "local.1123.contribution": "20",
                  "local.1123.type": "ups:a=2,c=1"}
        self.assertEqual(gate.check_transition(report), [])
        self.assertEqual(gate.check_delta_type(report, 1123, 11, self.tau),
                         [])
        for key, bad in (("lambda.out", "32"), ("local.1123.h", "18"),
                         ("local.1123.contribution", "21")):
            self.assertTrue(gate.check_transition(dict(report, **{key: bad})),
                            key)
        self.assertTrue(gate.check_delta_type(
            dict(report, **{"local.1123.type": "ups:a=3,c=1"}), 1123, 11,
            self.tau))

    def test_suite_result(self):
        self.assertEqual(gate.check_suite({"result": "pass", "checks": 5}), [])
        self.assertTrue(gate.check_suite({"result": "FAIL", "checks": 5}))


if __name__ == "__main__":
    unittest.main()
