#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not part of the cijt test suite).

    python3 bench/selftest.py

Covers generator determinism, the brute-force oracle against the engine on
the sqrt(2) anchor and on random single-angle draws, the tracer restoring
every binding it replaced, and traced call counts and engine.m_scanned
repeating exactly across two traced runs in separate processes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
from oracle import Surd, floor_mult, single_angle_hits  # noqa: E402

WORK = os.path.join(".bench_work", "selftest")


def _files(workdir):
    out = {}
    for name in sorted(os.listdir(os.path.join(ROOT, workdir))):
        with open(os.path.join(ROOT, workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _generate(workload, seed, sub):
    workdir = os.path.join(WORK, sub)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        insts = gen.generate(workload, seed, workdir, os.path.join(ROOT, "datasets"))
    finally:
        os.chdir(cwd)
    # argv names the work directory; compare the lists with it stripped
    plain = [dict(i.to_json(), argv=[a.replace(workdir, "<dir>") for a in i.argv]) for i in insts]
    return plain, _files(workdir)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in gen.WORKLOADS:
            a = _generate(workload, 7, "a")
            b = _generate(workload, 7, "b")
            self.assertEqual(a, b, workload)

    def test_seed_changes_inputs(self):
        for workload in ("verify-s2-ladder", "search-ladder"):
            self.assertNotEqual(_generate(workload, 1, "a"), _generate(workload, 2, "b"), workload)

    def test_mean_index_refusal(self):
        third = Surd(Fraction(1, 3), Fraction(0), 1)
        self.assertFalse(gen._positive(1, [third, third]))  # 1 - 2 + 2/3 < 0
        self.assertTrue(gen._positive(2, [third, third]))


class OracleTest(unittest.TestCase):
    def test_floor_matches_exact_scalars(self):
        from cijt.scalars import Exact, floor_mult as exact_floor

        rng = random.Random(5)
        for _ in range(500):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
            s = rng.choice((2, 3, 5, 7, 11))
            m = rng.randint(1, 10**9)
            self.assertEqual(floor_mult(Surd(a, b, s), m), exact_floor(Exact.surd(a, b, s), m))

    def _engine(self, i1, theta, delta):
        from cijt.engine import SelectionProblem, find_tuple, opposite_tuple
        from cijt.iteration import PathClass
        from cijt.normal_forms import R, SymplecticClass
        from cijt.scalars import Exact

        path = PathClass(i1, SymplecticClass((R(Exact.surd(theta.a, theta.b, theta.s)),)))
        problem = SelectionProblem((path,), delta=delta)
        t = find_tuple(problem)
        return t, opposite_tuple(t, problem)

    def _oracle(self, i1, theta, delta, m_max):
        hits = single_angle_hits(i1, theta, delta, m_max)
        n = min(h[0] for h in hits)
        _, m, chi, bit = min((h for h in hits if h[0] == n), key=lambda h: h[2])
        opp = [h for h in single_angle_hits(i1, theta, delta, m_max, chi_eps=delta)
               if (h[2], h[3]) == (1 - chi, 1 - bit)]
        n_opp = min(h[0] for h in opp)
        return (n, m), (n_opp, min(h[1] for h in opp if h[0] == n_opp))

    def test_sqrt2_anchor(self):
        theta = Surd(Fraction(-1), Fraction(1), 2)
        auto, opp = self._oracle(1, theta, Fraction(1, 100), 400)
        self.assertEqual((auto, opp), ((29, 70), (70, 169)))
        t, t_opp = self._engine(1, theta, Fraction(1, 100))
        self.assertEqual(((t.N, t.m[0]), (t_opp.N, t_opp.m[0])), (auto, opp))

    def test_random_single_angles(self):
        rng = random.Random(11)
        for _ in range(6):
            theta, i1 = gen._draw_angle(rng), rng.randint(1, 3)
            t, t_opp = self._engine(i1, theta, Fraction(1, 1000))
            ihat = float(theta) + i1 - 1
            cap = int((t_opp.N + 6) / ihat) + 2
            auto, opp = self._oracle(i1, theta, Fraction(1, 1000), cap)
            self.assertEqual(((t.N, t.m[0]), (t_opp.N, t_opp.m[0])), (auto, opp), (theta, i1))


class TraceTest(unittest.TestCase):
    PLAN_IDS = ("sqrt2-1e-2:auto", "sqrt2-1e-2:opposite", "single00:auto", "single00:opposite",
                "mixed00:auto", "rung1")

    def _plan(self):
        insts = []
        for workload in ("search-ladder", "verify-s2-ladder"):
            workdir = os.path.join(WORK, workload)
            cwd = os.getcwd()
            os.chdir(ROOT)
            try:
                insts += [i.to_json() for i in gen.generate(workload, 3, workdir, os.path.join(ROOT, "datasets"))]
            finally:
                os.chdir(cwd)
        plan = {"instances": [i for i in insts if i["id"] in self.PLAN_IDS],
                "spans_path": os.path.join(WORK, "spans.jsonl")}
        path = os.path.join(ROOT, WORK, "plan.json")
        with open(path, "w") as fh:
            json.dump(plan, fh)
        return path

    def test_counts_repeat_across_runs(self):
        plan = self._plan()
        runs = []
        for k in range(2):
            out = os.path.join(ROOT, WORK, "passes%d.json" % k)
            subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), plan, out, "0", "1"],
                           cwd=ROOT, check=True, timeout=170)
            with open(out) as fh:
                layers = json.load(fh)["layers"][0]
            runs.append(({k: v[0] for k, v in layers["totals"].items()}, layers["m_scanned"]))
        self.assertEqual(runs[0], runs[1])
        calls, scanned = runs[0]
        self.assertGreater(calls["scalars.ceil_mult"], 0)
        self.assertGreater(calls["loop_homology.betti"], 0)
        self.assertEqual(scanned["sqrt2-1e-2:auto"], int((29 + 6) / (2 ** 0.5 - 1)) + 2)

    def test_uninstall_restores_every_binding(self):
        import cijt.engine
        import cijt.morse
        from tracing import Tracer

        before = dict(vars(cijt.morse)), dict(vars(cijt.engine)), cijt.engine.SelectionProblem.__init__
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(cijt.morse.find_tuple, before[0]["find_tuple"])
        self.assertIsNot(cijt.engine.find_tuple, before[1]["find_tuple"])
        tracer.uninstall()
        self.assertEqual((dict(vars(cijt.morse)), dict(vars(cijt.engine)),
                          cijt.engine.SelectionProblem.__init__), before)


if __name__ == "__main__":
    unittest.main()
