"""Self-tests of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

They check that inputs and verdict digests are a function of the seed, that
the checkers flag a deliberately wrong output, and that BENCHMARK.json names
the metrics run.py prints.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from gsfuzz import PredicateVerdict, TheoremReport, Witness  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

NULL = NullTracer()
TINY = 4  # items run per workload


def make(name):
    return workloads.make(name, run.OUT / "selftest-work", run.SRC)


def digest(wl, items):
    ledger = run.Ledger(wl, items[:TINY])
    for index in range(len(ledger.items)):
        _, out, error = run.run_one(ledger, index, NULL)
        ledger.settle(index, out, error)
    return ledger


class SeededInputs(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(run.OUT / "selftest-work", ignore_errors=True)

    def test_same_seed_same_inputs_and_digest(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                wl = make(name)
                first = wl.build(3, NULL)
                second = wl.build(3, NULL)
                self.assertEqual(first, second)
                a, b = digest(wl, first), digest(wl, second)
                self.assertEqual((a.failed, b.failed), (0, 0), a.problems + b.problems)
                self.assertEqual(a.digest(), b.digest())

    def test_other_seed_other_inputs(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                wl = make(name)
                if name == "cli":
                    # the fixture files are fixed; the seeded structures differ
                    wl.build(3, NULL)
                    a = (wl.workdir / "seeded-0-n3k1.gsf").read_text()
                    wl.build(4, NULL)
                    b = (wl.workdir / "seeded-0-n3k1.gsf").read_text()
                    self.assertNotEqual(a, b)
                else:
                    self.assertNotEqual(wl.build(3, NULL), wl.build(4, NULL))


class CheckersFlagWrongOutputs(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(run.OUT / "selftest-work", ignore_errors=True)

    def first_output(self, wl, items, index=0):
        _, out, error = run.run_one(run.Ledger(wl, items), index, NULL)
        self.assertIsNone(error)
        self.assertEqual(wl.check(index, items[index], out), [])
        return out

    def test_decide_flipped_verdict(self):
        wl = make("decide")
        items = wl.build(3, NULL)
        closed, ab = self.first_output(wl, items)
        sub, bi = ab[2]  # (in, invq)
        flipped = (PredicateVerdict(True) if not sub.holds
                   else PredicateVerdict(False, Witness(0, 0, 0, t=Fraction(1), r=Fraction(1))))
        wrong = (closed, (ab[0], ab[1], (flipped, bi)) + ab[3:])
        self.assertTrue(wl.check(0, items[0], wrong))

    def test_verify_disagreeing_report(self):
        wl = make("verify")
        items = wl.build(3, NULL)
        samples, reg, intra, per_mu, homs = self.first_output(wl, items)
        bad = TheoremReport("thm4.28", (True, False), False, ((1,), "tampered"))
        self.assertTrue(wl.check(0, items[0], (samples, bad, intra, per_mu, homs)))

    def test_hunt_short_scan(self):
        wl = make("hunt")
        items = wl.build(3, NULL)
        index = next(i for i, (hunt, _) in enumerate(items) if hunt == workloads.UNARY_HUNT)
        out = self.first_output(wl, items, index)
        wrong = replace(out, subsets_scanned=out.subsets_scanned - 1)
        self.assertTrue(wl.check(index, items[index], wrong))

    def test_cli_wrong_holds_line(self):
        wl = make("cli")
        items = wl.build(3, NULL)
        index = next(i for i, item in enumerate(items) if item[0] == "check")
        code, stdout = self.first_output(wl, items, index)
        opposite = {"holds: true": "holds: false", "holds: false": "holds: true"}
        lines = [opposite.get(line, line) for line in stdout.splitlines()]
        self.assertTrue(wl.check(index, items[index], (code, "\n".join(lines) + "\n")))

    def test_ledger_flags_a_changed_repeat(self):
        wl = make("hunt")
        items = wl.build(3, NULL)[:1]
        ledger = run.Ledger(wl, items)
        _, out, _ = run.run_one(ledger, 0, NULL)
        ledger.settle(0, out, None)
        ledger.settle(0, replace(out, subsets_scanned=0), None)
        self.assertEqual(ledger.failed, 1)


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = Tracer()
        tr.call("outer", lambda: tr.call("inner", sum, range(10000)))
        table = tr.layer_table(0)
        outer_total = tr.spans[0][2] - tr.spans[0][1]
        self.assertEqual(table["outer"][1] + table["inner"][1], outer_total)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
