"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Covers the self-time arithmetic, the percentile and sample-count rule, the
failure counting, the tracer's wrappers (including the error on a missing
target) and one tiny round of each workload with every output checked.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sweep": dict(antennas=2, subcarriers=8, realizations=2),
    "files": dict(antennas=2, subcarriers=8, p1_k=10, asc_k=8),
    "fair": dict(groups=2, channels=4),
}
# Layers each workload must show nonzero calls on.
STRESSED = {
    "sweep": ("scenario", "core", "box", "cli"),
    "files": ("core", "box", "nested", "oracle", "io", "cli"),
    "fair": ("core", "fair", "oracle"),
}


class SpanArithmetic(unittest.TestCase):
    def test_self_and_busy_time(self):
        spans = [
            ("cli.solve", 0.0, 10.0, -1),
            ("io.load_instance", 1.0, 3.0, 0),
            ("io.instance_from_dict", 1.5, 2.5, 1),   # nested in its own layer
            ("box.set_a", 4.0, 9.0, 0),
            ("core.solve_p1_lower", 5.0, 6.0, 3),
            ("core.solve_p1_lower", 7.0, 8.5, 3),
        ]
        calls, busy, self_time = tracing.span_times(spans)
        self.assertEqual(calls["io"], 2)
        self.assertEqual(calls["core"], 2)
        self.assertEqual(calls["core.solve_p1_lower"], 2)
        self.assertAlmostEqual(busy["cli"], 10.0)
        self.assertAlmostEqual(self_time["cli"], 10.0 - 2.0 - 5.0)
        self.assertAlmostEqual(busy["io"], 2.0)          # the inner span is not added twice
        self.assertAlmostEqual(self_time["io"], 2.0)     # (2 - 1) + 1
        self.assertAlmostEqual(busy["box"], 5.0)
        self.assertAlmostEqual(self_time["box"], 5.0 - 2.5)
        self.assertAlmostEqual(busy["core"], 2.5)
        self.assertAlmostEqual(busy["box.set_a"], 5.0)

    def test_recursion_counts_once(self):
        spans = [("box.order", 0.0, 4.0, -1), ("box.order", 1.0, 2.0, 0)]
        calls, busy, self_time = tracing.span_times(spans)
        self.assertEqual(calls["box"], 2)
        self.assertAlmostEqual(busy["box"], 4.0)
        self.assertAlmostEqual(busy["box.order"], 4.0)
        self.assertAlmostEqual(self_time["box"], 4.0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        data = list(range(1, 101))
        self.assertEqual(stats.percentile(data, 0.5), 50)
        self.assertEqual(stats.percentile(data, 0.9), 90)
        self.assertEqual(stats.percentile([3.0], 0.9), 3.0)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 0.5), 2)

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(100, 0.9), 10)   # p90 resolved at n >= 100
        self.assertEqual(stats.beyond(99, 0.9), 9)
        self.assertEqual(stats.beyond(8, 0.9), 0)
        self.assertEqual(stats.beyond(3, 0.5), 1)

    def test_empty_sample_rejected(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


class _Fake:
    """Ops whose outcome is set by their kind."""

    def run(self, op):
        if op.kind == "raises":
            raise ZeroDivisionError("boom")
        return op.kind

    def check(self, op, output):
        if output == "check_raises":
            raise KeyError("missing")
        return {"ok": None, "bad": "check_failed", "off": "disagree"}[output]


class FailureCounting(unittest.TestCase):
    def test_causes(self):
        tally = stats.Tally()
        runner = child.Runner(_Fake(), tally)
        with open(os.devnull, "w") as sink:
            stderr, sys.stderr = sys.stderr, sink
            try:
                for kind in ("ok", "ok", "bad", "off", "raises", "raises", "check_raises"):
                    runner.execute(workloads.Op(kind, 1))
            finally:
                sys.stderr = stderr
        self.assertEqual(tally.attempted, 7)
        self.assertEqual(tally.failed, 5)
        self.assertEqual(dict(tally.causes), {"check_failed": 1, "disagree": 1,
                                              "ZeroDivisionError": 2, "KeyError": 1})
        self.assertAlmostEqual(tally.failed_ratio, 5 / 7)

    def test_timed_rounds_are_whole_and_scaled(self):
        class Rounds(_Fake):
            def ops(self, r):
                return [workloads.Op("ok", 2), workloads.Op("bad", 2)]

            def done(self, r):
                pass

        tally = stats.Tally()
        probe = child.SpeedProbe()          # sampled around each op, no timer
        runner = child.Runner(Rounds(), tally, probe)
        out = child.timed_rounds(runner, Rounds().ops(0), seconds=0.0)
        self.assertEqual(out["rounds"], child.MIN_ROUNDS)
        self.assertEqual(len(out["samples_ms"]), 2 * child.MIN_ROUNDS)
        self.assertEqual(out["solves"], 2 * child.MIN_ROUNDS)   # failed ops add none
        self.assertEqual(len(probe.samples), 2 * len(out["samples_ms"]))
        for i, (scaled, raw) in enumerate(zip(out["samples_ms"], out["raw_ms"])):
            around = probe.samples[2 * i:2 * i + 2]
            self.assertAlmostEqual(scaled, raw * child.PROBE_REF_S / (sum(around) / 2))

    def test_merge(self):
        tally = stats.Tally()
        tally.merge(3, {"disagree": 1})
        tally.merge(2, {"disagree": 1, "check_failed": 1})
        self.assertEqual(tally.to_dict(), {"attempted": 5, "failed": 3, "causes": {
            "check_failed": 1, "disagree": 2}})


class Tracer(unittest.TestCase):
    def test_missing_target_is_an_error(self):
        import waterline.core
        import waterline.scenario
        saved = waterline.core.solve_water_level
        gains = waterline.scenario.channel_gains
        del waterline.core.solve_water_level
        try:
            with self.assertRaises(tracing.MissingTarget):
                tracing.install(tracing.Recorder())
        finally:
            waterline.core.solve_water_level = saved
        # The layers wrapped before the gap was found are unwrapped again.
        self.assertIs(waterline.scenario.channel_gains, gains)

    def test_install_and_restore(self):
        import waterline.box
        import waterline.cli
        import waterline.objectives
        before = (waterline.cli.solve_box, waterline.box.solve_p1_lower,
                  waterline.objectives.SumLog.demand)
        rec = tracing.Recorder()
        inst = tracing.install(rec)
        try:
            for name in ("waterline.cli.solve_box", "waterline.box.solve_p1_lower",
                         "waterline.scenario.channel_gains", "waterline.cli.main.main",
                         "waterline.objectives.InverseMse.demand"):
                self.assertIn(name, rec.bindings)
            self.assertIsNot(waterline.cli.solve_box, before[0])
        finally:
            inst.restore()
        self.assertEqual((waterline.cli.solve_box, waterline.box.solve_p1_lower,
                          waterline.objectives.SumLog.demand), before)
        self.assertNotIn("main", vars(waterline.cli.main))

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class TinyWorkloads(unittest.TestCase):
    def _traced_round(self, name: str, seed: int):
        with tempfile.TemporaryDirectory() as tmp:
            tally = stats.Tally()
            wl = workloads.WORKLOADS[name](seed, tmp, TINY[name])
            rec = tracing.Recorder()
            inst = tracing.install(rec)
            runner = child.Runner(wl, tally)
            runner.rec = rec
            try:
                child.fixed_pass(runner, 1)
            finally:
                inst.restore()
        return tally, tracing.layer_metrics(rec)

    def test_each_workload(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                tally, metrics = self._traced_round(name, 3)
                self.assertGreater(tally.attempted, 0)
                self.assertEqual(tally.failed, 0, dict(tally.causes))
                for layer in STRESSED[name]:
                    self.assertGreater(metrics[f"{layer}.calls"], 0, layer)
                self.assertGreater(metrics["objectives.demand.calls"], 0)
                _, again = self._traced_round(name, 3)
                counts = [k for k in metrics
                          if k.endswith(".calls") or k in tracing.COUNT_KEYS]
                self.assertEqual({k: metrics[k] for k in counts},
                                 {k: again[k] for k in counts})

    def test_inputs_follow_the_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = workloads.Fair(5, tmp, TINY["fair"]).ops(0)
            b = workloads.Fair(5, tmp, TINY["fair"]).ops(0)
            c = workloads.Fair(6, tmp, TINY["fair"]).ops(0)
        gains = [[[o.a for o in g] for g in op.args["problem"].groups] for op in a]
        self.assertEqual(gains, [[[o.a for o in g] for g in op.args["problem"].groups]
                                 for op in b])
        self.assertNotEqual(gains, [[[o.a for o in g] for g in op.args["problem"].groups]
                                    for op in c])

    def test_disagreement_is_caught(self):
        import waterline
        problem = waterline.BoxProblem([waterline.LogCapacity(1, 1, 1)] * 2, 2.0)
        reference = waterline.solve_box(problem)
        self.assertIsNone(workloads.agree(problem, list(reference.powers), reference))
        self.assertEqual(workloads.agree(problem, [1.1, 0.9], reference), "disagree")


if __name__ == "__main__":
    unittest.main()
