#!/usr/bin/env python3
"""Tests for the benchmark's own pieces (no build needed).

    python3 perfbench/test_run.py
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402


def raw_doc(fingerprints, checks_ok=True):
    """A seed-7 driver document with one iteration per fingerprint."""
    return {
        "seed": 7,
        "iterations": [
            {"setup_s": 0.5, "run_s": 2.0, "setup_cpu_s": 0.25,
             "run_cpu_s": 1.0, "ops": 100, "failed": 3,
             "fingerprint": fp,
             "checks": [{"name": "accounting", "ok": checks_ok,
                         "detail": ""}]}
            for fp in fingerprints],
        "setup_only_s": [0.4, 0.6],
        "setup_only_cpu_s": [0.2, 0.3],
        "peak_rss_mb": 12.5,
        "checks": [],
    }


def traced_doc():
    """A traced driver document with spans under run and both probes."""
    spans = [
        ["run", 0.0, 10.0, -1],
        ["topo.build", 0.0, 1.0, 0],
        ["fault.advance", 1.0, 3.0, 0],
        ["traffic.step", 3.0, 9.0, 0],
        ["probe.routing", 10.0, 12.0, -1],
        ["routing.full", 10.0, 10.2, 4],
        ["routing.full", 10.2, 10.4, 4],
        ["routing.full.t1", 10.4, 10.8, 4],
        ["routing.delta_apply", 10.8, 10.9, 4],
        ["routing.delta_rollback", 10.9, 11.0, 4],
        ["routing.state_copy", 11.0, 11.1, 4],
        ["probe.serve", 12.0, 13.0, -1],
        ["serve.execute.route", 12.0, 12.1, 11],
        ["serve.execute.what_if", 12.1, 12.6, 11],
        ["serve.execute.loss", 12.6, 12.7, 11],
        ["serve.seal", 12.7, 12.8, 11],
    ]
    doc = raw_doc(["0x1"])
    doc.update({
        "env": {"threads": 4},
        "shape": {"ops": 100},
        "spans": spans,
        "traced_wall_s": 10.0,
        "untraced_wall_s": 9.5,
        "counters": {"counters": {"sim.events_dispatched": 400,
                                  "flow.attempted": 600,
                                  "serve.requests": 120}},
        "proc": {"wall_s": 9.5, "user_s": 20.0, "sys_s": 1.0,
                 "minor_faults": 1234},
        "serve_report": {"cache_hits": 1, "cache_misses": 3,
                         "retransmits": 5},
        "survive_report": {"samples": 10, "sum_steps": 40, "full_rows": 20,
                           "patched_switches": 70, "audits": 1,
                           "rollback_rebuilds": 0},
    })
    return doc


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.percentile(values, 0.5), 3.0)
        self.assertEqual(run.percentile(values, 0.0), 1.0)
        self.assertEqual(run.percentile(values, 1.0), 5.0)
        self.assertAlmostEqual(run.percentile(values, 0.99), 4.96)
        self.assertAlmostEqual(run.percentile([1.0, 2.0], 0.25), 1.25)

    def test_single_and_empty(self):
        self.assertEqual(run.percentile([7.0], 0.99), 7.0)
        self.assertIsNone(run.percentile([], 0.5))


class SelfTimeTest(unittest.TestCase):
    def test_children_subtract_from_parent(self):
        spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0),
                 ("c", 5.0, 6.0, 0), ("d", 1.5, 2.0, 1)]
        self.assertEqual(run.self_times(spans), [7.0, 1.5, 1.0, 0.5])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [("a", 0.0, 4.0, -1), ("b", 1.0, 3.0, 0),
                 ("c", 2.0, 5.0, 0)]
        # b and c overlap on [2, 3]; c overhangs the parent after 4.
        self.assertEqual(run.self_times(spans)[0], 1.0)

    def test_descendants_follow_the_tree(self):
        spans = [("r", 0, 1, -1), ("x", 0, 1, 0), ("y", 0, 1, 1),
                 ("q", 1, 2, -1), ("z", 1, 2, 3)]
        self.assertEqual(run.descendants(spans, 0), [1, 2])
        self.assertEqual(run.descendants(spans, 3), [4])


class GateTest(unittest.TestCase):
    def test_passes_on_recorded_fingerprint(self):
        lines, failed = run.gate(raw_doc(["0xaa", "0xaa"]), {"7": "0xaa"})
        self.assertTrue(all(ok for _, _, ok, _ in lines))
        self.assertEqual(failed, 0)

    def test_trips_on_wrong_recorded_fingerprint(self):
        lines, failed = run.gate(raw_doc(["0xaa", "0xaa"]),
                                 {"7": "0xdeadbeef"})
        bad = [name for _, name, ok, _ in lines if not ok]
        self.assertEqual(bad, ["iteration 0: fingerprint == recorded",
                               "iteration 1: fingerprint == recorded"])
        self.assertEqual(failed, 200)

    def test_other_seeds_records_do_not_apply(self):
        lines, failed = run.gate(raw_doc(["0xaa"]), {"8": "0xdeadbeef"})
        self.assertTrue(all(ok for _, _, ok, _ in lines))
        self.assertEqual(failed, 0)

    def test_trips_on_unrepeatable_fingerprint(self):
        lines, failed = run.gate(raw_doc(["0xaa", "0xab"]), {})
        bad = [name for _, name, ok, _ in lines if not ok]
        self.assertEqual(bad, ["iteration 1: fingerprint == first "
                               "iteration's"])
        self.assertEqual(failed, 100)

    def test_trips_on_failed_output_check(self):
        lines, failed = run.gate(raw_doc(["0xaa"], checks_ok=False), {})
        self.assertFalse(all(ok for _, _, ok, _ in lines))
        self.assertEqual(failed, 100)

    def test_run_level_check_fails_every_operation(self):
        doc = raw_doc(["0xaa", "0xaa"])
        doc["checks"] = [{"name": "replay", "ok": False, "detail": ""}]
        _, failed = run.gate(doc, {})
        self.assertEqual(failed, 200)

    def test_traced_run_needs_span_coverage(self):
        doc = traced_doc()  # spans cover 9 of the run's 10 s
        lines, failed = run.gate(doc, {})
        self.assertTrue(all(ok for _, _, ok, _ in lines))
        doc["spans"][3][2] = 8.0  # traffic.step ends early: 0.8 covered
        lines, failed = run.gate(doc, {})
        bad = [name for _, name, ok, _ in lines if not ok]
        self.assertEqual(bad, ["trace.coverage >= 0.9"])
        self.assertEqual(failed, 100)


class MetricTagTest(unittest.TestCase):
    def assert_tagged(self, metrics, catalogue):
        for name, m in metrics.items():
            self.assertIn(name, catalogue)
            self.assertEqual(set(m), {"value", "unit", "tag"}, name)
            self.assertTrue(m["unit"], name)
            self.assertIn(m["tag"], ("host", "sim"), name)

    def test_catalogue_entries_have_unit_and_tag(self):
        for catalogue in (run.E2E, run.PER_LAYER):
            for name, (unit, tag, what) in catalogue.items():
                self.assertTrue(name and unit and what, name)
                self.assertIn(tag, ("host", "sim"), name)

    def test_emitted_end_to_end_metrics_are_tagged(self):
        doc = raw_doc(["0x1", "0x1", "0x1"])
        doc["iterations"][2]["run_s"] = 4.0  # one slow iteration
        doc["iterations"][2]["run_cpu_s"] = 0.5
        metrics = run.e2e_metrics(doc)
        self.assert_tagged(metrics, run.E2E)
        self.assertEqual(set(metrics), set(run.E2E) - {"check_failures"})
        # The gated figures are CPU times; the wall-time ones are reported.
        self.assertEqual(metrics["setup_s"]["value"], 0.25)
        self.assertEqual(metrics["ops_per_cpu_s"]["value"], 100.0)
        self.assertEqual(metrics["setup_wall_s"]["value"], 0.5)
        self.assertEqual(metrics["ops_per_s"]["value"], 50.0)
        self.assertEqual(metrics["failed_share"]["value"], 0.03)

    def test_emitted_per_layer_metrics_are_tagged(self):
        metrics = run.layer_metrics(traced_doc())
        self.assert_tagged(metrics, run.PER_LAYER)
        for name in run.PER_LAYER_GATED:
            self.assertIn(name, metrics)
        self.assertAlmostEqual(metrics["trace.coverage"]["value"], 0.9)
        self.assertAlmostEqual(metrics["self_ms.traffic"]["value"], 6000.0)
        self.assertAlmostEqual(metrics["routing.full_speedup"]["value"], 2.0)
        self.assertAlmostEqual(metrics["sim.us_per_event"]["value"], 5000.0)
        # A survivability document's routing rows come from its
        # accumulators; the counters the obs registry missed are absent.
        self.assertEqual(metrics["routing.rows_full_recompute"]["value"], 20)
        self.assertEqual(metrics["routing.rows_patched"]["value"], 70)
        self.assertNotIn("routing.full_recomputes", metrics)
        self.assertEqual(run.largest_self(traced_doc(), "run"),
                         "traffic.step")
        self.assertEqual(run.largest_self(traced_doc(), "probe.serve"),
                         "serve.execute.what_if")

    def test_benchmark_json_matches_the_catalogue(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, {n: run.E2E[n][0] for n in run.E2E_GATED})
        self.assertEqual(layer,
                         {n: run.PER_LAYER[n][0] for n in run.PER_LAYER_GATED})
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


class CompareTest(unittest.TestCase):
    def test_refuses_different_environments_but_not_revisions(self):
        base = {"threads": 4, "compiler": "gcc 12", "revision": "a",
                "source_digest": "x"}
        self.assertEqual(compare.env_differences(
            base, dict(base, revision="b", source_digest="y")), [])
        self.assertEqual(compare.env_differences(base, dict(base, threads=1)),
                         ["threads"])


if __name__ == "__main__":
    unittest.main()
