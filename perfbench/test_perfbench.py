#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py            # all, incl. smoke runs
    python3 perfbench/test_perfbench.py Checks     # the fast unit tests

The smoke tests build perfbench_sim (if needed) and run every workload,
untraced and traced, with the timed phases cut to 5%.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

BENCH = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
SPECS = run.load_json(os.path.join(HERE, "workloads.json"))
PROGRAM = {"nodes": 16, "cpu_measure": 1000}


def pools(event_live=0, msg_live=0):
    return {"event_acquires": 5000, "event_live": event_live,
            "event_slabs": 8, "msg_acquires": 4000, "msg_live": msg_live,
            "msg_refs_shared": 900, "msg_slabs": 1}


def result(config, runtime, traffic, shards=1, **stats):
    """A plausible passing simulation; keyword args override stats."""
    s = {"runtime_ticks": runtime, "instructions": 16 * 1000,
         "misses": 1000, "indirections": 10, "retries": 12,
         "double_retries": 1, "upgrades": 5, "cache_to_cache": 300,
         "request_messages": 3000, "writebacks": 2,
         "traffic_bytes": traffic, "events": 9000,
         "barrier_crossings": 90, "windows": 100, "wall_seconds": 0.5,
         "avg_miss_latency_ns": 150.25, "stopped_early": False,
         "cache_accesses": 20000, "l0_hits": 4000, "l0_absorbed": 3500,
         "word_touches": 180000, "calendar_ops": 1200}
    s.update(stats)
    return {"type": "config", "config": config, "shards": shards,
            "oracle": False, "workload_s": 0.01, "ctor_s": 0.05,
            "run_s": 1.0, "dtor_s": 0.01, "stats": s,
            "pools_before": pools(), "pools_after_run": pools(),
            "pools_after": pools(), "error": None}


def good_rep():
    return {"snooping": result("snooping", 1000, 170000),
            "directory": result("directory", 1500, 60000),
            "owner-group": result("owner-group", 1100, 75000)}


def replay_line():
    calls = {c: {"calls": 100, "ns": 5000.0}
             for c in ("next", "access", "fill", "invalidate", "downgrade",
                       "apply", "evict", "predict", "train")}
    return {"type": "replay", "refs": 5000, "misses": 1000,
            "sampled_refs": 80, "replay_s": 0.2, "calls": calls}


class Checks(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = []
        for kind in ("end_to_end", "per_layer"):
            for m in BENCH[kind]:
                names.append(m["name"])
                self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
                self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
                self.assertIn(m["better"], ("higher", "lower"))
        for w in BENCH["workloads"]:
            names.append(w["name"])
            self.assertIn(w["name"], SPECS["workloads"])
        self.assertEqual(len(names), len(set(names)))
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in BENCH["end_to_end"])},
                      BENCH["end_to_end"])

    def test_metrics_match_benchmark_json(self):
        e2e = checks.end_to_end([good_rep()], [160000], 3, 0)
        self.assertEqual(set(e2e), {m["name"] for m in BENCH["end_to_end"]})
        self.assertTrue(all(v > 0 for v in e2e.values()))
        rep = good_rep()
        alt = result("owner-group", 1100, 75000, shards=4)
        layer = checks.per_layer(rep, good_rep(), {"event_slabs": 8,
                                                   "msg_slabs": 1},
                                 rep["owner-group"], alt,
                                 rep["owner-group"], replay_line())
        self.assertEqual(set(layer), {m["name"] for m in BENCH["per_layer"]})

    def test_passing_results_pass(self):
        rep = good_rep()
        for r in rep.values():
            self.assertEqual(checks.simulation_failures(r, PROGRAM), [])
        self.assertEqual(checks.ordering_failures(rep), [])
        self.assertEqual(checks.determinism_failures(
            rep["owner-group"], copy.deepcopy(rep["owner-group"]), "x"), [])

    def test_live_pools_fail(self):
        r = result("owner-group", 1100, 75000)
        r["pools_after"] = pools(event_live=3)
        self.assertTrue(checks.simulation_failures(r, PROGRAM))
        r["pools_after"] = pools(msg_live=1)
        self.assertTrue(checks.simulation_failures(r, PROGRAM))

    def test_short_instruction_count_fails(self):
        r = result("owner-group", 1100, 75000, instructions=16 * 999)
        self.assertTrue(checks.simulation_failures(r, PROGRAM))
        r = result("owner-group", 1100, 75000, stopped_early=True)
        self.assertTrue(checks.simulation_failures(r, PROGRAM))

    def test_abort_and_crash_fail(self):
        r = result("owner-group", 1100, 75000)
        r["error"] = "panic: assertion failed"
        self.assertTrue(checks.simulation_failures(r, PROGRAM))
        self.assertTrue(checks.simulation_failures(None, PROGRAM))

    def test_inverted_orderings_fail(self):
        rep = good_rep()
        rep["owner-group"]["stats"]["runtime_ticks"] = 900  # beats snooping
        self.assertTrue(checks.ordering_failures(rep))
        rep = good_rep()
        rep["owner-group"]["stats"]["runtime_ticks"] = 1600  # above directory
        self.assertTrue(checks.ordering_failures(rep))
        rep = good_rep()
        rep["owner-group"]["stats"]["traffic_bytes"] = 180000  # above snooping
        self.assertTrue(checks.ordering_failures(rep))

    def test_shard_mismatch_fails(self):
        a = result("owner-group", 1100, 75000)
        for field, value in (("misses", 1001), ("events", 9001),
                             ("avg_miss_latency_ns", 150.26)):
            b = result("owner-group", 1100, 75000, shards=4, **{field: value})
            self.assertTrue(checks.determinism_failures(a, b, "1 vs 4"))
        # Partition-dependent counters may differ.
        b = result("owner-group", 1100, 75000, shards=4, calendar_ops=7,
                   barrier_crossings=5, windows=6, wall_seconds=0.2)
        self.assertEqual(checks.determinism_failures(a, b, "1 vs 4"), [])

    def test_tally_fails_every_sim_of_a_bad_rep(self):
        tally = run.Tally()
        rep = good_rep()
        rep["directory"] = None
        self.assertFalse(tally.sims(rep, PROGRAM))
        self.assertEqual((tally.attempted, tally.failed), (3, 1))
        self.assertFalse(tally.sims(good_rep(), PROGRAM, ["ordering"]))
        self.assertEqual((tally.attempted, tally.failed), (6, 4))


class Smoke(unittest.TestCase):
    """Every workload end to end, untraced and traced, at 5% length."""

    def bench(self, workload, trace, extra=()):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "0", "--trace",
             str(trace), "--length", "0.05"] + list(extra),
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(out), ["attempted", "correct", "failed",
                                       "metrics"], proc.stdout)
        self.assertTrue(out["correct"], proc.stdout)
        self.assertEqual(out["failed"], 0)
        return out["metrics"]

    def test_workloads(self):
        trace_dir = os.path.join(run.build_dir(), "trace")
        for w in SPECS["workloads"]:
            with self.subTest(workload=w):
                metrics = self.bench(w, 0)
                self.assertEqual(set(metrics),
                                 {m["name"] for m in BENCH["end_to_end"]})
                path = os.path.join(trace_dir, "smoke-%s.json" % w)
                metrics = self.bench(w, 1, ["--trace-out", path])
                self.assertEqual(set(metrics),
                                 {m["name"] for m in BENCH["per_layer"]})
                events = run.load_json(path)["traceEvents"]
                self.assertTrue(any(e["name"] == "System::run"
                                    for e in events))
                self.assertTrue(any(e["name"] == "Workload::next"
                                    for e in events))


if __name__ == "__main__":
    unittest.main()
