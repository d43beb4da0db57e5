#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Builds the pass program like run.py does and checks the benchmark itself:
a corrupted expected digest fails ops; a pass that stops repeating the first
one fails ops; an untraced run reports every end-to-end metric, none of them
0; spans nest and self times are never negative; a traced run reports every
per-layer metric, 0 only for the error rate and for layers the workload does
not run; two traced runs report identical exact counts; and without the library sources the command
exits non-zero without printing a result. Scratch files go to .bench_out/.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest

import run

WORKLOAD = "paper-mp"  # the quickest pass that exercises msg, sim and route
SCRATCH = run.OUT / "selftest"


def bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    """Runs the benchmark command; returns (exit code, last stdout line)."""
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


class DigestTests(unittest.TestCase):
    def test_untraced_run_reports_the_end_to_end_metrics(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        code, last = bench("--workload", WORKLOAD, "--seed", "0", "--seconds", "1",
                           "--trace", "0")
        self.assertEqual(code, 0)
        result = json.loads(last)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_corrupted_digest_fails_ops(self):
        digests = run.load_digests(run.DIGESTS)[WORKLOAD]
        rec = run.run_pass(WORKLOAD, 0, run.resolve_circuit_seeds(WORKLOAD, 0), 0, False,
                           SCRATCH)
        self.assertEqual(run.check_ops([rec], digests)[1], 0)
        self.assertEqual(run.digest(rec), digests)
        corrupted = copy.deepcopy(digests)
        key = next(k for k in sorted(corrupted) if k.startswith("msg.run:"))
        corrupted[key]["msg.bytes"] += 1
        attempted, failed, reasons = run.check_ops([rec], corrupted)
        self.assertGreater(failed / attempted, 0)
        self.assertEqual(reasons, [f"pass 0 op {key}: digest mismatch on msg.bytes"])

    def test_later_pass_must_repeat_first(self):
        rec = {"ops": [{"op": "a", "layer": "msg.run", "error": "", "out": {"x": 1}}]}
        changed = copy.deepcopy(rec)
        changed["ops"][0]["out"]["x"] = 2
        attempted, failed, _ = run.check_ops([rec, rec], None)
        self.assertEqual((attempted, failed), (2, 0))
        attempted, failed, _ = run.check_ops([rec, changed, None], None)
        self.assertEqual((attempted, failed), (3, 2))
        attempted, failed, _ = run.check_ops([None, None], None)
        self.assertEqual((attempted, failed), (2, 2))


class SpanTests(unittest.TestCase):
    def test_spans_nest_and_self_times_are_non_negative(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        rec = run.run_pass(WORKLOAD, 0, run.resolve_circuit_seeds(WORKLOAD, 0), 1, True,
                           SCRATCH)
        self.assertIsNotNone(rec)
        spans = rec["spans"]
        self.assertTrue(spans)
        for s in spans:
            self.assertLessEqual(s["start_ns"], s["end_ns"])
            if s["parent"] >= 0:
                p = spans[s["parent"]]
                self.assertLessEqual(p["start_ns"], s["start_ns"])
                self.assertLessEqual(s["end_ns"], p["end_ns"])
        selfs = run.self_times(spans)
        self.assertTrue(all(t >= 0 for t in selfs))
        # The layer spans cover the pass except the benchmark's own work.
        root = next(i for i, s in enumerate(spans) if s["name"] == "pass" and s["parent"] < 0)
        pass_s = (spans[root]["end_ns"] - spans[root]["start_ns"]) / 1e9
        self.assertLess(selfs[root], 0.05 * pass_s)
        chrome = json.loads((SCRATCH / "pass1.trace.json").read_text())
        self.assertEqual(sum(e["ph"] == "X" for e in chrome["traceEvents"]), len(spans))

    def test_traced_runs_repeat_exact_counts(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
        exact_units = {"count", "B", "ns"}
        results = []
        for _ in range(2):
            code, last = bench("--workload", WORKLOAD, "--seed", "0", "--seconds", "1",
                               "--trace", "1")
            self.assertEqual(code, 0)
            result = json.loads(last)
            self.assertTrue(result["correct"])
            self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in declared})
            values = {k: m["value"] for k, m in result["metrics"].items()}
            # Per-layer metrics have no bound, so 0 is a valid reading: the
            # error rate of a correct run, and every metric of a layer the
            # workload does not run. The layers it runs must read non-zero.
            self.assertEqual(values["error_rate"], 0)
            for name, value in values.items():
                if name.startswith(("shm.", "coherence.")):
                    self.assertEqual(value, 0, name)
            for name in ("circuit.gen_s", "assign.make_s", "msg.run_s", "msg.run_p50_ms",
                         "msg.bytes", "sim.events", "sim.completion_ns", "route.probes",
                         "grid.view_resident_mb", "check.legality_s"):
                self.assertGreater(values[name], 0, name)
            results.append({k: m["value"] for k, m in result["metrics"].items()
                            if m["unit"] in exact_units})
        self.assertTrue(results[0])
        self.assertEqual(results[0], results[1])


class ContractTests(unittest.TestCase):
    def test_fails_without_library_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, last = bench("--workload", WORKLOAD, "--seed", "0", "--seconds", "1",
                           "--trace", "0", cwd=bare,
                           script=bare / run.HERE.name / "run.py")
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(last.startswith("{"))


if __name__ == "__main__":
    if not run.build():
        sys.exit("selftest: build failed")
    unittest.main(verbosity=2)
