"""Smoke tests: every workload at toy sizes, untraced and traced.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each case runs ``run.py --smoke`` in a child process from the checkout
root and checks the result line against BENCHMARK.json: every end-to-end
metric in an untraced run, every per-layer metric in a traced one, with
the declared units, and no failed request.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def run_smoke(self, workload: str, trace: int, seed: int = 5) -> dict:
        proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return result_line(proc)

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = self.run_smoke(workload, 0)
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                self.assertEqual(got, expected)
                self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))

    def test_traced_runs_emit_every_per_layer_metric(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = self.run_smoke(workload, 1)
                self.assertTrue(out["correct"])
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                self.assertEqual(got, expected)
                self.assertEqual(out["metrics"]["fail_ratio"]["value"], 0)

    def test_layers_are_reached_on_their_workloads(self):
        search = self.run_smoke("split-search", 1)["metrics"]
        self.assertGreater(search["flows.circulation.detachment.calls"]["value"], 0)
        self.assertGreater(search["detachment.component_checks"]["value"], 0)
        self.assertEqual(search["cli.requests"]["value"], 0)
        grid = self.run_smoke("grid-and-verify", 1)["metrics"]
        self.assertGreater(grid["cli.requests"]["value"], 0)
        self.assertGreater(grid["coloring.even.calls"]["value"], 0)
        self.assertGreater(grid["constructions.walecki.calls"]["value"], 0)
        self.assertGreater(grid["detachment.verify.calls"]["value"], 0)
        self.assertGreater(grid["certify.edges"]["value"], 0)

    def test_changed_output_hash_fails_the_run(self):
        self.run_smoke("split-search", 0, seed=99)
        record_path = ROOT / ".bench_out" / "determinism" / "split-search-seed99-smoke.json"
        record = json.loads(record_path.read_text())
        rid = sorted(record["hashes"])[0]
        record["hashes"][rid] = "0" * 64
        record_path.write_text(json.dumps(record))
        try:
            proc = bench("--workload", "split-search", "--seed", "99", "--seconds", "0.5",
                         "--trace", "0", "--smoke")
            self.assertEqual(proc.returncode, 1)
            self.assertFalse(result_line(proc)["correct"])
            self.assertIn(rid, proc.stderr)
        finally:
            record_path.unlink()

    def test_runs_in_a_fresh_checkout(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                shutil.copy(ROOT / "BENCHMARK.json", tmp)
                for part in ("src", HERE.name):
                    shutil.copytree(ROOT / part, Path(tmp) / part,
                                    ignore=shutil.ignore_patterns("__pycache__"))
                proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.5",
                             "--trace", "0", "--smoke",
                             cwd=tmp, script=Path(tmp) / HERE.name / "run.py")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result_line(proc)["correct"])

    def test_fails_without_the_program_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp, script=Path(tmp) / HERE.name / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
