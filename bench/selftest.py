"""Self-tests of the benchmark itself (not of ``wrsp``).

    python3 bench/selftest.py          # about four minutes on 2 cores

- a corrupted copy of an output is counted as a failed operation;
- two traced runs with the same seed give identical engine, subgroup and
  identity-check call counts;
- another seed changes the density-k4 targets and nothing in the other
  two workloads.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile
import time
import unittest

import run
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

EXACT_COUNTS = ("engine.", "subgroup.", "series.identity_checks.calls")


def _work_dir() -> str:
    base = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def traced_counts(workload: str, seed: int) -> dict:
    work = _work_dir()
    try:
        out = run.run_child(["--workload", workload, "--seed", str(seed), "--work", work,
                             "--trace"], time.monotonic() + run.RUN_BUDGET_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out["failures"]:
        raise AssertionError(f"{workload} failed: {out['failures']}")
    return {name: value for name, value in out["layers"].items()
            if name.endswith(".calls") and name.startswith(EXACT_COUNTS)}


class CorruptedOutputs(unittest.TestCase):
    """Each check rejects a corrupted copy of an output that passes."""

    @classmethod
    def setUpClass(cls):
        cls.goldens = workloads.load_goldens()
        cls.work = _work_dir()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_cli_output_file(self):
        results = workloads.run_cli_k123(1, self.work)
        self.assertEqual(workloads.check_cli_k123(results, self.goldens), {})
        bad = os.path.join(self.work, "corrupt")
        os.mkdir(bad)
        corrupted = copy.deepcopy(results)
        for name, flip in (("series-k2-gamma", ('"log_order": 16', '"log_order": 15')),
                           ("export-presentation-k3", ("\n", "\n\n")),
                           ("density-k3-m-Z", ('"num": 36', '"num": 35'))):
            src = results[name]["path"]
            with open(src, encoding="ascii") as fh:
                text = fh.read()
            self.assertIn(flip[0], text)
            dst = os.path.join(bad, os.path.basename(src))
            with open(dst, "w", encoding="ascii") as fh:
                fh.write(text.replace(flip[0], flip[1], 1))
            corrupted[name]["path"] = dst
        corrupted["oracle"]["code"] = 1
        failures = workloads.check_cli_k123(corrupted, self.goldens)
        self.assertEqual(sorted(failures), ["density-k3-m-Z", "export-presentation-k3",
                                            "oracle", "series-k2-gamma"])

    def test_claim_not_passed(self):
        ids = ["lemma-exp2-i", "prop-order"]
        results = workloads.run_claims_k4(1, self.work, claim_ids=ids)
        goldens = {"claims-k4": ids}
        self.assertEqual(workloads.check_claims_k4(results, goldens), {})
        results["lemma-exp2-i"]["passed"] = False
        del results["prop-order"]
        self.assertEqual(sorted(workloads.check_claims_k4(results, goldens)), ids)

    def test_density_outputs(self):
        results = workloads.run_density_k4(1, self.work)
        self.assertEqual(workloads.check_density_k4(results, self.goldens), {})
        bad = copy.deepcopy(results)
        bad["targets"]["seeded-3"]["kinds"]["gamma"]["complement"][5][1] += 1
        bad["targets"]["Z"]["kinds"]["lowerp"]["points"][2][1] += 1
        bad["targets"]["H"]["kinds"]["m"]["complement"][1][1] -= 1
        bad["tables"]["dimension"]["rows"][4]["igs"] = "0" * 16
        bad["targets"]["seeded-7"] = {"error": "RuntimeError: injected"}
        failures = workloads.check_density_k4(bad, self.goldens)
        self.assertEqual(sorted(failures), ["series-dimension", "target-H", "target-Z",
                                            "target-seeded-3", "target-seeded-7"])


class Reproducibility(unittest.TestCase):
    def test_counts_repeat_and_only_density_follows_the_seed(self):
        for workload in workloads.WORKLOADS:
            first = traced_counts(workload, 11)
            self.assertEqual(traced_counts(workload, 11), first, workload)
            other = traced_counts(workload, 12)
            if workload == "density-k4":
                self.assertNotEqual(other, first)
            else:
                self.assertEqual(other, first, workload)
        self.assertNotEqual(workloads.seeded_masks(11, 136), workloads.seeded_masks(12, 136))


if __name__ == "__main__":
    unittest.main()
