"""The benchmark tracer in bench/ wraps wrsp functions by name from outside
the package; a run under it fails if one of those names disappears."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

TRACED_RUN = """
import tracer
from wrsp.claims import run_claims

t = tracer.Tracer()
tracer.install(t)
(result,) = run_claims(1, ["thm-p-power"])
print(result.status, t.calls["series.power_series"], t.calls["series.exact_power_subgroup"])
"""


def test_bench_tracer_wraps_a_claim_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / d) for d in ("src", "bench"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache files under bench/
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, sandwiches, powers = proc.stdout.split()
    assert status == "pass"
    assert int(sandwiches) >= 1 and int(powers) >= 1
