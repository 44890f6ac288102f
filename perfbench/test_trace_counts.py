"""Per-layer counts of the traced benchmark repeat exactly.

Two traced ``pipeline`` runs on one seed must agree on every count:
sweeps, calls to each block, glasso passes, ``dft_modulus`` calls, mimic
objective evaluations, bytes written. Claims in later changes may then
rest on these counts. The test also checks that a run prints exactly the
metrics ``BENCHMARK.json`` declares.

    python -m pytest perfbench/test_trace_counts.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly():
    first, second = traced_run("pipeline", 0), traced_run("pipeline", 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(first["metrics"]) == {m["name"] for m in declared}
    counts = {name for name, m in first["metrics"].items()
              if m["unit"] in ("count", "bytes")}
    for name in ("estimate.sweeps", "estimate.sigma_step.calls",
                 "estimate.theta_step.calls", "estimate.glasso_passes",
                 "spectral.dft_modulus.calls", "mimic.objective_evals"):
        assert name in counts
        assert first["metrics"][name]["value"] > 0, name
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and second["correct"]
