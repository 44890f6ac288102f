"""Gate for the committed benchmark runs under bench/.

Each ``bench/BENCH_<date>_<workload>_s<seed>.json`` holds three runs of
``perfbench/run.py``: for each, its ``env`` line and its final JSON line,
unedited, plus the command and the 40-hex commit that was measured.
"""

import json
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
FILES = sorted(BENCH.glob("BENCH_*.json"))
#: the keys perfbench/run.py::environment() writes
ENV_KEYS = {"nproc", "blas_threads", "python", "numpy", "scipy", "blas"}
#: the trajectory's first points: every workload at seed 0, the two
#: request workloads at seed 1 too
CASES = {("pipeline", 0), ("predict", 0), ("mimic", 0), ("cv", 0),
         ("predict", 1), ("mimic", 1)}


def test_every_case_has_a_file():
    names = {f.name for f in FILES}
    missing = [case for case in sorted(CASES)
               if not any(re.fullmatch(rf"BENCH_[\d-]+_{case[0]}_s{case[1]}\.json", name)
                          for name in names)]
    assert not missing, f"no bench file for {missing}"


@pytest.mark.parametrize("path", FILES, ids=[f.name for f in FILES])
def test_bench_file(path):
    doc = json.loads(path.read_text())
    workload, seed = re.fullmatch(r"BENCH_[\d-]+_(\w+)_s(\d+)\.json", path.name).groups()
    assert (doc["workload"], doc["seed"]) == (workload, int(seed))
    assert re.fullmatch(r"[0-9a-f]{40}", doc["commit"])
    assert f"perfbench/run.py --workload {workload} --seed {seed}" in doc["command"]
    assert len(doc["runs"]) == 3
    for run in doc["runs"]:
        prefix, env = run["env"].split(" ", 1)
        assert prefix == "env"
        assert ENV_KEYS <= json.loads(env).keys()
        assert json.loads(run["result"])["correct"] is True
