"""Gate for the committed benchmark runs under bench/.

Each ``bench/BENCH_<date>[_<label>]_<workload>_s<seed>.json`` holds three
runs of ``perfbench/run.py``: for each, its ``env`` line and its final JSON
line, unedited, plus the command and the 40-hex commit that was measured.
The optional label (lower-case letters, digits and hyphens) tells apart
two commits measured on the same date.
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
#: a bench file's name; groups workload and seed
NAME = re.compile(r"BENCH_[\d-]+(?:_[a-z0-9-]+)?_([a-z]+)_s(\d+)\.json")


def test_every_case_has_a_file():
    named = {(match[1], int(match[2])) for f in FILES if (match := NAME.fullmatch(f.name))}
    missing = sorted(CASES - named)
    assert not missing, f"no bench file for {missing}"


@pytest.mark.parametrize("path", FILES, ids=[f.name for f in FILES])
def test_bench_file(path):
    doc = json.loads(path.read_text())
    workload, seed = NAME.fullmatch(path.name).groups()
    assert (doc["workload"], doc["seed"]) == (workload, int(seed))
    assert re.fullmatch(r"[0-9a-f]{40}", doc["commit"])
    assert f"perfbench/run.py --workload {workload} --seed {seed}" in doc["command"]
    assert len(doc["runs"]) == 3
    for run in doc["runs"]:
        prefix, env = run["env"].split(" ", 1)
        assert prefix == "env"
        assert ENV_KEYS <= json.loads(env).keys()
        assert json.loads(run["result"])["correct"] is True
