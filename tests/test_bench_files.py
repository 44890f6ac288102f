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
#: a bench file's name; groups label (None for the unlabeled baseline),
#: workload and seed
NAME = re.compile(r"BENCH_[\d-]+(?:_([a-z0-9-]+))?_([a-z]+)_s(\d+)\.json")


def test_every_case_has_a_file():
    """Each trajectory point, the unlabeled baseline or one ``_<label>``,
    has a file for every case."""
    named = {}
    for f in FILES:
        if match := NAME.fullmatch(f.name):
            named.setdefault(match[1], set()).add((match[2], int(match[3])))
    assert None in named, "no unlabeled baseline files"
    missing = {label: sorted(CASES - cases) for label, cases in named.items()
               if CASES - cases}
    assert not missing, f"bench files missing, by label: {missing}"


@pytest.mark.parametrize("path", FILES, ids=[f.name for f in FILES])
def test_bench_file(path):
    doc = json.loads(path.read_text())
    _, workload, seed = NAME.fullmatch(path.name).groups()
    assert (doc["workload"], doc["seed"]) == (workload, int(seed))
    assert re.fullmatch(r"[0-9a-f]{40}", doc["commit"])
    assert f"perfbench/run.py --workload {workload} --seed {seed}" in doc["command"]
    assert len(doc["runs"]) == 3
    for run in doc["runs"]:
        prefix, env = run["env"].split(" ", 1)
        assert prefix == "env"
        assert ENV_KEYS <= json.loads(env).keys()
        assert json.loads(run["result"])["correct"] is True
