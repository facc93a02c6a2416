"""One pass of each benchmark workload (perfbench/worker.py), checked against
perfbench/reference.json: a name the worker calls that no longer exists, or a
value that moves off its reference, fails here and not only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def preset(worker):
    return worker.setup()


@pytest.mark.parametrize("name", ["preset-cli", "delta-sweep", "gain-sweep"])
def test_one_pass_matches_the_reference(worker, preset, tmp_path, name):
    ops = {"preset-cli": 1, "delta-sweep": len(worker.DELTA_NS),
           "gain-sweep": len(worker.GAIN_FAMILIES) * len(worker.GAIN_EPS)}[name]
    # no time budget and one operation asked for: the loop stops after its first pass
    result = worker.run_workload(name, *preset, seed=0, seconds=0.0, min_ops=1,
                                 max_ops=ops + 1, workdir=tmp_path)
    assert result["failures"] == []
    assert len(result["durations"]) == ops
