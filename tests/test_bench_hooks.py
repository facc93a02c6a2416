"""The benchmark's span tracer (perfbench/spans.py) patches wavereg functions
by name; every name it lists must exist in the current package, or
``perfbench/run.py --trace 1`` and ``tools/bench_compare.py`` break."""

import importlib
import importlib.util
import time
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # every traced module is imported before any install: a module first imported
    # while an install is in place binds the wrappers through its ``from ... import``
    # lines and keeps them after ``restore()``
    for name in {m for m, _, _ in module.TRACED} | {m for m, _ in module.COUNTED}:
        importlib.import_module(f"wavereg.{name}")
    return module


def test_tracer_patches_every_traced_and_counted_name():
    spans = _load_spans()
    names = [(m, a) for m, a, _ in spans.TRACED] + list(spans.COUNTED)
    tracer = spans.Tracer(time.perf_counter)
    try:
        with tracer.installed():
            for module, attr in names:
                owner = importlib.import_module(f"wavereg.{module}")
                for part in attr.split("."):
                    owner = getattr(owner, part)
                assert hasattr(owner, "__wrapped__"), f"{module}.{attr} is not traced"
    finally:
        tracer.restore()  # also after an install that failed part way


def test_tracer_records_trajectory_work(small_plant, small_exo):
    # the simulate_exact hook reads the Trajectory fields; a renamed field
    # would break --trace 1 runs and tools/bench_compare.py
    spans = _load_spans()
    from wavereg import loop, synthesis

    ctrl = synthesis.synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
    cl = loop.assemble_direct(small_plant, ctrl, small_exo)
    tracer = spans.Tracer(time.perf_counter)
    try:
        with tracer.installed():
            loop.simulate_exact(cl, small_exo, t_end=1.0, dt=0.01)
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer)
    assert metrics["loop.simulate_exact.calls"] == 1
    assert metrics["loop.simulate_exact.steps"] == 100
    assert metrics["loop.simulate_exact.state_mb"] > 0.0
