"""Tests of the benchmark's own code: tracing wrappers, span arithmetic,
the tail-percentile rule and the metric names in BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer, covered_length, function_table, layer_metrics, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- wrappers ----------------------------------------------------------------


def _lookups():
    from wavereg import bessel, cli, exosystem, plant

    return {
        "bessel.find_radial_roots": (bessel, "find_radial_roots"),
        "plant.find_radial_roots": (plant, "find_radial_roots"),
        "plant.assemble_wave_plant": (plant, "assemble_wave_plant"),
        "cli.assemble_wave_plant": (cli, "assemble_wave_plant"),
        "exosystem.build_sect5_exosystem": (exosystem, "build_sect5_exosystem"),
        "cli.build_sect5_exosystem": (cli, "build_sect5_exosystem"),
        "plant.project_profile": (plant, "project_profile"),
        "exosystem.project_profile": (exosystem, "project_profile"),
        "bessel.cross_fn": (bessel, "cross_fn"),
        "ModalWavePlant.energy": (plant.ModalWavePlant, "energy"),
    }


def _current(owner, attr):
    return owner.__dict__[attr]


def test_install_patches_every_lookup_and_restore_puts_originals_back():
    lookups = _lookups()
    originals = {key: _current(*where) for key, where in lookups.items()}
    tracer = Tracer(time.perf_counter)
    with tracer.installed():
        for key, where in lookups.items():
            assert _current(*where) is not originals[key], key
            assert _current(*where).__wrapped__ is originals[key], key
        # a name rebound by ``from ... import`` shares the wrapper of its source
        assert _current(*lookups["plant.find_radial_roots"]) is _current(*lookups["bessel.find_radial_roots"])
        assert _current(*lookups["cli.assemble_wave_plant"]) is _current(*lookups["plant.assemble_wave_plant"])
        with pytest.raises(RuntimeError):
            tracer.install()
    for key, where in lookups.items():
        assert _current(*where) is originals[key], key


def test_restore_runs_when_the_traced_code_raises():
    lookups = _lookups()
    originals = {key: _current(*where) for key, where in lookups.items()}
    with pytest.raises(KeyError):
        with Tracer(time.perf_counter).installed():
            raise KeyError("boom")
    assert {key: _current(*where) for key, where in lookups.items()} == originals


def test_traced_calls_record_nested_spans_counts_and_work():
    from wavereg import plant

    tracer = Tracer(time.perf_counter)
    with tracer.installed():
        with tracer.span("op", "small"):
            p = plant.assemble_wave_plant(2, 6, 3.0)
            p.energy(p.A[0])
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["op"]
    (build,) = by_name["plant.assemble_wave_plant"]
    assert root.parent is None and build.parent == root.sid
    assert len(by_name["bessel.find_radial_roots"]) == 6
    assert all(s.parent == build.sid and s.op == "small" for s in by_name["bessel.find_radial_roots"])
    assert by_name["plant.energy"][0].parent == root.sid
    metrics = layer_metrics(tracer)
    assert metrics["bessel.find_radial_roots.calls"] == 6
    assert metrics["bessel.find_radial_roots.roots"] == 12
    assert metrics["bessel.cross_fn.calls"] > 12
    assert metrics["bessel.evals_per_root"] == metrics["bessel.cross_fn.calls"] / 12
    assert metrics["plant.energy.calls"] == 1
    assert metrics["cli.cmd_simulate.calls"] == 0 and metrics["cli.cmd_simulate.busy_s"] == 0.0
    assert 0.0 <= metrics["trace.unattributed_pct"] < 100.0


# -- span arithmetic -----------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips_to_the_span():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered_length([(9.0, 12.0), (-2.0, 1.0)], 0.0, 10.0) == 2.0
    assert covered_length([(4.0, 6.0), (1.0, 2.0), (5.0, 5.5)], 0.0, 10.0) == 3.0


def test_self_time_is_span_minus_covered_children_only():
    tree = [
        Span(0, None, "a", "root", 0.0, 10.0),
        Span(1, 0, "a", "child", 1.0, 4.0),
        Span(2, 0, "a", "child", 6.0, 7.0),
        Span(3, 1, "a", "grandchild", 2.0, 3.5),
    ]
    selfs = self_times(tree)
    assert selfs == {0: 6.0, 1: 1.5, 2: 1.0, 3: 1.5}


def test_function_table_separates_the_first_call():
    ticks = iter([0.0, 3.0, 10.0, 11.0, 20.0, 21.0])
    tracer = Tracer(lambda: next(ticks))
    for _ in range(3):
        with tracer.span("f", "op"):
            pass
    row = function_table(tracer)["f"]
    assert row["calls"] == 3 and row["busy_s"] == 5.0
    assert row["first_s"] == 3.0 and row["warm_mean_s"] == 1.0


# -- tail percentile -----------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(x) for x in range(60, 0, -1)]
    value, pct, n = run.tail_percentile(samples)
    assert (value, n) == (50.0, 60)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * 50 / 60)
    value, pct, n = run.tail_percentile([float(x) for x in range(11)])
    assert (value, n) == (0.0, 11)
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


# -- metric names --------------------------------------------------------------


def test_benchmark_names_and_units_follow_the_charset():
    bench = _bench()
    names = [w["name"] for w in bench["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in bench[group]]
        for m in bench[group]:
            assert UNIT.fullmatch(m["unit"]), m
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_lists_exactly_the_metrics_run_reports():
    bench = _bench()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])


def test_traced_layers_cover_every_per_layer_metric():
    from_run = {"trace.overhead", "st_blas.ops_s", "st_blas.speedup"}
    produced = set(layer_metrics(Tracer(time.perf_counter)))
    assert set(run.PER_LAYER) - from_run <= produced
    assert {f"{m}.{a.rsplit('.', 1)[-1]}" for m, a, _ in spans.TRACED} <= {
        n.rsplit(".", 1)[0] for n in produced
    }
