"""Run one wavereg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the sources in ``src/``.
Workloads (see README.md for why each was chosen):

    preset-cli   one in-process ``cmd_simulate`` of the preset per operation
    delta-sweep  acceptance criterion 2 certification, one N per operation
    gain-sweep   synthesis + G-conditions + spectrum + regulator per grid point

With ``--trace 0`` the workload runs in a fresh process (``worker.py``) for
at least ``--seconds`` and at least MIN_OPS operations, always ending on a
whole pass, and the end-to-end metrics are reported. ``setup_s`` is the
median over SETUP_SAMPLES fresh processes, timed from process start until
the preset plant and exosystem are built.

With ``--trace 1`` one traced process runs exactly one pass (``--seconds``
is not used), so its counts repeat exactly for a given seed, and gives the
per-layer metrics. Two more fresh processes run the leading operations of
the same pass that took COMPARE_S in the traced process, untraced, once with the default BLAS threads and
once with ``OPENBLAS_NUM_THREADS=1``: ``trace.overhead`` is the traced time
of those operations over the untraced time, and the ``st_blas`` metrics
compare single-thread BLAS with the default (for information only).

Every line before the last is a human-readable report, including the
environment block. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("preset-cli", "delta-sweep", "gain-sweep")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1  # op_tail_s needs ten samples beyond the reported one
TRACE_MIN_OPS = 3  # preset-cli pass in a traced run: one cold and two warm operations
COMPARE_S = 8.0
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer statistics reported from the traced process. Every timed
# function also reports ``first_s``, its first (cold) call.
_LAYER_STATS = {
    "bessel.find_radial_roots": ("busy_s",),
    "bessel.cross_fn": ("calls",),
    "bessel.bessel_jy": ("calls",),
    "plant.assemble_wave_plant": ("self_s",),
    "plant.energy": ("calls", "busy_s"),
    "exosystem.build_sect5_exosystem": ("busy_s",),
    "synthesis.synth_regulating": ("busy_s",),
    "synthesis.synth_approx_robust": ("busy_s",),
    "synthesis.synth_robust": ("busy_s",),
    "synthesis.eval_transfer": ("calls",),
    "synthesis.check_g_conditions": ("busy_s",),
    "synthesis.solve_regulator": ("self_s",),
    "synthesis.error_bound_delta": ("self_s",),
    "linalg.eig": ("calls", "busy_s", "n3_sum"),
    "linalg.expm": ("calls", "busy_s", "n3_sum"),
    "linalg.is_normal": ("calls", "busy_s", "n3_sum"),
    "linalg.solve_dense": ("calls", "busy_s", "n3_sum"),
    "linalg.svd": ("calls", "busy_s", "n3_sum"),
    "linalg.sylvester_diag": ("calls", "busy_s", "n3_sum"),
    "loop.assemble_direct": ("self_s",),
    "loop.simulate_exact": ("self_s", "steps", "state_mb"),
    "loop.windowed_error": ("busy_s",),
    "serialize.save_csv": ("busy_s", "bytes"),
    "serialize.save_matrix": ("busy_s",),
    "serialize.load_matrix": ("busy_s",),
    "cli.cmd_simulate": ("self_s",),
}
_STAT_UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "first_s": "s",
    "n3_sum": "count",
    "steps": "count",
    "state_mb": "MB",
    "bytes": "bytes",
}


def _per_layer():
    metrics = {}
    for name, stats in _LAYER_STATS.items():
        timed = any(s in ("busy_s", "self_s") for s in stats)
        for stat in stats + (("first_s",) if timed else ()):
            metrics[f"{name}.{stat}"] = _STAT_UNITS[stat]
    metrics["bessel.evals_per_root"] = "evals/root"
    metrics["trace.overhead"] = "ratio"
    metrics["trace.unattributed_pct"] = "%"
    metrics["st_blas.ops_s"] = "s"
    metrics["st_blas.speedup"] = "ratio"
    return metrics


PER_LAYER = _per_layer()


class BenchmarkError(RuntimeError):
    """A worker process failed to start, crashed or overran its deadline."""


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, count): the (n - beyond)-th smallest sample,
    the share of samples at or below it in percent, and n.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail, got {n}")
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def run_worker(args, deadline, env=None):
    """Run ``worker.py`` with ``args``; return (seconds to READY, result dict).

    The worker is killed if it is still running at ``deadline``
    (a ``time.perf_counter`` value).
    """
    start = time.perf_counter()
    remaining = deadline - start
    if remaining <= 0:
        raise BenchmarkError("no time left to start a worker")
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchmarkError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return ready, result


def _worker_args(workload, seed, seconds, min_ops, max_ops=None):
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--min-ops", str(min_ops)]
    return args + ["--max-ops", str(max_ops)] if max_ops else args


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics: set-up samples plus one closed-loop run."""
    setups = [run_worker(["setup"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, res = run_worker(_worker_args(workload, seed, seconds, MIN_OPS), deadline)
    setups.append(ready)
    durations = res["durations"]
    tail, pct, count = tail_percentile(durations)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(durations) / res["loop_s"],
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{len(durations)} operations in {res['loop_s']:.3f} s",
        "op_p50_s": f"median of {count} operations",
        "op_tail_s": f"p{pct:.1f} of {count} operations, {TAIL_BEYOND} beyond it",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return metrics, notes, [res]


def measure_traced(workload, seed, deadline):
    """Per-layer metrics from one traced pass, plus overhead and BLAS comparisons."""
    _, traced = run_worker(_worker_args(workload, seed, 0, TRACE_MIN_OPS) + ["--trace"], deadline)
    elapsed = itertools.accumulate(traced["durations"])
    count = next((i + 1 for i, t in enumerate(elapsed) if t >= COMPARE_S), len(traced["durations"]))
    compare = _worker_args(workload, seed, 0, count, count)
    _, plain = run_worker(compare, deadline)
    _, single = run_worker(compare, deadline, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    traced_s = sum(traced["durations"][:count])
    plain_s = sum(plain["durations"])
    metrics = {name: traced["layers"][name] for name in PER_LAYER if name in traced["layers"]}
    metrics["trace.overhead"] = traced_s / plain_s
    metrics["st_blas.ops_s"] = sum(single["durations"])
    metrics["st_blas.speedup"] = plain_s / metrics["st_blas.ops_s"]
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise BenchmarkError(f"traced run did not produce {sorted(missing)}")
    notes = {
        "trace.overhead": f"first {len(plain['durations'])} operations: traced {traced_s:.3f} s"
        f" / untraced {plain_s:.3f} s",
        "st_blas.ops_s": "same operations with OPENBLAS_NUM_THREADS=1",
        "st_blas.speedup": "default-thread time / single-thread time",
        "trace.unattributed_pct": "root operation self time / operation time",
    }
    return metrics, notes, [traced, plain, single]


def _report(args, metrics, units, notes, results):
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    for key, value in results[0]["env"].items():
        lines.append(f"env {key}: {value}")
    if "functions" in results[0]:
        lines.append(f"spans: {results[0]['spans_file']}")
        lines.append(f"{'function':40} {'calls':>8} {'busy_s':>10} {'self_s':>10} "
                     f"{'first_s':>10} {'warm_mean_s':>12}")
        rows = sorted(results[0]["functions"].items(), key=lambda kv: -kv[1]["busy_s"])
        for name, row in rows:
            lines.append(f"{name:40} {row['calls']:8d} {row['busy_s']:10.4f} {row['self_s']:10.4f} "
                         f"{row['first_s']:10.4f} {row['warm_mean_s']:12.6f}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"metric {name} = {value!r} {units[name]}{note}")
    attempted = sum(len(r["durations"]) for r in results)
    failed = sum(len(r["failures"]) for r in results)
    lines.append(f"metric fail_ratio = {failed / attempted!r} ({failed} of {attempted} "
                 "operations failed)")
    for r in results:
        for failure in r["failures"][:20]:
            lines.append(f"FAILED {failure['op']}: {failure['error']}")
    return lines, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one wavereg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wavereg" / "__init__.py").is_file():
        print(f"perfbench: no wavereg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, notes, results = measure_traced(args.workload, args.seed, deadline)
            units = PER_LAYER
        else:
            metrics, notes, results = measure(args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END
    except (BenchmarkError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    lines, attempted, failed = _report(args, metrics, units, notes, results)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
