"""Compare the benchmark of a base commit and HEAD in alternating pairs of runs.

    python3 tools/bench_compare.py --base REF --out BENCH_<n>.json

Run it from the repository root. Both commits are exported with
``git archive`` into a temporary directory, and ``perfbench/run.py`` runs in
each export, so every run measures committed files only. Each workload of
``BENCHMARK.json`` runs in ``PAIRS`` pairs of ``run_seconds`` each; pair i
uses seed i + 1 for both commits and alternates which commit goes first, so
a slow drift of the machine hits both sides alike. For each workload and
each end-to-end metric the output holds every run, the median and quartiles
per commit, and how many pairs HEAD won. ``TRACED_PAIRS`` more pairs of
``--trace 1`` runs per workload, alternating in the same way, add the
per-layer metrics named in ``LAYERS``, each as every run with its median and
quartiles per commit: a single traced run can be off by a factor of two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACED_PAIRS = 3
LAYERS = (
    "bessel.find_radial_roots.busy_s",
    "bessel.cross_fn.calls",
    "bessel.bessel_jy.calls",
    "plant.assemble_wave_plant.self_s",
    "synthesis.synth_approx_robust.busy_s",
    "synthesis.error_bound_delta.self_s",
    "synthesis.solve_regulator.self_s",
    "loop.assemble_direct.self_s",
    "linalg.eig.busy_s",
    "linalg.eig.n3_sum",
    "linalg.svd.calls",
    "linalg.expm.calls",
    "linalg.expm.busy_s",
    "loop.simulate_exact.self_s",
    "cli.cmd_simulate.self_s",
    "serialize.save_matrix.busy_s",
    "serialize.load_matrix.busy_s",
    "st_blas.speedup",
)


def cpu_model():
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def export(ref, dest):
    """Write the tree of commit ``ref`` to ``dest``; return the full hash."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    rev = subprocess.run(["git", "rev-parse", ref], cwd=ROOT, check=True, capture_output=True)
    return rev.stdout.decode().strip()


def run(checkout, workload, seed, seconds, trace):
    """One perfbench run in ``checkout``; returns its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True)
    except subprocess.CalledProcessError as exc:
        tail = "\n".join(exc.stderr.splitlines()[-20:])
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {exc.returncode}:\n{tail}") from exc
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def alternate(checkouts, workload, seconds, pairs, trace):
    """Runs of both sides in ``pairs`` pairs; pair i uses seed i + 1, and every
    other pair runs the change first."""
    runs = {side: [] for side in checkouts}
    for i in range(pairs):
        order = list(checkouts) if i % 2 == 0 else list(checkouts)[::-1]
        for side in order:
            runs[side].append(run(checkouts[side], workload, i + 1, seconds, trace))
            print(f"{workload} trace {trace} pair {i + 1} {side} done", file=sys.stderr, flush=True)
    return runs


def compare(checkouts, workload, seconds, spec):
    runs = alternate(checkouts, workload, seconds, PAIRS, 0)
    result = {
        side: {
            "correct_runs": sum(r["correct"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "attempted_per_run": [r["attempted"] for r in rs],
        }
        for side, rs in runs.items()
    }
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        wins = sum((c < b) if lower else (c > b) for b, c in zip(values["base"], values["change"]))
        result[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": summary(values["base"]),
            "change": summary(values["change"]),
            "change_wins": f"{wins}/{PAIRS}",
        }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare HEAD against")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    payload = {
        "command": f"python3 tools/bench_compare.py --base {args.base} --out {Path(args.out).name}",
        "commits": {},
        "environment": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "pairs": PAIRS,
        "traced_pairs": TRACED_PAIRS,
        "seconds": seconds,
        "trace0": {},
        "trace1": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-") as work:
        checkouts = {"base": Path(work) / "base", "change": Path(work) / "change"}
        for side, ref in (("base", args.base), ("change", "HEAD")):
            payload["commits"][side] = export(ref, checkouts[side])
        for workload in (w["name"] for w in spec["workloads"]):
            payload["trace0"][workload] = compare(checkouts, workload, seconds, spec)
            traced = alternate(checkouts, workload, seconds, TRACED_PAIRS, 1)
            payload["trace1"][workload] = {
                side: {
                    "correct_runs": sum(r["correct"] for r in rs),
                    **{k: summary([r["metrics"][k]["value"] for r in rs]) for k in LAYERS},
                }
                for side, rs in traced.items()
            }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    main()
