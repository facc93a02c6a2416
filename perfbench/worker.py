"""One benchmark process: build the preset, then run one workload in a closed loop.

run.py starts this file in a fresh interpreter for every measurement:

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S --min-ops M
                                    [--max-ops K] [--trace]
    python3 perfbench/worker.py record

``setup`` imports the package, builds the preset plant and exosystem, prints
``READY`` and exits; run.py times it from process start. ``run`` does the
same set-up, prints ``READY``, then issues one operation at a time until at
least ``--seconds`` have passed and ``--min-ops`` operations are done,
always ending on a whole pass, or stops after ``--max-ops``. Every operation is checked against
``reference.json``; the last stdout line is ``RESULT {json}``. ``record``
rewrites ``reference.json`` from the current sources.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK = HERE / "_work"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import wavereg  # noqa: E402
from wavereg import cli, loop, serialize, synthesis  # noqa: E402

if not Path(wavereg.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: imported wavereg from {wavereg.__file__}, not from {SRC}")

V0_NORM_SQ = 4.0  # ||v0||^2 of the preset exosystem, v0 = (1, 1, 1, 1)
PRESET_X0_POOL = 2  # distinct seeded initial states; repeats check CSV determinism
X0_SCALE = 0.1
DELTA_NS = tuple(range(1, 9))
DELTA_EPS = 0.15
GAIN_EPS = tuple(round(0.05 * i, 2) for i in range(1, 11))
GAIN_FAMILIES = ("regulating", "approx1", "approx3", "approx5", "approx8", "robust")

# Tolerances against reference.json. Abscissae and delta are reproducible to
# roundoff of the dense eigen/SVD kernels (about 1e-13 here); the tolerances
# leave room for reordered arithmetic such as a channel-block rewrite.
ABSCISSA_ATOL = 1e-7
DELTA_RTOL = 1e-6
DELTA_ATOL = 1e-20
J_RTOL = 1e-6
# Criterion 4: regulating residual2 below 1e-8 of ||Ccl|| ||Sigma|| + ||Dcl||.
REGULATING_RESIDUAL_RTOL = 1e-8


class ValidationError(Exception):
    """An operation returned a value that disagrees with the reference."""


def _check(ok, message):
    if not ok:
        raise ValidationError(message)


def _close(value, ref, rtol, atol, what):
    _check(abs(value - ref) <= rtol * abs(ref) + atol, f"{what} {value!r} != reference {ref!r}")


def setup():
    cfg = cli.sect5_config()
    plant = cli.build_plant(cfg)
    exo = cli.build_exo(cfg, plant)
    return plant, exo


def _synthesize(family, plant, exo, eps):
    if family == "regulating":
        return synthesis.synth_regulating(plant, exo, eps)
    if family == "robust":
        return synthesis.synth_robust(plant, exo, eps)
    return synthesis.synth_approx_robust(plant, exo, int(family.removeprefix("approx")), eps)


def _delta_horizon(abscissa):
    return float(min(400.0, max(60.0, np.ceil(14.0 / abs(abscissa)))))


# -- workloads -------------------------------------------------------------
#
# A workload yields passes; a pass is a list of (label, run, check) where
# run() is the timed operation and check(result) validates it afterwards.


class PresetCli:
    """In-process ``wavereg simulate`` on the preset with a seeded x0 file."""

    def __init__(self, plant, exo, rng, ref, workdir):
        self.ref = ref["preset"]
        self.workdir = workdir
        self.x0 = X0_SCALE * rng.standard_normal((PRESET_X0_POOL, plant.state_dim))
        self.csv_digest = {}
        self.count = 0

    def passes(self):
        while True:
            slot = self.count % PRESET_X0_POOL
            self.count += 1
            yield [(f"x0[{slot}]", lambda s=slot: self._run(s), lambda r, s=slot: self._check(s, r))]

    def _run(self, slot):
        x0_path = self.workdir / f"x0_{slot}.mtx"
        serialize.save_matrix(x0_path, self.x0[slot])
        cfg = cli.RunConfig.from_dict({"simulation": {"x0": {"file": str(x0_path)}}})
        return cli.cmd_simulate(cfg, out_dir=self.workdir / f"out_{slot}")

    def _check(self, slot, result):
        _close(result["abscissa"], self.ref["abscissa"], 0.0, ABSCISSA_ATOL, "abscissa")
        data = Path(result["csv"]).read_bytes()
        with open(result["csv"], newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        j_first = float(rows[0]["J"])
        _check(result["J_final"] < j_first, f"J does not decay: {j_first} -> {result['J_final']}")
        digest = hashlib.sha256(data).hexdigest()
        expected = self.csv_digest.setdefault(slot, digest)
        _check(digest == expected, f"simulation.csv differs between runs of x0[{slot}]")


class DeltaSweep:
    """Acceptance criterion 2: certify delta for N = 1..8 by long simulations."""

    def __init__(self, plant, exo, rng, ref, workdir):
        self.plant, self.exo, self.rng = plant, exo, rng
        self.ref = ref["delta_sweep"]

    def passes(self):
        while True:
            deltas = {}
            ops = []
            for N in self.rng.permutation(DELTA_NS):
                N = int(N)
                ops.append((f"N={N}", lambda N=N: self._run(N), lambda r, N=N: self._check(N, r, deltas)))
            yield ops

    def _run(self, N):
        ctrl = synthesis.synth_approx_robust(self.plant, self.exo, N, DELTA_EPS)
        cl = loop.assemble_direct(self.plant, ctrl, self.exo)
        reg = synthesis.solve_regulator(cl, self.exo)
        bound = synthesis.error_bound_delta(reg, cl, ctrl.projector())
        traj = loop.simulate_exact(cl, self.exo, t_end=_delta_horizon(cl.abscissa), dt=0.01)
        series = loop.windowed_error(traj)
        return {"abscissa": cl.abscissa, "delta": bound.delta, "J_asym": float(series.values[-1])}

    def _check(self, N, result, deltas):
        ref = self.ref[str(N)]
        _close(result["abscissa"], ref["abscissa"], 0.0, ABSCISSA_ATOL, f"N={N} abscissa")
        _close(result["delta"], ref["delta"], DELTA_RTOL, DELTA_ATOL, f"N={N} delta")
        _close(result["J_asym"], ref["J_asym"], J_RTOL, 0.0, f"N={N} J_asym")
        bound = result["delta"] * V0_NORM_SQ + 1e-6
        _check(result["J_asym"] <= bound, f"N={N} J_asym {result['J_asym']:.3e} > 4 delta + 1e-6")
        deltas[N] = result["delta"]
        for lower, higher in ((N - 1, N), (N, N + 1)):
            if lower in deltas and higher in deltas:
                _check(deltas[higher] <= deltas[lower] + 1e-15, f"delta not monotone at N={higher}")


class GainSweep:
    """Synthesis and spectral certification over a tuning-gain grid."""

    def __init__(self, plant, exo, rng, ref, workdir):
        self.plant, self.exo, self.rng = plant, exo, rng
        self.ref = ref["gain_sweep"]
        self.grid = [(family, eps) for family in GAIN_FAMILIES for eps in GAIN_EPS]

    def passes(self):
        while True:
            order = self.rng.permutation(len(self.grid))
            yield [
                (f"{fam}@{eps}", lambda f=fam, e=eps: self._run(f, e), lambda r, f=fam, e=eps: self._check(f, e, r))
                for fam, eps in (self.grid[i] for i in order)
            ]

    def _run(self, family, eps):
        ctrl = _synthesize(family, self.plant, self.exo, eps)
        report = synthesis.check_g_conditions(ctrl)
        cl = loop.assemble_direct(self.plant, ctrl, self.exo)
        reg = synthesis.solve_regulator(cl, self.exo)
        delta = synthesis.error_bound_delta(reg, cl, ctrl.projector()).delta if cl.is_stable else None
        return {"report": report, "cl": cl, "reg": reg, "delta": delta}

    def _check(self, family, eps, result):
        ref = self.ref[f"{family}@{eps}"]
        cl, reg, report = result["cl"], result["reg"], result["report"]
        _close(cl.abscissa, ref["abscissa"], 0.0, ABSCISSA_ATOL, "abscissa")
        _check(cl.is_stable == ref["stable"], f"stability {cl.is_stable} != reference")
        if ref["stable"]:
            _close(result["delta"], ref["delta"], DELTA_RTOL, DELTA_ATOL, "delta")
        if family == "robust":
            _check(report.passed, f"robust controller fails the G-conditions: {report}")
        elif family == "regulating":
            scale = np.linalg.norm(cl.Ccl, 2) * np.linalg.norm(reg.Sigma, 2) + np.linalg.norm(cl.Dcl, 2)
            _check(reg.residual2 < REGULATING_RESIDUAL_RTOL * scale, f"residual2 {reg.residual2:.2e}")
        else:
            N = int(family.removeprefix("approx"))
            expected = self.plant.output_dim - (2 * N + 1)
            _check(
                report.kernel_dim_G2 == expected and not report.passed,
                f"approx N={N} kernel dim {report.kernel_dim_G2}, expected {expected}",
            )


WORKLOADS = {"preset-cli": PresetCli, "delta-sweep": DeltaSweep, "gain-sweep": GainSweep}


def run_workload(workload, plant, exo, seed, seconds, min_ops, max_ops, workdir, tracer=None):
    """Closed loop: one operation at a time, whole passes, validated after timing."""
    ref = json.loads(REFERENCE.read_text())
    rng = np.random.default_rng(seed)
    wl = WORKLOADS[workload](plant, exo, rng, ref, workdir)
    durations, failures = [], []
    start = time.perf_counter()
    for ops in wl.passes():
        for label, run, check in ops[: max_ops - len(durations)]:
            t0 = time.perf_counter()
            try:
                try:
                    if tracer is None:
                        result = run()
                    else:
                        with tracer.span("op", f"{len(durations)}:{label}"):
                            result = run()
                finally:
                    durations.append(time.perf_counter() - t0)
                check(result)
            except Exception as exc:  # a failed operation is counted, the run goes on
                failures.append({"op": label, "error": f"{type(exc).__name__}: {exc}"})
                traceback.print_exc(file=sys.stderr)
            result = None  # release the operation's arrays before the next one
        if len(durations) >= max_ops or (
            time.perf_counter() - start >= seconds and len(durations) >= min_ops
        ):
            break
    return {"loop_s": time.perf_counter() - start, "durations": durations, "failures": failures}


def record_reference():
    """Recompute every reference value in canonical order and write reference.json."""
    plant, exo = setup()
    rng = np.random.default_rng(0)
    workdir = WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    preset = PresetCli(plant, exo, rng, {"preset": None}, workdir)._run(0)
    shutil.rmtree(workdir)
    delta = DeltaSweep(plant, exo, rng, {"delta_sweep": None}, WORK)
    gain = GainSweep(plant, exo, rng, {"gain_sweep": None}, WORK)
    gain_ref = {}
    for family, eps in gain.grid:
        r = gain._run(family, eps)
        gain_ref[f"{family}@{eps}"] = {
            "abscissa": r["cl"].abscissa,
            "stable": bool(r["cl"].is_stable),
            "delta": r["delta"],
        }
    payload = {
        "source": _git_commit(),
        "preset": {"abscissa": preset["abscissa"]},
        "delta_sweep": {str(N): delta._run(N) for N in DELTA_NS},
        "gain_sweep": gain_ref,
    }
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# -- environment -----------------------------------------------------------


def _git_commit():
    # only the checkout's own repository; a checkout without .git has no commit
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(package):
    """Thread count each OpenBLAS copy bundled with ``package`` will use."""
    import ctypes

    libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    found = {}
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[lib.name] = fn()
                break
    return found or "unknown"


def environment():
    import scipy

    def blas(cfg):
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(np.show_config(mode="dicts")),
        "blas_scipy": blas(scipy.show_config(mode="dicts")),
        "blas_threads_numpy": _blas_threads(np),
        "blas_threads_scipy": _blas_threads(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "commit": _git_commit(),
    }


# -- entry point -----------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    sub.add_parser("record")
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--min-ops", type=int, required=True)
    run.add_argument("--max-ops", type=int, default=sys.maxsize)
    run.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "record":
        record_reference()
        return 0

    tracer = None
    if getattr(args, "trace", False):
        from spans import Tracer, layer_metrics, function_table

        tracer = Tracer(time.perf_counter)
        tracer.install()
    try:
        if tracer is None:
            plant, exo = setup()
        else:
            with tracer.span("setup", "setup"):
                plant, exo = setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        workdir = WORK / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            result = run_workload(
                args.workload, plant, exo, args.seed, args.seconds, args.min_ops, args.max_ops,
                workdir, tracer,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        if tracer is not None:
            tracer.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["env"] = environment()
    if tracer is not None:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["layers"] = layer_metrics(tracer)
        result["functions"] = function_table(tracer)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
