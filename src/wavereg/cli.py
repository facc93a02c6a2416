"""Command line interface: configuration, presets, reproduction and export.

Subcommands
-----------
eigs        Tabulate the radial eigenvalues of the configured plant.
synth       Synthesize a controller, check the internal-model conditions and
            report the asymptotic error bound.
simulate    Run the closed loop and export the error/energy time series.
verify      Run the invariant checks of ``wavereg.checks`` (suites linalg /
            wave / synth / loop), the same checks acceptance criteria 4-8
            assert.
reproduce   Shorthand for the annulus preset exports behind figures 1-4.

Configs are JSON with sections plant / exosystem / controller / simulation /
output; every command falls back to the built-in preset when no config is
given. A custom exosystem term gives its profile either as coefficients on
the output basis (``fourier``) or as samples on a uniform angular grid of
at least 8 (max order + 1) points (``samples``), projected once on that
basis. Emitted CSV, matrix and report files are byte-identical across
reruns at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import shutil
import sys
import time
import typing
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import __version__, bessel, loop, serialize, synthesis
from .exosystem import (
    SignalTerm,
    build_exosystem,
    build_sect5_exosystem,
    require_preset_order,
    signals_at,
)
from .plant import FourierOutputBasis, assemble_wave_plant, project_profile, require_plant_parameters

_SYNTHESES = {  # each controller kind's synthesis from its config section, plant and exosystem
    "regulating": lambda c, plant, exo: synthesis.synth_regulating(plant, exo, c.epsilon),
    "approx": lambda c, plant, exo: synthesis.synth_approx_robust(plant, exo, c.N, c.epsilon),
    "robust": lambda c, plant, exo: synthesis.synth_robust(plant, exo, c.epsilon),
}


def _require_known(names, known, what):
    """Raise a ValueError naming every entry of ``names`` missing from ``known``."""
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}")


def _replace_checked(obj, payload, where):
    """``dataclasses.replace(obj, **payload)`` once ``payload`` is an object
    whose keys are fields of ``obj`` and whose values have the fields'
    declared types; an int is accepted for a float, a bool only for a bool,
    and a float field must be finite."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be an object, got {payload!r}")
    hints = typing.get_type_hints(type(obj))
    _require_known(payload, hints, f"keys in {where}")
    for key, value in payload.items():
        hint = hints[key]
        allowed = (int, float) if hint is float else hint
        if not isinstance(value, allowed) or isinstance(value, bool) and hint not in (bool, object):
            name = getattr(hint, "__name__", hint)
            raise ValueError(f"{where}: {key} must be of type {name}, got {value!r}")
        if hint is float and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where}: {key} must be finite, got {value!r}")
    return dataclasses.replace(obj, **payload)


def _require_known_preset(preset):
    """Raise unless ``preset`` names a built-in exosystem (None: custom signals)."""
    if preset not in (None, "sect5"):
        raise ValueError(f"unknown exosystem preset {preset!r}")


@dataclass
class PlantConfig:
    n_radial: int = 8
    m_angular: int = 12
    damping_q: float = 3.0
    rho: float = 1.0
    t_mod: float = 1.0
    inner_bc: str = "neumann"


@dataclass
class TermConfig:
    """One harmonic term of a custom signal: a profile plus sin/cos factor."""

    profile_type: str = "fourier"       # "fourier" (basis coefficients) or "samples"
    profile_data: list = field(default_factory=list)
    temporal: str = "sin"
    omega_over_pi: float = 1.0


@dataclass
class ExosystemConfig:
    preset: str | None = "sect5"
    reference: list = field(default_factory=list)
    disturbance: list = field(default_factory=list)


@dataclass
class ControllerConfig:
    kind: str = "approx"
    N: int = 5
    epsilon: float = 0.15

    def synthesis(self):  # this kind's synthesis of (plant, exo); the one kind refusal
        if self.kind not in _SYNTHESES:
            raise ValueError(f"controller.kind must be one of {tuple(_SYNTHESES)}")
        return partial(_SYNTHESES[self.kind], self)


@dataclass
class SimulationConfig:
    t_end: float = 20.0
    dt: float = 0.01
    window: float = 1.0
    x0: object = "zero"
    z0: object = "zero"


@dataclass
class OutputConfig:
    directory: str = "out"
    emit_svg: bool = False


@dataclass
class RunConfig:
    plant: PlantConfig = field(default_factory=PlantConfig)
    exosystem: ExosystemConfig = field(default_factory=ExosystemConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self):
        p, c, s = self.plant, self.controller, self.simulation
        for name, spec in (("x0", s.x0), ("z0", s.z0)):
            file_spec = isinstance(spec, dict) and list(spec) == ["file"]
            if spec != "zero" and not (file_spec and isinstance(spec["file"], str)):
                raise ValueError(f"simulation.{name} must be 'zero' or {{'file': path}}: {spec!r}")
        # the pipeline's own checks, in its order, before any plant is built
        require_plant_parameters(**dataclasses.asdict(p))
        e, basis = self.exosystem, FourierOutputBasis(p.m_angular - 1)
        _require_known_preset(e.preset)
        if e.preset == "sect5":
            for name in ("reference", "disturbance"):
                if getattr(e, name):
                    raise ValueError(f"exosystem.{name} must be empty: preset {e.preset!r} "
                                     "fixes the signals (set preset to null for custom terms)")
            require_preset_order(basis.max_order)
        else:
            _custom_exosystem(e, basis)
        c.synthesis()  # refuses an unknown kind
        if c.kind == "approx":
            synthesis.output_block_dim(c.N, basis.dim)
        synthesis.require_gain(c.epsilon)
        loop.whole_steps(s.t_end, s.dt, "t_end")
        loop.window_steps(s.window, s.dt, s.t_end)
        return self

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError(f"config must be an object, got {data!r}")
        cfg = cls()
        _require_known(data, (f.name for f in dataclasses.fields(cfg)), "config sections")
        for section, payload in data.items():
            current = getattr(cfg, section)
            setattr(cfg, section, _replace_checked(current, payload, f"config section {section}"))
        for name in ("reference", "disturbance") if cfg.exosystem.preset is None else ():
            terms = getattr(cfg.exosystem, name)
            checked = [_replace_checked(TermConfig(), t, f"term of exosystem.{name}") for t in terms]
            setattr(cfg.exosystem, name, checked)
        return cfg.validate()


def sect5_config():
    """The annulus preset: the configuration behind figures 1-4."""
    return RunConfig().validate()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return RunConfig.from_dict(json.load(fh))


def build_plant(cfg):
    return assemble_wave_plant(**dataclasses.asdict(cfg.plant))


def _term_from_config(term, where, basis):
    """The SignalTerm of a configured term of the signal ``where``: fourier
    coefficients on ``basis`` are zero-padded to its dimension, samples on a
    uniform grid of any length n >= 8 (max order + 1) are projected on it."""
    if term.profile_type not in ("fourier", "samples"):
        raise ValueError(f"unknown profile type {term.profile_type!r}")
    try:
        data = np.asarray(term.profile_data, dtype=float)
    except (TypeError, ValueError):
        data = None
    if data is None or data.ndim != 1 or not np.all(np.isfinite(data)):
        raise ValueError(f"{where}: profile_data must be a list of finite numbers")
    if term.profile_type == "samples":
        coeffs = project_profile(data, basis.max_order)
    elif data.size > basis.dim:
        raise ValueError("fourier profile has more coefficients than the output basis")
    else:
        coeffs = np.zeros(basis.dim)
        coeffs[: data.size] = data
    return SignalTerm(coeffs=coeffs, temporal=term.temporal, omega=term.omega_over_pi * np.pi)


def _custom_exosystem(e, basis):
    """The exosystem of the custom signals of the exosystem section ``e``."""
    reference, disturbance = (
        [_term_from_config(t, f"exosystem.{name}", basis) for t in getattr(e, name)]
        for name in ("reference", "disturbance"))
    return build_exosystem(reference, disturbance, basis.max_order)


def build_exo(cfg, plant):
    e = cfg.exosystem
    _require_known_preset(e.preset)
    if e.preset == "sect5":
        return build_sect5_exosystem(plant.basis.max_order)
    return _custom_exosystem(e, plant.basis)


def build_controller(cfg, plant, exo):
    return cfg.controller.synthesis()(plant, exo)


class Run:
    """Plant, exosystem, configured controller, closed loop, regulator
    solution and error bound of one run configuration, each built on first
    use. Every command, and every check of ``wavereg verify``, reads them."""

    def __init__(self, cfg):
        self.cfg = cfg

    plant = cached_property(lambda self: build_plant(self.cfg))
    exo = cached_property(lambda self: build_exo(self.cfg, self.plant))
    controller = cached_property(lambda self: build_controller(self.cfg, self.plant, self.exo))
    closed_loop = cached_property(
        lambda self: loop.assemble_direct(self.plant, self.controller, self.exo)
    )
    regulator = cached_property(lambda self: synthesis.solve_regulator(self.closed_loop, self.exo))

    @cached_property
    def error_bound(self):
        self.closed_loop.require_stable()  # delta bounds the error of a stable loop only
        return synthesis.error_bound_delta(self.regulator, self.closed_loop, self.controller.projector())


def _initial_state(spec, dim, name):
    """The initial state a validated ``x0``/``z0`` spec names: finite, of size ``dim``."""
    if spec == "zero":
        return np.zeros(dim, dtype=complex)
    vec = serialize.load_vector(spec["file"])
    if vec.size != dim or not np.isfinite(vec).all():
        raise ValueError(f"{name} from {spec['file']} has size {vec.size}, "
                         f"expected a finite vector of size {dim}")
    return vec


def _outdir(cfg, override):
    out = Path(override) if override else Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_eigs(cfg, out_dir=None):
    """Write the radial eigenvalue table (m, n, k, mu, residual) as CSV."""
    out = _outdir(cfg, out_dir)
    radial = Run(cfg).plant.radial
    modes = [mode for modes in radial for mode in modes]
    table = {key: np.array([getattr(mode, key) for mode in modes]) for key in "m n k mu".split()}
    residuals = [bessel.cross_fn(m, [mode.k for mode in modes], cfg.plant.inner_bc)
                 for m, modes in enumerate(radial)]
    path = out / "eigenvalues.csv"
    serialize.save_csv(path, {**table, "cross_residual": np.abs(np.concatenate(residuals))})
    return path


def cmd_synth(cfg, out_dir=None):
    """Synthesize the configured controller and write matrices plus reports."""
    out = _outdir(cfg, out_dir)
    run = Run(cfg)
    exo, ctrl, cl, bound = run.exo, run.controller, run.closed_loop, run.error_bound
    for name, M in (("G1", ctrl.G1), ("G2", ctrl.G2), ("K", ctrl.K), ("K0", ctrl.K0)):
        serialize.save_matrix(out / f"controller_{name}.mtx", M)
    report = synthesis.check_g_conditions(ctrl)
    reg = run.regulator
    blocks = sorted((idx.size for idx in cl.blocks), reverse=True)
    payload = {
        "kind": ctrl.kind,
        "epsilon": ctrl.eps,
        "dim_Z": ctrl.dim_z,
        "block_dim": ctrl.block_dim,
        "g_conditions": {
            "kernel_dim_G2": report.kernel_dim_G2,
            "max_range_intersection_dim": report.max_range_intersection_dim,
            "passed": report.passed,
        },
        "closed_loop_abscissa": cl.abscissa,
        "closed_loop_blocks": blocks,
        "regulator_residual1": reg.residual1,
        "regulator_residual2": reg.residual2,
        "delta": bound.delta,
        "delta_coarse": bound.delta_coarse,
        "delta_times_v0_sq": bound.delta * float(np.linalg.norm(exo.v0) ** 2),
    }
    with open(out / "synth_report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


@contextlib.contextmanager
def _timed(timings, stage):
    """Add the wall-clock seconds of one stage of a command to ``timings``."""
    start = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - start


_CSV_COLUMNS = ("t", "J", "err_sq", "pn_err_sq", "energy")
_SVG_POINTS = 4096  # a longer series is plotted at every k-th sample


def _simulation_rows(cl, exo, x0, sim, weights):
    """The columns of simulation.csv in blocks of rows, reduced from the loop's chunks
    of samples as they come. J(t) integrates over [t, t + window], so a row waits
    for the samples that complete its J, and the rows of the last window have none."""
    steps, before, start = loop.window_steps(sim.window, sim.dt, sim.t_end), (), 0
    pending = np.empty((4, 0))  # t, err_sq, pn_err_sq and energy of rows without J
    for errors, sq, _ in loop.simulate_chunks(cl, exo, x0=x0, t_end=sim.t_end, dt=sim.dt):
        e, t = errors[:, :, 0].T, sim.dt * np.arange(start, start + errors.shape[1])
        err_sq, start = loop.norms_sq(e), start + t.size
        rows = np.vstack([t, err_sq, loop.norms_sq(e, weights), sq[0, :, 0]])
        values, before = loop.window_integrals(err_sq, sim.dt, steps, before)
        done, pending = np.hsplit(np.hstack([pending, rows]), [values.size])
        yield dict(zip(_CSV_COLUMNS, (done[0], values, *done[1:])))
    yield dict(zip(_CSV_COLUMNS, (pending[0], np.empty(0), *pending[1:])))


def cmd_simulate(cfg, out_dir=None):
    """Full pipeline run; writes simulation.csv, run_meta.json and optional SVG
    plots. The samples are reduced and written chunk by chunk; a run whose CSV
    cannot fit into the output directory is refused before any file is written."""
    t_start = time.perf_counter()
    timings = {}
    out, sim = _outdir(cfg, out_dir), cfg.simulation
    csv_path, n_rows = out / "simulation.csv", loop.whole_steps(sim.t_end, sim.dt, "t_end") + 1
    need, free = n_rows * len("0,,0,0,0\r\n"), shutil.disk_usage(out).free  # the shortest rows
    if need > free:  # four digits of each count; a Decimal holds any int, where a float overflows
        from decimal import Decimal
        raise OSError(f"{csv_path.name} needs at least {Decimal(need):.4g} bytes, "
                      f"{out} has {Decimal(free):.4g} bytes free")
    run = Run(cfg)
    with _timed(timings, "plant"):
        plant = run.plant
    with _timed(timings, "exosystem"):
        exo = run.exo
    with _timed(timings, "controller"):
        ctrl = run.controller
    with _timed(timings, "assemble"):  # the loop and its spectral abscissa
        cl = run.closed_loop
        cl.require_stable()
    x0 = np.concatenate([_initial_state(sim.x0, plant.state_dim, "x0"),
                         _initial_state(sim.z0, ctrl.dim_z, "z0")])
    stride, plots, written, J_final = -(-n_rows // _SVG_POINTS), [], 0, None
    with _timed(timings, "simulate"), serialize.csv_table(csv_path, _CSV_COLUMNS) as write_rows:
        for columns in _simulation_rows(cl, exo, x0, sim, ctrl.projector()):
            with _timed(timings, "csv"):
                write_rows(columns)
            if cfg.output.emit_svg:
                every = slice((-written) % stride, None, stride)  # every stride-th row's values
                plots.append([columns[name][every].copy() for name in ("t", "J", "energy")])
            written, J = written + columns["t"].size, columns["J"]
            J_final = float(J[-1]) if J.size else J_final
    timings["simulate"] -= timings["csv"]  # the sampling and its reductions alone
    if cfg.output.emit_svg:
        t, J, energy = (np.concatenate(parts) for parts in zip(*plots))
        _svg_line_plot(out / "windowed_error.svg", t[: J.size], J, "windowed tracking error",
                       ylog=True)
        _svg_line_plot(out / "energy.svg", t, energy, "plant energy")
    meta = {
        "config": cfg.to_dict(),
        "version": __version__,
        "abscissa": cl.abscissa,
        "J_final": J_final,
        "elapsed_s": time.perf_counter() - t_start,
        "timings": timings,
    }
    with open(out / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "J_final": J_final, "abscissa": cl.abscissa}


def cmd_reproduce(figure, out_dir=None, emit_svg=False):
    """Export the data grid behind one of the preset figures (1-4)."""
    if figure not in (1, 2, 3, 4):
        raise ValueError("figure must be one of 1, 2, 3, 4")
    if emit_svg and figure != 2:
        raise ValueError(f"--svg renders figure 2 only, not figure {figure}")
    cfg = sect5_config()
    cfg.output.emit_svg = emit_svg
    out = _outdir(cfg, out_dir)
    if figure == 2:
        return cmd_simulate(cfg, out_dir)
    run = Run(cfg)
    plant, exo = run.plant, run.exo
    theta = np.linspace(0.0, 2.0 * np.pi, 129)
    profile = plant.basis.synthesize  # one row of samples on theta per row of coefficients

    def grid(name, samples):  # the (name, theta) columns of a row-major profile grid
        first, th = np.meshgrid(samples, theta, indexing="ij")
        return {name: first, "theta": th}

    if figure == 4:
        t = np.arange(0.0, 6.0 + 1e-12, 0.05)
        w, _ = signals_at(exo, t)
        name, columns = "disturbance.csv", {**grid("t", t), "d": profile(np.real(w), theta)}
    else:
        traj = loop.simulate_exact(run.closed_loop, exo, t_end=10.0 if figure == 1 else 9.0, dt=0.01)
        if figure == 1:
            t = traj.t[::10]  # profiles every 0.1 s
            _, yref = signals_at(exo, t)
            y = np.real(traj.errors[::10] + yref)  # e = y - y_ref
            name, y_ref = "output_vs_reference.csv", profile(np.real(yref), theta)
            columns = {**grid("t", t), "y": profile(y, theta), "y_ref": y_ref}
        else:
            radii = np.linspace(1.0, 2.0, 33)
            field2d = plant.displacement_profile(traj.states[-1], radii, theta)  # figure 3: t = 9
            name, columns = "wave_profile_t9.csv", {**grid("r", radii), "w": field2d}
    path = out / name
    serialize.save_csv(path, columns)
    return {"csv": path}


def _svg_line_plot(path, x, y, title, ylog=False):
    """Minimal one-series polyline SVG plot, no plotting dependency."""
    width, height, margin = 720, 440, 50.0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if ylog:
        y = np.log10(np.maximum(y, 1e-300))
    ymin, ymax = float(y.min()), float(y.max())
    if ymax <= ymin:
        ymax = ymin + 1.0
    xmin, xmax = float(x.min()), float(x.max())
    if xmax <= xmin:  # a one-point series
        xmax = xmin + 1.0

    def px(v):
        return margin + (v - xmin) / (xmax - xmin) * (width - 2 * margin)

    def py(v):
        return height - margin - (v - ymin) / (ymax - ymin) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{margin}" y="{height - 10}" font-size="11">x: [{xmin:.3g}, {xmax:.3g}]</text>',
        f'<text x="{width - margin}" y="{height - 10}" text-anchor="end" font-size="11">'
        f'y{"(log10)" if ylog else ""}: [{ymin:.3g}, {ymax:.3g}]</text>',
    ]
    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.2"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


_SUITES = ("linalg", "wave", "synth", "loop")


def cmd_verify(suite="all", cfg=None):
    """Run the registered invariant checks of one suite, or of all; returns
    (all_passed, report lines)."""
    from . import checks  # imported here: only verify loads the oracles

    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"suite must be 'all' or one of {list(_SUITES)}")
    run = Run(cfg or sect5_config())
    lines = []
    all_ok = True
    for name in _SUITES if suite == "all" else (suite,):
        for entry in (c for c in checks.REGISTRY if c.suite == name):
            try:
                label, ok, detail = entry.run(run)
            except (ValueError, OSError, MemoryError) as exc:  # main's refusals; others are faults
                label, ok, detail = entry.label, False, f"{type(exc).__name__}: {exc}"
            all_ok &= ok
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {label} ({detail})")
    return all_ok, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wavereg",
        description="Output regulation for the boundary-controlled annulus wave equation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", metavar="PATH", default=None, help="JSON run configuration")
        sp.add_argument("--out", metavar="DIR", default=None, help="output directory override")

    add_common(sub.add_parser("eigs", help="tabulate radial eigenvalues"))
    add_common(sub.add_parser("synth", help="synthesize and report a controller"))
    add_common(sub.add_parser("simulate", help="run the closed loop and export CSV"))
    ver = sub.add_parser("verify", help="run numerical invariant suites")
    ver.add_argument("--suite", default="all", choices=["all", *_SUITES])
    ver.add_argument("--config", metavar="PATH", default=None)
    rep = sub.add_parser("reproduce", help="export preset figure data")
    rep.add_argument("--figure", type=int, required=True, choices=[1, 2, 3, 4])
    rep.add_argument("--out", metavar="DIR", default=None)
    rep.add_argument("--svg", action="store_true", help="also emit SVG plots (figure 2 only)")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = load_config(args.config) if args.config else None
            ok, lines = cmd_verify(args.suite, cfg)
            print("\n".join(lines))
            return 0 if ok else 1

        if args.command == "reproduce":
            result = cmd_reproduce(args.figure, out_dir=args.out, emit_svg=args.svg)
            print(f"wrote {result['csv']}")
            return 0

        cfg = load_config(args.config) if args.config else sect5_config()
        if args.command == "eigs":
            print(f"wrote {cmd_eigs(cfg, args.out)}")
        elif args.command == "synth":
            payload = cmd_synth(cfg, args.out)
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif args.command == "simulate":
            result = cmd_simulate(cfg, args.out)
            print(f"wrote {result['csv']} (final J {result['J_final']:.3e}, abscissa {result['abscissa']:+.4f})")
    # what a configuration can provoke: every refusal is a ValueError; one line and exit 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"wavereg: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
