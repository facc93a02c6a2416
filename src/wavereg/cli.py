"""Command line interface: configuration, presets, reproduction and export.

Subcommands
-----------
eigs        Tabulate the radial eigenvalues of the configured plant.
synth       Synthesize a controller, check the internal-model conditions and
            report the asymptotic error bound.
simulate    Run the closed loop and export the error/energy time series.
verify      Run the numerical invariant suites (linalg / wave / synth / loop).
reproduce   Shorthand for the annulus preset exports behind figures 1-4.

Configs are JSON with sections plant / exosystem / controller / simulation /
output; every command falls back to the built-in preset when no config is
given. All emitted CSVs are deterministic (byte-identical across runs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, bessel, linalg, loop, serialize, synthesis
from .exosystem import SignalSpec, SignalTerm, build_exosystem, build_sect5_exosystem, signals_at
from .plant import assemble_wave_plant

_CONTROLLER_KINDS = ("regulating", "approx", "robust")


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
    grid_size: int = 4096


@dataclass
class ControllerConfig:
    kind: str = "approx"
    N: int = 5
    epsilon: float = 0.15


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
        if p.n_radial < 1 or p.m_angular < 1:
            raise ValueError("plant.n_radial and plant.m_angular must be positive")
        if p.rho <= 0 or p.t_mod <= 0:
            raise ValueError("plant.rho and plant.t_mod must be positive")
        if p.damping_q < 0:
            raise ValueError("plant.damping_q must be nonnegative")
        if p.inner_bc not in bessel.INNER_BCS:
            raise ValueError(f"plant.inner_bc must be one of {bessel.INNER_BCS}")
        if c.kind not in _CONTROLLER_KINDS:
            raise ValueError(f"controller.kind must be one of {_CONTROLLER_KINDS}")
        if c.kind == "approx" and c.N < 1:
            raise ValueError("controller.N must be at least 1 for the approx kind")
        if c.epsilon < 0:
            raise ValueError("controller.epsilon must be nonnegative")
        if s.dt <= 0 or s.t_end < s.dt or s.window <= 0:
            raise ValueError("simulation times must be positive with t_end >= dt")
        return self

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        cfg = cls()
        for section in ("plant", "exosystem", "controller", "simulation", "output"):
            if section not in data:
                continue
            current = getattr(cfg, section)
            payload = dict(data[section])
            unknown = set(payload) - {f.name for f in dataclasses.fields(current)}
            if unknown:
                raise ValueError(f"unknown keys in config section {section}: {sorted(unknown)}")
            setattr(cfg, section, dataclasses.replace(current, **payload))
        if cfg.exosystem.preset is None:
            cfg.exosystem.reference = [
                t if isinstance(t, TermConfig) else TermConfig(**t) for t in cfg.exosystem.reference
            ]
            cfg.exosystem.disturbance = [
                t if isinstance(t, TermConfig) else TermConfig(**t) for t in cfg.exosystem.disturbance
            ]
        return cfg.validate()


def sect5_config():
    """The annulus preset: the configuration behind figures 1-4."""
    return RunConfig().validate()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return RunConfig.from_dict(json.load(fh))


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_plant(cfg):
    p = cfg.plant
    return assemble_wave_plant(
        p.n_radial, p.m_angular, p.damping_q, rho=p.rho, T_mod=p.t_mod, inner_bc=p.inner_bc
    )


def _term_from_config(term, plant):
    if term.profile_type == "fourier":
        coeffs = np.zeros(plant.basis.dim)
        data = np.asarray(term.profile_data, dtype=float)
        if data.size > plant.basis.dim:
            raise ValueError("fourier profile has more coefficients than the output basis")
        coeffs[: data.size] = data
        profile = lambda th: plant.basis.synthesize(coeffs, th)
    elif term.profile_type == "samples":
        profile = np.asarray(term.profile_data, dtype=float)
    else:
        raise ValueError(f"unknown profile type {term.profile_type!r}")
    return SignalTerm(profile=profile, temporal=term.temporal, omega=term.omega_over_pi * np.pi)


def build_exo(cfg, plant):
    e = cfg.exosystem
    if e.preset == "sect5":
        return build_sect5_exosystem(plant.basis.max_order, grid_size=e.grid_size)
    if e.preset is not None:
        raise ValueError(f"unknown exosystem preset {e.preset!r}")
    reference = SignalSpec([_term_from_config(t, plant) for t in e.reference])
    disturbance = SignalSpec([_term_from_config(t, plant) for t in e.disturbance])
    return build_exosystem(reference, disturbance, plant.basis.max_order, grid_size=e.grid_size)


def build_controller(cfg, plant, exo):
    c = cfg.controller
    if c.kind == "regulating":
        return synthesis.synth_regulating(plant, exo, c.epsilon)
    if c.kind == "approx":
        return synthesis.synth_approx_robust(plant, exo, c.N, c.epsilon)
    return synthesis.synth_robust(plant, exo, c.epsilon)


def _initial_state(spec, dim, name):
    if spec == "zero":
        return np.zeros(dim, dtype=complex)
    if isinstance(spec, dict) and "file" in spec:
        vec = serialize.load_vector(spec["file"])
        if vec.size != dim:
            raise ValueError(f"{name} from {spec['file']} has size {vec.size}, expected {dim}")
        return vec
    raise ValueError(f"{name} must be 'zero' or {{'file': path}}")


def _outdir(cfg, override):
    out = Path(override) if override else Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_eigs(cfg, out_dir=None):
    """Write the radial eigenvalue table (m, n, k, mu, residual) as CSV."""
    out = _outdir(cfg, out_dir)
    p = cfg.plant
    rows = []
    for m in range(p.m_angular):
        for mode in bessel.find_radial_roots(m, p.n_radial, inner_bc=p.inner_bc):
            rows.append(
                (mode.m, mode.n, float(mode.k), float(mode.mu),
                 float(abs(bessel.cross_fn(mode.m, mode.k, p.inner_bc))))
            )
    path = out / "eigenvalues.csv"
    serialize.save_csv(path, ["m", "n", "k", "mu", "cross_residual"], rows)
    return path


def cmd_synth(cfg, out_dir=None):
    """Synthesize the configured controller and write matrices plus reports."""
    out = _outdir(cfg, out_dir)
    plant = build_plant(cfg)
    exo = build_exo(cfg, plant)
    ctrl = build_controller(cfg, plant, exo)
    for name, M in (("G1", ctrl.G1), ("G2", ctrl.G2), ("K", ctrl.K), ("K0", ctrl.K0)):
        serialize.save_matrix(out / f"controller_{name}.mtx", M)
    report = synthesis.check_g_conditions(ctrl)
    cl = loop.assemble_direct(plant, ctrl, exo)
    reg = synthesis.solve_regulator(cl, exo)
    bound = synthesis.error_bound_delta(reg, cl, ctrl.projector())
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


def cmd_simulate(cfg, out_dir=None):
    """Full pipeline run; writes simulation.csv and optional SVG plots."""
    t_start = time.perf_counter()
    out = _outdir(cfg, out_dir)
    plant = build_plant(cfg)
    exo = build_exo(cfg, plant)
    ctrl = build_controller(cfg, plant, exo)
    cl = loop.assemble_direct(plant, ctrl, exo)
    if not cl.is_stable:
        raise ValueError(
            f"closed loop is unstable (spectral abscissa {cl.abscissa:+.4e} >= 0); not simulating"
        )
    sim = cfg.simulation
    x0 = np.concatenate(
        [
            _initial_state(sim.x0, plant.state_dim, "x0"),
            _initial_state(sim.z0, ctrl.dim_z, "z0"),
        ]
    )
    traj = loop.simulate_exact(cl, exo, x0=x0, t_end=sim.t_end, dt=sim.dt)
    series = loop.windowed_error(traj, window=sim.window)
    pn_series = loop.windowed_error(traj, window=sim.window, weights=ctrl.projector())
    err_sq = traj.error_norms_sq()
    pn_err_sq = np.sum(np.abs(traj.errors @ ctrl.projector().T) ** 2, axis=1)
    rows = []
    n_j = series.values.size
    for i, t in enumerate(traj.t):
        j_val = float(series.values[i]) if i < n_j else ""
        jpn_val = float(pn_series.values[i]) if i < n_j else ""
        rows.append((float(t), j_val, float(err_sq[i]), float(pn_err_sq[i]), float(traj.energies[i])))
    csv_path = out / "simulation.csv"
    serialize.save_csv(csv_path, ["t", "J", "err_sq", "pn_err_sq", "energy"], rows)
    if cfg.output.emit_svg:
        _svg_line_plot(
            out / "windowed_error.svg",
            series.t,
            [("J(t)", series.values)],
            "windowed tracking error",
            ylog=True,
        )
        _svg_line_plot(
            out / "energy.svg", traj.t, [("energy", traj.energies)], "plant energy"
        )
    meta = {
        "config": cfg.to_dict(),
        "version": __version__,
        "abscissa": cl.abscissa,
        "J_final": float(series.values[-1]),
        "elapsed_s": time.perf_counter() - t_start,
    }
    with open(out / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "J_final": float(series.values[-1]), "abscissa": cl.abscissa}


def cmd_reproduce(figure, out_dir=None, emit_svg=False):
    """Export the data grid behind one of the preset figures (1-4)."""
    cfg = sect5_config()
    cfg.output.emit_svg = emit_svg
    out = _outdir(cfg, out_dir)
    if figure == 2:
        cfg.simulation.t_end = 20.0
        return cmd_simulate(cfg, out_dir)
    plant = build_plant(cfg)
    exo = build_exo(cfg, plant)
    theta = np.linspace(0.0, 2.0 * np.pi, 129)
    if figure == 4:
        rows = []
        for t in np.arange(0.0, 6.0 + 1e-12, 0.05):
            w, _ = signals_at(exo, float(t))
            profile = plant.basis.synthesize(np.real(w), theta)
            rows.extend((float(t), float(th), float(val)) for th, val in zip(theta, profile))
        path = out / "disturbance.csv"
        serialize.save_csv(path, ["t", "theta", "d"], rows)
        return {"csv": path}
    ctrl = build_controller(cfg, plant, exo)
    cl = loop.assemble_direct(plant, ctrl, exo)
    traj = loop.simulate_exact(cl, exo, t_end=10.0, dt=0.01)
    if figure == 1:
        rows = []
        stride = 10  # sample profiles every 0.1s
        for i in range(0, traj.t.size, stride):
            t = float(traj.t[i])
            y_coeffs = np.real(cl.Ccl @ traj.states[i])
            _, yref_coeffs = signals_at(exo, t)
            y_prof = plant.basis.synthesize(y_coeffs, theta)
            r_prof = plant.basis.synthesize(np.real(yref_coeffs), theta)
            rows.extend(
                (t, float(th), float(a), float(b)) for th, a, b in zip(theta, y_prof, r_prof)
            )
        path = out / "output_vs_reference.csv"
        serialize.save_csv(path, ["t", "theta", "y", "y_ref"], rows)
        return {"csv": path}
    if figure == 3:
        idx = int(round(9.0 / traj.dt))
        radii = np.linspace(1.0, 2.0, 33)
        field2d = plant.displacement_profile(traj.states[idx], radii, theta)
        rows = [
            (float(r), float(th), float(field2d[i, j]))
            for i, r in enumerate(radii)
            for j, th in enumerate(theta)
        ]
        path = out / "wave_profile_t9.csv"
        serialize.save_csv(path, ["r", "theta", "w"], rows)
        return {"csv": path}
    raise ValueError("figure must be one of 1, 2, 3, 4")


def _svg_line_plot(path, x, series, title, ylog=False, width=720, height=440):
    """Minimal polyline SVG plot, no plotting dependency."""
    margin = 50.0
    x = np.asarray(x, dtype=float)
    colors = ("#1f6fb2", "#c04a3b", "#3f9b57", "#8a5fb0")
    transformed = []
    for label, y in series:
        y = np.asarray(y, dtype=float)
        if ylog:
            y = np.log10(np.maximum(y, 1e-300))
        transformed.append((label, y))
    ymin = min(float(y.min()) for _, y in transformed)
    ymax = max(float(y.max()) for _, y in transformed)
    if ymax <= ymin:
        ymax = ymin + 1.0
    xmin, xmax = float(x.min()), float(x.max())

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
    for (label, y), color in zip(transformed, colors):
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# verification suites


def _suite_linalg(seed):
    rng = np.random.default_rng(seed)
    checks = []
    A = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)) + 8 * np.eye(20)
    B = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    X = linalg.solve_dense(A, B)
    res = np.linalg.norm(A @ X - B) / np.linalg.norm(B)
    checks.append(("solve_dense residual < 1e-10", res < 1e-10, f"{res:.2e}"))
    M = rng.standard_normal((5, 9))
    err = np.linalg.norm(M @ linalg.pinv(M) - np.eye(5))
    checks.append(("pinv right-inverse identity", err < 1e-10, f"{err:.2e}"))
    S_skew = rng.standard_normal((12, 12))
    S_skew = S_skew - S_skew.T
    x = rng.standard_normal(12)
    drift = abs(np.linalg.norm(linalg.expm(S_skew, 7.3) @ x) - np.linalg.norm(x))
    checks.append(("expm skew-adjoint isometry", drift < 1e-9, f"{drift:.2e}"))
    Ae = rng.standard_normal((12, 12)) - 10 * np.eye(12)
    Be = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    om = [0.7, -1.3, 2.4]
    diff = np.abs(
        linalg.sylvester_diag(Ae, Be, om) - linalg.sylvester_kron(Ae, Be, om)
    ).max()
    checks.append(("sylvester diag vs kron", diff < 1e-10, f"{diff:.2e}"))
    G = rng.standard_normal((6, 4))
    smax, vmax = linalg.operator_norm(G)
    gap = abs(np.linalg.norm(G @ vmax) - smax)
    checks.append(("operator_norm maximizer", gap < 1e-10, f"{gap:.2e}"))
    return checks


def _suite_wave(seed, cfg):
    rng = np.random.default_rng(seed)
    checks = []
    for xx in (1.0, 5.0, 20.0):
        J1, _, _, _ = bessel.bessel_jy(1, xx)
        J0, Y0, _, _ = bessel.bessel_jy(0, xx)
        _, Y1, _, _ = bessel.bessel_jy(1, xx)
        wr = abs(J1 * Y0 - J0 * Y1 - 2.0 / (np.pi * xx))
        checks.append((f"Bessel Wronskian at x={xx}", wr < 1e-10, f"{wr:.2e}"))
    plant = build_plant(cfg)
    gram_err = 0.0
    for i, mi in enumerate(plant.modes):
        for mj in plant.modes[i + 1 :]:
            if mi.radial.m == mj.radial.m and mi.parity == mj.parity:
                gram_err = max(gram_err, abs(bessel.radial_inner_product(mi.radial, mj.radial)))
    checks.append(("eigenmode Gram off-diagonals < 1e-6", gram_err < 1e-6, f"{gram_err:.2e}"))
    x0 = rng.standard_normal(plant.state_dim)
    resp = loop.free_response(plant, x0, t_end=10.0, dt=0.01, damped=False)
    drift = np.abs(resp.energies / resp.energies[0] - 1.0).max()
    checks.append(("undamped energy conservation", drift < 1e-9, f"{drift:.2e}"))
    worst = 0.0
    for _ in range(5):
        x0 = rng.standard_normal(plant.state_dim)
        resp = loop.free_response(plant, x0, t_end=5.0, dt=0.005)
        y_sq = np.sum(resp.outputs**2, axis=1)
        integral = np.trapezoid(y_sq, resp.t)
        worst = max(worst, integral / (plant.energy(x0) / (2.0 * plant.Q_feedback)))
        if np.any(np.diff(resp.energies) > 1e-12 * resp.energies[0]):
            checks.append(("damped energy decay monotone", False, "energy increased"))
            break
    checks.append(("admissibility bound int ||y||^2 <= E0/(2Q)", worst <= 1.0, f"ratio {worst:.4f}"))
    return checks


def _suite_synth(seed, cfg):
    rng = np.random.default_rng(seed)
    checks = []
    plant = build_plant(cfg)
    exo = build_exo(cfg, plant)
    reg_ctrl = synthesis.synth_regulating(plant, exo, 0.15)
    cl = loop.assemble_direct(plant, reg_ctrl, exo)
    reg = synthesis.solve_regulator(cl, exo)
    scale = (
        np.linalg.norm(cl.Ccl, 2) * np.linalg.norm(reg.Sigma, 2) + np.linalg.norm(cl.Dcl, 2)
    )
    ok = reg.residual2 < 1e-8 * scale
    checks.append(("regulating controller residual2 (scaled)", ok, f"{reg.residual2:.2e}"))
    K0p = reg_ctrl.K0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, reg_ctrl.K0.shape))
    bad = dataclasses.replace(reg_ctrl, K0=K0p, K=reg_ctrl.eps * K0p)
    reg_bad = synthesis.solve_regulator(loop.assemble_direct(plant, bad, exo), exo)
    checks.append(
        ("10% K0 perturbation breaks regulation", reg_bad.residual2 > 1e-3, f"{reg_bad.residual2:.2e}")
    )
    robust = synthesis.synth_robust(plant, exo, 0.15)
    rep = synthesis.check_g_conditions(robust)
    checks.append(("robust controller passes G-conditions", rep.passed, str(rep)))
    approx = synthesis.synth_approx_robust(plant, exo, cfg.controller.N, cfg.controller.epsilon)
    rep_a = synthesis.check_g_conditions(approx)
    expected_kernel = plant.output_dim - (2 * cfg.controller.N + 1)
    checks.append(
        (
            "approx controller kernel dim = dimY - (2N+1)",
            rep_a.kernel_dim_G2 == expected_kernel and not rep_a.passed,
            f"kernel {rep_a.kernel_dim_G2}",
        )
    )
    cl_a = loop.assemble_direct(plant, approx, exo)
    reg_a = synthesis.solve_regulator(cl_a, exo)
    bound = synthesis.error_bound_delta(reg_a, cl_a, approx.projector())
    checks.append(("delta <= delta_coarse", bound.delta <= bound.delta_coarse + 1e-15,
                   f"{bound.delta:.2e} vs {bound.delta_coarse:.2e}"))
    checks.append(("preset delta < 0.01", bound.delta < 0.01, f"{bound.delta:.2e}"))
    gamma_cf = synthesis.gamma_closed_form(plant, approx, exo)
    diff = np.abs(gamma_cf - reg_a.Gamma).max()
    checks.append(("closed-form Gamma matches solver", diff < 1e-8, f"{diff:.2e}"))
    return checks


def _suite_loop(seed, cfg):
    checks = []
    plant = build_plant(cfg)
    exo = build_exo(cfg, plant)
    ctrl = build_controller(cfg, plant, exo)
    cl_d = loop.assemble_direct(plant, ctrl, exo)
    cl_p = loop.assemble_paper_Ae(plant, ctrl, exo)
    spec_d = linalg.eig(cl_d.Acl).eigenvalues
    spec_p = linalg.eig(cl_p.Acl).eigenvalues
    dist = linalg.match_spectra(spec_d, spec_p)
    checks.append(("direct vs transformed spectra", dist < 1e-8, f"{dist:.2e}"))
    worst = 0.0
    for k, w in enumerate(exo.omegas):
        phi = np.zeros(exo.q)
        phi[k] = 1.0
        worst = max(worst, np.linalg.norm((cl_d.transfer(1j * w) - cl_p.transfer(1j * w)) @ phi))
    checks.append(("transfer agreement on exosystem directions", worst < 1e-8, f"{worst:.2e}"))
    grid = [0.05 * i for i in range(1, 11)]
    sweep = loop.find_epsilon_star(
        plant, lambda e: build_controller_with_eps(cfg, plant, exo, e), exo, grid
    )
    has_prefix = sweep.stable_is_prefix_from_first()
    checks.append(("eps sweep has stable prefix", has_prefix, f"best eps {sweep.eps_best}"))
    near = [a for e, a in sweep.entries if abs(e - cfg.controller.epsilon) < 1e-9]
    if near:
        checks.append(("configured eps is stable", near[0] < 0, f"abscissa {near[0]:+.4f}"))
    return checks


def build_controller_with_eps(cfg, plant, exo, eps):
    sub = dataclasses.replace(cfg.controller, epsilon=eps)
    shadow = dataclasses.replace(cfg, controller=sub)
    return build_controller(shadow, plant, exo)


_SUITES = {"linalg": 1, "wave": 2, "synth": 3, "loop": 4}


def cmd_verify(suite="all", cfg=None, seed=20250810):
    """Run the invariant suites; returns (all_passed, report lines)."""
    cfg = cfg or sect5_config()
    names = list(_SUITES) if suite == "all" else [suite]
    if any(n not in _SUITES for n in names):
        raise ValueError(f"suite must be 'all' or one of {list(_SUITES)}")
    suites = {
        "linalg": lambda: _suite_linalg(seed),
        "wave": lambda: _suite_wave(seed, cfg),
        "synth": lambda: _suite_synth(seed, cfg),
        "loop": lambda: _suite_loop(seed, cfg),
    }
    lines = []
    all_ok = True
    for name in names:
        try:
            checks = suites[name]()
        except Exception as exc:  # a broken configuration fails the suite, not the CLI
            checks = [("suite completed", False, f"{type(exc).__name__}: {exc}")]
        for label, ok, detail in checks:
            all_ok &= bool(ok)
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
    ver.add_argument("--suite", default="all", choices=["all", "linalg", "wave", "synth", "loop"])
    ver.add_argument("--config", metavar="PATH", default=None)
    ver.add_argument("--seed", type=int, default=20250810, help="seed for randomized checks")
    rep = sub.add_parser("reproduce", help="export preset figure data")
    rep.add_argument("--figure", type=int, required=True, choices=[1, 2, 3, 4])
    rep.add_argument("--out", metavar="DIR", default=None)
    rep.add_argument("--svg", action="store_true", help="also emit SVG plots")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = load_config(args.config) if args.config else None
            ok, lines = cmd_verify(args.suite, cfg, seed=args.seed)
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
    except ValueError as exc:
        print(f"wavereg: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
