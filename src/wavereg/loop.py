"""Closed-loop assembly, exact LTI simulation and stability/robustness sweeps.

The plant-controller-exosystem interconnection is assembled in two
algebraically equivalent forms: the production form obtained by directly
eliminating u and y, and the transformed form from the boundary-system
construction, kept for cross-validation (the two are similar, so their
spectra agree).

Simulation samples the augmented constant system (x_e, v)' =
[[Acl, Bcl], [0, S]] (x_e, v) with its one-step matrix exponential P: the
first ``BLOCK`` samples by sequential products with P, every later block of
``BLOCK`` samples by one matrix product with P^BLOCK applied to the block
before it. The samples are exact for the LTI dynamics up to the exponential's
own tolerance and roundoff; only the sliding-window error integrals depend on
the step size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, synthesis
from .linalg import OverflowCapError

# Hard cap on trajectory growth relative to the initial data.
_GROWTH_CAP = 1e12

# Samples per block of the time stepping (see _propagate).
BLOCK = 128


class WindowTooLargeError(ValueError):
    """The averaging window does not fit into the simulated horizon."""


class PerturbationPreconditionError(RuntimeError):
    """A perturbed plant violates the admissibility requirement that the
    exosystem frequencies avoid the spectrum of the pre-stabilized plant."""


@dataclass(frozen=True)
class ClosedLoop:
    """Assembled interconnection x_e' = Acl x_e + Bcl v, e = Ccl x_e + Dcl v."""

    Acl: np.ndarray
    Bcl: np.ndarray
    Ccl: np.ndarray
    Dcl: np.ndarray
    plant_dim: int
    ctrl_dim: int
    abscissa: float
    plant: object = field(repr=False)
    ctrl: object = field(repr=False)
    exo: object = field(repr=False)

    def __post_init__(self):
        n = self.plant_dim + self.ctrl_dim
        if self.Acl.shape != (n, n):
            raise ValueError("closed-loop state dimension mismatch")
        if self.Bcl.shape[0] != n or self.Ccl.shape[1] != n:
            raise ValueError("closed-loop input/output dimension mismatch")
        if self.Dcl.shape != (self.Ccl.shape[0], self.Bcl.shape[1]):
            raise ValueError("closed-loop feedthrough dimension mismatch")

    @property
    def state_dim(self):
        return self.plant_dim + self.ctrl_dim

    @property
    def is_stable(self):
        return self.abscissa < 0.0

    def transfer(self, lam):
        """Transfer function v -> e at the complex frequency ``lam``."""
        n = self.state_dim
        X = linalg.solve_dense(lam * np.eye(n) - self.Acl, self.Bcl)
        return self.Ccl @ X + self.Dcl


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run: states x_e, tracking errors and plant energy."""

    t: np.ndarray
    states: np.ndarray
    errors: np.ndarray
    energies: np.ndarray

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])

    def error_norms_sq(self):
        return np.sum(np.abs(self.errors) ** 2, axis=1)


@dataclass(frozen=True)
class ErrorSeries:
    """Sliding-window error integrals J(t) = int_t^{t+window} ||e||^2 ds."""

    t: np.ndarray
    values: np.ndarray
    window: float

    def at(self, time):
        """J at the grid point closest to ``time``."""
        idx = int(np.argmin(np.abs(self.t - time)))
        return float(self.values[idx])


def assemble_direct(plant, ctrl, exo):
    """Assemble the closed loop by direct elimination of u and y.

    The plant input u = K z - Q e and disturbance w = E v are substituted
    into the pre-stabilized dynamics, giving

        Acl = [[A_s, B K], [G2 C, G1]],   Bcl = [[B E_s], [G2 F]],
        Ccl = [C, 0],  Dcl = F,   E_s = E - Q F.
    """
    if ctrl.dim_y != plant.output_dim:
        raise ValueError("controller output dimension does not match the plant")
    E_s = synthesis.stabilized_disturbance(plant, exo)
    n_p, n_z = plant.state_dim, ctrl.dim_z
    Acl = np.zeros((n_p + n_z, n_p + n_z), dtype=complex)
    Acl[:n_p, :n_p] = plant.As
    Acl[:n_p, n_p:] = plant.B @ ctrl.K
    Acl[n_p:, :n_p] = ctrl.G2 @ plant.C
    Acl[n_p:, n_p:] = ctrl.G1
    Bcl = np.vstack([plant.B @ E_s, ctrl.G2 @ exo.F])
    Ccl = np.hstack([plant.C, np.zeros((plant.output_dim, n_z))]).astype(complex)
    Dcl = exo.F.copy()
    spec = linalg.eig(Acl)
    return ClosedLoop(
        Acl=Acl,
        Bcl=Bcl,
        Ccl=Ccl,
        Dcl=Dcl,
        plant_dim=n_p,
        ctrl_dim=n_z,
        abscissa=spec.abscissa,
        plant=plant,
        ctrl=ctrl,
        exo=exo,
    )


def assemble_paper_Ae(plant, ctrl, exo):
    """Assemble the closed loop in the transformed boundary-system form.

    The transformation x_e = [[I, -B_s K], [0, I]] (x, z) - (B_s E_s v, 0)
    turns the interconnection into an ordinary input/state/output system. In
    modal coordinates the right inverse of the stabilized input map is the
    input matrix itself, B_s = B, and the generator acts on its range as
    Alpha B_s = (A_s + I) B (the identity term is the boundary value of B_s).
    This form is similar to :func:`assemble_direct` and is used only for
    cross-validation.
    """
    As = plant.As
    E_s = synthesis.stabilized_disturbance(plant, exo)
    n_p, n_z = plant.state_dim, ctrl.dim_z
    B, C, F = plant.B, plant.C, exo.F
    M = B @ ctrl.K                             # B_s K
    AM = (As + np.eye(n_p)) @ M                # Alpha B_s K
    G1t = ctrl.G1 + ctrl.G2 @ (C @ M)          # G1 + G2 C B_s K
    CBE_F = C @ (B @ E_s) + F                  # C B_s E_s + F

    Acl = np.zeros((n_p + n_z, n_p + n_z), dtype=complex)
    Acl[:n_p, :n_p] = As - M @ (ctrl.G2 @ C)
    Acl[:n_p, n_p:] = AM - M @ G1t
    Acl[n_p:, :n_p] = ctrl.G2 @ C
    Acl[n_p:, n_p:] = G1t
    S = np.diag(1j * exo.omegas)
    Bcl = np.vstack(
        [(As + np.eye(n_p)) @ (B @ E_s) - B @ E_s @ S - M @ (ctrl.G2 @ CBE_F), ctrl.G2 @ CBE_F]
    )
    Ccl = np.hstack([C, C @ M]).astype(complex)
    Dcl = CBE_F.astype(complex)
    spec = linalg.eig(Acl)
    return ClosedLoop(
        Acl=Acl,
        Bcl=Bcl,
        Ccl=Ccl,
        Dcl=Dcl,
        plant_dim=n_p,
        ctrl_dim=n_z,
        abscissa=spec.abscissa,
        plant=plant,
        ctrl=ctrl,
        exo=exo,
    )


@dataclass(frozen=True)
class EpsilonSweep:
    """Spectral abscissa of the closed loop over a grid of tuning gains."""

    entries: tuple
    eps_best: float

    def stable_values(self):
        return [e for e, a in self.entries if a < 0.0]

    def stable_is_prefix_from_first(self):
        """True if the stable gains form one contiguous run starting at the
        smallest stable grid point (the low-gain picture)."""
        flags = [a < 0.0 for _, a in self.entries]
        if not any(flags):
            return False
        first = flags.index(True)
        run_end = first
        while run_end < len(flags) and flags[run_end]:
            run_end += 1
        return not any(flags[run_end:])


def find_epsilon_star(plant, ctrl_family, exo, eps_grid):
    """Sweep the tuning gain and record the closed-loop spectral abscissa.

    Parameters
    ----------
    ctrl_family : callable
        Map eps -> Controller (same structure, scaled gain).
    eps_grid : sequence of float
        Nonempty, nonnegative gains to test.

    Returns
    -------
    EpsilonSweep
        Table of (eps, abscissa) pairs and the gain minimizing the abscissa.
    """
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValueError("eps_grid must be nonempty")
    if any(e < 0 for e in grid):
        raise ValueError("eps_grid entries must be nonnegative")
    entries = []
    for eps in grid:
        cl = assemble_direct(plant, ctrl_family(eps), exo)
        entries.append((eps, cl.abscissa))
    eps_best = min(entries, key=lambda pair: pair[1])[0]
    return EpsilonSweep(entries=tuple(entries), eps_best=eps_best)


def _propagate(step, X):
    """Fill ``X[k] = step^k X[0]`` in place, ``BLOCK`` rows at a time.

    The first block takes ``BLOCK - 1`` sequential products with ``step``;
    every later block is one product of the block before it with
    ``step^BLOCK``, written straight into ``X``. Yields the row slice of each
    block as soon as it is written, so the caller can check and reduce it
    before the next one is computed.
    """
    n_rows = X.shape[0]
    first = min(BLOCK, n_rows)
    for k in range(1, first):
        np.matmul(step, X[k - 1], out=X[k])
    yield slice(0, first)
    if first == n_rows:
        return
    leap_T = np.linalg.matrix_power(step, BLOCK).T
    for k0 in range(BLOCK, n_rows, BLOCK):
        b = min(BLOCK, n_rows - k0)
        np.matmul(X[k0 - BLOCK : k0 - BLOCK + b], leap_T, out=X[k0 : k0 + b])
        yield slice(k0, k0 + b)


def simulate_exact(cl, exo, x0=None, t_end=20.0, dt=0.01):
    """Simulate the closed loop driven by the exosystem.

    The combined state (x_e, v) is sampled with the matrix exponential of the
    augmented generator over one step, leaping ``BLOCK`` steps at a time with
    its power (see :func:`_propagate`), so the trajectory is exact for the LTI
    system up to roundoff; halving dt only refines the sampling. Errors and
    energies are computed block by block.

    Parameters
    ----------
    x0 : array_like, optional
        Initial closed-loop state x_e(0); zero by default. The exosystem
        starts from its own v0.

    Raises
    ------
    OverflowCapError
        If the state grows beyond the configured cap (unstable loop on a
        long horizon); the message names the first sample over the cap.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    n = cl.state_dim
    q = exo.q
    aug = np.zeros((n + q, n + q), dtype=complex)
    aug[:n, :n] = cl.Acl
    aug[:n, n:] = cl.Bcl
    aug[n:, n:] = np.diag(1j * exo.omegas)
    step = linalg.expm(aug, dt)

    xi = np.zeros(n + q, dtype=complex)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=complex)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},)")
        xi[:n] = x0
    xi[n:] = exo.v0

    cap = _GROWTH_CAP * (1.0 + np.linalg.norm(xi))
    t = dt * np.arange(n_steps + 1)
    X = np.empty((n_steps + 1, n + q), dtype=complex)
    X[0] = xi
    errors = np.empty((n_steps + 1, cl.Ccl.shape[0]), dtype=complex)
    energies = np.empty(n_steps + 1)
    for block in _propagate(step, X):
        rows = X[block]
        # a non-finite row counts as over the cap
        over = ~(np.linalg.norm(rows, axis=1) <= cap)
        if over.any():
            first = block.start + np.argmax(over)
            raise OverflowCapError(
                f"trajectory exceeded the growth cap at t={t[first]:.3f} "
                f"(abscissa {cl.abscissa:+.3e})"
            )
        errors[block] = rows[:, :n] @ cl.Ccl.T + rows[:, n:] @ cl.Dcl.T
        energies[block] = cl.plant.energy(rows[:, : cl.plant_dim])
    return Trajectory(t=t, states=X[:, :n], errors=errors, energies=energies)


def windowed_error(traj, window=1.0, weights=None):
    """Sliding-window integrals of the squared error norm.

    Parameters
    ----------
    traj : Trajectory
    window : float
        Window length; must be an integer multiple of the time step and fit
        into the horizon.
    weights : (dim_y, dim_y) array_like, optional
        Optional output-space operator applied to the error before taking
        norms (e.g. a projection P_N).

    Returns
    -------
    ErrorSeries
        Trapezoid-rule values J(t) on the grid points t <= t_end - window.
    """
    dt = traj.dt
    steps = int(round(window / dt))
    if abs(steps * dt - window) > 1e-9 * max(1.0, window):
        raise ValueError("window must be an integer multiple of dt")
    if steps < 1 or steps >= traj.t.size:
        raise WindowTooLargeError(
            f"window {window} does not fit into the horizon {traj.t[-1]}"
        )
    err = traj.errors if weights is None else traj.errors @ np.asarray(weights).T
    sq = np.sum(np.abs(err) ** 2, axis=1)
    # Sum each window's trapezoid areas directly. Differences of one running
    # cumulative sum would lose every window below roundoff of the integral
    # so far, which on long decaying runs reads exactly 0.
    areas = 0.5 * dt * (sq[1:] + sq[:-1])
    values = np.convolve(areas, np.ones(steps), mode="valid")
    return ErrorSeries(t=traj.t[: traj.t.size - steps], values=values, window=float(window))


@dataclass(frozen=True)
class FreeResponse:
    """Unforced plant run: states, boundary velocity outputs and energy."""

    t: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    energies: np.ndarray


def free_response(plant, x0, t_end, dt, damped=True):
    """Free evolution of the (un)damped plant with zero boundary input.

    Samples the plant generator (``As`` if damped, ``A`` otherwise) with its
    matrix exponential over dt, ``BLOCK`` steps at a time as in
    :func:`simulate_exact`; used by the energy-conservation, decay and
    admissibility checks.
    """
    if dt <= 0 or t_end < dt:
        raise ValueError("need dt > 0 and t_end >= dt")
    gen = plant.As if damped else plant.A
    step = linalg.expm(gen, dt)
    n_steps = int(round(t_end / dt))
    x0 = np.asarray(x0)
    t = dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1,) + x0.shape, dtype=np.result_type(step, x0))
    states[0] = x0
    outputs = np.empty((n_steps + 1, plant.output_dim))
    energies = np.empty(n_steps + 1)
    for block in _propagate(step, states):
        outputs[block] = np.real(states[block] @ plant.C.T)
        energies[block] = plant.energy(states[block])
    return FreeResponse(t=t, states=states, outputs=outputs, energies=energies)


@dataclass(frozen=True)
class Perturbation:
    """Multiplicative plant perturbations plus additive exosystem offsets."""

    q_scale: float = 1.0
    stiffness_scale: float = 1.0
    dE: np.ndarray | None = None
    dF: np.ndarray | None = None


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of re-closing the loop with a perturbed plant/exosystem."""

    stable: bool
    abscissa: float
    delta: float | None = None
    delta_coarse: float | None = None
    J_final: float | None = None
    J_mid: float | None = None
    PN_J_final: float | None = None
    decays: bool | None = None


def perturb_and_verify(plant, ctrl, exo, perturbation, t_end=41.0, dt=0.01, window=1.0):
    """Re-run the closed loop with the same controller on a perturbed plant.

    Rebuilds the plant with scaled stiffness/damping and shifts the exosystem
    maps, keeping the controller fixed. Reports the perturbed abscissa, the
    recomputed error bound and the measured windowed errors (full and
    P_N-projected); instability is reported, not raised.

    Raises
    ------
    PerturbationPreconditionError
        If some exosystem frequency enters the spectrum of the perturbed
        pre-stabilized plant, which invalidates the admissibility class.
    """
    pplant = plant.perturbed(
        stiffness_scale=perturbation.stiffness_scale, q_scale=perturbation.q_scale
    )
    E = exo.E if perturbation.dE is None else exo.E + perturbation.dE
    F = exo.F if perturbation.dF is None else exo.F + perturbation.dF
    pexo = replace(exo, E=E, F=F)
    for w in exo.omegas:
        try:
            synthesis.eval_transfer(pplant.As, pplant.B, pplant.C, 1j * w)
        except linalg.ResonanceError as exc:
            raise PerturbationPreconditionError(
                f"i*{w} entered the spectrum of the perturbed stabilized plant"
            ) from exc
    cl = assemble_direct(pplant, ctrl, pexo)
    if not cl.is_stable:
        return PerturbationReport(stable=False, abscissa=cl.abscissa)
    reg = synthesis.solve_regulator(cl, pexo)
    bound = synthesis.error_bound_delta(reg, cl, ctrl.projector())
    traj = simulate_exact(cl, pexo, t_end=t_end, dt=dt)
    series = windowed_error(traj, window=window)
    pn_series = windowed_error(traj, window=window, weights=ctrl.projector())
    J_final = float(series.values[-1])
    J_mid = series.at(t_end / 2.0)
    return PerturbationReport(
        stable=True,
        abscissa=cl.abscissa,
        delta=bound.delta,
        delta_coarse=bound.delta_coarse,
        J_final=J_final,
        J_mid=J_mid,
        PN_J_final=float(pn_series.values[-1]),
        decays=J_final <= J_mid + 1e-12,
    )
