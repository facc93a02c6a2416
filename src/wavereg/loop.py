"""Closed-loop assembly and exact LTI simulation.

The plant-controller-exosystem interconnection is assembled by directly
eliminating u and y. The similar transformed form of the boundary-system
construction, its cross-validation oracle, lives in :mod:`wavereg.checks`.

A :class:`ClosedLoop` partitions its generator into diagonal blocks (the
decoupled channels of the loop) once; its spectrum, the regulator solve and
the simulation read that partition. Simulation steps each block on its own,
with the one-step matrix exponential of the block augmented by its own copy
of the exosystem, filling its samples by doubling: the samples [k, 2k) are
the samples [0, k) times step^k. Each block is reduced to its outputs and
weighted squared norms once filled, so no state history is kept. The samples
are exact for the LTI dynamics up to the exponential's own tolerance and
roundoff; only the sliding-window error integrals depend on dt.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import exosystem, linalg, synthesis
from .linalg import OverflowCapError

# Hard cap on trajectory growth relative to the initial data.
_GROWTH_CAP = 1e12


class WindowTooLargeError(ValueError):
    """The averaging window does not fit into the simulated horizon."""


@dataclass(frozen=True)
class ClosedLoop:
    """Assembled interconnection x_e' = Acl x_e + Bcl v, e = Ccl x_e + Dcl v,
    x_e the plant state over the controller state. The sizes, the diagonal
    ``blocks`` of ``Acl`` (:func:`linalg._diagonal_blocks`, computed once), the
    ``spectrum`` (per block, sorted by real then imaginary part) and its
    abscissa derive from ``Acl`` and ``plant``."""

    Acl: np.ndarray
    Bcl: np.ndarray
    Ccl: np.ndarray
    Dcl: np.ndarray
    plant: object = field(repr=False)
    ctrl: object = field(repr=False)
    exo: object = field(repr=False)

    def __post_init__(self):
        n = self.Acl.shape[0]
        if self.Acl.shape != (n, n):
            raise ValueError("closed-loop state dimension mismatch")
        if self.Bcl.shape[0] != n or self.Ccl.shape[1] != n:
            raise ValueError("closed-loop input/output dimension mismatch")
        if self.Dcl.shape != (self.Ccl.shape[0], self.Bcl.shape[1]):
            raise ValueError("closed-loop feedthrough dimension mismatch")

    @property
    def plant_dim(self):
        return self.plant.state_dim

    @property
    def state_dim(self):
        return self.Acl.shape[0]

    @functools.cached_property
    def blocks(self):
        return linalg._diagonal_blocks(self.Acl)

    @functools.cached_property
    def spectrum(self):
        w = np.concatenate([linalg.eig(self.Acl[np.ix_(idx, idx)]) for idx in self.blocks])
        return w[np.lexsort((w.imag, w.real))]

    @functools.cached_property
    def abscissa(self):
        return float(self.spectrum.real.max())

    @property
    def is_stable(self):
        return self.abscissa < 0.0

    def require_stable(self):
        """Refuse, naming the abscissa, a loop that is not exponentially stable."""
        if not self.is_stable:
            raise ValueError(
                f"closed loop is unstable (spectral abscissa {self.abscissa:+.4e} >= 0)"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run: tracking errors and plant energy at each time
    ``t``; ``states`` is the last state x_e(t_end) alone, as a (1, n) row."""

    t: np.ndarray
    states: np.ndarray
    errors: np.ndarray
    energies: np.ndarray

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])

    def error_norms_sq(self, weights=None):
        """Squared norms ||W e(t)||^2 of the errors, W = ``weights`` or the identity."""
        err = self.errors if weights is None else self.errors @ np.asarray(weights).T
        return np.sum(np.abs(err) ** 2, axis=1)


@dataclass(frozen=True)
class ErrorSeries:
    """Sliding-window error integrals J(t) = int_t^{t+window} ||e||^2 ds."""

    t: np.ndarray
    values: np.ndarray


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
    return ClosedLoop(Acl, Bcl, Ccl, exo.F.copy(), plant, ctrl, exo)


def whole_steps(span, dt, name):
    """Number of steps of size ``dt`` in ``span``, which must be a multiple of dt."""
    steps = int(round(span / dt))
    if abs(steps * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"{name} must be an integer multiple of dt")
    return steps


def window_steps(window, dt, t_end):
    """Steps of size ``dt`` in the window of J(t), which must fit into [0, t_end]."""
    steps = whole_steps(window, dt, "window")
    if steps < 1 or steps > whole_steps(t_end, dt, "t_end"):
        raise WindowTooLargeError(f"window {window} does not fit into the horizon {t_end}")
    return steps


def _time_grid(t_end, dt):
    """Sample times 0, dt, ..., t_end; t_end must be a multiple of dt > 0."""
    if dt <= 0 or t_end < dt:
        raise ValueError("need dt > 0 and t_end >= dt")
    return dt * np.arange(whole_steps(t_end, dt, "t_end") + 1)


def _propagate(step, X):
    """Fill ``X[k] = step^k X[0]`` in place by doubling: each pass writes rows
    ``[k, 2k)`` as rows ``[0, k)`` times ``step^k``, squared between passes."""
    n_rows, k, power = X.shape[0], 1, step
    while k < n_rows:
        np.matmul(X[: min(k, n_rows - k)], power.T, out=X[k : 2 * k])
        k *= 2
        if k < n_rows:
            power = power @ power


def _sample(A, blocks, B, S, x0, v0, n_rows, dt, C, w):
    """Reduced samples of x' = A x + B v with v' = S v at k dt, k < ``n_rows``.

    Each diagonal block ``idx`` in ``blocks``, the partition of ``A`` by
    :func:`linalg._diagonal_blocks`, is filled by doubling (:func:`_propagate`)
    with the exponential of ``[[A[idx, idx], B[idx]], [0, S]]`` over dt, so every
    block carries its own copy of v, and reduced once filled to what it returns:
    the outputs ``C x``, the two rows ``sum_j w_j |x_j|^2`` and ``||x||^2``, and the last sample.
    Raises ``ValueError`` if ``x0`` has the wrong shape or a non-finite entry.
    """
    n, q = A.shape[0], S.shape[0]
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (n,) or not np.isfinite(x0).all():
        raise ValueError(f"x0 must be a finite vector of shape ({n},)")
    y = np.zeros((n_rows, C.shape[0]), dtype=complex)
    sq = np.zeros((2, n_rows))
    last = np.empty(n, dtype=complex)
    # all expm calls before any filling: interleaved with matmul, each took 20-60x longer on 2 CPUs
    gens = [np.block([[A[np.ix_(i, i)], B[i]], [np.zeros((q, i.size)), S]]) for i in blocks]
    steps = [linalg.expm(gen, dt) for gen in gens]
    buf = np.empty(n_rows * (max(idx.size for idx in blocks) + q), dtype=complex)
    for idx, step in zip(blocks, steps):
        m = idx.size
        X = buf[: n_rows * (m + q)].reshape(n_rows, m + q)  # one buffer for all blocks
        X[0] = np.concatenate([x0[idx], v0])
        _propagate(step, X)
        # einsum, not matmul: many small BLAS calls cost more than they save
        rows = np.flatnonzero(C[:, idx].any(axis=1))
        y[:, rows] += np.einsum("km,om->ko", X[:, :m], C[np.ix_(rows, idx)])
        parts = X.view(float)[:, : 2 * m]  # Re x_j, Im x_j side by side
        sq[0] += np.einsum("kj,kj,j->k", parts, parts, np.repeat(w[idx], 2))
        sq[1] += np.einsum("kj,kj->k", parts, parts)
        last[idx] = X[-1, :m]
    return y, sq, last


def simulate_exact(cl, exo, x0=None, t_end=20.0, dt=0.01):
    """Simulate the closed loop driven by the exosystem.

    :func:`_sample` steps one block of ``cl.blocks`` at a time, so the
    samples are exact for the LTI system up to roundoff; halving dt only
    refines the sampling. It keeps no state history, only the outputs, the
    plant energy, ||x_e||^2 and the last state; the errors add Dcl v(t).

    Parameters
    ----------
    x0 : array_like, optional
        Initial closed-loop state x_e(0); zero by default. The exosystem
        starts from its own v0.

    Raises
    ------
    ValueError
        If ``x0`` has the wrong shape or a non-finite entry.
    OverflowCapError
        If the state grows beyond the configured cap (unstable loop on a
        long horizon); the message names the first sample over the cap.
    """
    t = _time_grid(t_end, dt)
    n = cl.state_dim
    x0 = np.zeros(n) if x0 is None else x0
    w = np.pad(cl.plant.energy_weights, (0, n - cl.plant_dim))  # zero on controller states
    errors, sq, last = _sample(cl.Acl, cl.blocks, cl.Bcl, exo.S, x0, exo.v0, t.size, dt, cl.Ccl, w)
    # the cap bounds ||(x_e, v)||, |v_k(t)| = |v0_k|; a non-finite sample is over it
    norms = np.hypot(np.sqrt(sq[1]), np.linalg.norm(exo.v0))
    over = ~(norms <= _GROWTH_CAP * (1.0 + norms[0]))
    if over.any():
        raise OverflowCapError(
            f"trajectory exceeded the growth cap at t={t[np.argmax(over)]:.3f} "
            f"(abscissa {cl.abscissa:+.3e})"
        )
    errors += exosystem.v_at(exo, t[:, None]) @ cl.Dcl.T  # errors held Ccl x so far
    return Trajectory(t=t, states=last[None], errors=errors, energies=sq[0])


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
    steps = window_steps(window, dt, traj.t[-1])
    sq = traj.error_norms_sq(weights)
    # Sum each window's trapezoid areas directly. Differences of one running
    # cumulative sum would lose every window below roundoff of the integral
    # so far, which on long decaying runs reads exactly 0.
    areas = 0.5 * dt * (sq[1:] + sq[:-1])
    values = np.convolve(areas, np.ones(steps), mode="valid")
    return ErrorSeries(t=traj.t[: traj.t.size - steps], values=values)


def free_response(plant, x0, t_end, dt):
    """Free evolution of the plant with zero boundary input.

    Samples the plant's generator ``As`` block by block with the sampler of
    :func:`simulate_exact`, driven by no exosystem; used by the
    energy-conservation, decay and admissibility checks. For the undamped
    generator pass ``plant.perturbed(q_scale=0.0)``, whose ``As`` is ``A``.
    Returns a :class:`Trajectory` whose errors are the boundary velocity
    outputs y = C x, the tracking errors against a zero reference. ``x0`` is
    checked as in :func:`simulate_exact`.
    """
    t = _time_grid(t_end, dt)
    As, no_input = plant.As, np.zeros((plant.state_dim, 0))
    y, sq, last = _sample(As, linalg._diagonal_blocks(As), no_input, np.zeros((0, 0)), x0,
                          np.zeros(0), t.size, dt, plant.C, plant.energy_weights)
    return Trajectory(t=t, states=last[None], errors=y, energies=sq[0])
