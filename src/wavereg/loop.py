"""Closed-loop assembly and exact LTI simulation.

The plant-controller-exosystem interconnection is assembled by directly
eliminating u and y. The similar transformed form of the boundary-system
construction, its cross-validation oracle, lives in :mod:`wavereg.checks`.

The plant, reference and disturbance are real, and the exosystem and the
internal model come in conjugate +-omega pairs, so the unitary map U that
pairs each controller copy (and exosystem coordinate) with its partner makes
the loop real. A :class:`ClosedLoop` maps its generator to these pair
coordinates once (``A_pair``); its diagonal blocks, its spectrum and the
sampler all read that one matrix. :func:`simulate_exact` maps the other
operands the same way and samples in their common dtype, float64 when all
are exactly real. The sampler steps each block on its own with its own copy
of the exosystem, filling the samples by doubling (samples [k, 2k) are
samples [0, k) times step^k, one GEMM per pass), and reduces each block to
outputs and weighted squared norms once filled, so no state history is kept.
The samples are exact up to the exponential's tolerance and roundoff; only
the sliding-window error integrals depend on dt.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg, synthesis
from .linalg import OverflowCapError

# Hard cap on trajectory growth relative to the initial data.
_GROWTH_CAP = 1e12


class WindowTooLargeError(ValueError):
    """The averaging window does not fit into the simulated horizon."""


@dataclass(frozen=True)
class ClosedLoop:
    """Assembled interconnection x_e' = Acl x_e + Bcl v, e = Ccl x_e + Dcl v,
    x_e the plant state over the controller state. ``pairs`` (f, s) are the
    state indices of the controller copies at +-omega, and ``A_pair`` is
    U Acl U^H for the pair map U on them: float64 when exactly real. The
    diagonal ``blocks`` of ``A_pair`` and the ``spectrum`` (per block, sorted
    by real then imaginary part) read it; each is computed once."""

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
    def pairs(self):
        if self.ctrl is None:
            return _NO_PAIRS
        bd, offset = self.ctrl.block_dim, self.state_dim - self.ctrl.dim_z
        return tuple(offset + (k[:, None] * bd + np.arange(bd)).ravel()
                     for k in _pairs(self.ctrl.omegas))

    @functools.cached_property
    def A_pair(self):
        return _mapped(self.Acl, self.pairs, self.pairs)

    @functools.cached_property
    def blocks(self):
        return linalg._diagonal_blocks(self.A_pair)

    @functools.cached_property
    def spectrum(self):
        A = self.A_pair
        w = np.concatenate([linalg.eig(A[np.ix_(idx, idx)]) for idx in self.blocks])
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
    """Sampled run: tracking errors and plant energy at each time ``t``, the
    errors in the dtype the sampler ran in. ``states`` is the last state
    alone, a (1, n) row: x_e(t_end), complex and in the loop's coordinates,
    from :func:`simulate_exact`; x(t_end) in the plant's coordinates and the
    dtype of the initial state (real for a real one) from
    :func:`free_response`."""

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
    """Number of steps of size ``dt`` > 0 in ``span`` >= dt, which must be a multiple of dt."""
    if not dt > 0 or span < dt:
        raise ValueError(f"need dt > 0 and {name} >= dt, got dt={dt} and {name}={span}")
    steps = int(round(span / dt))
    if abs(steps * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"{name} must be an integer multiple of dt")
    return steps


def window_steps(window, dt, t_end):
    """Steps of size ``dt`` in the window of J(t), which must fit into [0, t_end]."""
    steps = whole_steps(window, dt, "window")
    if steps > whole_steps(t_end, dt, "t_end"):
        raise WindowTooLargeError(f"window {window} does not fit into the horizon {t_end}")
    return steps


def _time_grid(t_end, dt):
    """Sample times 0, dt, ..., t_end; t_end must be a multiple of dt > 0."""
    return dt * np.arange(whole_steps(t_end, dt, "t_end") + 1)


def _propagate(step, X, filled):
    """Fill the columns of the state-major ``X`` by doubling: the first
    ``filled`` columns hold the samples at time 0, and each pass writes
    columns ``[k, 2k)`` as columns ``[0, k)`` times ``step^(k / filled)``,
    one GEMM per pass, the power squared between passes."""
    n_cols, k, power = X.shape[1], filled, step
    while k < n_cols:
        np.matmul(power, X[:, : min(k, n_cols - k)], out=X[:, k : 2 * k])
        k *= 2
        if k < n_cols:
            power = power @ power


def _initial_rows(x0, n, batch=False):
    """``x0`` as rows (r, n): one state of shape (n,) or, with ``batch``, rows
    of them. Raises ``ValueError`` on any other shape or a non-finite entry."""
    x0 = np.asarray(x0)
    if x0.shape[-1:] != (n,) or x0.ndim > 1 + batch or x0.size == 0 or not np.isfinite(x0).all():
        rows = f" or rows of shape (r, {n})" if batch else ""
        raise ValueError(f"x0 must be a finite vector of shape ({n},){rows}")
    return np.atleast_2d(x0)


def _sample(A, blocks, B, S, x0, v0, n_rows, dt, C, D, w):
    """Reduced samples of x' = A x + B v, v' = S v, at k dt for k < ``n_rows``,
    from each initial state of the rows ``x0`` (r, n) with the same ``v0``.

    Runs in the dtype of its operands. Each diagonal block ``idx`` in
    ``blocks``, a partition of ``A`` into uncoupled blocks, is stored
    state-major as ``(m + q, n_rows * r)``, the r states of each sample side
    by side. It is filled by doubling (:func:`_propagate`) with the
    exponential of ``[[A[idx, idx], B[idx]], [0, S]]`` over dt, so every block
    carries its own copy of v, and reduced once filled by two GEMMs: the
    outputs ``C x`` and the rows ``sum_j w_j |x_j|^2`` and ``||x||^2``. The last
    block's copy of v adds ``D v`` to the outputs. Returns the outputs
    (p, n_rows, r), the two norm rows (2, n_rows, r) and the last samples (r, n).
    """
    n, q, r = A.shape[0], S.shape[0], x0.shape[0]
    cols = n_rows * r
    dtype = np.result_type(A, B, S, C, D, x0, v0)
    y = np.zeros((C.shape[0], cols), dtype=dtype)
    sq = np.zeros((2, cols))
    last = np.empty((r, n), dtype=dtype)
    # all expm calls before any filling: with each expm inside the fill loop, delta-sweep
    # ran about 3 % slower on 2 vCPUs (25.0-25.8 against 25.2-26.9 operations/s)
    gens = [np.block([[A[np.ix_(i, i)], B[i]], [np.zeros((q, i.size)), S]]) for i in blocks]
    steps = [linalg.expm(gen, dt) for gen in gens]
    buf = np.empty((max(idx.size for idx in blocks) + q) * cols, dtype=dtype)
    for idx, step in zip(blocks, steps):
        m = idx.size
        X = buf[: (m + q) * cols].reshape(m + q, cols)  # one buffer for all blocks
        X[:m, :r] = x0[:, idx].T
        X[m:, :r] = v0[:, None]
        _propagate(step, X, r)
        rows = np.flatnonzero(C[:, idx].any(axis=1))
        y[rows] += C[np.ix_(rows, idx)] @ X[:m]
        sq += np.stack([w[idx], np.ones(m)]) @ (X[:m] * X[:m].conj()).real
        last[:, idx] = X[:m, cols - r :].T
    y += D @ X[m:]
    return y.reshape(-1, n_rows, r), sq.reshape(2, n_rows, r), last


def _pairs(omegas):
    """Index pairs (f, s), f < s, with ``omegas[s] = -omegas[f]``. A frequency
    without a partner, and omega = 0, is in no pair."""
    index = {w: k for k, w in enumerate(omegas)}
    partner = np.array([index.get(-w, -1) for w in omegas])
    first = np.flatnonzero(partner > np.arange(partner.size))
    return first, partner[first]


_NO_PAIRS = (np.zeros(0, dtype=int),) * 2

# sqrt 2 times the unitary pair map U on one pair (f, s): U x has the
# entries (x_f + x_s) / sqrt 2 and i (x_s - x_f) / sqrt 2 there
_U = np.array([[1, 1], [-1j, 1j]])


def _pair(M, f, s, T):
    """In place, the entries f and s of the last axis of the complex ``M``
    become ``[M_f, M_s] T / sqrt 2``, pair by pair; returns M. ``T = _U.T``
    gives M U^T, ``_U.conj().T`` gives M U^H, and ``_U.conj()`` undoes M U^T."""
    a, b = M[..., f], M[..., s]
    M[..., f] = (a * T[0, 0] + b * T[1, 0]) / np.sqrt(2.0)
    M[..., s] = (a * T[0, 1] + b * T[1, 1]) / np.sqrt(2.0)
    return M


def _mapped(M, rows, cols):
    """U M U^H for the 2-D ``M``, U the pair map on the pairs ``rows`` (f, s)
    of its rows and on the pairs ``cols`` of its columns, in one complex
    copy; a float64 copy of the result when it is exactly real."""
    P = _pair(_pair(np.array(M, dtype=complex), *cols, _U.conj().T).T, *rows, _U.T).T
    return P if P.imag.any() else P.real.copy()


def simulate_exact(cl, exo, x0=None, t_end=20.0, dt=0.01):
    """Simulate the closed loop driven by the exosystem.

    :func:`_sample` steps ``cl.A_pair`` one block at a time, so the samples
    are exact for the LTI system up to roundoff; halving dt only refines the
    sampling. The other operands and x0, v0 are mapped to the same pair
    coordinates (the exosystem's own +-omega pairs for v), each a float64
    copy when exactly real, and the sampler runs in their common dtype. It
    keeps no state history, only the errors C x + D v, the plant energy,
    ||x_e||^2 and the last state, mapped back to the loop's coordinates.

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
    x0 = _initial_rows(np.zeros(n) if x0 is None else x0, n)
    w = np.pad(cl.plant.energy_weights, (0, n - cl.plant_dim))  # zero on controller states
    pc, pq, no = cl.pairs, _pairs(exo.omegas), _NO_PAIRS
    B, S = _mapped(cl.Bcl, pc, pq), _mapped(exo.S, pq, pq)
    C, D = _mapped(cl.Ccl, no, pc), _mapped(cl.Dcl, no, pq)
    x, v = _mapped(x0.T, pc, no).T, _mapped(exo.v0[:, None], pq, no)[:, 0]
    errors, sq, last = _sample(cl.A_pair, cl.blocks, B, S, x, v, t.size, dt, C, D, w)
    # the cap bounds ||(x_e, v)||, |v_k(t)| = |v0_k|; a non-finite sample is over it
    norms = np.hypot(np.sqrt(sq[1, :, 0]), np.linalg.norm(exo.v0))
    over = ~(norms <= _GROWTH_CAP * (1.0 + norms[0]))
    if over.any():
        raise OverflowCapError(
            f"trajectory exceeded the growth cap at t={t[np.argmax(over)]:.3f} "
            f"(abscissa {cl.abscissa:+.3e})"
        )
    states = _pair(last.astype(complex), *pc, _U.conj())  # back to the loop's coordinates
    return Trajectory(t=t, states=states, errors=errors[:, :, 0].T, energies=sq[0, :, 0])


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
    ``x0`` is one state (n,) or rows (r, n) of them, checked as in
    :func:`simulate_exact`; all rows share one fill, in the dtype of ``As``
    and ``x0``. Returns one :class:`Trajectory`, or a list of one per row,
    whose errors are the boundary velocity outputs y = C x, the tracking
    errors against a zero reference.
    """
    t = _time_grid(t_end, dt)
    rows = _initial_rows(x0, plant.state_dim, batch=True)
    As, p = plant.As, plant.output_dim
    y, sq, last = _sample(As, linalg._diagonal_blocks(As), np.zeros((As.shape[0], 0)),
                          np.zeros((0, 0)), rows, np.zeros(0), t.size, dt, plant.C,
                          np.zeros((p, 0)), plant.energy_weights)
    trajs = [Trajectory(t=t, states=last[i : i + 1], errors=y[:, :, i].T, energies=sq[0, :, i])
             for i in range(rows.shape[0])]
    return trajs[0] if np.ndim(x0) == 1 else trajs
