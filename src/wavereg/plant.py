"""Spectral discretization of the damped wave equation on the annulus 1 < r < 2.

The displacement is expanded in Laplacian eigenmodes R_nm(r) * {1/sqrt(2pi),
cos(m th)/sqrt(pi), sin(m th)/sqrt(pi)} with the radial parts from
:mod:`wavereg.bessel` (homogeneous inner condition at r = 1, Neumann at
r = 2). Force input and velocity output both live on the outer boundary and
are represented by their Fourier coefficients, so the trace matrix of the
modes is shared by the input and output maps and the undamped plant is
impedance passive: along any trajectory d/dt ||x||_E^2 = 2 Re <u, y>.

The default inner condition is Neumann, whose wavenumbers k ~ n pi place the
plant resonances near the harmonic reference frequencies; this reproduces
the reported closed-loop behavior of the simulation preset. A Dirichlet
inner condition (k ~ (n - 1/2) pi, anti-resonant with those frequencies) is
available through ``inner_bc`` and yields a plant whose transfer gains at
the reference frequencies are an order of magnitude weaker.

State ordering is modal positions first, then modal velocities. The boundary
measure is identified with L^2([0, 2pi], d theta); the arc-length factor of
the outer circle is dropped consistently from both input and output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from . import linalg
from .bessel import find_radial_roots, require_inner_bc


@dataclass(frozen=True)
class FourierOutputBasis:
    """Real trigonometric basis of the boundary space, orthonormal in L^2(d theta).

    Ordering is [const, cos 1, sin 1, ..., cos M, sin M] with the constant
    mode scaled by 1/sqrt(2 pi) and all others by 1/sqrt(pi).
    """

    max_order: int

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be nonnegative")

    @property
    def dim(self):
        return 2 * self.max_order + 1

    def evaluate(self, theta):
        """Matrix of basis values, shape (dim, len(theta))."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        rows = [np.full_like(th, 1.0 / np.sqrt(2.0 * np.pi))]
        for m in range(1, self.max_order + 1):
            rows.append(np.cos(m * th) / np.sqrt(np.pi))
            rows.append(np.sin(m * th) / np.sqrt(np.pi))
        return np.vstack(rows)

    def synthesize(self, coeffs, theta):
        """Boundary profile with the given coefficients, sampled at ``theta``."""
        return np.asarray(coeffs) @ self.evaluate(theta)


def project_profile(samples, max_order):
    """Fourier coefficients of profiles sampled on a uniform periodic grid.

    Parameters
    ----------
    samples : array_like, shape (n,) or (k, n)
        Values f(theta_j) at theta_j = 2 pi j / n, j = 0..n-1 (no duplicated
        endpoint), or one such row per profile. The grid must satisfy
        n >= 8 (max_order + 1).
    max_order : int
        Angular cutoff M of the target basis.

    Returns
    -------
    coeffs : (2 M + 1,) or (k, 2 M + 1) ndarray
        Coefficients in :class:`FourierOutputBasis` ordering, one row per
        profile, computed with the trapezoid rule (exact for band-limited
        profiles of order <= M once the grid resolves them). The basis is
        evaluated once for all rows.
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim not in (1, 2):
        raise ValueError(f"samples must have shape (n,) or (k, n), got {f.shape}")
    n = f.shape[-1]
    if n < 8 * (max_order + 1):
        raise ValueError(f"grid of {n} points too coarse for max_order={max_order}")
    theta = 2.0 * np.pi * np.arange(n) / n
    ang = FourierOutputBasis(max_order).evaluate(theta)
    coeffs = np.stack([ang @ row * (2.0 * np.pi / n) for row in np.atleast_2d(f)])
    return coeffs if f.ndim == 2 else coeffs[0]


@dataclass(frozen=True)
class ModalWavePlant:
    """Wave plant in modal coordinates: a bank of collocated oscillators,
    one per Laplacian eigenmode, each driving one Fourier output channel.

    Stored fields: ``radial`` (one tuple of :class:`~wavereg.bessel.RadialMode`
    per angular order m = 0..M), the boundary damping gain ``Q_feedback``,
    the mass density ``rho`` and the stiffness ``T_mod``.

    Derived from them on first use and cached, so that a
    ``dataclasses.replace`` of any field gives a consistent plant: the output
    ``basis`` of order M; ``modes``, the radial mode of each oscillator (order
    0's once, then each later order's for its cos and for its sin channel),
    and their ``channels`` (int array of ``basis`` indices); ``mu`` (k^2),
    ``trace`` (n_modes x output_dim boundary traces, row j nonzero only at
    ``channels[j]``), the undamped generator ``A`` (stiffness
    -mu T_mod / rho), ``B = [0; trace / rho]``, ``C = [0, trace^T]``,
    ``As = A - Q_feedback B C`` pre-stabilized by the damper, and the
    ``energy_weights`` (T_mod mu on positions, rho on velocities) of
    ||x||_E^2 = sum_i w_i |x_i|^2, in which the undamped ``A`` is
    skew-adjoint. Only the oracles read the dense ``As``; the loops read ``blocks``.
    """

    radial: tuple
    Q_feedback: float
    rho: float
    T_mod: float

    @cached_property
    def basis(self):
        return FourierOutputBasis(len(self.radial) - 1)

    @cached_property
    def _channel_modes(self):  # the radial modes of each output channel, in basis order
        return self.radial[:1] + tuple(modes for modes in self.radial[1:] for _ in ("cos", "sin"))

    @cached_property
    def modes(self):
        return tuple(mode for modes in self._channel_modes for mode in modes)

    @cached_property
    def channels(self):
        return np.repeat(np.arange(self.output_dim), [len(modes) for modes in self._channel_modes])

    @property
    def n_modes(self):
        return len(self.modes)

    @property
    def state_dim(self):
        return 2 * self.n_modes

    @property
    def output_dim(self):
        return self.basis.dim

    @cached_property
    def mu(self):
        return np.array([mode.mu for mode in self.modes])

    @cached_property
    def trace(self):
        trace = np.zeros((self.n_modes, self.output_dim))
        trace[range(self.n_modes), self.channels] = [mode.boundary_trace for mode in self.modes]
        return trace

    def generator(self, idx, q=None):
        """``A - q B C`` on the state indices ``idx``, q = ``Q_feedback`` by default,
        entry for entry as on the dense matrices, without forming them."""
        i, n, q = idx[:, None], self.n_modes, self.Q_feedback if q is None else q
        A = (i + n == idx) + (i == idx + n) * (-self.mu[i % n] * self.T_mod / self.rho)
        return A - q * (self.B[idx] @ self.C[:, idx])

    A = cached_property(lambda self: self.generator(np.arange(self.state_dim), 0.0))
    As = cached_property(lambda self: self.generator(np.arange(self.state_dim)))

    @cached_property
    def B(self):
        return np.vstack([np.zeros_like(self.trace), self.trace / self.rho])

    @cached_property
    def C(self):
        return np.hstack([np.zeros_like(self.trace.T), self.trace.T])

    @cached_property
    def blocks(self):
        """The diagonal blocks of ``As`` in state order as (state indices, ``As`` on them,
        channel): a damped channel's modes, or one undamped mode."""
        key, n = self.channels if self.Q_feedback > 0 else np.arange(self.n_modes), self.n_modes
        idx = [np.r_[j, n + j] for j in np.split(np.arange(n), np.flatnonzero(np.diff(key)) + 1)]
        return [(i, self.generator(i), self.channels[i[0]]) for i in idx]

    @cached_property
    def spectrum(self):
        """``spectrum(u)``: the eigenvalues of ``blocks[u]``, computed once per plant."""
        return cache(lambda u: linalg.eig(self.blocks[u][1]))

    @cached_property
    def energy_weights(self):
        return np.concatenate([self.T_mod * self.mu, np.full(self.n_modes, self.rho)])

    def energy(self, x):
        """Discrete wave energy of a (complex) state vector."""
        return float(np.sum(self.energy_weights * np.abs(np.asarray(x)) ** 2))

    def perturbed(self, stiffness_scale=1.0, q_scale=1.0):
        """Same mode set with scaled stiffness T and/or damping gain Q."""
        if stiffness_scale <= 0 or q_scale < 0:
            raise ValueError("stiffness_scale must be positive and q_scale nonnegative")
        return replace(self, T_mod=self.T_mod * stiffness_scale,
                       Q_feedback=self.Q_feedback * q_scale)

    def _oscillators(self, lam):
        """lambda^2 + omega_j^2 (omega_j^2 = mu_j T_mod / rho) for each oscillator j,
        and beta[c, j] = trace_jc^2 / rho, oscillator j's gain on its channel c.
        Raises ValueError for a ``lambda`` whose square overflows."""
        if not abs(lam) <= np.sqrt(np.finfo(float).max):
            raise ValueError(f"lambda={lam} is too large for P_s: lambda^2 overflows")
        return lam**2 + self.mu * self.T_mod / self.rho, self.trace.T * (self.trace / self.rho).T

    def transfer(self, lam):
        """Diagonal of P_s(lambda) = C (lambda - A_s)^{-1} B, one value per
        output channel, in closed form.

        Input and output are collocated and every mode drives one Fourier
        channel, so P_s is diagonal. Channel c of the undamped plant has the
        velocity transfer p_c = sum_j beta_cj lambda / (lambda^2 + omega_j^2),
        and the damper closes the scalar loop P_s = p / (1 + Q p). At an
        undamped eigenfrequency lambda = i omega_j, p_c is infinite on the
        mode's channel and P_s = 1 / (1/p + Q) = 1/Q there.

        Raises
        ------
        ResonanceError
            If ``lambda`` is a pole of P_s (some value is not finite), as an
            undamped eigenfrequency is when Q = 0.
        ValueError
            If ``lambda``'s square overflows.
        """
        d, beta = self._oscillators(lam)
        with np.errstate(all="ignore"):  # a pole is refused below
            p = beta @ np.divide(lam, d, out=np.zeros(d.shape, dtype=complex), where=d != 0)
            Ps = np.where(beta[:, d == 0].any(axis=1), np.reciprocal(self.Q_feedback),
                          p / (1.0 + self.Q_feedback * p))
        if not np.all(np.isfinite(Ps)):
            raise linalg.ResonanceError(lam, f"lambda={lam} is a pole of P_s")
        return Ps

    def input_resolvent(self, lam):
        """(lambda - A_s)^{-1} B = (lambda - A)^{-1} B (I - Q P_s(lambda)) in
        closed form: oscillator j turns a force b into the position
        b (1 - Q P_s) / (lambda^2 + omega_j^2) and lambda times that as
        velocity. At its undamped eigenfrequency that is 0/0, with the limit
        b / (Q lambda beta_j). Raises ``ResonanceError`` as :meth:`transfer`
        does."""
        gain = 1.0 - self.Q_feedback * self.transfer(lam)
        (d, beta), b = self._oscillators(lam), self.trace / self.rho
        with np.errstate(divide="ignore", invalid="ignore"):
            force = b * gain / d[:, None]
        hit = d == 0
        force[hit] = b[hit] / (self.Q_feedback * lam * beta.sum(axis=0)[hit, None])
        return np.vstack([force, lam * force])

    def radial_profiles(self, r):
        """Normalized radial profile of each oscillator at radii ``r``, shape (n_modes, len(r))."""
        return np.array([mode.eval(np.atleast_1d(r)) for mode in self.modes])

    def displacement_profile(self, x, r, theta):
        """Displacement field w(r, theta) of a state, shape (len(r), len(theta)):
        each mode is its radial profile times its channel's angular function."""
        q = np.real(np.asarray(x)[: self.n_modes])
        return (q[:, None] * self.radial_profiles(r)).T @ self.basis.evaluate(theta)[self.channels]


def require_plant_parameters(n_radial, m_angular, damping_q, rho, t_mod, inner_bc):
    """Raise a ValueError unless the mode counts are at least 1, the damping
    gain nonnegative, the constants positive and of a scale the generator
    can hold, and the inner condition known; checked before any root search.

    The generator's unit entries (velocity is the rate of position) sit
    beside the stiffness mu t_mod / rho, the input trace / rho and the damping
    damping_q trace^2 / rho. A dense kernel resolves them against each other
    only while t_mod / rho and 1 / rho lie within [eps, 1/eps] and
    damping_q / rho is at most 1/eps (eps the double precision)."""
    if n_radial < 1 or m_angular < 1:
        raise ValueError(f"n_radial and m_angular must be at least 1, got {n_radial} and {m_angular}")
    if damping_q < 0:
        raise ValueError(f"damping_q must be nonnegative, got {damping_q}")
    if rho <= 0 or t_mod <= 0:
        raise ValueError(f"rho and t_mod must be positive, got {rho} and {t_mod}")
    eps = float(np.finfo(float).eps)
    for name, scale, lower in ((f"1/rho = 1/{rho}", 1.0 / rho, eps),
                               (f"t_mod/rho = {t_mod}/{rho}", t_mod / rho, eps),
                               (f"damping_q/rho = {damping_q}/{rho}", damping_q / rho, 0.0)):
        if not lower <= scale <= 1.0 / eps:
            raise ValueError(f"{name} = {scale:.3e} is outside [{lower:.3e}, {1.0 / eps:.3e}]")
    require_inner_bc(inner_bc)


def assemble_wave_plant(n_radial, m_angular, damping_q, rho=1.0, t_mod=1.0, inner_bc="neumann"):
    """Assemble the modal wave plant for the annulus.

    Parameters
    ----------
    n_radial : int
        Radial eigenmodes per angular order.
    m_angular : int
        Number of angular orders 0..m_angular-1; cos and sin parities for
        every positive order give ``n_radial * (2 m_angular - 1)`` scalar
        modes and an output space of dimension ``2 m_angular - 1``.
    damping_q : float
        Constant boundary damping gain Q (the stabilizing output feedback).
    rho, t_mod : float
        Mass density and stiffness T.
    inner_bc : str
        Homogeneous condition of the eigenbasis at r = 1 ("neumann" or
        "dirichlet"); see the module docstring.

    Returns
    -------
    ModalWavePlant
    """
    require_plant_parameters(n_radial, m_angular, damping_q, rho, t_mod, inner_bc)
    radial = tuple(find_radial_roots(m, n_radial, inner_bc=inner_bc) for m in range(m_angular))
    return ModalWavePlant(radial=radial, Q_feedback=float(damping_q), rho=float(rho), T_mod=float(t_mod))
