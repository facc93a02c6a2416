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

import numpy as np

from .bessel import RadialMode, find_radial_roots


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

    def index(self, m, parity):
        """Position of the (m, parity) basis function, parity in {axi, cos, sin}."""
        if parity == "axi":
            if m != 0:
                raise ValueError("axisymmetric parity requires m = 0")
            return 0
        if not 1 <= m <= self.max_order:
            raise ValueError(f"order {m} outside 1..{self.max_order}")
        return 2 * m - 1 if parity == "cos" else 2 * m

    def labels(self):
        out = ["const"]
        for m in range(1, self.max_order + 1):
            out += [f"cos{m}", f"sin{m}"]
        return out

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
    """Fourier coefficients of a profile sampled on a uniform periodic grid.

    Parameters
    ----------
    samples : array_like
        Values f(theta_j) at theta_j = 2 pi j / n, j = 0..n-1 (no duplicated
        endpoint). The grid must satisfy n >= 8 (max_order + 1).
    max_order : int
        Angular cutoff M of the target basis.

    Returns
    -------
    coeffs : (2 M + 1,) ndarray
        Coefficients in :class:`FourierOutputBasis` ordering, computed with
        the trapezoid rule (exact for band-limited profiles of order <= M
        once the grid resolves them).
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim != 1:
        raise ValueError("samples must be a one-dimensional array")
    n = f.size
    if n < 8 * (max_order + 1):
        raise ValueError(f"grid of {n} points too coarse for max_order={max_order}")
    theta = 2.0 * np.pi * np.arange(n) / n
    basis = FourierOutputBasis(max_order)
    return basis.evaluate(theta) @ f * (2.0 * np.pi / n)


_PARITIES = {0: ("axi",), None: ("cos", "sin")}


@dataclass(frozen=True)
class PlantMode:
    """One scalar oscillator of the modal plant."""

    radial: RadialMode
    parity: str

    @property
    def mu(self):
        return self.radial.mu


@dataclass(frozen=True)
class ModalWavePlant:
    """Finite-dimensional wave plant in modal coordinates.

    ``A`` is the undamped generator, ``As = A - B Q_feedback C`` the plant
    pre-stabilized by the boundary damper. ``energy_weights`` define the
    discrete energy norm ||x||_E^2 = sum_i w_i |x_i|^2 (stiffness-weighted
    positions plus mass-weighted velocities), in which the undamped ``A`` is
    skew-adjoint.
    """

    modes: tuple
    basis: FourierOutputBasis
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    As: np.ndarray
    Q_feedback: float
    energy_weights: np.ndarray
    rho: float
    T_mod: float

    @property
    def n_modes(self):
        return len(self.modes)

    @property
    def state_dim(self):
        return self.A.shape[0]

    @property
    def output_dim(self):
        return self.basis.dim

    def energy(self, x):
        """Discrete wave energy of a (complex) state vector, or of each state
        in a stack whose last axis is the state (one value per state)."""
        e = np.sum(self.energy_weights * np.abs(np.asarray(x)) ** 2, axis=-1)
        return float(e) if e.ndim == 0 else e

    def perturbed(self, stiffness_scale=1.0, q_scale=1.0):
        """Same mode set with scaled stiffness T and/or damping gain Q."""
        if stiffness_scale <= 0:
            raise ValueError("stiffness_scale must be positive")
        T_new = self.T_mod * stiffness_scale
        Q_new = self.Q_feedback * q_scale
        mu = np.array([mode.mu for mode in self.modes])
        n = self.n_modes
        A = np.zeros((2 * n, 2 * n))
        A[:n, n:] = np.eye(n)
        A[n:, :n] = -np.diag(mu * T_new / self.rho)
        As = A - Q_new * (self.B @ self.C)
        weights = np.concatenate([T_new * mu, np.full(n, self.rho)])
        return replace(
            self, A=A, As=As, Q_feedback=Q_new, energy_weights=weights, T_mod=T_new
        )

    def displacement_profile(self, x, r, theta):
        """Displacement field w(r, theta) of a state, shape (len(r), len(theta))."""
        rv = np.atleast_1d(np.asarray(r, dtype=float))
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        ang = self.basis.evaluate(th)
        out = np.zeros((rv.size, th.size))
        q = np.real(np.asarray(x)[: self.n_modes])
        for qj, mode in zip(q, self.modes):
            if qj == 0.0:
                continue
            radial = mode.radial.eval(rv)
            m = mode.radial.m
            parity = mode.parity
            out += qj * np.outer(radial, ang[self.basis.index(m, parity)])
        return out


def assemble_wave_plant(n_radial, m_angular, Q_fb, rho=1.0, T_mod=1.0, inner_bc="neumann"):
    """Assemble the modal wave plant for the annulus.

    Parameters
    ----------
    n_radial : int
        Radial eigenmodes per angular order.
    m_angular : int
        Number of angular orders 0..m_angular-1; cos and sin parities for
        every positive order give ``n_radial * (2 m_angular - 1)`` scalar
        modes and an output space of dimension ``2 m_angular - 1``.
    Q_fb : float
        Constant boundary damping gain (the stabilizing output feedback).
    rho, T_mod : float
        Mass density and stiffness constants.
    inner_bc : str
        Homogeneous condition of the eigenbasis at r = 1 ("neumann" or
        "dirichlet"); see the module docstring.

    Returns
    -------
    ModalWavePlant
    """
    if n_radial < 1 or m_angular < 1:
        raise ValueError("n_radial and m_angular must be at least 1")
    if rho <= 0 or T_mod <= 0:
        raise ValueError("rho and T_mod must be positive")
    basis = FourierOutputBasis(m_angular - 1)
    modes = []
    for m in range(m_angular):
        radials = find_radial_roots(m, n_radial, inner_bc=inner_bc)
        for parity in _PARITIES.get(m, _PARITIES[None]):
            modes.extend(PlantMode(radial=rm, parity=parity) for rm in radials)

    n = len(modes)
    mu = np.array([mode.mu for mode in modes])
    trace = np.zeros((n, basis.dim))
    for j, mode in enumerate(modes):
        col = basis.index(mode.radial.m, mode.parity)
        trace[j, col] = mode.radial.boundary_trace

    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -np.diag(mu * T_mod / rho)
    B = np.zeros((2 * n, basis.dim))
    B[n:, :] = trace / rho
    C = np.zeros((basis.dim, 2 * n))
    C[:, n:] = trace.T
    As = A - Q_fb * (B @ C)
    weights = np.concatenate([T_mod * mu, np.full(n, rho)])
    return ModalWavePlant(
        modes=tuple(modes),
        basis=basis,
        A=A,
        B=B,
        C=C,
        As=As,
        Q_feedback=float(Q_fb),
        energy_weights=weights,
        rho=float(rho),
        T_mod=float(T_mod),
    )
