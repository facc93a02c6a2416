"""Bessel functions and Laplacian eigenmodes of the unit annulus 1 < r < 2.

The radial eigenfunctions are cross products of Bessel functions,

    R(r) = J_m(k r) w_Y - Y_m(k r) w_J,

where the weights (w_Y, w_J) enforce the homogeneous condition at the inner
boundary r = 1: (Y_m(k), J_m(k)) pins the value there (Dirichlet),
(Y'_m(k), J'_m(k)) pins the slope (Neumann). Admissible wavenumbers k are
the roots of the Neumann condition R'(2) = 0 at the actuated outer boundary,
found per order by a vectorized scan, bisection and secant steps, with a
Sturm zero count against skipped roots; Lommel's integral gives the norms.
Each root's residual is checked relative to the scale |w_Y| + |w_J| of
:func:`cross_fn` at that root, so the check means the same at every order;
the ``cross_residual`` column of ``eigenvalues.csv`` stays the absolute one.

Dirichlet wavenumbers follow k ~ (n - 1/2) pi / (width), Neumann ones
k ~ n pi; which family the simulation preset uses matters because the
exosystem frequencies sit near the Neumann resonances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

INNER_BCS = ("dirichlet", "neumann")

ROOT_RESIDUAL_TOL = 1e-10
_BRACKET_STEP = 0.05
_BRACKET_START = 0.01
_BRACKET_CAP = 400.0
_BISECTIONS = 4  # brackets of width 0.05 / 2**4 before the secant steps
_SECANT_STEPS = 10


class BracketError(RuntimeError):
    """Root finding missed, skipped or failed to converge on a wavenumber."""


def bessel_jy(m, x):
    """Values and first derivatives (J, Y, J', Y') of the Bessel functions
    J_m and Y_m of nonnegative integer order m at arguments x > 0.

    Y_m comes from scipy's integer-order ``yn``, about 20 times faster than
    ``yv``, with errors below 1e-14 of sqrt(J_m^2 + Y_m^2); the derivatives
    come from the recurrence Z'_m = (m/x) Z_m - Z_{m+1}.
    """
    if m < 0 or int(m) != m:
        raise ValueError(f"order must be a nonnegative integer, got {m}")
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr <= 0.0):
        raise ValueError("argument must be strictly positive")
    J, Y = scipy.special.jv(m, xarr), scipy.special.yn(m, xarr)
    Jp = m / xarr * J - scipy.special.jv(m + 1, xarr)
    Yp = m / xarr * Y - scipy.special.yn(m + 1, xarr)
    return J, Y, Jp, Yp


def _inner_weights(m, k, inner_bc):
    J, Y, Jp, Yp = bessel_jy(m, k)
    if inner_bc == "dirichlet":
        return Y, J
    if inner_bc == "neumann":
        return Yp, Jp
    raise ValueError(f"inner_bc must be one of {INNER_BCS}, got {inner_bc!r}")


def radial_profile(m, k, r, inner_bc):
    """Unnormalized radial eigenfunction satisfying the inner condition."""
    wY, wJ = _inner_weights(m, k, inner_bc)
    kr = k * np.asarray(r, dtype=float)
    return scipy.special.jv(m, kr) * wY - scipy.special.yn(m, kr) * wJ


def radial_profile_deriv(m, k, r, inner_bc):
    """Radial derivative d/dr of :func:`radial_profile`."""
    wY, wJ = _inner_weights(m, k, inner_bc)
    _, _, Jpr, Ypr = bessel_jy(m, k * np.asarray(r, dtype=float))
    return k * (Jpr * wY - Ypr * wJ)


def cross_fn(m, k, inner_bc):
    """Outer Neumann boundary determinant whose zeros are the wavenumbers.

    For the Dirichlet inner condition this is
    J'_m(2k) Y_m(k) - Y'_m(2k) J_m(k); the Neumann variant replaces the
    weights by the inner derivatives. Smooth and real for k > 0. Its scale
    is |w_Y| + |w_J|, which passes 1e6 near the first roots of orders near
    40; :func:`find_radial_roots` checks residuals relative to it.
    """
    wY, wJ = _inner_weights(m, k, inner_bc)
    _, _, Jp2, Yp2 = bessel_jy(m, 2.0 * np.asarray(k, dtype=float))
    return Jp2 * wY - Yp2 * wJ


@dataclass(frozen=True)
class RadialMode:
    """One radial eigenmode of the annulus Laplacian.

    ``normalization`` scales :func:`radial_profile` to unit norm in
    L^2([1, 2], r dr); the Laplacian eigenvalue is ``k**2``.
    """

    m: int
    n: int
    k: float
    normalization: float
    inner_bc: str

    @property
    def mu(self):
        return self.k**2

    def eval(self, r):
        """Normalized radial profile at radius ``r``."""
        return self.normalization * radial_profile(self.m, self.k, r, self.inner_bc)

    @property
    def boundary_trace(self):
        """Value of the normalized profile on the actuated boundary r = 2."""
        return float(self.eval(2.0))


def _refine(m, lo, hi, f_lo, f_hi, inner_bc):
    """Bisect all brackets together, then secant-polish them inside the
    bisected brackets; returns roots and residuals."""
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f_mid = cross_fn(m, mid, inner_bc)
        left = (f_lo < 0) != (f_mid < 0)
        lo, f_lo = np.where(left, lo, mid), np.where(left, f_lo, f_mid)
        hi, f_hi = np.where(left, mid, hi), np.where(left, f_mid, f_hi)
    k0, f0, k1, f1 = lo, f_lo, hi, f_hi
    for _ in range(_SECANT_STEPS):
        slope = f1 - f0
        step = np.divide(f1 * (k1 - k0), slope, out=np.zeros_like(k1), where=slope != 0.0)
        k0, f0 = k1, f1
        k1 = np.clip(k1 - step, lo, hi)
        f1 = cross_fn(m, k1, inner_bc)
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * k1):
            break
    return k1, f1


def _norm_sq(m, k, inner_bc):
    """Squared L^2([1, 2], r dr) norm of radial_profile at roots ``k``.

    Lommel's integral of the cylinder function R(r) = Z_m(k r) is
    int r R^2 dr = [r^2/2 (Z_m'(k r)^2 + (1 - m^2/(k r)^2) R^2)]_1^2, and
    Z_m'(2k) = 0 at the outer Neumann boundary. At r = 1 the Neumann inner
    condition leaves the R(1) term, the Dirichlet one the R'(1)/k term.
    """
    outer = 2.0 * (1.0 - (m / (2.0 * k)) ** 2) * radial_profile(m, k, 2.0, inner_bc) ** 2
    if inner_bc == "neumann":
        inner = (1.0 - (m / k) ** 2) * radial_profile(m, k, 1.0, inner_bc) ** 2
    else:
        inner = (radial_profile_deriv(m, k, 1.0, inner_bc) / k) ** 2
    return outer - 0.5 * inner


def find_radial_roots(m, count, inner_bc):
    """First ``count`` positive radial eigenmodes of angular order ``m``.

    One vectorized call scans cross_fn on a 0.05 grid in k, extended only if
    it holds fewer than ``count`` sign changes; all brackets are then refined
    together (:func:`_refine`) and normalized by :func:`_norm_sq`. For
    the Neumann inner condition the rigid k = 0 mode (zero eigenvalue,
    invisible in energy and velocity output) is not part of the returned set.

    Raises BracketError if the scan reaches its cap before ``count`` sign
    changes, if a residual relative to cross_fn's scale |w_Y| + |w_J| at its
    root stays above ``ROOT_RESIDUAL_TOL``, or if a mode has the wrong number
    of sign changes on 8 * ``count`` midpoints of [1, 2]. By Sturm oscillation
    the n-th mode has n - 1 zeros in (1, 2), or n for m = 0 with the Neumann
    inner condition, whose excluded rigid mode comes first; a skipped root
    adds a zero to every later mode.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    top = min(_BRACKET_CAP, 0.5 * m + (count + 1) * np.pi)  # above the count-th root in practice
    while True:
        k = np.arange(_BRACKET_START, top, _BRACKET_STEP)
        f = cross_fn(m, k, inner_bc)
        idx = np.flatnonzero(((f[:-1] < 0) != (f[1:] < 0)) | (f[1:] == 0.0))[:count]
        if idx.size == count or top >= _BRACKET_CAP:
            break
        top = min(_BRACKET_CAP, 2.0 * top)
    if idx.size < count:
        raise BracketError(
            f"found only {idx.size} of {count} roots for order {m} below k={_BRACKET_CAP}"
        )
    roots, residuals = _refine(m, k[idx], k[idx + 1], f[idx], f[idx + 1], inner_bc)
    wY, wJ = _inner_weights(m, roots, inner_bc)
    relative = np.abs(residuals) / (np.abs(wY) + np.abs(wJ))
    worst = int(np.argmax(relative))
    if relative[worst] > ROOT_RESIDUAL_TOL:
        raise BracketError(
            f"root polish stalled at k={roots[worst]} (order {m}), relative residual "
            f"{relative[worst]:.3e}"
        )
    r = 1.0 + (np.arange(8 * count) + 0.5) / (8 * count)
    negative = radial_profile(m, roots[:, None], r, inner_bc) < 0
    zeros = np.count_nonzero(negative[:, 1:] != negative[:, :-1], axis=1)
    expected = np.arange(count) + (m == 0 and inner_bc == "neumann")
    bad = np.flatnonzero(zeros != expected)
    if bad.size:
        n = int(bad[0])
        zero_count = f"mode {n + 1} of order {m} has {zeros[n]} interior zeros, not {expected[n]}"
        raise BracketError(f"{zero_count}: the scan skipped a root")
    norms = 1.0 / np.sqrt(_norm_sq(m, roots, inner_bc))
    return [
        RadialMode(m=m, n=n, k=float(k), normalization=float(c), inner_bc=inner_bc)
        for n, (k, c) in enumerate(zip(roots, norms), start=1)
    ]
