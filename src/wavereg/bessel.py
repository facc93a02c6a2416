"""Bessel functions and Laplacian eigenmodes of the unit annulus 1 < r < 2.

The radial eigenfunctions are cross products of Bessel functions,

    R(r) = J_m(k r) w_Y - Y_m(k r) w_J,

where the weights (w_Y, w_J) enforce the homogeneous condition at the inner
boundary r = 1: (Y_m(k), J_m(k)) pins the value there (Dirichlet),
(Y'_m(k), J'_m(k)) pins the slope (Neumann). Admissible wavenumbers k are
the roots of the Neumann condition R'(2) = 0 at the actuated outer boundary,
located by a bracketing scan plus bisection and polished with secant steps.
Each mode is normalized to unit L^2 norm in the radial measure r dr.

Dirichlet wavenumbers follow k ~ (n - 1/2) pi / (width), Neumann ones
k ~ n pi; which family the simulation preset uses matters because the
exosystem frequencies sit near the Neumann resonances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

INNER_BCS = ("dirichlet", "neumann")

# Gauss-Legendre rule used for all radial integrals on [1, 2].
_QUAD_NODES = 64
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_QUAD_NODES)
RADIAL_NODES = 1.5 + 0.5 * _GL_X
RADIAL_WEIGHTS = 0.5 * _GL_W

ROOT_RESIDUAL_TOL = 1e-10
_BRACKET_STEP = 0.05
_BRACKET_START = 0.01
_BRACKET_CAP = 400.0


class BracketError(RuntimeError):
    """The root scan exhausted its range before finding enough sign changes."""


def bessel_jy(m, x):
    """Values and first derivatives of the Bessel functions J_m and Y_m.

    Parameters
    ----------
    m : int
        Nonnegative integer order.
    x : float or ndarray
        Strictly positive argument (Y_m is singular at zero).

    Returns
    -------
    (J, Y, Jp, Yp) : tuple of float or ndarray
    """
    if m < 0 or int(m) != m:
        raise ValueError(f"order must be a nonnegative integer, got {m}")
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr <= 0.0):
        raise ValueError("argument must be strictly positive")
    return (
        scipy.special.jv(m, xarr),
        scipy.special.yv(m, xarr),
        scipy.special.jvp(m, xarr),
        scipy.special.yvp(m, xarr),
    )


def _inner_weights(m, k, inner_bc):
    J, Y, Jp, Yp = bessel_jy(m, k)
    if inner_bc == "dirichlet":
        return Y, J
    if inner_bc == "neumann":
        return Yp, Jp
    raise ValueError(f"inner_bc must be one of {INNER_BCS}, got {inner_bc!r}")


def radial_profile(m, k, r, inner_bc="dirichlet"):
    """Unnormalized radial eigenfunction satisfying the inner condition."""
    wY, wJ = _inner_weights(m, k, inner_bc)
    Jr, Yr, _, _ = bessel_jy(m, k * np.asarray(r, dtype=float))
    return Jr * wY - Yr * wJ


def radial_profile_deriv(m, k, r, inner_bc="dirichlet"):
    """Radial derivative d/dr of :func:`radial_profile`."""
    wY, wJ = _inner_weights(m, k, inner_bc)
    _, _, Jpr, Ypr = bessel_jy(m, k * np.asarray(r, dtype=float))
    return k * (Jpr * wY - Ypr * wJ)


def cross_fn(m, k, inner_bc="dirichlet"):
    """Outer Neumann boundary determinant whose zeros are the wavenumbers.

    For the default Dirichlet inner condition this is
    J'_m(2k) Y_m(k) - Y'_m(2k) J_m(k); the Neumann variant replaces the
    weights by the inner derivatives. Smooth and real for k > 0.
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
    inner_bc: str = "dirichlet"

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


def _bisect_root(m, lo, hi, f_lo, inner_bc):
    """Bisection on cross_fn down to a bracket width of 1e-12."""
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = cross_fn(m, mid, inner_bc)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) != (f_mid < 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _secant_polish(m, k, inner_bc):
    """A few secant steps to push the residual below ROOT_RESIDUAL_TOL."""
    k0, k1 = k, k * (1.0 + 1e-9) + 1e-12
    f0, f1 = cross_fn(m, k0, inner_bc), cross_fn(m, k1, inner_bc)
    for _ in range(8):
        if abs(f1) < ROOT_RESIDUAL_TOL or f1 == f0:
            break
        k0, k1, f0 = k1, k1 - f1 * (k1 - k0) / (f1 - f0), f1
        f1 = cross_fn(m, k1, inner_bc)
    return k1 if abs(f1) <= abs(f0) else k0


def find_radial_roots(m, count, inner_bc="dirichlet"):
    """First ``count`` positive radial eigenmodes of angular order ``m``.

    Scans cross_fn on a 0.05 grid in k, bisects each sign change and
    polishes with secant steps; the accepted residual is below
    ``ROOT_RESIDUAL_TOL``. Normalization constants come from 64-node
    Gauss-Legendre quadrature on [1, 2]. For the Neumann inner condition the
    rigid k = 0 mode (zero eigenvalue, invisible in energy and velocity
    output) is not part of the returned set.

    Raises
    ------
    BracketError
        If the scan reaches its cap before ``count`` sign changes appear.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if inner_bc not in INNER_BCS:
        raise ValueError(f"inner_bc must be one of {INNER_BCS}, got {inner_bc!r}")
    modes = []
    k_prev = _BRACKET_START
    f_prev = cross_fn(m, k_prev, inner_bc)
    k = k_prev
    while len(modes) < count:
        k = k + _BRACKET_STEP
        if k > _BRACKET_CAP:
            raise BracketError(
                f"found only {len(modes)} of {count} roots for order {m} below k={_BRACKET_CAP}"
            )
        f = cross_fn(m, k, inner_bc)
        if f == 0.0 or (f_prev < 0) != (f < 0):
            root = _bisect_root(m, k_prev, k, f_prev, inner_bc)
            root = _secant_polish(m, root, inner_bc)
            if abs(cross_fn(m, root, inner_bc)) > ROOT_RESIDUAL_TOL:
                raise BracketError(
                    f"root polish stalled at k={root} (order {m}), residual "
                    f"{abs(cross_fn(m, root, inner_bc)):.3e}"
                )
            raw = radial_profile(m, root, RADIAL_NODES, inner_bc)
            norm_sq = np.sum(RADIAL_WEIGHTS * raw**2 * RADIAL_NODES)
            modes.append(
                RadialMode(
                    m=m,
                    n=len(modes) + 1,
                    k=float(root),
                    normalization=float(1.0 / np.sqrt(norm_sq)),
                    inner_bc=inner_bc,
                )
            )
        k_prev, f_prev = k, f
    return modes
