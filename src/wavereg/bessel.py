"""Bessel functions and Laplacian eigenmodes of the unit annulus 1 < r < 2.

J_m and Y_m are the POSIX ``jn`` and ``yn`` of the C math library, loaded
once through ctypes; importing this module fails if the library lacks them.
glibc's stay within 2.2e-15 of sqrt(J_m^2 + Y_m^2) at 200 seeded points with
orders 0..62 on [0.5, 800].

The radial eigenfunctions are cross products of Bessel functions,

    R(r) = J_m(k r) w_Y - Y_m(k r) w_J,

where the weights (w_Y, w_J) enforce the homogeneous condition at the inner
boundary r = 1: (Y_m(k), J_m(k)) pins the value there (Dirichlet),
(Y'_m(k), J'_m(k)) pins the slope (Neumann). Admissible wavenumbers k are
the roots of the Neumann condition R'(2) = 0 at the actuated outer boundary.
One Chebyshev collocation eigenproblem per order seeds them (Trefethen,
*Spectral Methods in MATLAB*, SIAM 2000, ``cheb``), secant steps on
:func:`cross_fn` polish them to residuals relative to its scale, and disjoint
brackets with one Sturm zero count per order certify that none is skipped;
Lommel's integral, closed at r = 1 by the Wronskian, gives the norms. The
``cross_residual`` column of ``eigenvalues.csv`` stays the absolute residual.

Dirichlet wavenumbers follow k ~ (n - 1/2) pi / (width), Neumann ones
k ~ n pi; which family the simulation preset uses matters because the
exosystem frequencies sit near the Neumann resonances.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

INNER_BCS = ("dirichlet", "neumann")

ROOT_RESIDUAL_TOL = 1e-10
_BRACKET_CAP = 400.0
_SEED_WIDTH = 1e-6  # relative half-width of the bracket around each seed
_SECANT_STEPS = 10


def _libm_bessel(*names):
    """The named C math library functions f(int m, double x), as ``jn`` and
    ``yn`` are, each vectorized over x to a float array shaped like x.
    Raises ImportError naming any function the library lacks."""
    # the interpreter links the C math library, so its own symbols usually hold
    # them; else load libm by name, which costs ~5 ms (ldconfig runs)
    libm = ctypes.CDLL(None)
    if not all(hasattr(libm, name) for name in names):
        from ctypes.util import find_library

        libm = ctypes.CDLL(find_library("m"))
    missing = [name for name in names if not hasattr(libm, name)]
    if missing:
        raise ImportError(f"wavereg.bessel needs {' and '.join(missing)} (POSIX Bessel functions), "
                          "which this platform's C math library lacks")

    def vectorized(fn):
        fn.argtypes, fn.restype = (ctypes.c_int, ctypes.c_double), ctypes.c_double
        ufunc = np.frompyfunc(fn, 2, 1)
        return lambda m, x: np.asarray(ufunc(int(m), x), dtype=float)

    return [vectorized(getattr(libm, name)) for name in names]


_jn, _yn = _libm_bessel("jn", "yn")


def bessel_jy(m, x):
    """Values and first derivatives (J, Y, J', Y') of the Bessel functions
    J_m and Y_m of nonnegative integer order m at arguments x > 0.

    Values come from the C math library's ``jn`` and ``yn``; the derivatives
    come from the recurrence Z'_m = (m/x) Z_m - Z_{m+1}.
    """
    if m < 0 or int(m) != m:
        raise ValueError(f"order must be a nonnegative integer, got {m}")
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr <= 0.0):
        raise ValueError("argument must be strictly positive")
    J, Y = _jn(m, xarr), _yn(m, xarr)
    Jp = m / xarr * J - _jn(m + 1, xarr)
    Yp = m / xarr * Y - _yn(m + 1, xarr)
    return J, Y, Jp, Yp


def require_inner_bc(inner_bc):
    """Raise a ValueError unless ``inner_bc`` names one of ``INNER_BCS``."""
    if inner_bc not in INNER_BCS:
        raise ValueError(f"inner_bc must be one of {INNER_BCS}, got {inner_bc!r}")


def _inner_weights(m, k, inner_bc):
    require_inner_bc(inner_bc)
    J, Y, Jp, Yp = bessel_jy(m, k)
    return (Y, J) if inner_bc == "dirichlet" else (Yp, Jp)


def _cross_product(m, kr, wY, wJ):
    return _jn(m, kr) * wY - _yn(m, kr) * wJ


def radial_profile(m, k, r, inner_bc):
    """Unnormalized radial eigenfunction satisfying the inner condition."""
    wY, wJ = _inner_weights(m, k, inner_bc)
    return _cross_product(m, k * np.asarray(r, dtype=float), wY, wJ)


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
    L^2([1, 2], r dr), and ``boundary_trace`` is the normalized profile on
    the actuated boundary r = 2; the Laplacian eigenvalue is ``k**2``.
    """

    m: int
    n: int
    k: float
    normalization: float
    boundary_trace: float
    inner_bc: str

    @property
    def mu(self):
        return self.k**2

    def eval(self, r):
        """Normalized radial profile at radius ``r``."""
        return self.normalization * radial_profile(self.m, self.k, r, self.inner_bc)


def _collocation_wavenumbers(m, count, inner_bc):
    """Ascending wavenumbers of a Chebyshev collocation of
    -(1/r)(r R')' + (m/r)^2 R = k^2 R on [1, 2], the first ``count`` about
    1e-11 relative off. The boundary values are eliminated (R'(2) = 0, and
    R'(1) = 0 or R(1) = 0); the rigid mode of m = 0 with the Neumann inner
    condition comes first and is dropped.
    """
    n = 24 + 3 * count + m // 2
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)  # r = 2 at j = 0, r = 1 at j = n
    r = 1.5 + 0.5 * x
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
    D = 2.0 * (D - np.diag(D.sum(axis=1)))  # d/dr on the nodes
    L = -D @ D - D / r[:, None] + np.diag((m / r) ** 2)
    edge = [0, n] if inner_bc == "neumann" else [0]
    inside = j[1:n]
    edge_values = np.linalg.solve(D[np.ix_(edge, edge)], D[np.ix_(edge, inside)])
    A = L[np.ix_(inside, inside)] - L[np.ix_(inside, edge)] @ edge_values
    mu = np.sort(np.linalg.eigvals(A).real)
    return np.sqrt(mu[1:] if m == 0 and inner_bc == "neumann" else mu)


def find_radial_roots(m, count, inner_bc):
    """First ``count`` positive radial eigenmodes of angular order ``m``.

    Each seed of :func:`_collocation_wavenumbers` is bracketed by
    +-``_SEED_WIDTH`` relative, and all brackets are secant-polished together,
    each step clipped to its bracket. The rigid k = 0 mode of the Neumann
    inner condition (invisible in energy and velocity output) is not returned.

    The roots are exactly the first ``count``: each bracket holds a sign
    change of cross_fn and its root passes the residual check, so each k is
    the one wavenumber in its bracket (at most 8e-4 wide; roots of orders
    0..60 lie at least 1.67 apart), and disjoint brackets make the roots
    distinct and ascending. By Sturm oscillation the n-th mode has n - 1
    zeros in (1, 2), n for m = 0 with the Neumann inner condition, so a last
    mode with that many sign changes on 8 * ``count`` midpoints is the
    count-th. A ValueError names the order and the failed condition.

    Lommel's integral of the cylinder function R(r) = Z_m(k r) is
    int r R^2 dr = [r^2/2 (Z_m'(k r)^2 + (1 - m^2/(k r)^2) R^2)]_1^2, and
    Z_m'(2k) = 0 at the outer boundary. At r = 1 the Wronskian
    J Y' - J' Y = 2/(pi k) gives R(1) = 2/(pi k) for the Neumann inner
    condition and R'(1)/k = -2/(pi k) for the Dirichlet one.
    """
    require_inner_bc(inner_bc)
    if count < 1:
        raise ValueError("count must be at least 1")
    seeds = _collocation_wavenumbers(m, count, inner_bc)[:count]
    seeds = seeds[seeds < _BRACKET_CAP]
    if seeds.size < count:
        raise ValueError(
            f"found only {seeds.size} of {count} roots for order {m} below k={_BRACKET_CAP}"
        )
    lo, hi = seeds * (1.0 - _SEED_WIDTH), seeds * (1.0 + _SEED_WIDTH)
    if np.any(hi[:-1] >= lo[1:]):
        raise ValueError(f"seed brackets of order {m} overlap: two seeds share a root")
    k0, k1 = lo, hi
    f0, f1 = cross_fn(m, np.stack([lo, hi]), inner_bc)
    unbracketed = np.flatnonzero(np.sign(f0) * np.sign(f1) > 0)
    if unbracketed.size:
        raise ValueError(
            f"cross_fn of order {m} keeps its sign within {_SEED_WIDTH:g} of the seed "
            f"k={seeds[unbracketed[0]]}"
        )
    for _ in range(_SECANT_STEPS):
        slope = f1 - f0
        step = np.divide(f1 * (k1 - k0), slope, out=np.zeros_like(k1), where=slope != 0.0)
        k0, f0 = k1, f1
        k1 = np.clip(k1 - step, lo, hi)
        f1 = cross_fn(m, k1, inner_bc)
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * k1):
            break
    roots = k1
    wY, wJ = _inner_weights(m, roots, inner_bc)  # for the residual scale, Sturm count and traces
    relative = np.abs(f1) / (np.abs(wY) + np.abs(wJ))
    worst = int(np.argmax(relative))
    if relative[worst] > ROOT_RESIDUAL_TOL:
        raise ValueError(
            f"root polish stalled at k={roots[worst]} (order {m}), relative residual "
            f"{relative[worst]:.3e}"
        )
    r = 1.0 + (np.arange(8 * count) + 0.5) / (8 * count)
    zeros = np.count_nonzero(np.diff(_cross_product(m, roots[-1] * r, wY[-1], wJ[-1]) < 0))
    expected = count - 1 + (m == 0 and inner_bc == "neumann")
    if zeros != expected:
        raise ValueError(f"mode {count} of order {m} has {zeros} interior zeros, not "
                         f"{expected}: a root was skipped")
    outer = _cross_product(m, roots * 2.0, wY, wJ)
    inner = (2.0 / (np.pi * roots)) ** 2  # R(1)^2 or (R'(1)/k)^2, by the Wronskian
    if inner_bc == "neumann":
        inner *= 1.0 - (m / roots) ** 2
    norms = 1.0 / np.sqrt(2.0 * (1.0 - (m / (2.0 * roots)) ** 2) * outer**2 - 0.5 * inner)
    return tuple(
        RadialMode(m=m, n=n, k=float(k), normalization=float(c), boundary_trace=float(c * R2),
                   inner_bc=inner_bc)
        for n, (k, c, R2) in enumerate(zip(roots, norms, outer), start=1)
    )
