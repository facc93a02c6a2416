"""Dense linear algebra shared by the plant, synthesis and simulation code.

Contract-checked wrappers around numpy dense kernels (eig, SVD, solve, the
Pade-13 matrix exponential of Higham 2005); each verifies its own result. eig
and expm keep a real operand real; solve and SVD work in complex arithmetic.
Every tolerance scaled by a Frobenius norm takes it from
:func:`frobenius_norm`, which refuses one that overflows.
:func:`_diagonal_blocks` partitions a matrix into its diagonal blocks up to
a permutation; a closed loop partitions its pair-form generator once.
:func:`solve_dense` refuses a matrix by its singular values, and only the
oracles call it: :func:`sylvester_diag`, which :mod:`wavereg.checks` holds the
regulator solve against, ``synthesis.eval_transfer`` and
``checks.sylvester_kron``. ``is_normal`` is a diagnostic; no production path
calls it.
"""

from __future__ import annotations

import numpy as np

# Relative threshold below which singular values count as zero (rank tests,
# channel gains of the regulating synthesis).
RANK_RTOL = 1e-10

# A solve is refused as singular when sigma_min / sigma_max of its matrix is
# at most this.
SINGULAR_RTOL = 1e-13

# Commutator threshold certifying a matrix as normal, relative to ||A||_F^2.
NORMALITY_RTOL = 1e-12

# Largest ||A t||_F that expm accepts before it refuses to exponentiate.
EXPM_NORM_CAP = 1e6

# Pade-13 coefficients b_0..b_13, scaled to b_0 = 1 so that a zero matrix
# gives exactly the identity, and the 1-norm up to which the unscaled
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26(4), 2005, Table 2.3).
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1,
]) / 64764752532480000
_THETA13 = 5.371920351148152


class SingularMatrixError(ValueError):
    """A dense solve met a matrix whose singular values fail the singularity test."""


class ResonanceError(ValueError):
    """A shifted solve (i*omega - A) was numerically singular, i.e. i*omega
    lies in the spectrum of A."""

    def __init__(self, omega, message=None):
        self.omega = omega
        super().__init__(message or f"i*omega with omega={omega} is in the spectrum")


def as_matrix(A, name="matrix", dtype=complex):
    """Return ``A`` as a 2-D array of ``dtype``, rejecting non-finite entries."""
    M = np.atleast_2d(np.asarray(A, dtype=dtype))
    if M.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return M


def svd(A):
    """Reduced SVD ``(u, s, vh)`` of ``A``, as ``np.linalg.svd`` returns it
    (``s`` nonnegative and nonincreasing), with the reconstruction verified.

    Raises
    ------
    ValueError
        If the reconstruction ``U s Vh`` misses ``A`` by more than
        ``RANK_RTOL`` times the largest singular value.
    """
    M = as_matrix(A)
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    err = np.linalg.norm(u @ (s[:, None] * vh) - M)
    if err > RANK_RTOL * max(scale, 1.0) * max(M.shape):
        raise ValueError(f"SVD reconstruction error {err:.3e} out of tolerance")
    return u, s, vh


def solve_dense(A, B):
    """Solve the dense linear system ``A X = B``.

    Parameters
    ----------
    A : (n, n) array_like
        Square coefficient matrix.
    B : (n,) or (n, m) array_like
        Right-hand side vector or matrix.

    Returns
    -------
    X : ndarray
        Solution with the same trailing shape as ``B``.

    Raises
    ------
    SingularMatrixError
        If the smallest singular value of ``A`` is at most ``SINGULAR_RTOL``
        times the largest. In resolvent applications this signals that the
        shift lies in the spectrum of the matrix.
    """
    M = as_matrix(A, "A")
    n, m = M.shape
    if n != m:
        raise ValueError(f"A must be square, got shape {M.shape}")
    rhs = np.asarray(B, dtype=complex)
    if rhs.shape[0] != n:
        raise ValueError(f"B has {rhs.shape[0]} rows, expected {n}")
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= SINGULAR_RTOL * s[0]:
        ratio = s[-1] / s[0] if s[0] > 0 else 0.0
        raise SingularMatrixError(f"matrix numerically singular (sigma_min/sigma_max {ratio:.3e})")
    return np.linalg.solve(M, rhs)


def frobenius_norm(M):
    """||M||_F, the scale of every tolerance here; a ValueError if it overflows
    on finite entries (one beyond about 1e154), as a tolerance of inf passes
    any matrix. Inf and NaN entries give inf and NaN, for the finiteness checks."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        scale = np.linalg.norm(M)
    if np.isinf(scale) and np.all(np.isfinite(M)):
        raise ValueError(f"matrix norm overflows: largest entry {np.abs(M).max():.3e}")
    return scale


def _diagonal_blocks(M):
    """Index sets of the diagonal blocks of the square matrix ``M`` up to a
    permutation: the connected components of its symmetrized pattern of
    entries above eps*||M||_F, found by reachability from the lowest free
    index, in that order. Each entry between blocks lies within the backward
    error of a dense kernel on ``M``. NaN and Inf stay in, for the finiteness
    checks."""
    zero = np.isfinite(M) & (np.abs(M) <= np.finfo(float).eps * frobenius_norm(M))
    linked = ~zero | ~zero.T
    free = np.ones(M.shape[0], dtype=bool)
    blocks = []
    while free.any():
        block = np.zeros_like(free)
        new = block.copy()
        new[np.argmax(free)] = True
        while new.any():
            block |= new
            new = linked[new].any(axis=0) & ~block
        free &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def eig(A):
    """Eigenvalues of a square matrix, sorted by real then imaginary part.
    A real ``A`` is kept real, so its complex eigenvalues come in exactly
    conjugate pairs.

    The eigenpair residual ``||A v - lambda v||`` is verified against
    ``1e-8 ||A||_F`` for every returned pair.

    Raises
    ------
    ValueError
        If the QR iteration (numpy's ``LinAlgError``) or the residual contract
        fails, or ``||A||_F`` overflows.
    """
    A = np.asarray(A)
    M = as_matrix(A, dtype=np.result_type(A, float))
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    w, V = np.linalg.eig(M)
    scale = frobenius_norm(M)
    if scale > 0:
        resid = np.linalg.norm(M @ V - V * w, axis=0).max()
        if resid > 1e-8 * scale:
            raise ValueError(
                f"eigenpair residual {resid:.3e} exceeds 1e-8*||A|| = {1e-8 * scale:.3e}"
            )
    return w[np.lexsort((w.imag, w.real))]


def is_normal(A, rtol=NORMALITY_RTOL):
    """Whether ``A`` commutes with its adjoint to within ``rtol``*||A||_F^2."""
    M = as_matrix(A)
    scale = np.linalg.norm(M) ** 2
    if scale == 0.0:
        return True
    return np.linalg.norm(M @ M.conj().T - M.conj().T @ M) < rtol * scale


def expm(A, t=1.0):
    """Matrix exponential ``exp(A t)`` by Pade-13 scaling and squaring
    (Higham 2005) in numpy, guarded by a norm cap on the input and a
    finiteness check on the result. A real ``A`` gives a real result.

    Raises
    ------
    ValueError
        If ``||A t||_F`` exceeds ``EXPM_NORM_CAP`` or the result is non-finite.
    """
    A = np.asarray(A)
    M = as_matrix(A, dtype=np.result_type(A, float))
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if np.linalg.norm(M) * abs(t) > EXPM_NORM_CAP:
        raise ValueError(f"||A t|| exceeds the cap {EXPM_NORM_CAP:.3e}")
    norm1 = np.abs(M).sum(axis=0).max(initial=0.0) * abs(t)
    s = int(np.ceil(np.log2(norm1 / _THETA13))) if norm1 > _THETA13 else 0
    X = M * (t / 2.0**s)
    b, eye = _PADE13, np.eye(M.shape[0])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    W = X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6 + b[5] * X4 + b[3] * X2
    U = X @ (W + b[1] * eye)
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye
    E = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflow reaches the caller only through the finiteness check
        for _ in range(s):
            E = E @ E
    if not np.all(np.isfinite(E)):
        raise ValueError("matrix exponential overflowed")
    return E


def sylvester_diag(Ae, Be, omegas):
    """Solve ``Sigma S = Ae Sigma + Be`` for ``S = diag(i*omega_k)``, one
    resolvent solve ``(i*omega_k - Ae) Sigma_k = Be_k`` per column k of the
    (n, q) ``Be``; the oracle of the regulator solve, off the production path.

    Raises ``ResonanceError`` if some ``i*omega_k - Ae`` is numerically
    singular, and ``ValueError`` if the residual exceeds
    ``1e-8 (||Ae|| ||Sigma|| + ||Be||)`` (Frobenius norms).
    """
    M = as_matrix(Ae, "Ae")
    R = as_matrix(Be, "Be")
    om = np.asarray(omegas, dtype=float)
    if R.shape != (M.shape[0], om.size):
        raise ValueError(f"Be must have shape {(M.shape[0], om.size)}, got {R.shape}")
    Sigma, eye = np.empty(R.shape, dtype=complex), np.eye(M.shape[0])
    for k, w in enumerate(om):
        try:
            Sigma[:, k] = solve_dense(1j * w * eye - M, R[:, k])
        except SingularMatrixError as exc:
            raise ResonanceError(w) from exc
    resid = np.linalg.norm(Sigma * (1j * om) - M @ Sigma - R)
    bound = 1e-8 * (frobenius_norm(M) * frobenius_norm(Sigma) + frobenius_norm(R))
    if resid > bound:
        raise ValueError(
            f"Sylvester residual {resid:.3e} exceeds scaled tolerance {bound:.3e}"
        )
    return Sigma

