"""Internal-model controller synthesis and verification.

Implements the three controller families for the pre-stabilized plant: the
minimal regulating controller (one internal-model copy per frequency, no
robustness), the finite-dimensional approximate robust controller (internal
model on a truncated output space Y_N), and the robust controller (internal
model on the full discretized output space). The plant's transfer P_s(i w)
is diagonal (collocated input and output, one Fourier channel per mode), so
every synthesis works channel by channel on the closed-form diagonal
``plant.transfer``; the dense resolvent :func:`eval_transfer` is the tests'
oracle for it. Also provides the algebraic internal-model
test (trivial kernel of G2, trivial range intersections with i w - G1, read
off the row blocks of G2), the regulator-equation solver and the asymptotic
tracking-error bound. The regulator solver, too, works from the plant's
closed forms, one numpy controller-space solve per frequency; it reads
solvability off the loop's own spectrum. Its oracle, dense Sylvester solves
on the dense loop's diagonal blocks, lives in :mod:`wavereg.checks`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .linalg import ResonanceError, SingularMatrixError

# A frequency response P_N P_s(i w) counts as surjective when its smallest
# channel gain |p_c| (its smallest singular value) exceeds this fraction of the
# largest.
SURJECTIVITY_RTOL = 1e-8

# The regulator equations count as unsolvable at a frequency w when some
# closed-loop eigenvalue lies within this times max(1, |w|) of i w.
RESONANCE_RTOL = 1e-10


def require_gain(eps):
    """Raise a ValueError unless the tuning gain ``eps`` (a run's ``epsilon``) is nonnegative."""
    if eps < 0:
        raise ValueError(f"epsilon must be nonnegative, got {eps}")


@dataclass(frozen=True)
class Controller:
    """Internal-model error-feedback controller (G1, G2, K).

    The dynamics are z' = G1 z + G2 (y - y_ref), u = K z - Q (y - y_ref)
    with Q the plant's own damping gain ``plant.Q_feedback``.
    ``G1`` is block diagonal with blocks i w_k I of size ``block_dim`` and
    ``K = eps * K0``; both are derived from the stored data, so a controller
    is re-gained with ``replace(ctrl, eps=...)``.
    The copies of the approximate and robust kinds live on Y_N, the first
    ``block_dim`` output coordinates; the regulating kind's copies are scalar.
    """

    kind: str
    omegas: np.ndarray
    block_dim: int
    G2: np.ndarray
    K0: np.ndarray
    eps: float

    def __post_init__(self):
        if self.G2.shape[0] != self.dim_z or self.K0.shape[1] != self.dim_z:
            raise ValueError(f"G2/K0 dimensions inconsistent with dim Z = {self.dim_z}")
        if not np.isfinite(self.G2).all():
            raise ValueError("controller G2 contains NaN or Inf entries")
        require_gain(self.eps)
        if not self.eps * float(np.abs(self.K0).max(initial=0.0)) <= 1.0 / np.finfo(float).eps:
            raise ValueError(f"epsilon={self.eps} makes max|K| = epsilon max|K0| exceed 1/eps")

    @property
    def G1(self):
        return np.kron(np.diag(1j * self.omegas), np.eye(self.block_dim))

    @property
    def copies(self):
        """The frequency of each controller state, the diagonal of G1 / i."""
        return np.repeat(self.omegas, self.block_dim)

    @property
    def K(self):
        return self.eps * self.K0

    @property
    def dim_z(self):
        return self.omegas.size * self.block_dim

    @property
    def dim_y(self):
        return self.G2.shape[1]

    def projector(self):
        """Orthogonal projector of Y onto Y_N (identity for the regulating kind)."""
        if self.kind == "regulating":
            return np.eye(self.dim_y)
        return np.diag((np.arange(self.dim_y) < self.block_dim).astype(float))


@dataclass(frozen=True)
class GReport:
    """Result of the internal-model (G-condition) test."""

    kernel_dim_G2: int
    max_range_intersection_dim: int
    passed: bool


@dataclass(frozen=True)
class RegulatorSolution:
    """Solution Sigma of the Sylvester regulator equation; its rows below the
    plant state are the internal-model block.

    ``residual1`` is the defect of Sigma S = A_e Sigma + B_e. ``error_map``
    is C_e Sigma + D_e, whose k-th column is the asymptotic tracking error
    of frequency w_k; ``residual2`` is its spectral norm, which vanishes
    exactly when the controller regulates (on Y) and whose square is the
    asymptotic windowed-error bound otherwise.
    """

    Sigma: np.ndarray
    residual1: float
    error_map: np.ndarray

    @property
    def residual2(self):
        return float(np.linalg.norm(self.error_map, 2))


@dataclass(frozen=True)
class ErrorBound:
    """Asymptotic windowed tracking-error bound.

    ``delta`` is the squared spectral norm of the error map C_e Sigma + D_e,
    ``delta_coarse`` the squared Frobenius norm of its (I - P_N)-tail; the
    check delta <= delta_coarse asserts P_N (C_e Sigma + D_e) ~ 0.
    """

    delta: float
    delta_coarse: float

    def __post_init__(self):
        if self.delta > self.delta_coarse * (1.0 + 1e-9) + 1e-15:
            raise ValueError("delta must not exceed delta_coarse")


def eval_transfer(As, B, C, lam):
    """Transfer function P_s(lambda) = C (lambda - A_s)^{-1} B of the
    pre-stabilized plant with bounded modal input.

    Raises
    ------
    ResonanceError
        If ``lambda`` lies in the spectrum of ``As`` within the solver
        tolerance.
    """
    n = As.shape[0]
    try:
        X = linalg.solve_dense(lam * np.eye(n) - As, B)
    except SingularMatrixError as exc:
        raise ResonanceError(lam, f"lambda={lam} is in the spectrum of As") from exc
    return C @ X


def stabilized_disturbance(plant, exo):
    """Disturbance map E_s = E - Q F of the pre-stabilized loop, with the same
    damping gain Q = ``plant.Q_feedback`` that defines ``plant.As``."""
    return exo.E - plant.Q_feedback * exo.F


def _frequency_data(plant, exo):
    """Diagonals of P_s(i w_k) at the exosystem frequencies, shape (q, dim_y)."""
    return np.array([plant.transfer(1j * w) for w in exo.omegas])


def synth_regulating(plant, exo, eps):
    """Minimal regulating controller with one scalar copy per frequency.

    The gain columns u_k solve P_s(i w_k) u_k = y_k for the frequency targets
    y_k = -P_s(i w_k) E_s phi_k - F phi_k channel by channel, u_k = y_k / p_k
    on the channels whose gain |p_k| exceeds ``RANK_RTOL`` times the largest
    and 0 on the others (the minimum-norm solution); for a zero target the
    column falls back to the unit vector of the largest channel gain, which
    is outside the kernel of P_s(i w_k). The injection rows are
    G2_k = -(P_s(i w_k) u_k)^*.

    Raises
    ------
    ValueError
        If some y_k is not in the range of P_s(i w_k) numerically, in which
        case no controller of this structure can regulate.
    """
    Ps = _frequency_data(plant, exo)
    E_s = stabilized_disturbance(plant, exo)
    q = exo.q
    K0 = np.zeros((plant.output_dim, q), dtype=complex)
    targets = -(Ps.T * E_s + exo.F)
    for k in range(q):
        p, y_k = Ps[k], targets[:, k]
        scale = np.linalg.norm(p[:, None] * E_s + exo.F) + 1.0
        if np.linalg.norm(y_k) > 1e-13 * scale:
            live = np.abs(p) > linalg.RANK_RTOL * np.abs(p).max()
            u_k = np.divide(y_k, p, out=np.zeros_like(y_k), where=live)
            resid = np.linalg.norm(p * u_k - y_k)
            if resid > 1e-8 * np.linalg.norm(y_k):
                raise ValueError(
                    f"y_k outside range of P_s(i*{exo.omegas[k]}): residual {resid:.3e}"
                )
        else:
            u_k = np.eye(p.size, dtype=complex)[np.argmax(np.abs(p))]
        K0[:, k] = u_k
    G2 = -(Ps * K0.T).conj()
    return Controller(
        kind="regulating", omegas=exo.omegas, block_dim=1, G2=G2, K0=K0, eps=float(eps)
    )


def output_block_dim(N, dim_y):
    """Dimension 2N+1 (N >= 0) of the regulated block P_N y of an output of dimension dim_y."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if 2 * N + 1 > dim_y:
        raise ValueError(f"2N+1 = {2 * N + 1} exceeds the output dimension {dim_y}")
    return 2 * N + 1


def synth_approx_robust(plant, exo, N, eps):
    """Approximate robust controller with internal model on Y_N.

    Y_N is the span of the output-basis functions up to angular order ``N``
    (dimension 2N + 1), P_N the corresponding coordinate projection. Each
    gain block is the minimum-norm right inverse of P_N P_s(i w_k), that is
    K0_k = diag(1 / p_N) on Y_N with p_N the first 2N + 1 channel gains, and
    each injection block is -P_N. This places the internal-model loop gains
    P_N P_s(i w_k) K0_k exactly at the identity and so satisfies the
    stability spectrum condition with eigenvalues -1.

    Raises
    ------
    ValueError
        If some P_N P_s(i w_k) fails the surjectivity test (smallest channel
        gain |p_N| below ``SURJECTIVITY_RTOL`` times the largest).
    """
    dim_y = plant.output_dim
    dim_yn = output_block_dim(N, dim_y)
    gains = _frequency_data(plant, exo)[:, :dim_yn]
    for w, g in zip(exo.omegas, np.abs(gains)):
        if g.min() <= SURJECTIVITY_RTOL * g.max():
            why = (
                f"sigma_min/sigma_max = {g.min() / g.max():.3e}"
                if g.max() > 0
                else "the largest channel gain sigma_max is 0"
            )
            raise ValueError(f"P_N P_s(i*{w}) not surjective: {why}")
    K0 = np.zeros((dim_y, exo.q * dim_yn), dtype=complex)
    K0[:dim_yn] = np.hstack([np.diag(1.0 / g) for g in gains])
    return Controller(
        kind="approx",
        omegas=exo.omegas,
        block_dim=dim_yn,
        G2=np.vstack([-np.eye(dim_y)[:dim_yn]] * exo.q).astype(complex),
        K0=K0,
        eps=float(eps),
    )


def synth_robust(plant, exo, eps):
    """Robust controller: internal model on the full discretized output space.

    Identical to :func:`synth_approx_robust` with Y_N = Y; with the
    right-inverse gain K0_k = P_s(i w_k)^{-1} the general injection
    -(P_s(i w_k) K0_k)^* reduces to -I on Y.
    """
    return replace(synth_approx_robust(plant, exo, plant.basis.max_order, eps), kind="robust")


def check_g_conditions(ctrl):
    """Test the two internal-model conditions of the controller.

    The controller contains an internal model iff G2 has trivial kernel and
    the ranges of (i w_k - G1) and G2 intersect trivially for every
    frequency. G1 is block diagonal i w_j I over distinct frequencies, so
    R(i w_k - G1) holds the z whose k-th copy is zero, and its intersection
    with R(G2) has dimension rank G2 - rank G2_k, G2_k the k-th row block.
    Ranks count singular values above ``linalg.RANK_RTOL`` times ||G2||.
    """
    tol = linalg.RANK_RTOL * np.linalg.norm(ctrl.G2, 2)
    rank_g2, *block_ranks = (
        int(np.count_nonzero(linalg.svd(M)[1] > tol))
        for M in (ctrl.G2, *np.split(ctrl.G2, ctrl.omegas.size))
    )
    kernel_dim = ctrl.dim_y - rank_g2
    max_inter = rank_g2 - min(block_ranks)
    return GReport(
        kernel_dim_G2=kernel_dim,
        max_range_intersection_dim=max_inter,
        passed=(kernel_dim == 0 and max_inter == 0),
    )


def solve_regulator(closed_loop, exo):
    """Solve the regulator equation Sigma S = Acl Sigma + Bcl of the directly
    assembled loop, one frequency at a time, from the plant's closed forms:
    with P_k = P_s(i w_k), the controller rows solve
    M z_k = ((i w_k - G1) - G2 P_k K) z_k = G2 (P_k E_s + F) phi_k, and
    (i w_k - A_s)^{-1} B (K z_k + E_s phi_k) gives the plant rows.

    The equation is solvable at w_k exactly when i w_k is not an eigenvalue
    of Acl. By the Schur complement det(i w_k - Acl) = det(i w_k - A_s) det M,
    so M is singular exactly then. At a pole of P_s, where the closed forms
    fail, column k solves (i w_k - Acl) Sigma_k = Bcl_k on the loop's
    ``parts``. Raises ``ResonanceError(w_k)`` when an eigenvalue of
    ``closed_loop.spectrum`` lies within ``RESONANCE_RTOL`` max(1, |w_k|) of
    i w_k, and ``ValueError`` if the defect residual1 (spectral norm, Acl
    Sigma on the parts) exceeds 1e-8 (||Acl|| ||Sigma|| + ||Bcl||) (Frobenius,
    ||Acl|| the loop's ``norm``).
    """
    plant, ctrl, n_p = closed_loop.plant, closed_loop.ctrl, closed_loop.plant.state_dim
    E_s, K, copies = stabilized_disturbance(plant, exo), ctrl.K, ctrl.copies
    Bcl, Sigma = closed_loop.Bcl, np.empty(closed_loop.Bcl.shape, dtype=complex)
    for k, w in enumerate(exo.omegas):
        if np.abs(closed_loop.spectrum - 1j * w).min() <= RESONANCE_RTOL * max(1.0, abs(w)):
            raise ResonanceError(w)
        try:
            p = plant.transfer(1j * w)
            M = np.diag(1j * (w - copies)) - ctrl.G2 @ (p[:, None] * K)
            Sigma[n_p:, k] = z = np.linalg.solve(M, ctrl.G2 @ (p * E_s[:, k] + exo.F[:, k]))
            Sigma[:n_p, k] = plant.input_resolvent(1j * w) @ (K @ z + E_s[:, k])
        except ResonanceError:  # a pole of P_s
            Sigma[:, k] = closed_loop.blockwise(
                lambda M, b: np.linalg.solve(1j * w * np.eye(len(M)) - M, b), Bcl[:, k : k + 1])[:, 0]
    resid1 = np.linalg.norm(Sigma * (1j * exo.omegas) - closed_loop.blockwise(np.matmul, Sigma) - Bcl, 2)
    bound = 1e-8 * (closed_loop.norm * linalg.frobenius_norm(Sigma) + linalg.frobenius_norm(Bcl))
    if resid1 > bound:
        raise ValueError(f"regulator residual {resid1:.3e} exceeds {bound:.3e}")
    return RegulatorSolution(
        Sigma=Sigma, residual1=float(resid1),
        error_map=closed_loop.Ccl @ Sigma + closed_loop.Dcl,
    )


def error_bound_delta(reg_sol, closed_loop, P_N):
    """Asymptotic windowed-error bound of the closed loop.

    ``delta`` is the squared spectral norm of the error map C_e Sigma + D_e;
    ``delta_coarse`` sums the squared (I - P_N)-tails of its columns, the
    per-frequency errors P_s(i w_k) (K z_k + E_s phi_k) + F phi_k with z_k
    the internal-model columns of the regulator solution.
    """
    M = reg_sol.error_map
    coarse = float(np.linalg.norm(M - P_N @ M) ** 2)
    return ErrorBound(delta=reg_sol.residual2**2, delta_coarse=coarse)
