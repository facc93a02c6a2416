"""Numerical invariants of the paper's claims, each written once.

Every entry of :data:`REGISTRY` is tagged with the ``wavereg verify`` suite
it belongs to and, where it has one, with the acceptance criterion (4-8) that
asserts it. An entry reads what it needs from a lazily built run
(``wavereg.cli.Run``) and returns ``(label, ok, detail)``. Random inputs come
from a constant seed per check, so every run of a configuration checks the
same data.

The independent oracles that the checks hold production code against live
here too, off the paths of the other commands: :func:`match_spectra`,
:func:`sylvester_kron`, :func:`sylvester_blocks` (the regulator solution
from :func:`linalg.sylvester_diag` on each diagonal block of ``Acl``) and
:func:`assemble_paper_Ae`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import bessel, linalg, loop, synthesis

# Tuning gain of the regulating and robust controllers built for criteria 4 and 5.
GAIN = 0.15


def match_spectra(first, second):
    """Bottleneck distance of two eigenvalue multisets: the least t for which
    a one-to-one pairing matches every eigenvalue within t (Gabow & Tarjan,
    J. Algorithms 9(3), 1988).

    Sorting complex eigenvalues is unreliable when real parts are nearly
    degenerate, so similarity-invariance checks go through a matching. The
    eigenvalues of ``first`` are matched one at a time, each along the
    alternating path whose largest new distance is least (a Dijkstra search
    with max in place of +). While every matched distance is at most the
    bottleneck distance, such a path exists within it, so the final pairing
    attains it; each search takes at most n steps of O(n).
    """
    a = np.asarray(first, dtype=complex).ravel()
    b = np.asarray(second, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError("eigenvalue multisets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    row_of = np.full(b.size, -1)  # the eigenvalue of first matched to each of second
    for i in range(a.size):
        reach = cost[i].copy()  # least largest distance of a path from a[i] to each b[j]
        via = np.full(b.size, -1)  # the b before b[j] on that path, -1 for a[i] itself
        done = np.zeros(b.size, dtype=bool)
        while True:
            j = np.argmin(np.where(done, np.inf, reach))
            if row_of[j] < 0:
                break
            done[j] = True
            step = np.maximum(reach[j], cost[row_of[j]])
            closer = ~done & (step < reach)
            reach[closer], via[closer] = step[closer], j
        while via[j] >= 0:  # each b on the path takes the a of the b before it
            row_of[j] = row_of[via[j]]
            j = via[j]
        row_of[j] = i
    return float(cost[row_of, np.arange(b.size)].max())


def sylvester_kron(Ae, Be, omegas):
    """Brute-force Kronecker-product solve of ``Sigma S = Ae Sigma + Be``.

    Vectorizes the equation into ``(S kron I - I kron Ae) vec(Sigma) =
    vec(Be)`` and solves it as one dense system; the independent oracle for
    :func:`linalg.sylvester_diag` on small instances.
    """
    M = linalg.as_matrix(Ae, "Ae")
    R = linalg.as_matrix(Be, "Be")
    om = np.asarray(omegas, dtype=float)
    if R.shape != (M.shape[0], om.size):
        raise ValueError(f"Be must have shape {(M.shape[0], om.size)}, got {R.shape}")
    n, q = R.shape
    big = np.kron(np.diag(1j * om), np.eye(n)) - np.kron(np.eye(q), M)
    try:
        vec = linalg.solve_dense(big, R.flatten(order="F"))
    except linalg.SingularMatrixError as exc:
        raise linalg.ResonanceError(om, "some i*omega_k is in the spectrum of Ae") from exc
    return vec.reshape((n, q), order="F")


def assemble_paper_Ae(plant, ctrl, exo):
    """Assemble the closed loop in the transformed boundary-system form.

    The transformation x_e = [[I, -B_s K], [0, I]] (x, z) - (B_s E_s v, 0)
    turns the interconnection into an ordinary input/state/output system. In
    modal coordinates the right inverse of the stabilized input map is the
    input matrix itself, B_s = B, and the generator acts on its range as
    Alpha B_s = (A_s + I) B (the identity term is the boundary value of B_s).
    This form is similar to :func:`loop.assemble_direct`, so the two share
    their spectrum and their transfer on the exosystem directions.
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
    return loop.ClosedLoop(Acl, Bcl, Ccl, CBE_F.astype(complex), plant, ctrl, exo)


def sylvester_blocks(closed_loop, omegas):
    """Regulator solution Sigma of ``closed_loop`` by a dense
    :func:`linalg.sylvester_diag` solve on each diagonal block of its own
    ``Acl``; the oracle for :func:`synthesis.solve_regulator`."""
    Acl, Bcl = closed_loop.Acl, closed_loop.Bcl
    Sigma = np.empty(Bcl.shape, dtype=complex)
    for idx in linalg._diagonal_blocks(Acl):
        Sigma[idx] = linalg.sylvester_diag(Acl[np.ix_(idx, idx)], Bcl[idx], omegas)
    return Sigma


@dataclass(frozen=True)
class Check:
    """One registered invariant; ``measure(ctx)`` returns (ok, detail)."""

    suite: str
    label: str
    criterion: int | None
    measure: Callable

    def run(self, ctx):
        ok, detail = self.measure(ctx)
        return self.label, bool(ok), detail


REGISTRY = []  # in registration order, which is the order criteria join their details in


def _check(suite, label, criterion=None):
    def register(measure):
        REGISTRY.append(Check(suite, label, criterion, measure))
        return measure

    return register


@_check("synth", "regulating controller solves the regulator equations, "
        "a 10% K0 perturbation of it does not", criterion=4)
def _regulator_equations(ctx):
    ctrl = synthesis.synth_regulating(ctx.plant, ctx.exo, GAIN)
    cl = loop.assemble_direct(ctx.plant, ctrl, ctx.exo)
    reg = synthesis.solve_regulator(cl, ctx.exo)
    scale = np.linalg.norm(cl.Ccl, 2) * np.linalg.norm(reg.Sigma, 2) + np.linalg.norm(cl.Dcl, 2)
    detail = f"residual2={reg.residual2:.2e} (scale {scale:.2e})"
    drive = np.abs(ctx.exo.E) + np.abs(ctx.exo.F)
    if np.all(np.count_nonzero(drive > 1e-12 * drive.max(), axis=0) <= 1):
        # the plant is channel-diagonal: K0 scaled entrywise still regulates
        skipped = "perturbation control skipped: no frequency drives more than one channel"
        return reg.residual2 < 1e-8 * scale, f"{detail}, {skipped}"
    rng = np.random.default_rng(12345)
    K0 = ctrl.K0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, ctrl.K0.shape))
    bad = replace(ctrl, K0=K0)
    reg_bad = synthesis.solve_regulator(loop.assemble_direct(ctx.plant, bad, ctx.exo), ctx.exo)
    return (
        reg.residual2 < 1e-8 * scale and reg_bad.residual2 > 1e-3,
        f"{detail}, perturbed residual2={reg_bad.residual2:.2e}",
    )


@_check("synth", "G-conditions hold for the robust controller and fail for approx ones "
        "by a G2 kernel of dim Y - (2N+1)", criterion=5)
def _g_conditions(ctx):
    robust = synthesis.check_g_conditions(synthesis.synth_robust(ctx.plant, ctx.exo, GAIN))
    dim_y = ctx.plant.output_dim
    ok, kernels = robust.passed, {}
    for N in (n for n in (1, 3, 5, 8) if 2 * n + 1 < dim_y):
        ctrl = synthesis.synth_approx_robust(ctx.plant, ctx.exo, N, GAIN)
        rep = synthesis.check_g_conditions(ctrl)
        kernels[N] = rep.kernel_dim_G2
        ok &= not rep.passed and rep.kernel_dim_G2 == dim_y - (2 * N + 1)
    return ok, f"robust passed={robust.passed}, approx kernel dims={kernels}"


@_check("loop", "direct and transformed closed loops have the same spectrum", criterion=6)
def _spectra(ctx):
    paper = assemble_paper_Ae(ctx.plant, ctx.controller, ctx.exo)
    dist = match_spectra(ctx.closed_loop.spectrum, paper.spectrum)
    return dist < 1e-8, f"spectra dist={dist:.2e}"


@_check("linalg", "sylvester_diag matches the Kronecker oracle", criterion=6)
def _sylvester(ctx):
    rng = np.random.default_rng(77)
    worst = 0.0
    for n, q in ((6, 2), (14, 3), (20, 4)):
        Ae = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Ae -= (n + 3) * np.eye(n)
        Be = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        om = np.sort(rng.uniform(-3.0, 3.0, q)) + 0.05 * np.arange(q)
        S = linalg.sylvester_diag(Ae, Be, om)
        gap = np.abs(S - sylvester_kron(Ae, Be, om)).max()
        worst = max(worst, gap / max(1.0, np.abs(S).max()))
    return worst < 1e-10, f"sylvester worst={worst:.2e}"


@_check("synth", "regulator solution matches the per-block Sylvester oracle", criterion=6)
def _sigma(ctx):
    oracle = sylvester_blocks(ctx.closed_loop, ctx.exo.omegas)
    diff = np.abs(ctx.regulator.Sigma - oracle).max() / max(1.0, np.abs(oracle).max())
    return diff < 1e-8, f"Sigma vs per-block Sylvester diff={diff:.2e}"


@_check("wave", "undamped plant conserves energy; damped plant is passive and admissible, "
        "int ||y||^2 <= E0/(2Q)", criterion=7)
def _energy(ctx):
    plant = ctx.plant
    rng = np.random.default_rng(2718)
    x0 = rng.standard_normal(plant.state_dim)
    resp = loop.free_response(plant.perturbed(q_scale=0.0), x0, t_end=10.0, dt=0.01)
    drift = np.abs(resp.energies / resp.energies[0] - 1.0).max()
    worst, worst_err, admissible, decays = 0.0, 0.0, True, True
    x0s = rng.standard_normal((20, plant.state_dim))
    # 2500 steps: every other sample spans the same [0, 5] at 2 dt
    for x0, resp in zip(x0s, loop.free_response(plant, x0s, t_end=5.0, dt=0.002)):
        sq, scale = resp.error_norms_sq(), 2.0 * plant.Q_feedback / plant.energy(x0)
        fine, coarse = np.trapezoid(sq, resp.t), np.trapezoid(sq[::2], resp.t[::2])
        # on a convex ||y||^2 the rule overestimates; |I_dt - I_2dt| is three
        # times the leading term of its error, which the ratio is judged within
        ratio, err = scale * fine, scale * abs(fine - coarse)
        admissible &= ratio - err <= 1.0
        if ratio > worst:
            worst, worst_err = ratio, err
        decays &= not np.any(np.diff(resp.energies) > 1e-12 * resp.energies[0])
    bound = f"admissibility ratio={worst:.4f}" if plant.Q_feedback > 0 else (
        "Q=0: no admissibility bound, conservation and non-increase judged only")
    if worst > 1.0:
        bound += f" within its trapezoid error {worst_err:.1e}"
    detail = f"energy drift={drift:.2e}, {bound}"
    return drift < 1e-9 and admissible and decays, detail + ("" if decays else ", E increased")


@_check("wave", "Bessel Wronskian J1 Y0 - J0 Y1 = 2/(pi x) at x = 1, 5, 20", criterion=7)
def _wronskian(ctx):
    worst = 0.0
    for x in (1.0, 5.0, 20.0):
        J0, Y0, _, _ = bessel.bessel_jy(0, x)
        J1, Y1, _, _ = bessel.bessel_jy(1, x)
        worst = max(worst, abs(J1 * Y0 - J0 * Y1 - 2.0 / (np.pi * x)))
    return worst < 1e-10, f"wronskian={worst:.2e}"


@_check("wave", "eigenmodes are orthonormal (2-D Gram matrix)", criterion=7)
def _gram(ctx):
    plant, n_theta = ctx.plant, 256
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    x, w = np.polynomial.legendre.leggauss(64)  # oracle for the closed-form radial norms
    r = 1.5 + 0.5 * x
    weights = np.outer(0.5 * w * r, np.full(n_theta, 2 * np.pi / n_theta)).ravel()
    eye = np.eye(plant.n_modes)
    fields = np.array([plant.displacement_profile(mode, r, theta).ravel() for mode in eye])
    err = np.abs((fields * weights) @ fields.T - eye).max()
    return err < 1e-6, f"gram err={err:.2e}"


def one_stable_run(abscissas):
    """True if the stable (negative) abscissas of a gain sweep form one
    nonempty contiguous run."""
    stable = [i for i, a in enumerate(abscissas) if a < 0.0]
    return bool(stable) and stable[-1] - stable[0] + 1 == len(stable)


@_check("loop", "stable gains of the sweep 0.05, 0.10, ..., 0.50 form a prefix; "
        "the configured gain is stable", criterion=8)
def _gain_sweep(ctx):
    ctrl, abscissa = ctx.controller, ctx.closed_loop.abscissa
    grid = [round(0.05 * i, 2) for i in range(1, 11)]
    sweep = [loop.assemble_direct(ctx.plant, replace(ctrl, eps=e), ctx.exo).abscissa for e in grid]
    table = ", ".join(f"{e:.2f}:{a:+.3f}" for e, a in zip(grid, sweep))
    return (
        one_stable_run(sweep) and abscissa < 0,
        f"sweep [{table}]; eps={ctrl.eps:g} abscissa {abscissa:+.4f}",
    )


@_check("synth", "asymptotic error bound delta < 0.01")
def _delta(ctx):
    ctx.closed_loop.require_stable()  # delta bounds the error of a stable loop only
    bound = synthesis.error_bound_delta(ctx.regulator, ctx.closed_loop, ctx.controller.projector())
    return bound.delta < 0.01, f"{bound.delta:.2e}"


@_check("loop", "direct and transformed transfers agree on the exosystem directions")
def _transfers(ctx):
    def transfer(cl, w):  # v -> e of the loop ``cl`` at i w
        return synthesis.eval_transfer(cl.Acl, cl.Bcl, cl.Ccl, 1j * w) + cl.Dcl

    paper = assemble_paper_Ae(ctx.plant, ctx.controller, ctx.exo)
    worst = max(
        np.linalg.norm((transfer(ctx.closed_loop, w) - transfer(paper, w))[:, k])
        for k, w in enumerate(ctx.exo.omegas)
    )
    return worst < 1e-8, f"{worst:.2e}"
