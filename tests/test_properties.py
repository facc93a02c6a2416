"""Property tests over small random plants and exosystems.

Each example draws a plant (2-3 radial modes, angular orders 0..1 to 0..3,
either inner boundary condition), a reference at one drive frequency and a
disturbance at another, both in [0.5, 8], with random Fourier profiles, and
a truncation order N below the angular cutoff. The plant matrices are also
checked with a random density, stiffness and damping gain. The loop's
channel blocks, spectrum and regulator solution are held against the dense
oracle for all three controller kinds at random gains. The regulator
solve is held against its per-block Sylvester oracle over a grid of gains,
the idle gain 0, where both must refuse, included. The block-wise
spectrum is checked on random permuted block-diagonal matrices, also under
coupling at roundoff level, and on the preset loops. The sampler is checked
against the per-step oracle in real and in complex arithmetic: a complex z0
or a disturbance entry 1e-12 off its symmetry samples in complex128, and a
+-omega copy pair cut off from the plant (the preset's among them) stays
real.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavereg import checks, linalg, loop, synthesis
from wavereg.exosystem import SignalTerm, build_exosystem, build_sect5_exosystem
from wavereg.plant import assemble_wave_plant

from conftest import rel_gap, sequential_reference, sigma_oracle

EPS = 0.15


@lru_cache(maxsize=None)
def _plant(n_radial, m_angular, inner_bc):
    return assemble_wave_plant(n_radial, m_angular, 3.0, inner_bc=inner_bc)


@st.composite
def small_problems(draw):
    n_radial = draw(st.integers(2, 3))
    m_angular = draw(st.integers(2, 4))
    inner_bc = draw(st.sampled_from(["neumann", "dirichlet"]))
    plant = _plant(n_radial, m_angular, inner_bc)
    dim = plant.basis.dim
    coeffs = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(np.array)
    ref_coeffs, dist_coeffs = draw(coeffs), draw(coeffs)
    w_ref, w_dist = draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0))
    reference = [SignalTerm(ref_coeffs, "sin", w_ref)]
    disturbance = [SignalTerm(dist_coeffs, "cos", w_dist)]
    exo = build_exosystem(reference, disturbance, plant.basis.max_order)
    N = draw(st.integers(1, m_angular - 1))
    return plant, exo, N


_PROPERTY_SETTINGS = settings(max_examples=20, derandomize=True, deadline=None)


@_PROPERTY_SETTINGS
@given(small_problems(), st.floats(0.5, 2.0), st.floats(0.0, 2.0))
def test_closed_form_transfer_is_the_dense_diagonal(problem, stiffness_scale, q_scale):
    plant, exo, _ = problem
    for p in (plant, plant.perturbed(stiffness_scale, q_scale)):
        for w in exo.omegas:
            dense = synthesis.eval_transfer(p.As, p.B, p.C, 1j * w)
            diag = np.diag(dense)
            assert not (dense - np.diag(diag)).any()
            assert np.abs(p.transfer(1j * w) - diag).max() <= 1e-12 * np.abs(diag).max()
            dense = linalg.solve_dense(1j * w * np.eye(p.state_dim) - p.As, p.B)
            assert rel_gap(p.input_resolvent(1j * w), dense) <= 1e-12


@_PROPERTY_SETTINGS
@given(st.integers(2, 3), st.integers(2, 4), st.sampled_from(["neumann", "dirichlet"]),
       st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 4.0),
       st.lists(st.floats(0.5, 8.0), min_size=2, max_size=2))
def test_plant_matrices_follow_density_and_stiffness(n_radial, m_angular, inner_bc, rho, T_mod,
                                                     Q, omegas):
    # collocation C^T = rho B, the damper As = A - Q B C, skew-adjointness of
    # A in the energy norm and the closed-form transfer, off rho = T = 1
    plant = assemble_wave_plant(n_radial, m_angular, Q, rho=rho, t_mod=T_mod, inner_bc=inner_bc)
    A, B, C = plant.A, plant.B, plant.C
    assert np.abs(C.T - rho * B).max() <= 4e-16 * np.abs(C).max()
    assert np.abs(plant.As - (A - Q * (B @ C))).max() <= 4e-16 * np.abs(plant.As).max()
    WA = plant.energy_weights[:, None] * A
    assert np.abs(WA + WA.T).max() <= 4e-16 * np.abs(WA).max()
    for w in omegas:
        diag = np.diag(synthesis.eval_transfer(plant.As, B, C, 1j * w))
        assert np.abs(plant.transfer(1j * w) - diag).max() <= 1e-12 * np.abs(diag).max()


@_PROPERTY_SETTINGS
@given(small_problems())
def test_delta_non_increasing_in_N(problem):
    # a larger N only zeroes more rows of C_e Sigma + D_e
    plant, exo, _ = problem
    deltas = []
    for N in range(1, plant.basis.max_order + 1):
        ctrl = synthesis.synth_approx_robust(plant, exo, N, EPS)
        cl = loop.assemble_direct(plant, ctrl, exo)
        reg = synthesis.solve_regulator(cl, exo)
        deltas.append(synthesis.error_bound_delta(reg, cl, ctrl.projector()).delta)
    assert all(b <= a + 1e-15 for a, b in zip(deltas, deltas[1:])), deltas


@_PROPERTY_SETTINGS
@given(small_problems())
def test_regulating_controller_regulates_exactly(problem):
    plant, exo, _ = problem
    ctrl = synthesis.synth_regulating(plant, exo, EPS)
    cl = loop.assemble_direct(plant, ctrl, exo)
    reg = synthesis.solve_regulator(cl, exo)
    scale = np.linalg.norm(cl.Ccl, 2) * np.linalg.norm(reg.Sigma, 2) + np.linalg.norm(cl.Dcl, 2)
    assert reg.residual2 <= 1e-8 * scale


@_PROPERTY_SETTINGS
@given(small_problems(), st.floats(0.5, 2.0), st.floats(0.0, 2.0))
def test_approx_controller_bound_and_closed_form(problem, stiffness_scale, q_scale):
    # the closed-form regulator solve matches the per-block Sylvester oracle
    # for every controller kind, also around plants it was not designed for
    plant, exo, N = problem
    ctrl = synthesis.synth_approx_robust(plant, exo, N, EPS)
    cl = loop.assemble_direct(plant, ctrl, exo)
    bound = synthesis.error_bound_delta(synthesis.solve_regulator(cl, exo), cl, ctrl.projector())
    assert bound.delta <= bound.delta_coarse + 1e-15
    others = [s(plant, exo, EPS) for s in (synthesis.synth_regulating, synthesis.synth_robust)]
    for p in (plant, plant.perturbed(stiffness_scale, q_scale)):
        for c in (ctrl, *others):
            cl = loop.assemble_direct(p, c, exo)
            try:
                sigma = synthesis.solve_regulator(cl, exo).Sigma
            except linalg.ResonanceError:
                with pytest.raises(linalg.ResonanceError):
                    sigma_oracle(cl)
                continue
            oracle = sigma_oracle(cl)
            assert np.abs(sigma - oracle).max() <= 1e-8 * max(1.0, np.abs(sigma).max())


@_PROPERTY_SETTINGS
@given(small_problems(), st.sampled_from(["regulating", "approx", "robust"]),
       st.floats(0.0, 1.0), st.floats(0.5, 2.0), st.one_of(st.just(0.0), st.floats(0.5, 2.0)))
def test_channel_blocks_match_the_dense_oracle(problem, kind, eps, stiffness_scale, q_scale):
    # the loop joins its channels through the copies without forming Acl: its
    # partition is the entry search on the dense pair form, and its spectrum
    # and regulator solution are the dense oracle's. The damper joins the modes
    # of each channel (none when undamped); a damping gain within roundoff of 0,
    # which the entry search would split off, is left out.
    plant, exo, N = problem
    ctrl = {"regulating": lambda: synthesis.synth_regulating(plant, exo, eps),
            "approx": lambda: synthesis.synth_approx_robust(plant, exo, N, eps),
            "robust": lambda: synthesis.synth_robust(plant, exo, eps)}[kind]()
    for p in (plant, plant.perturbed(stiffness_scale, q_scale)):
        cl = loop.assemble_direct(p, ctrl, exo)
        Acl = checks.dense_loop(cl)[0]
        pair_form = loop._mapped(Acl, cl.pairs, cl.pairs)
        assert [b.tolist() for b in cl.blocks] == [
            b.tolist() for b in checks._diagonal_blocks(pair_form)]
        assert checks.match_spectra(cl.spectrum, checks.block_spectrum(pair_form)) <= 1e-12
        try:
            sigma = synthesis.solve_regulator(cl, exo).Sigma
        except linalg.ResonanceError:  # refusals: test_regulator_matches_block_oracle_across_gains
            continue
        oracle = sigma_oracle(cl)
        assert np.abs(sigma - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())


@_PROPERTY_SETTINGS
@given(small_problems())
def test_regulator_matches_block_oracle_across_gains(problem):
    # the resonance test reads the loop's spectrum and the oracle the singular
    # values of each block's i w - Acl: both refuse a gain or solve it alike
    plant, exo, N = problem
    ctrl = synthesis.synth_approx_robust(plant, exo, N, EPS)
    for eps in (0.0, 0.05, 0.15, 0.4, 1.0):
        cl = loop.assemble_direct(plant, replace(ctrl, eps=eps), exo)
        try:
            sigma = synthesis.solve_regulator(cl, exo).Sigma
        except linalg.ResonanceError:
            with pytest.raises(linalg.ResonanceError):
                sigma_oracle(cl)
            continue
        oracle = sigma_oracle(cl)
        assert np.abs(sigma - oracle).max() <= 1e-8 * max(1.0, np.abs(sigma).max())


def _dense_g_report(ctrl):
    """Oracle: intersection dimensions from the dense ranks of i w_k - G1 and
    [i w_k - G1, G2], dim(R(A) cap R(B)) = rank A + rank B - rank [A, B].
    Scaling G2 changes no range, so G2 enters [A, B] at unit norm, where its
    relative rank tolerance is not set by the frequency gaps of A."""
    rank_g2 = np.linalg.matrix_rank(ctrl.G2, rtol=linalg.RANK_RTOL)
    G2 = ctrl.G2 / max(np.linalg.norm(ctrl.G2, 2), np.finfo(float).tiny)
    inter = 0
    for w in ctrl.omegas:
        A1 = 1j * w * np.eye(ctrl.dim_z) - ctrl.G1
        r12 = np.linalg.matrix_rank(np.hstack([A1, G2]), rtol=linalg.RANK_RTOL)
        inter = max(inter, np.linalg.matrix_rank(A1, rtol=linalg.RANK_RTOL) + rank_g2 - r12)
    kernel = ctrl.dim_y - rank_g2
    return synthesis.GReport(kernel, inter, kernel == 0 and inter == 0)


def _ranks_are_clear(ctrl, margin=1e3):
    """True when no singular value of G2 or of a row block lies within a
    factor ``margin`` of the rank threshold and the frequency gaps lie far
    above it: only then can the dense ranks, taken at other scales, not
    round differently from the structural ones."""
    bd = ctrl.block_dim
    s = np.linalg.svd(ctrl.G2, compute_uv=False)
    blocks = [ctrl.G2[k * bd : (k + 1) * bd] for k in range(ctrl.omegas.size)]
    values = np.concatenate([s, *(np.linalg.svd(b, compute_uv=False) for b in blocks)])
    tol = linalg.RANK_RTOL * s[0]
    gaps = np.diff(np.sort(ctrl.omegas))
    return not np.any((values > tol / margin) & (values < tol * margin)) and (
        gaps.min(initial=np.inf) > margin * linalg.RANK_RTOL * np.ptp(ctrl.omegas)
    )


@_PROPERTY_SETTINGS
@given(small_problems(), st.integers(0, 2**32 - 1))
def test_structural_g_conditions_match_dense_ranks(problem, seed):
    plant, exo, N = problem
    approx = synthesis.synth_approx_robust(plant, exo, N, EPS)
    # row blocks of random ranks give nonzero intersections and kernels
    rng = np.random.default_rng(seed)
    bd, dim_y = approx.block_dim, approx.dim_y
    blocks = []
    for _ in range(exo.q):
        r = rng.integers(0, bd + 1)
        blocks.append(rng.standard_normal((bd, r)) @ rng.standard_normal((r, dim_y)))
    ctrls = (
        synthesis.synth_regulating(plant, exo, EPS),
        approx,
        synthesis.synth_robust(plant, exo, EPS),
        replace(approx, G2=np.vstack(blocks).astype(complex)),
    )
    for ctrl in ctrls:
        if _ranks_are_clear(ctrl):
            assert synthesis.check_g_conditions(ctrl) == _dense_g_report(ctrl)


@_PROPERTY_SETTINGS
@given(small_problems())
def test_direct_and_transformed_spectra_agree(problem):
    plant, exo, N = problem
    ctrl = synthesis.synth_approx_robust(plant, exo, N, EPS)
    spec_d = linalg.eig(checks.dense_loop(loop.assemble_direct(plant, ctrl, exo))[0])
    spec_p = linalg.eig(checks.assemble_paper_Ae(plant, ctrl, exo)[0])
    assert checks.match_spectra(spec_d, spec_p) < 1e-8


@st.composite
def permuted_block_diagonals(draw):
    """A random complex block-diagonal matrix with dense blocks of size 1-8,
    under a random symmetric permutation, and its number of blocks."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = scipy.linalg.block_diag(
        *(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for m in sizes)
    )
    perm = rng.permutation(A.shape[0])
    return A[np.ix_(perm, perm)], len(sizes)


_COUPLED = np.random.default_rng(0).standard_normal((8, 8)) + 1j


@_PROPERTY_SETTINGS
@given(permuted_block_diagonals())
@example((_COUPLED, 1))
def test_blockwise_spectrum_matches_dense(matrix_and_count):
    A, count = matrix_and_count
    blocks = checks._diagonal_blocks(A)
    assert len(blocks) == count
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(A.shape[0]))
    outside = np.ones(A.shape, dtype=bool)
    for idx in blocks:
        outside[np.ix_(idx, idx)] = False
    assert not A[outside].any()
    dist = checks.match_spectra(checks.block_spectrum(A), np.linalg.eigvals(A))
    assert dist <= 1e-10 * max(1.0, np.linalg.norm(A))


@_PROPERTY_SETTINGS
@given(permuted_block_diagonals(), st.integers(0, 2**32 - 1))
def test_roundoff_coupling_keeps_blocks_split(matrix_and_count, seed):
    # every dense block is nonzero throughout, so the zeros of A are exactly
    # the entries between two blocks
    A, count = matrix_and_count
    rng = np.random.default_rng(seed)
    between = A == 0
    phase = np.exp(2j * np.pi * rng.uniform(size=A.shape))
    noise = 0.5 * np.finfo(float).eps * np.linalg.norm(A) * rng.uniform(size=A.shape) * phase
    noisy = np.where(between, noise, A)
    assert len(checks._diagonal_blocks(noisy)) == count
    dist = checks.match_spectra(checks.block_spectrum(noisy), np.linalg.eigvals(noisy))
    assert dist <= 1e-10 * max(1.0, np.linalg.norm(A))
    if count > 1:
        i, j = np.argwhere(between)[rng.integers(np.count_nonzero(between))]
        noisy[i, j] = 1e-12 * np.linalg.norm(A)
        assert len(checks._diagonal_blocks(noisy)) == count - 1


def _preset_loop(plant, exo, family):
    if family == "regulating":
        ctrl = synthesis.synth_regulating(plant, exo, EPS)
    elif family == "robust":
        ctrl = synthesis.synth_robust(plant, exo, EPS)
    else:
        ctrl = synthesis.synth_approx_robust(plant, exo, int(family[6:]), EPS)
    return loop.assemble_direct(plant, ctrl, exo)


@pytest.mark.parametrize("family", ["regulating", "approx1", "approx5", "approx8", "robust"])
def test_preset_abscissa_matches_dense(sect5_plant, sect5_exo, family):
    cl = _preset_loop(sect5_plant, sect5_exo, family)
    assert abs(cl.abscissa - np.linalg.eigvals(checks.dense_loop(cl)[0]).real.max()) <= 1e-10


@pytest.mark.parametrize("family", ["regulating", "approx5", "robust"])
def test_preset_spectrum_closed_under_conjugation(sect5_plant, sect5_exo, family):
    # the pair form of a preset loop is real, so its eigenvalues come in
    # exactly conjugate pairs
    cl = _preset_loop(sect5_plant, sect5_exo, family)
    w = cl.spectrum
    assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj()))
    assert abs(cl.abscissa - np.linalg.eigvals(checks.dense_loop(cl)[0]).real.max()) <= 1e-12


@_PROPERTY_SETTINGS
@given(small_problems())
def test_energy_balance_along_blocked_trajectory(problem):
    # With the controller idle (K = 0) the plant sees the boundary force
    # u = E_s v - Q y, and its energy obeys d/dt E = 2 Re <u, y>. Checked in
    # integral form over several doubling passes, against the trapezoid
    # rule's error bound T dt^2 / 12 max |P''| for the power P.
    plant, exo, _ = problem
    ctrl = synthesis.synth_regulating(plant, exo, 0.0)
    cl = loop.assemble_direct(plant, ctrl, exo)
    dt, t_end = 0.002, 2.0
    traj = loop.simulate_exact(cl, exo, t_end=t_end, dt=dt)
    assert traj.t.size > 512
    v = np.exp(1j * np.outer(traj.t, exo.omegas)) * exo.v0
    y = traj.errors - v @ exo.F.T  # e = C x + F v
    u = v @ synthesis.stabilized_disturbance(plant, exo).T - plant.Q_feedback * y
    power = 2.0 * np.real(np.sum(np.conj(u) * y, axis=1))
    injected = np.concatenate([[0.0], np.cumsum(0.5 * dt * (power[1:] + power[:-1]))])
    drift = np.abs(traj.energies - traj.energies[0] - injected)
    quadrature = t_end / 12.0 * np.abs(np.diff(power, 2)).max()
    scale = max(traj.energies.max(), np.abs(power).max())
    assert drift.max() <= 2.0 * quadrature + 1e-10 * scale


def _partner_symmetric(ctrl, z):
    """``z`` with each controller copy at -omega replaced by the conjugate of
    its partner's copy at omega: the exactly conjugate-symmetric z0."""
    copies = z.reshape(ctrl.omegas.size, ctrl.block_dim).copy()
    for k, w in enumerate(ctrl.omegas):
        if w < 0:
            copies[k] = copies[list(ctrl.omegas).index(-w)].conj()
    return copies.ravel()


def _cut_pair(ctrl):
    """``ctrl`` with the copies of its first +-omega pair cut off from the
    plant (their G2 rows and K0 columns zeroed), and those copies' first
    coordinates in the controller state."""
    first = [k[0] * ctrl.block_dim for k in loop._pairs(ctrl.omegas)]
    cut = np.concatenate([np.arange(k, k + ctrl.block_dim) for k in first])
    G2, K0 = ctrl.G2.copy(), ctrl.K0.copy()
    G2[cut], K0[:, cut] = 0.0, 0.0
    return replace(ctrl, G2=G2, K0=K0), first


@_PROPERTY_SETTINGS
@given(small_problems(), st.sampled_from(["regulating", "approx", "robust"]),
       st.integers(0, 2**32 - 1))
@example(problem=(_plant(8, 12, "neumann"), build_sect5_exosystem(11), 5), kind="regulating",
         seed=0)  # the preset; its cut pair is copies 0 and 3, which gives 13 blocks
def test_sampler_matches_per_step_oracle(problem, kind, seed):
    # a conjugate-symmetric z0 samples in float64 on the real pair form, and
    # so does a +-omega copy pair cut off from the plant: its partners lie in
    # different blocks of Acl but share one block of the pair form. Any
    # other complex z0, or one disturbance entry 1e-12 off, samples in complex128.
    # 150 steps straddle the doubling pass that starts at row 128.
    plant, exo, N = problem
    if kind == "regulating":
        ctrl = synthesis.synth_regulating(plant, exo, EPS)
    elif kind == "approx":
        ctrl = synthesis.synth_approx_robust(plant, exo, N, EPS)
    else:
        ctrl = synthesis.synth_robust(plant, exo, EPS)
    cl = loop.assemble_direct(plant, ctrl, exo)
    rng = np.random.default_rng(seed)
    x_p = rng.standard_normal(plant.state_dim)
    z = rng.standard_normal(ctrl.dim_z) + 1j * rng.standard_normal(ctrl.dim_z)
    x0 = np.concatenate([x_p, _partner_symmetric(ctrl, z)])
    E = exo.E.copy()
    E[0, 0] += 1e-12 * max(1.0, np.abs(E).max())  # its partner column stays as it was
    cut, first = _cut_pair(ctrl)
    cut_cl = loop.assemble_direct(plant, cut, exo)
    block_of = {j: c for c, idx in enumerate(cut_cl.blocks) for j in idx}
    assert block_of[plant.state_dim + first[0]] == block_of[plant.state_dim + first[1]]
    cases = [(cl, x0, np.float64), (cl, np.concatenate([x_p, z]), np.complex128),
             (replace(cl, exo=replace(exo, E=E)), x0, np.complex128), (cut_cl, x0, np.float64)]
    dt, n_steps = 0.01, 150
    for cl, x0, dtype in cases:
        traj = loop.simulate_exact(cl, exo, x0=x0, t_end=n_steps * dt, dt=dt)
        states, errors, energies = sequential_reference(checks.dense_loop(cl), cl.plant, exo, x0, n_steps, dt)
        assert traj.errors.dtype == dtype
        assert rel_gap(traj.states[0], states[-1]) < 1e-12
        assert rel_gap(traj.errors, errors) < 1e-12
        assert rel_gap(traj.energies, energies) < 1e-12
