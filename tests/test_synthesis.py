import dataclasses
import warnings

import numpy as np
import pytest

from wavereg import linalg, synthesis
from wavereg.checks import dense_loop
from wavereg.exosystem import SignalTerm, build_exosystem
from wavereg.loop import assemble_direct
from wavereg.plant import assemble_wave_plant
from wavereg.synthesis import (
    check_g_conditions,
    error_bound_delta,
    eval_transfer,
    solve_regulator,
    synth_approx_robust,
    synth_regulating,
    synth_robust,
)

from conftest import DensePlant, scalar_plant, sigma_oracle, single_freq_exo


def transfer_paper_form(As, B, C, lam):
    """P_s(lambda) through the boundary-system formula
    C (lambda - A_s)^{-1} (Alpha B_s - lambda B_s) + C B_s, with the modal
    stand-ins B_s = B and Alpha B_s = (A_s + I) B: an evaluation path
    independent of :func:`eval_transfer`'s."""
    n = As.shape[0]
    X = np.linalg.solve(lam * np.eye(n) - As, (As + np.eye(n)) @ B - lam * B)
    return C @ X + C @ B


class TestTransfer:
    def test_scalar_static_gain(self):
        P = eval_transfer(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), 0.0)
        assert P[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_scalar_at_i(self):
        P = eval_transfer(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), 1j)
        assert P[0, 0] == pytest.approx(0.5 - 0.5j, abs=1e-14)

    def test_sect5_against_inverse_oracle(self, sect5_plant):
        lam = 1j * np.pi
        P = eval_transfer(sect5_plant.As, sect5_plant.B, sect5_plant.C, lam)
        resolvent = np.linalg.inv(lam * np.eye(sect5_plant.state_dim) - sect5_plant.As)
        oracle = sect5_plant.C @ resolvent @ sect5_plant.B
        assert np.abs(P - oracle).max() < 1e-10

    def test_paper_form_agrees(self, sect5_plant):
        for lam in (1j * np.pi, 0.3 + 2j):
            direct = eval_transfer(sect5_plant.As, sect5_plant.B, sect5_plant.C, lam)
            paper = transfer_paper_form(sect5_plant.As, sect5_plant.B, sect5_plant.C, lam)
            assert np.abs(direct - paper).max() < 1e-10

    def test_resonance_error(self):
        As = np.diag([1j * np.pi, -1j * np.pi])
        with pytest.raises(linalg.ResonanceError):
            eval_transfer(As, np.eye(2), np.eye(2), 1j * np.pi)

    def test_conjugate_symmetry(self, sect5_plant):
        # real plant matrices: P(conj lam) = conj(P(lam))
        lam = 0.4 + 1.7j
        P1 = eval_transfer(sect5_plant.As, sect5_plant.B, sect5_plant.C, lam)
        P2 = eval_transfer(sect5_plant.As, sect5_plant.B, sect5_plant.C, np.conj(lam))
        assert np.abs(P2 - np.conj(P1)).max() < 1e-12


class TestRegulatingController:
    def test_scalar_gain_formula(self, toy_plant):
        exo = single_freq_exo(omega=1.0, f=-1.0)
        ctrl = synth_regulating(toy_plant, exo, eps=0.2)
        # y_1 = -F = 1 and P_s(i) = 1/(1+i), so u_1 = 1 + i
        assert ctrl.K0[0, 0] == pytest.approx(1.0 + 1.0j, abs=1e-12)
        assert np.allclose(ctrl.K, 0.2 * ctrl.K0)
        assert ctrl.G2[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert ctrl.block_dim == 1 and ctrl.dim_z == 1

    def test_zero_target_branch(self, toy_plant):
        exo = single_freq_exo(omega=1.0, e=0.0, f=0.0)
        ctrl = synth_regulating(toy_plant, exo, eps=0.1)
        # u_k is the unit vector of the largest channel gain, never zero
        assert np.linalg.norm(ctrl.K0[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(ctrl.G2[0]) > 0

    def test_sect5_substitution_oracle(self, sect5_plant, sect5_exo):
        # z_k = eps^{-1} phi_k must solve the frequency-domain equations
        eps = 0.15
        ctrl = synth_regulating(sect5_plant, sect5_exo, eps)
        Ps = synthesis._frequency_data(sect5_plant, sect5_exo)
        E_s = synthesis.stabilized_disturbance(sect5_plant, sect5_exo)
        for k in range(sect5_exo.q):
            z = np.zeros(sect5_exo.q, dtype=complex)
            z[k] = 1.0 / eps
            resid = Ps[k] * (ctrl.K @ z) + Ps[k] * E_s[:, k] + sect5_exo.F[:, k]
            assert np.linalg.norm(resid) < 1e-9
            assert np.linalg.norm((1j * sect5_exo.omegas[k] * np.eye(ctrl.dim_z) - ctrl.G1) @ z) < 1e-12

    def test_range_violation_raises(self):
        # output 2 of this plant is identically zero, so a reference with a
        # component there cannot be matched
        plant = scalar_plant()
        plant = dataclasses.replace(
            plant,
            basis=type(plant.basis)(1),
            B=np.array([[1.0, 0.0, 0.0]]),
            C=np.array([[1.0], [0.0], [0.0]]),
        )
        exo = single_freq_exo(omega=1.0, dim_y=3)
        exo = dataclasses.replace(exo, F=np.array([[0.0], [-1.0], [0.0]], dtype=complex))
        with pytest.raises(ValueError, match="y_k outside range of P_s"):
            synth_regulating(plant, exo, eps=0.1)


class TestApproxRobustController:
    def test_scalar_case(self, toy_plant):
        # static gain P_s(0) = 1: unit gain block, injection -1
        exo = single_freq_exo(omega=0.0)
        ctrl = synth_approx_robust(toy_plant, exo, N=0, eps=0.1)
        assert ctrl.K0[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert ctrl.G1[0, 0] == 0.0
        assert ctrl.G2[0, 0] == pytest.approx(-1.0, abs=1e-14)
        with pytest.raises(ValueError):
            synth_approx_robust(toy_plant, exo, N=-1, eps=0.1)

    def test_sect5_dimensions(self, approx5):
        assert approx5.block_dim == 11
        assert approx5.dim_z == 44
        assert approx5.G1.shape == (44, 44)
        assert approx5.G2.shape == (44, 23)
        assert approx5.K.shape == (23, 44)

    def test_g1_block_structure_exact(self, approx5, sect5_exo):
        G1 = approx5.G1
        for k, w in enumerate(sect5_exo.omegas):
            blk = slice(k * 11, (k + 1) * 11)
            assert np.array_equal(G1[blk, blk], 1j * w * np.eye(11))
        mask = np.ones_like(G1, dtype=bool)
        for k in range(4):
            mask[k * 11 : (k + 1) * 11, k * 11 : (k + 1) * 11] = False
        assert not G1[mask].any()

    def test_g2_blocks_are_minus_projection(self, approx5):
        sel = np.eye(23)[:11]
        for k in range(4):
            assert np.array_equal(approx5.G2[k * 11 : (k + 1) * 11], -sel)

    def test_loop_gain_eigenvalues_minus_one(self, sect5_plant, sect5_exo, approx5):
        # G20 P_N P_s(i w_k) K0^k = -I by construction
        Ps = synthesis._frequency_data(sect5_plant, sect5_exo)
        for k in range(4):
            blk = slice(k * 11, (k + 1) * 11)
            gain = -(Ps[k][:, None] * approx5.K0[:, blk])[:11]
            assert np.abs(linalg.eig(gain) + 1.0).max() < 1e-10

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_closed_loop_copies_at_minus_eps(self, sect5_plant, sect5_exo, eps):
        # loop gains exactly at the identity move the 2N+1 internal-model
        # copies at each i w_k to i w_k - eps + O(eps^2); the second-order
        # constant measured on the preset is at most 10.7
        ctrl = synth_approx_robust(sect5_plant, sect5_exo, 5, eps)
        lam = linalg.eig(dense_loop(assemble_direct(sect5_plant, ctrl, sect5_exo))[0])
        for w in sect5_exo.omegas:
            nearest = lam[np.argsort(np.abs(lam - 1j * w))[: ctrl.block_dim]]
            worst = np.abs(nearest - (1j * w - eps)).max()
            assert worst < 20.0 * eps**2, (
                f"copies at i*{w:.4f}: max |lambda - (i w - eps)| = {worst / eps**2:.2f} eps^2"
            )

    def test_surjectivity_guard(self, sect5_plant, sect5_exo):
        # zeroing the outer-boundary coupling of one in-range channel makes
        # P_N P_s rank deficient
        C = sect5_plant.C.copy()
        B = sect5_plant.B.copy()
        C[3, :] = 0.0
        B[:, 3] = 0.0
        broken = DensePlant(As=sect5_plant.A - 3.0 * (B @ C), B=B, C=C, Q_feedback=3.0,
                            energy_weights=sect5_plant.energy_weights, basis=sect5_plant.basis)
        with pytest.raises(ValueError, match="not surjective: sigma_min/sigma_max = ") as info:
            synth_approx_robust(broken, sect5_exo, N=5, eps=0.15)
        assert "sigma_min/sigma_max = " in str(info.value) and "nan" not in str(info.value)
        # at omega = 0 every velocity channel gain is 0: the message says so
        # instead of reading the ratio 0/0
        static = single_freq_exo(0.0, dim_y=sect5_plant.output_dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="largest channel gain sigma_max is 0"):
                synth_approx_robust(sect5_plant, static, N=5, eps=0.15)

    @pytest.mark.parametrize("N", [1, 5])
    def test_projector_keeps_first_2n_plus_1_coordinates(self, sect5_plant, sect5_exo, N):
        ctrl = synth_approx_robust(sect5_plant, sect5_exo, N, eps=0.15)
        expected = np.zeros((23, 23))
        expected[: 2 * N + 1, : 2 * N + 1] = np.eye(2 * N + 1)
        assert np.array_equal(ctrl.projector(), expected)

    def test_too_wide_subspace_rejected(self, sect5_plant, sect5_exo):
        with pytest.raises(ValueError):
            synth_approx_robust(sect5_plant, sect5_exo, N=12, eps=0.15)

    def test_internal_model_dimension_bound(self, sect5_plant, sect5_exo, approx5):
        for ctrl in (
            approx5,
            synth_regulating(sect5_plant, sect5_exo, 0.15),
            synth_robust(sect5_plant, sect5_exo, 0.15),
        ):
            assert ctrl.dim_z >= np.linalg.matrix_rank(ctrl.G2, rtol=linalg.RANK_RTOL)


class TestControllerData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_g2_refused_by_name(self, small_plant, small_exo, bad):
        # a non-finite G2 would reach the loop as inf * 0 = NaN in G2 F, a numpy
        # RuntimeWarning, before any refusal named the controller
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        G2 = ctrl.G2.copy()
        G2[0, 1] = bad
        with pytest.raises(ValueError, match="G2 contains NaN or Inf"):
            dataclasses.replace(ctrl, G2=G2)


class TestRobustController:
    def test_coincides_with_full_approx(self, sect5_plant, sect5_exo):
        rob = synth_robust(sect5_plant, sect5_exo, 0.15)
        full = synth_approx_robust(sect5_plant, sect5_exo, 11, 0.15)
        for name in ("G1", "G2", "K", "K0"):
            assert np.array_equal(getattr(rob, name), getattr(full, name))
        assert rob.kind == "robust"

    def test_projector_is_identity(self, sect5_plant, sect5_exo):
        for ctrl in (
            synth_robust(sect5_plant, sect5_exo, eps=0.15),
            synth_regulating(sect5_plant, sect5_exo, eps=0.15),
        ):
            assert np.array_equal(ctrl.projector(), np.eye(23))

    def test_injection_blocks_are_minus_identity(self, sect5_plant, sect5_exo):
        rob = synth_robust(sect5_plant, sect5_exo, 0.15)
        for k in range(4):
            blk = rob.G2[k * 23 : (k + 1) * 23]
            assert np.abs(blk + np.eye(23)).max() < 1e-12

    def test_g_conditions_pass(self, sect5_plant, sect5_exo):
        rep = check_g_conditions(synth_robust(sect5_plant, sect5_exo, 0.15))
        assert rep.passed
        assert rep.kernel_dim_G2 == 0
        assert rep.max_range_intersection_dim == 0


class TestGConditions:
    def test_scalar_pass(self):
        ctrl = _make_ctrl(np.array([1.0]), 1, np.array([[1.0 + 0j]]))
        rep = check_g_conditions(ctrl)
        assert rep.passed

    def test_zero_column_fails_kernel(self):
        G2 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        ctrl = _make_ctrl(np.array([1.0, 2.0]), 1, G2)
        rep = check_g_conditions(ctrl)
        assert not rep.passed
        assert rep.kernel_dim_G2 >= 1

    def test_sect5_approx_kernel_dimension(self, approx5):
        rep = check_g_conditions(approx5)
        assert not rep.passed
        assert rep.kernel_dim_G2 == 23 - 11
        assert rep.max_range_intersection_dim == 0


def _make_ctrl(omegas, block_dim, G2):
    K0 = np.zeros((G2.shape[1], omegas.size * block_dim), dtype=complex)
    return synthesis.Controller(
        kind="regulating", omegas=omegas, block_dim=block_dim, G2=G2, K0=K0, eps=0.0
    )


class TestRegulatorEquations:
    def test_zero_exosystem_gives_zero_sigma(self, toy_plant):
        exo = single_freq_exo(omega=1.0, e=0.0, f=0.0)
        ctrl = synth_regulating(toy_plant, exo, eps=0.1)
        cl = assemble_direct(toy_plant, ctrl, exo)
        reg = solve_regulator(cl, exo)
        assert np.abs(reg.Sigma).max() < 1e-14
        assert reg.residual1 < 1e-14 and reg.residual2 < 1e-14

    def test_regulating_controller_regulates(self, sect5_plant, sect5_exo):
        ctrl = synth_regulating(sect5_plant, sect5_exo, 0.15)
        cl = assemble_direct(sect5_plant, ctrl, sect5_exo)
        reg = solve_regulator(cl, sect5_exo)
        scale = np.linalg.norm(cl.Ccl, 2) * np.linalg.norm(reg.Sigma, 2) + np.linalg.norm(cl.Dcl, 2)
        assert reg.residual2 < 1e-8 * scale

    def test_projected_residual_vanishes_for_approx(self, sect5_reg, sect5_loop, approx5):
        M = sect5_loop.Ccl @ sect5_reg.Sigma + sect5_loop.Dcl
        assert np.linalg.norm(approx5.projector() @ M, 2) < 1e-8

    def test_gamma_closed_form_matches_solver(self, sect5_loop, sect5_exo, sect5_reg):
        oracle = sigma_oracle(sect5_loop)
        assert np.abs(sect5_reg.Sigma - oracle).max() < 1e-8 * max(1.0, np.abs(oracle).max())

    def test_idle_controller_is_resonant(self, sect5_plant, sect5_exo):
        # with K = 0 each internal-model copy sits undamped on its own frequency
        idle = synth_approx_robust(sect5_plant, sect5_exo, 5, 0.0)
        with pytest.raises(linalg.ResonanceError) as info:
            solve_regulator(assemble_direct(sect5_plant, idle, sect5_exo), sect5_exo)
        assert info.value.omega in sect5_exo.omegas

    @staticmethod
    def detuned_idle_loop(omega, offset):
        """Scalar plant, exosystem at ``omega`` and an idle (K = 0) copy at
        ``omega + offset``: its loop eigenvalue i(omega + offset) lies
        ``offset`` from i omega."""
        plant, exo = scalar_plant(), single_freq_exo(omega)
        ones = np.ones((1, 1), dtype=complex)
        ctrl = synthesis.Controller("regulating", exo.omegas + offset, 1, -ones, ones, eps=0.0)
        return assemble_direct(plant, ctrl, exo), exo

    @pytest.mark.parametrize("omega", [0.5, 10.0])
    def test_eigenvalue_inside_threshold_is_resonant(self, omega):
        tol = synthesis.RESONANCE_RTOL * max(1.0, omega)
        cl, exo = self.detuned_idle_loop(omega, 0.9 * tol)
        with pytest.raises(linalg.ResonanceError) as info:
            solve_regulator(cl, exo)
        assert info.value.omega == omega

    @pytest.mark.parametrize("omega", [0.5, 10.0])
    def test_eigenvalue_outside_threshold_solves(self, omega):
        tol = synthesis.RESONANCE_RTOL * max(1.0, omega)
        cl, exo = self.detuned_idle_loop(omega, 1.1 * tol)
        sigma = solve_regulator(cl, exo).Sigma
        oracle = sigma_oracle(cl)
        assert np.abs(sigma - oracle).max() < 1e-8 * np.abs(oracle).max()

    def test_plant_pole_is_solved_on_the_loop_blocks(self):
        # i*0 is a pole of the integrator plant, so P_s(i w) does not exist
        # there; the loop eigenvalues +-0.316i are off i*0, so the paper's
        # condition holds and the loop's own diagonal blocks give Sigma
        plant, exo = scalar_plant(a=0.0), single_freq_exo(0.0)
        ones = np.ones((1, 1), dtype=complex)
        ctrl = synthesis.Controller("regulating", exo.omegas, 1, -ones, ones, eps=0.1)
        cl = assemble_direct(plant, ctrl, exo)
        with pytest.raises(linalg.ResonanceError):
            plant.transfer(0.0)
        assert np.abs(cl.spectrum - np.array([-1j, 1j]) * np.sqrt(0.1)).max() < 1e-15
        reg = solve_regulator(cl, exo)
        assert np.abs(reg.Sigma - sigma_oracle(cl)).max() < 1e-12
        assert reg.residual2 == 0.0

    def test_residual_check_refuses_wrong_plant_rows(self, small_plant, small_exo, monkeypatch):
        ctrl = synth_approx_robust(small_plant, small_exo, 2, 0.15)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        resolvent = type(small_plant).input_resolvent
        monkeypatch.setattr(
            type(small_plant), "input_resolvent", lambda self, lam: 1.01 * resolvent(self, lam)
        )
        with pytest.raises(ValueError, match="regulator residual"):
            solve_regulator(cl, small_exo)

    def test_tiny_exosystem_passes_the_residual_check(self):
        # the squares of entries near 1e-180 underflow: unscaled, ||Sigma||_F and
        # ||Bcl||_F would read 0, and a bound of 0 refuse the residual 2.351e-196
        plant = assemble_wave_plant(2, 2, 3.0)
        zero, tiny = np.zeros(plant.output_dim), np.zeros(plant.output_dim)
        tiny[2] = 1e-180
        exo = build_exosystem([SignalTerm(zero, "sin", 1.0)], [SignalTerm(tiny, "sin", 1.0)],
                              plant.basis.max_order)
        cl = assemble_direct(plant, synth_regulating(plant, exo, 1.0), exo)
        reg = solve_regulator(cl, exo)  # raises unless its residual check passes
        assert 0.0 < reg.residual1 < 1e-8 * cl.norm * linalg.frobenius_norm(reg.Sigma)
        assert linalg.frobenius_norm(reg.Sigma) == pytest.approx(
            1e-180 * np.linalg.norm(1e180 * reg.Sigma), rel=1e-12, abs=0.0)

    def test_negative_control_breaks_regulation(self, sect5_plant, sect5_exo):
        ctrl = synth_regulating(sect5_plant, sect5_exo, 0.15)
        rng = np.random.default_rng(12345)
        K0p = ctrl.K0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, ctrl.K0.shape))
        bad = dataclasses.replace(ctrl, K0=K0p)
        reg = solve_regulator(assemble_direct(sect5_plant, bad, sect5_exo), sect5_exo)
        assert reg.residual2 > 1e-3


class TestErrorBound:
    def test_full_projection_gives_zero_delta(self, sect5_plant, sect5_exo):
        rob = synth_robust(sect5_plant, sect5_exo, 0.15)
        cl = assemble_direct(sect5_plant, rob, sect5_exo)
        reg = solve_regulator(cl, sect5_exo)
        bound = error_bound_delta(reg, cl, rob.projector())
        assert bound.delta < 1e-12
        assert bound.delta_coarse < 1e-12

    def test_zero_exosystem_gives_zero_delta(self, toy_plant):
        # C_e Sigma + D_e is the zero matrix: every unit vector maximizes it
        exo = single_freq_exo(1.0, e=0.0, f=0.0)
        cl = assemble_direct(toy_plant, synth_regulating(toy_plant, exo, eps=0.1), exo)
        bound = error_bound_delta(solve_regulator(cl, exo), cl, np.eye(1))
        assert bound.delta == 0.0

    def test_delta_below_coarse(self, sect5_reg, sect5_loop, approx5):
        bound = error_bound_delta(sect5_reg, sect5_loop, approx5.projector())
        assert bound.delta <= bound.delta_coarse + 1e-15

    def test_preset_meets_target(self, sect5_reg, sect5_loop, approx5):
        bound = error_bound_delta(sect5_reg, sect5_loop, approx5.projector())
        assert bound.delta < 0.01

    def test_delta_is_squared_operator_norm(self, sect5_reg, sect5_loop, approx5):
        bound = error_bound_delta(sect5_reg, sect5_loop, approx5.projector())
        M = sect5_loop.Ccl @ sect5_reg.Sigma + sect5_loop.Dcl
        assert bound.delta == pytest.approx(np.linalg.norm(M, 2) ** 2, rel=1e-10)

    def test_error_map_is_regulator_output(self, sect5_reg, sect5_loop):
        M = sect5_loop.Ccl @ sect5_reg.Sigma + sect5_loop.Dcl
        assert np.array_equal(sect5_reg.error_map, M)

    def test_delta_is_residual2_squared(self, sect5_reg, sect5_loop, approx5):
        bound = error_bound_delta(sect5_reg, sect5_loop, approx5.projector())
        assert bound.delta == sect5_reg.residual2**2

    def test_delta_coarse_is_tail_frobenius_norm(self, sect5_reg, sect5_loop, approx5):
        P = approx5.projector()
        bound = error_bound_delta(sect5_reg, sect5_loop, P)
        tail = (np.eye(P.shape[0]) - P) @ sect5_reg.error_map
        assert bound.delta_coarse == pytest.approx(np.sum(np.abs(tail) ** 2), rel=1e-13)

    def test_delta_coarse_matches_per_frequency_errors(
        self, sect5_plant, sect5_exo, sect5_reg, sect5_loop, approx5
    ):
        # the tails of P_s(i w_k) (K z_k + E_s phi_k) + F phi_k, from the transfer
        P = approx5.projector()
        Ps = synthesis._frequency_data(sect5_plant, sect5_exo)
        E_s = synthesis.stabilized_disturbance(sect5_plant, sect5_exo)
        terms = Ps.T * (approx5.K @ sect5_reg.Gamma + E_s) + sect5_exo.F
        oracle = np.sum(np.abs((np.eye(P.shape[0]) - P) @ terms) ** 2)
        bound = error_bound_delta(sect5_reg, sect5_loop, P)
        assert bound.delta_coarse == pytest.approx(oracle, rel=1e-10)
