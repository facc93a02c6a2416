import dataclasses

import numpy as np
import pytest

from wavereg import linalg, loop
from wavereg.exosystem import Exosystem, build_sect5_exosystem
from wavereg.loop import (
    ClosedLoop,
    Perturbation,
    PerturbationPreconditionError,
    Trajectory,
    WindowTooLargeError,
    assemble_direct,
    assemble_paper_Ae,
    find_epsilon_star,
    perturb_and_verify,
    simulate_exact,
    windowed_error,
)
from wavereg.plant import FourierOutputBasis, ModalWavePlant, assemble_wave_plant
from wavereg.synthesis import solve_regulator, synth_approx_robust, synth_regulating

from conftest import scalar_plant, single_freq_exo


def make_trajectory(t, errors):
    errors = np.asarray(errors, dtype=complex)
    if errors.ndim == 1:
        errors = errors[:, None]
    zeros = np.zeros((t.size, 1), dtype=complex)
    return Trajectory(t=t, states=zeros, errors=errors, energies=np.zeros(t.size))


def sequential_reference(cl, exo, x0, n_steps, dt):
    """Per-step oracle for simulate_exact: one product with the one-step
    exponential per sample, errors and energies one state at a time."""
    n, q = cl.state_dim, exo.q
    aug = np.zeros((n + q, n + q), dtype=complex)
    aug[:n, :n] = cl.Acl
    aug[:n, n:] = cl.Bcl
    aug[n:, n:] = np.diag(1j * exo.omegas)
    step = linalg.expm(aug, dt)
    xi = np.concatenate([np.asarray(x0, dtype=complex), exo.v0])
    states, errors, energies = [], [], []
    for _ in range(n_steps + 1):
        states.append(xi[:n])
        errors.append(cl.Ccl @ xi[:n] + cl.Dcl @ xi[n:])
        energies.append(cl.plant.energy(xi[: cl.plant_dim]))
        xi = step @ xi
    return np.array(states), np.array(errors), np.array(energies)


def rel_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestAssembly:
    def test_zero_gain_spectrum_is_union(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.0)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        plant_spec = linalg.eig(small_plant.As).eigenvalues
        copies = np.repeat(1j * small_exo.omegas, ctrl.block_dim)
        expected = np.concatenate([plant_spec, copies])
        assert linalg.match_spectra(linalg.eig(cl.Acl).eigenvalues, expected) < 1e-7
        assert abs(cl.abscissa) < 1e-7

    def test_zero_exosystem_zero_injection(self, small_plant, small_exo):
        exo = dataclasses.replace(
            small_exo,
            E=np.zeros_like(small_exo.E),
            F=np.zeros_like(small_exo.F),
        )
        ctrl = synth_regulating(small_plant, exo, eps=0.1)
        cl = assemble_direct(small_plant, ctrl, exo)
        assert not cl.Bcl.any()
        assert not cl.Dcl.any()

    def test_sect5_preset_stable(self, sect5_loop):
        assert sect5_loop.abscissa < 0

    def test_output_matrices(self, sect5_loop, sect5_plant, sect5_exo):
        n_z = sect5_loop.ctrl_dim
        assert np.array_equal(
            sect5_loop.Ccl, np.hstack([sect5_plant.C, np.zeros((23, n_z))]).astype(complex)
        )
        assert np.array_equal(sect5_loop.Dcl, sect5_exo.F)

    def test_dimension_mismatch_rejected(self, small_plant, sect5_exo):
        ctrl = synth_regulating(small_plant, dataclasses.replace(
            sect5_exo,
            E=np.zeros((small_plant.output_dim, 4), dtype=complex),
            F=np.zeros((small_plant.output_dim, 4), dtype=complex),
        ), eps=0.1)
        with pytest.raises(ValueError):
            assemble_direct(small_plant, ctrl, sect5_exo)  # E/F rows mismatch


class TestPaperForm:
    def test_spectra_agree(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        cl_d = assemble_direct(small_plant, ctrl, small_exo)
        cl_p = assemble_paper_Ae(small_plant, ctrl, small_exo)
        dist = linalg.match_spectra(
            linalg.eig(cl_d.Acl).eigenvalues, linalg.eig(cl_p.Acl).eigenvalues
        )
        assert dist < 1e-8

    def test_transfer_on_exosystem_directions(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        cl_d = assemble_direct(small_plant, ctrl, small_exo)
        cl_p = assemble_paper_Ae(small_plant, ctrl, small_exo)
        for k, w in enumerate(small_exo.omegas):
            phi = np.zeros(small_exo.q)
            phi[k] = 1.0
            gap = np.linalg.norm((cl_d.transfer(1j * w) - cl_p.transfer(1j * w)) @ phi)
            assert gap < 1e-8

    def test_trajectories_agree_after_state_transform(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        cl_d = assemble_direct(small_plant, ctrl, small_exo)
        cl_p = assemble_paper_Ae(small_plant, ctrl, small_exo)
        E_s = small_exo.E - small_plant.Q_feedback * small_exo.F
        x0_p = np.concatenate(
            [-(small_plant.B @ E_s @ small_exo.v0), np.zeros(ctrl.dim_z)]
        )
        tr_d = simulate_exact(cl_d, small_exo, t_end=3.0, dt=0.01)
        tr_p = simulate_exact(cl_p, small_exo, x0=x0_p, t_end=3.0, dt=0.01)
        assert np.abs(tr_d.errors - tr_p.errors).max() < 1e-8

    def test_zero_gain_abscissa_matches(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 1, eps=0.0)
        cl_p = assemble_paper_Ae(small_plant, ctrl, small_exo)
        assert abs(cl_p.abscissa) < 1e-7


class TestEpsilonSweep:
    def test_scalar_toy_matches_quadratic_roots(self, toy_plant):
        # closed loop of the static-gain toy: [[-1, eps], [-1, 0]] whose
        # characteristic polynomial is s^2 + s + eps
        exo = single_freq_exo(omega=0.0)
        family = lambda e: synth_regulating(toy_plant, exo, eps=e)
        grid = [0.05, 0.2, 0.6, 1.5]
        sweep = find_epsilon_star(toy_plant, family, exo, grid)
        for eps, absc in sweep.entries:
            roots = np.roots([1.0, 1.0, eps])
            assert absc == pytest.approx(roots.real.max(), abs=1e-9)
        assert sweep.stable_is_prefix_from_first()

    def test_zero_gain_marginal(self, toy_plant):
        exo = single_freq_exo(omega=0.0)
        family = lambda e: synth_regulating(toy_plant, exo, eps=e)
        sweep = find_epsilon_star(toy_plant, family, exo, [0.0, 0.1])
        assert sweep.entries[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_grid_validation(self, toy_plant):
        exo = single_freq_exo(omega=0.0)
        family = lambda e: synth_regulating(toy_plant, exo, eps=e)
        with pytest.raises(ValueError):
            find_epsilon_star(toy_plant, family, exo, [])
        with pytest.raises(ValueError):
            find_epsilon_star(toy_plant, family, exo, [-0.1])


class TestSimulation:
    def test_zero_data_zero_trajectory(self, toy_plant):
        exo = single_freq_exo(omega=1.0, f=-1.0)
        exo = dataclasses.replace(exo, v0=np.zeros(1, dtype=complex))
        ctrl = synth_regulating(toy_plant, exo, eps=0.1)
        cl = assemble_direct(toy_plant, ctrl, exo)
        traj = simulate_exact(cl, exo, t_end=2.0, dt=0.01)
        assert np.abs(traj.states).max() == 0.0
        assert np.abs(traj.errors).max() == 0.0

    def test_scalar_analytic_solution(self):
        # x' = -x + e^{it}, x(0) = 0  ->  x(t) = (e^{it} - e^{-t}) / (1 + i)
        plant = scalar_plant()
        exo = Exosystem(
            omegas=np.array([1.0]),
            E=np.array([[1.0 + 0j]]),
            F=np.array([[0.0 + 0j]]),
            v0=np.ones(1, dtype=complex),
        )
        cl = ClosedLoop(
            Acl=np.array([[-1.0 + 0j]]),
            Bcl=np.array([[1.0 + 0j]]),
            Ccl=np.array([[1.0 + 0j]]),
            Dcl=np.array([[0.0 + 0j]]),
            plant_dim=1,
            ctrl_dim=0,
            abscissa=-1.0,
            plant=plant,
            ctrl=None,
            exo=exo,
        )
        traj = simulate_exact(cl, exo, t_end=5.0, dt=0.01)
        expected = (np.exp(1j * traj.t) - np.exp(-traj.t)) / (1.0 + 1j)
        assert np.abs(traj.states[:, 0] - expected).max() < 1e-9

    def test_halving_dt_is_consistent(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 1, eps=0.1)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        t1 = simulate_exact(cl, small_exo, t_end=2.0, dt=0.02)
        t2 = simulate_exact(cl, small_exo, t_end=2.0, dt=0.01)
        assert np.abs(t1.states - t2.states[::2]).max() < 1e-9

    def test_unstable_growth_capped(self):
        # x' = 40 x crosses the cap near t = 0.71, inside the first block;
        # x' = 10 x near t = 2.85, in the third. The message names the first
        # step over the cap in both.
        plant = scalar_plant(a=5.0)
        exo = single_freq_exo(omega=1.0)
        dt = 0.01
        for rate, n_steps in [(40.0, 200), (10.0, 500)]:
            cl = ClosedLoop(
                Acl=np.array([[rate + 0j]]),
                Bcl=np.array([[0.0 + 0j]]),
                Ccl=np.array([[1.0 + 0j]]),
                Dcl=np.array([[0.0 + 0j]]),
                plant_dim=1,
                ctrl_dim=0,
                abscissa=rate,
                plant=plant,
                ctrl=None,
                exo=exo,
            )
            states, _, _ = sequential_reference(cl, exo, np.ones(1), n_steps, dt)
            norms = np.hypot(np.abs(states[:, 0]), np.abs(exo.v0[0]))
            first = int(np.argmax(norms > 1e12 * (1.0 + norms[0])))
            assert first > 0
            with pytest.raises(linalg.OverflowCapError, match=rf"t={first * dt:.3f} "):
                simulate_exact(cl, exo, x0=np.ones(1), t_end=n_steps * dt, dt=dt)

    def test_time_grid_validation(self, toy_plant):
        exo = single_freq_exo(omega=0.0)
        ctrl = synth_regulating(toy_plant, exo, eps=0.1)
        cl = assemble_direct(toy_plant, ctrl, exo)
        with pytest.raises(ValueError):
            simulate_exact(cl, exo, t_end=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            simulate_exact(cl, exo, t_end=1.005, dt=0.01)

    def test_error_is_real_for_real_symmetric_data(self, sect5_loop, sect5_exo):
        traj = simulate_exact(sect5_loop, sect5_exo, t_end=1.0, dt=0.01)
        assert np.abs(traj.errors.imag).max() < 1e-10


class TestBlockStepping:
    @pytest.mark.parametrize("n_steps", [1, 127, 128, 129, 3 * 128 + 7])
    def test_matches_sequential_stepping(self, small_plant, small_exo, n_steps):
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        x0 = np.random.default_rng(21).standard_normal(cl.state_dim)
        dt = 0.01
        traj = simulate_exact(cl, small_exo, x0=x0, t_end=n_steps * dt, dt=dt)
        states, errors, energies = sequential_reference(cl, small_exo, x0, n_steps, dt)
        assert traj.states.shape == states.shape
        assert rel_gap(traj.states, states) < 1e-12
        assert rel_gap(traj.errors, errors) < 1e-12
        assert rel_gap(traj.energies, energies) < 1e-12

    def test_free_response_matches_sequential_stepping(self, small_plant):
        x0 = np.random.default_rng(22).standard_normal(small_plant.state_dim)
        dt, n_steps = 0.01, 2 * 128 + 45
        resp = loop.free_response(small_plant, x0, t_end=n_steps * dt, dt=dt)
        step = linalg.expm(small_plant.As, dt)
        states = [x0]
        for _ in range(n_steps):
            states.append(step @ states[-1])
        states = np.array(states)
        energies = np.array([small_plant.energy(x) for x in states])
        assert rel_gap(resp.states, states) < 1e-12
        assert rel_gap(resp.outputs, states @ small_plant.C.T) < 1e-12
        assert rel_gap(resp.energies, energies) < 1e-12


class TestWindowedError:
    def test_constant_error(self):
        t = np.arange(0.0, 5.0001, 0.01)
        series = windowed_error(make_trajectory(t, 0.7 * np.ones(t.size)), window=1.0)
        assert np.abs(series.values - 0.49).max() < 1e-12

    def test_exponential_error(self):
        t = np.arange(0.0, 6.0001, 0.001)
        series = windowed_error(make_trajectory(t, np.exp(-t)), window=1.0)
        expected = (1.0 - np.exp(-2.0)) / 2.0 * np.exp(-2.0 * series.t)
        assert np.abs(series.values - expected).max() < 1e-6

    def test_late_windows_keep_relative_accuracy(self):
        # by t = 29 the window integral is about 1e-25 of the integral so
        # far, far below what a difference of running sums can resolve; the
        # step keeps the trapezoid rule's relative error near 3e-7
        t = np.arange(0.0, 30.0001, 0.001)
        series = windowed_error(make_trajectory(t, np.exp(-t)), window=1.0)
        expected = (1.0 - np.exp(-2.0)) / 2.0 * np.exp(-2.0 * series.t)
        assert (series.values > 0.0).all()
        assert np.abs(series.values / expected - 1.0).max() < 1e-6

    def test_pure_tone_full_period(self):
        t = np.arange(0.0, 4.0001, 0.0005)
        series = windowed_error(make_trajectory(t, np.sin(np.pi * t)), window=2.0)
        assert np.abs(series.values - 1.0).max() < 1e-6

    def test_second_order_quadrature_convergence(self):
        def j_at(dt):
            t = np.arange(0.0, int(round(2.0 / dt)) + 1) * dt
            series = windowed_error(make_trajectory(t, np.exp(-t)), window=1.0)
            return series.values[0]

        exact = (1.0 - np.exp(-2.0)) / 2.0
        e1, e2 = abs(j_at(0.02) - exact), abs(j_at(0.01) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.05)

    def test_window_validation(self):
        t = np.arange(0.0, 1.0001, 0.01)
        traj = make_trajectory(t, np.ones(t.size))
        with pytest.raises(WindowTooLargeError):
            windowed_error(traj, window=2.0)
        with pytest.raises(ValueError):
            windowed_error(traj, window=0.015)

    def test_projection_weights(self):
        t = np.arange(0.0, 3.0001, 0.01)
        errors = np.stack([np.ones(t.size), 2 * np.ones(t.size)], axis=1)
        traj = make_trajectory(t, errors)
        P = np.diag([1.0, 0.0])
        series = windowed_error(traj, window=1.0, weights=P)
        assert np.abs(series.values - 1.0).max() < 1e-12


class TestErrorDecomposition:
    def test_transient_decays_at_abscissa_rate(self, small_plant, small_exo):
        # e(t) - (C_e Sigma + D_e) v(t) is the pure transient; its late-time
        # log-slope approximates twice the abscissa in the windowed integral
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.15)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        reg = solve_regulator(cl, small_exo)
        traj = simulate_exact(cl, small_exo, t_end=60.0, dt=0.01)
        M = cl.Ccl @ reg.Sigma + cl.Dcl
        v = np.exp(1j * np.outer(traj.t, small_exo.omegas)) * small_exo.v0
        steady = v @ M.T
        transient = np.sum(np.abs(traj.errors - steady) ** 2, axis=1)
        mask = traj.t >= 30.0
        slope = np.polyfit(traj.t[mask], np.log(transient[mask]), 1)[0]
        assert slope < 0
        assert abs(slope - 2.0 * cl.abscissa) < 0.2 * abs(2.0 * cl.abscissa)


class TestPerturbation:
    def test_zero_perturbation_matches_nominal(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.15)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        rep = perturb_and_verify(
            small_plant, ctrl, small_exo, Perturbation(), t_end=21.0, dt=0.01
        )
        assert rep.stable
        assert rep.abscissa == pytest.approx(cl.abscissa, abs=1e-9)
        reg = solve_regulator(cl, small_exo)
        from wavereg.synthesis import error_bound_delta

        bound = error_bound_delta(reg, cl, ctrl.projector())
        assert rep.delta == pytest.approx(bound.delta, rel=1e-8, abs=1e-30)
        assert rep.decays

    @pytest.mark.parametrize("q_scale", [0.5, 1.5])
    def test_damping_perturbation_uses_one_gain(self, q_scale):
        # the perturbed As and E_s = E - Q F share the scaled gain, so the
        # error bound and its coarse estimate describe the same loop; the
        # preset signals reach past Y_N, which makes both bounds nonzero
        plant = assemble_wave_plant(3, 6, 3.0)
        exo = build_sect5_exosystem(5)
        ctrl = synth_approx_robust(plant, exo, 2, eps=0.15)
        rep = perturb_and_verify(plant, ctrl, exo, Perturbation(q_scale=q_scale), t_end=21.0)
        assert rep.stable
        assert 0.0 < rep.delta <= rep.delta_coarse

    def test_engineered_resonance_detected(self):
        from wavereg.bessel import RadialMode
        from wavereg.plant import PlantMode

        radial = RadialMode(m=0, n=1, k=np.pi, normalization=1.0, inner_bc="neumann")

        mode = PlantMode(radial=radial, parity="axi")
        A = np.array([[0.0, 1.0], [-np.pi**2, 0.0]])
        plant = ModalWavePlant(
            modes=(mode,),
            basis=FourierOutputBasis(0),
            A=A,
            B=np.array([[0.0], [0.0]]),
            C=np.array([[0.0, 0.0]]),
            As=A.copy(),
            Q_feedback=0.0,
            energy_weights=np.array([np.pi**2, 1.0]),
            rho=1.0,
            T_mod=1.0,
        )
        exo = single_freq_exo(omega=np.pi)
        with pytest.raises(PerturbationPreconditionError):
            perturb_and_verify(plant, None, exo, Perturbation(stiffness_scale=1.0))

    def test_instability_reported_not_raised(self, sect5_plant, sect5_exo, approx5):
        rep = perturb_and_verify(
            sect5_plant, approx5, sect5_exo, Perturbation(stiffness_scale=1.05),
            t_end=5.0,
        )
        assert not rep.stable
        assert rep.abscissa >= 0
        assert rep.J_final is None

    def test_robust_controller_tracks_under_stiffness_perturbation(
        self, sect5_plant, sect5_exo
    ):
        from wavereg.synthesis import synth_robust

        rob = synth_robust(sect5_plant, sect5_exo, 0.15)
        rep = perturb_and_verify(
            sect5_plant, rob, sect5_exo, Perturbation(stiffness_scale=0.95),
            t_end=41.0, dt=0.01,
        )
        assert rep.stable and rep.abscissa < 0
        assert rep.PN_J_final < 1e-6
        assert rep.decays
