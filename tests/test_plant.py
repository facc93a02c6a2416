import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wavereg import bessel, checks, linalg, loop
from wavereg.exosystem import Exosystem
from wavereg.plant import FourierOutputBasis, assemble_wave_plant, project_profile
from wavereg.synthesis import Controller, eval_transfer

from conftest import rel_gap


class TestProjection:
    def test_constant_profile(self):
        n = 256
        coeffs = project_profile(np.ones(n), 5)
        assert coeffs[0] == pytest.approx(np.sqrt(2 * np.pi), abs=1e-12)
        assert np.abs(coeffs[1:]).max() < 1e-12

    def test_single_harmonic(self):
        n = 512
        theta = 2 * np.pi * np.arange(n) / n
        coeffs = project_profile(np.cos(3 * theta), 5)
        expected = np.zeros(11)
        expected[5] = np.sqrt(np.pi)  # cos3 slot
        assert np.abs(coeffs - expected).max() < 1e-12

    def test_quadratic_profile_against_analytic_series(self):
        # (pi - th)^2 = pi^2/3 + 4 sum_k cos(k th)/k^2 on [0, 2pi].
        n = 8192
        theta = 2 * np.pi * np.arange(n) / n
        coeffs = project_profile((np.pi - theta) ** 2, 11)
        basis = FourierOutputBasis(11)
        expected = np.zeros(basis.dim)
        expected[0] = (np.pi**2 / 3.0) * np.sqrt(2 * np.pi)
        expected[1::2] = 4.0 * np.sqrt(np.pi) / np.arange(1, 12) ** 2  # the cos k slots
        assert np.abs(coeffs - expected).max() < 1e-6

    def test_round_trip_band_limited(self):
        rng = np.random.default_rng(11)
        basis = FourierOutputBasis(6)
        coeffs = rng.standard_normal(basis.dim)
        n = 512
        theta = 2 * np.pi * np.arange(n) / n
        back = project_profile(basis.synthesize(coeffs, theta), 6)
        assert np.abs(back - coeffs).max() < 1e-12

    def test_grid_too_coarse(self):
        with pytest.raises(ValueError):
            project_profile(np.ones(40), 5)

    def test_stack_matches_single_profiles_bitwise(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((4, 512))
        coeffs = project_profile(stack, 7)
        assert coeffs.shape == (4, FourierOutputBasis(7).dim)
        for row, single in zip(coeffs, stack):
            assert np.array_equal(row, project_profile(single, 7))

    def test_three_dimensional_samples_raise(self):
        with pytest.raises(ValueError, match=r"shape \(n,\) or \(k, n\)"):
            project_profile(np.ones((2, 2, 64)), 5)

    def test_basis_orthonormal(self):
        basis = FourierOutputBasis(4)
        n = 1024
        theta = 2 * np.pi * np.arange(n) / n
        G = basis.evaluate(theta) @ basis.evaluate(theta).T * (2 * np.pi / n)
        assert np.abs(G - np.eye(basis.dim)).max() < 1e-12

    def test_index(self):
        basis = FourierOutputBasis(3)
        assert basis.dim == 7


class TestAssembly:
    def test_sect5_dimensions(self, sect5_plant):
        assert sect5_plant.n_modes == 8 * 23 == 184
        assert sect5_plant.state_dim == 368
        assert sect5_plant.output_dim == 23

    def test_collocated_pattern(self, sect5_plant):
        # Velocity observation shares the force trace matrix: C^T == B (rho = 1).
        assert np.array_equal(sect5_plant.C.T, sect5_plant.B)

    def test_undamped_generator_marginal(self, small_plant):
        und = small_plant.perturbed(q_scale=0.0)
        assert abs(linalg.eig(und.As).real.max()) < 1e-8

    @pytest.mark.parametrize("inner", ["neumann", "dirichlet"])
    def test_damped_generator_stable(self, inner):
        plant = assemble_wave_plant(3, 3, 3.0, inner_bc=inner)
        assert linalg.eig(plant.As).real.max() < 0

    def test_energy_positive(self, small_plant):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(small_plant.state_dim)
        assert small_plant.energy(x) > 0

    def test_full_gram_identity_2d_quadrature(self, small_plant):
        # Orthonormality of the 2-D eigenfunctions in L^2(r dr dtheta).
        x, w = np.polynomial.legendre.leggauss(64)
        r_nodes, r_weights = 1.5 + 0.5 * x, 0.5 * w
        n_theta = 512
        theta = 2 * np.pi * np.arange(n_theta) / n_theta
        w_theta = 2 * np.pi / n_theta
        basis = small_plant.basis
        fields = []
        for mode, channel in zip(small_plant.modes, small_plant.channels):
            fields.append(np.outer(mode.eval(r_nodes), basis.evaluate(theta)[channel]))
        n = len(fields)
        gram = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                val = np.sum(
                    r_weights[:, None] * r_nodes[:, None] * fields[i] * fields[j]
                ) * w_theta
                gram[i, j] = gram[j, i] = val
        assert np.abs(gram - np.eye(n)).max() < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            assemble_wave_plant(0, 3, 1.0)
        with pytest.raises(ValueError):
            assemble_wave_plant(2, 2, 1.0, rho=-1.0)
        with pytest.raises(ValueError):
            assemble_wave_plant(2, 2, 1.0, inner_bc="mixed")
        with pytest.raises(ValueError, match="damping_q must be nonnegative"):
            assemble_wave_plant(2, 2, -1.0)

    def test_unknown_inner_condition_refused_before_root_search(self, monkeypatch):
        calls = []
        collocate = bessel._collocation_wavenumbers
        monkeypatch.setattr(bessel, "_collocation_wavenumbers",
                            lambda *args: calls.append(args) or collocate(*args))
        with pytest.raises(ValueError, match="inner_bc must be one of"):
            assemble_wave_plant(2, 2, 1.0, inner_bc="mixed")
        assert calls == []

    def test_perturbed_scales_stiffness(self, small_plant):
        pert = small_plant.perturbed(stiffness_scale=1.21)
        n = small_plant.n_modes
        assert np.allclose(pert.A[n:, :n], 1.21 * small_plant.A[n:, :n])
        assert np.allclose(pert.energy_weights[:n], 1.21 * small_plant.energy_weights[:n])
        assert pert.T_mod == pytest.approx(1.21 * small_plant.T_mod)
        with pytest.raises(ValueError):
            small_plant.perturbed(stiffness_scale=0.0)

    def test_perturbed_refuses_negative_damping_scale(self, small_plant):
        # a negative scale would give the plant a negative damping gain Q
        with pytest.raises(ValueError, match="q_scale nonnegative"):
            small_plant.perturbed(q_scale=-1.0)
        assert small_plant.perturbed(q_scale=0.0).Q_feedback == 0.0

    def test_replace_rederives_the_matrices(self, small_plant):
        # the matrices derive from the stored fields, so a plant with a
        # replaced stiffness is the perturbed one
        replaced = dataclasses.replace(small_plant, T_mod=1.21 * small_plant.T_mod)
        pert = small_plant.perturbed(stiffness_scale=1.21)
        for name in ("A", "As", "energy_weights"):
            assert np.array_equal(getattr(replaced, name), getattr(pert, name))
        assert np.array_equal(replaced.transfer(1j), pert.transfer(1j))
        assert not np.array_equal(replaced.As, small_plant.As)

    def test_displacement_profile_single_mode(self, small_plant):
        r = np.linspace(1.0, 2.0, 5)
        theta = np.linspace(0.0, 2 * np.pi, 7)
        angular = small_plant.basis.evaluate(theta)
        for j, x in enumerate(np.eye(small_plant.state_dim)[: small_plant.n_modes]):
            mode, channel = small_plant.modes[j], small_plant.channels[j]
            field = small_plant.displacement_profile(x, r, theta)
            expected = np.outer(mode.eval(r), angular[channel])
            assert np.abs(field - expected).max() < 1e-12
            # on the actuated boundary the field is the mode's trace times its
            # channel's basis function, which has the mode's angular order
            edge = small_plant.displacement_profile(x, [2.0], theta)
            assert np.allclose(edge, mode.boundary_trace * angular[channel], rtol=1e-12, atol=0)
            assert (channel + 1) // 2 == mode.m  # channels 2m - 1 and 2m hold order m
        # a general state is the sum of its modes' fields
        x = np.random.default_rng(31).standard_normal(small_plant.state_dim)
        expected = sum(q * np.outer(mode.eval(r), angular[channel]) for q, mode, channel
                       in zip(x, small_plant.modes, small_plant.channels))
        assert np.abs(small_plant.displacement_profile(x, r, theta) - expected).max() < 1e-13

    @pytest.mark.parametrize("orders", [1, 2, 3])
    def test_replace_radial_gives_the_smaller_plant(self, small_plant, orders):
        # basis, oscillators and channels all derive from the radial modes,
        # so cutting the orders is the plant assembled with fewer of them
        cut = dataclasses.replace(small_plant, radial=small_plant.radial[:orders])
        built = assemble_wave_plant(3, orders, small_plant.Q_feedback)
        assert cut.output_dim == built.output_dim == 2 * orders - 1
        for name in ("A", "B", "C", "As", "channels"):
            assert np.array_equal(getattr(cut, name), getattr(built, name))
        assert np.array_equal(cut.transfer(1j), built.transfer(1j))

    def test_equal_plants_compare_and_hash_alike(self, small_plant):
        twin = assemble_wave_plant(3, 4, 3.0)
        assert twin == small_plant and hash(twin) == hash(small_plant)
        assert twin.perturbed(stiffness_scale=1.21) != small_plant


def gram_check_err(plant):
    """The verdict of the criterion 7 Gram check on ``plant`` and the error it reports."""
    ok, detail = checks._gram(SimpleNamespace(plant=plant))
    return ok, float(detail.removeprefix("gram err="))


class TestGramCheck:
    def test_equals_the_gram_of_2d_fields(self, small_plant):
        # brute force: each mode's 2-D field on the check's 64 x 256 tensor rule
        x, w = np.polynomial.legendre.leggauss(64)
        r, theta = 1.5 + 0.5 * x, 2 * np.pi * np.arange(256) / 256
        angular = small_plant.basis.evaluate(theta)
        fields = np.array([np.outer(mode.eval(r), angular[channel]).ravel()
                           for mode, channel in zip(small_plant.modes, small_plant.channels)])
        weights = np.outer(0.5 * w * r, np.full(256, 2 * np.pi / 256)).ravel()
        err = np.abs((fields * weights) @ fields.T - np.eye(small_plant.n_modes)).max()
        ok, reported = gram_check_err(small_plant)
        assert ok and abs(reported - err) < 1e-14

    def test_fails_on_a_misnormalized_mode(self, small_plant):
        # order 1's first radial mode, in its cos and its sin channel, 1e-5 too large
        first, *rest = small_plant.radial[1]
        scaled = dataclasses.replace(first, normalization=first.normalization * (1 + 1e-5))
        radial = (small_plant.radial[0], (scaled, *rest), *small_plant.radial[2:])
        ok, reported = gram_check_err(dataclasses.replace(small_plant, radial=radial))
        assert not ok and reported == pytest.approx(2e-5, rel=1e-3)

    def test_resolves_the_highest_radial_modes(self):
        # wavenumbers up to about 100: a fixed 64-node radial rule read 1.35e-7 here,
        # its own quadrature error, not the modes'
        ok, reported = gram_check_err(assemble_wave_plant(32, 24, 3.0))
        assert ok and reported < 1e-12

    def test_builds_no_2d_field(self, sect5_plant, monkeypatch):
        # one radial and one angular evaluation per mode: no n_modes x 64 x 256 array
        monkeypatch.setattr(type(sect5_plant), "displacement_profile", None)
        assert gram_check_err(sect5_plant)[0]  # warm: modes, channels and basis are cached
        tracemalloc.start()
        try:
            ok, _ = gram_check_err(sect5_plant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and peak < 8e6


class TestTransfer:
    def test_finite_at_undamped_eigenfrequencies(self, small_plant):
        # at lambda = i omega_j the undamped p is infinite on the mode's
        # channel, but the damped P_s = 1/Q there and the resolvent is finite
        plant, n = small_plant, small_plant.n_modes
        eye = np.eye(plant.state_dim)
        for j in range(n):
            lam = 1j * np.sqrt(-plant.A[n + j, j])
            assert lam**2 == plant.A[n + j, j]  # exactly on the resonance
            dense = np.diag(eval_transfer(plant.As, plant.B, plant.C, lam))
            Ps = plant.transfer(lam)
            assert np.abs(Ps - dense).max() <= 1e-12 * np.abs(dense).max()
            channel = np.flatnonzero(plant.C[:, n + j])
            assert np.all(Ps[channel] == 1.0 / plant.Q_feedback)
            dense = linalg.solve_dense(lam * eye - plant.As, plant.B)
            assert rel_gap(plant.input_resolvent(lam), dense) <= 1e-12

    def test_undamped_eigenfrequency_is_a_pole_without_damping(self, small_plant):
        plant, n = small_plant.perturbed(q_scale=0.0), small_plant.n_modes
        lam = 1j * np.sqrt(-plant.A[n + 5, 5])
        for evaluate in (plant.transfer, plant.input_resolvent):
            with pytest.raises(linalg.ResonanceError, match="is a pole of P_s"):
                evaluate(lam)


class TestEnergyPhysics:
    def test_undamped_energy_conserved(self, small_plant):
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal(small_plant.state_dim)
        resp = loop.free_response(small_plant.perturbed(q_scale=0.0), x0, t_end=10.0, dt=0.01)
        drift = np.abs(resp.energies / resp.energies[0] - 1.0).max()
        assert drift < 1e-9

    def test_damped_energy_decays(self, small_plant):
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal(small_plant.state_dim)
        resp = loop.free_response(small_plant, x0, t_end=10.0, dt=0.01)
        assert np.all(np.diff(resp.energies) <= 1e-12 * resp.energies[0])
        # exponential fit of the log-energy has negative slope
        slope = np.polyfit(resp.t, np.log(resp.energies), 1)[0]
        assert slope < 0

    def test_admissibility_bound(self, small_plant):
        rng = np.random.default_rng(15)
        bound_scale = 1.0 / (2.0 * small_plant.Q_feedback)
        for _ in range(5):
            x0 = rng.standard_normal(small_plant.state_dim)
            resp = loop.free_response(small_plant, x0, t_end=5.0, dt=0.005)
            integral = np.trapezoid(resp.error_norms_sq(), resp.t)
            assert integral <= bound_scale * small_plant.energy(x0)

    def test_passivity_along_driven_trajectory(self, small_plant):
        # d/dt ||x||_E^2 = 2 Re <u, y> checked in integral form with a
        # harmonic drive injected through the disturbance channel.
        plant = small_plant.perturbed(q_scale=0.0)  # undamped
        dim_y = plant.output_dim
        E = np.zeros((dim_y, 1), dtype=complex)
        E[1, 0] = 1.0
        exo = Exosystem(omegas=np.array([np.pi]), E=E, F=np.zeros((dim_y, 1), dtype=complex),
                        v0=np.ones(1, dtype=complex))
        q = exo.q
        idle = Controller(
            kind="regulating",
            omegas=exo.omegas,
            block_dim=1,
            G2=np.zeros((q, dim_y), dtype=complex),
            K0=np.zeros((dim_y, q), dtype=complex),
            eps=0.0,
        )
        cl = loop.assemble_direct(plant, idle, exo)
        traj = loop.simulate_exact(cl, exo, t_end=4.0, dt=0.002)
        energies = traj.energies
        v = np.exp(1j * np.outer(traj.t, exo.omegas)) * exo.v0
        u = v @ exo.E.T
        y = traj.errors - v @ exo.F.T  # e = C x + F v
        power = 2.0 * np.real(np.sum(np.conj(u) * y, axis=1))
        injected = np.concatenate(
            [[0.0], np.cumsum(0.002 * 0.5 * (power[1:] + power[:-1]))]
        )
        drift = np.abs(energies - energies[0] - injected)
        scale = max(energies.max(), 1.0)
        assert drift.max() < 1e-5 * scale
