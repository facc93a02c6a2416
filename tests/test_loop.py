import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from wavereg import checks, linalg, loop
from wavereg.exosystem import Exosystem, SignalTerm, build_exosystem, build_sect5_exosystem
from wavereg.loop import (
    Trajectory,
    assemble_direct,
    simulate_exact,
    windowed_error,
)
from wavereg.plant import assemble_wave_plant
from wavereg.synthesis import (
    Controller,
    error_bound_delta,
    eval_transfer,
    solve_regulator,
    synth_approx_robust,
    synth_regulating,
    synth_robust,
)

from conftest import (
    copyless_controller,
    harmonic_coeffs,
    rel_gap,
    scalar_plant,
    sequential_reference,
    series_at,
    single_freq_exo,
)


def make_trajectory(t, errors):
    errors = np.asarray(errors, dtype=complex)
    if errors.ndim == 1:
        errors = errors[:, None]
    last = np.zeros((1, 1), dtype=complex)
    return Trajectory(t=t, states=last, errors=errors, energies=np.zeros(t.size))


class TestAssembly:
    def test_zero_gain_spectrum_is_union(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.0)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        plant_spec = linalg.eig(small_plant.As)
        copies = np.repeat(1j * small_exo.omegas, ctrl.block_dim)
        expected = np.concatenate([plant_spec, copies])
        assert checks.match_spectra(linalg.eig(checks.dense_loop(cl)[0]), expected) < 1e-7
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

    def test_output_matrices(self, sect5_loop, sect5_plant, sect5_exo, approx5):
        n_z = approx5.dim_z
        assert np.array_equal(
            sect5_loop.Ccl, np.hstack([sect5_plant.C, np.zeros((23, n_z))]).astype(complex)
        )
        assert np.array_equal(sect5_loop.Dcl, sect5_exo.F)
        assert sect5_loop.Ccl.dtype == np.float64  # the plant's output is real

    def test_spectrum_checks_residual_per_block(self, monkeypatch):
        rng = np.random.default_rng(11)
        A = scipy.linalg.block_diag(
            *(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for m in (2, 3))
        )
        perm = rng.permutation(5)
        dense_eig, sizes = np.linalg.eig, []

        def eig_spoiling_the_3x3_block(M):
            sizes.append(M.shape[0])
            w, V = dense_eig(M)
            return w, V + 1e-3 if M.shape[0] == 3 else V

        monkeypatch.setattr(linalg.np.linalg, "eig", eig_spoiling_the_3x3_block)
        with pytest.raises(ValueError, match="eigenpair residual"):
            checks.block_spectrum(A[np.ix_(perm, perm)])
        assert 3 in sizes and 5 not in sizes

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
        cl_p = checks.assemble_paper_Ae(small_plant, ctrl, small_exo)
        dist = checks.match_spectra(linalg.eig(checks.dense_loop(cl_d)[0]), linalg.eig(cl_p[0]))
        assert dist < 1e-8

    def test_transfer_on_exosystem_directions(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        A_d, B_d, C_d, D_d = checks.dense_loop(assemble_direct(small_plant, ctrl, small_exo))
        A_p, B_p, C_p, D_p = checks.assemble_paper_Ae(small_plant, ctrl, small_exo)
        for k, w in enumerate(small_exo.omegas):
            phi = np.zeros(small_exo.q)
            phi[k] = 1.0
            gap_matrix = (eval_transfer(A_d, B_d, C_d, 1j * w) + D_d
                          - eval_transfer(A_p, B_p, C_p, 1j * w) - D_p)
            gap = np.linalg.norm(gap_matrix @ phi)
            assert gap < 1e-8

    def test_oracle_error_map_is_the_transfer_on_the_exosystem_directions(
        self, small_plant, small_exo
    ):
        # column k of C Sigma + D, Sigma from the per-block oracle, is column k of
        # the loop's transfer v -> e at i w_k, for both forms; relative to its
        # terms and at least 1, since N = 2 regulates these signals and the sum vanishes
        for N in (0, 2):
            ctrl = synth_approx_robust(small_plant, small_exo, N, eps=0.12)
            for A, B, C, D in (checks.dense_loop(assemble_direct(small_plant, ctrl, small_exo)),
                               checks.assemble_paper_Ae(small_plant, ctrl, small_exo)):
                error_map = C @ checks.sylvester_blocks(A, B, small_exo.omegas) + D
                for k, w in enumerate(small_exo.omegas):
                    response = eval_transfer(A, B, C, 1j * w)[:, k]
                    scale = max(1.0, np.abs(response).max(), np.abs(D[:, k]).max())
                    gap = np.abs(error_map[:, k] - response - D[:, k]).max()
                    assert gap <= 1e-12 * scale

    @pytest.fixture
    def preset_run(self, sect5_plant, sect5_exo, approx5, sect5_loop):
        """What the transfer check reads of the preset's ``cli.Run``."""
        return SimpleNamespace(plant=sect5_plant, exo=sect5_exo, controller=approx5,
                               closed_loop=sect5_loop)

    def test_transfer_check_solves_nothing_larger_than_a_diagonal_block(
        self, preset_run, sect5_plant, sect5_exo, approx5, sect5_loop, monkeypatch
    ):
        paper, _, _, _ = checks.assemble_paper_Ae(sect5_plant, approx5, sect5_exo)
        largest = max(idx.size for A in (checks.dense_loop(sect5_loop)[0], paper)
                      for idx in checks._diagonal_blocks(A))
        sizes, solve_dense = [], linalg.solve_dense

        def recording_solve_dense(A, B):
            sizes.append(np.shape(A)[0])
            return solve_dense(A, B)

        monkeypatch.setattr(linalg, "solve_dense", recording_solve_dense)
        ok, _ = checks._transfers(preset_run)
        assert ok and sizes
        assert max(sizes) <= largest == 20 < sect5_loop.state_dim

    def test_transfer_check_fails_on_a_perturbed_paper_feedthrough(self, preset_run, monkeypatch):
        assert checks._transfers(preset_run)[0]
        paper_form = checks.assemble_paper_Ae

        def perturbed(*args):
            Acl, Bcl, Ccl, Dcl = paper_form(*args)
            return Acl, Bcl, Ccl, Dcl + 1e-6

        monkeypatch.setattr(checks, "assemble_paper_Ae", perturbed)
        ok, detail = checks._transfers(preset_run)
        assert not ok and float(detail) > 1e-8

    def test_trajectories_agree_after_state_transform(self, small_plant, small_exo):
        # the direct loop's samples against per-step stepping of the paper form
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        cl_d = assemble_direct(small_plant, ctrl, small_exo)
        paper = checks.assemble_paper_Ae(small_plant, ctrl, small_exo)
        E_s = small_exo.E - small_plant.Q_feedback * small_exo.F
        x0_p = np.concatenate(
            [-(small_plant.B @ E_s @ small_exo.v0), np.zeros(ctrl.dim_z)]
        )
        tr_d = simulate_exact(cl_d, small_exo, t_end=3.0, dt=0.01)
        _, errors_p, _ = sequential_reference(paper, small_plant, small_exo, x0_p, 300, 0.01)
        assert np.abs(tr_d.errors - errors_p).max() < 1e-8

    def test_zero_gain_abscissa_matches(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 1, eps=0.0)
        paper, _, _, _ = checks.assemble_paper_Ae(small_plant, ctrl, small_exo)
        assert abs(checks.block_spectrum(paper).real.max()) < 1e-7


class TestEpsilonSweep:
    def test_scalar_toy_matches_quadratic_roots(self, toy_plant):
        # closed loop of the static-gain toy: [[-1, eps], [-1, 0]] whose
        # characteristic polynomial is s^2 + s + eps
        exo = single_freq_exo(omega=0.0)
        grid = [0.05, 0.2, 0.6, 1.5]
        sweep = [
            assemble_direct(toy_plant, synth_regulating(toy_plant, exo, eps=eps), exo).abscissa
            for eps in grid
        ]
        for eps, absc in zip(grid, sweep):
            roots = np.roots([1.0, 1.0, eps])
            assert absc == pytest.approx(roots.real.max(), abs=1e-9)
        assert checks.one_stable_run(sweep)

    def test_zero_gain_marginal(self, toy_plant):
        exo = single_freq_exo(omega=0.0)
        cl = assemble_direct(toy_plant, synth_regulating(toy_plant, exo, eps=0.0), exo)
        assert cl.abscissa == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "abscissas, ok",
        [
            ([-0.04, -0.03, 0.02, 0.08], True),   # stable, then unstable
            ([0.01, -0.02, -0.03, -0.01], True),  # unstable, then stable to the end
            ([-0.04, 0.02, -0.03], False),        # stable, unstable, stable
            ([0.01, 0.02, 0.03], False),          # all unstable
            ([-0.01, -0.02, -0.03], True),        # all stable
        ],
    )
    def test_one_stable_run_rule(self, abscissas, ok):
        assert checks.one_stable_run(abscissas) is ok


class TestSimulation:
    def test_zero_data_zero_trajectory(self, toy_plant):
        exo = single_freq_exo(omega=1.0, f=-1.0)
        exo = dataclasses.replace(exo, v0=np.zeros(1, dtype=complex))
        ctrl = synth_regulating(toy_plant, exo, eps=0.1)
        cl = assemble_direct(toy_plant, ctrl, exo)
        traj = simulate_exact(cl, exo, t_end=2.0, dt=0.01)
        assert np.abs(traj.states).max() == 0.0
        assert np.abs(traj.errors).max() == 0.0
        assert np.abs(traj.energies).max() == 0.0

    def test_scalar_analytic_solution(self):
        # x' = -x + e^{it}, x(0) = 0  ->  x(t) = (e^{it} - e^{-t}) / (1 + i)
        plant = scalar_plant()
        exo = Exosystem(
            omegas=np.array([1.0]),
            E=np.array([[1.0 + 0j]]),
            F=np.array([[0.0 + 0j]]),
            v0=np.ones(1, dtype=complex),
        )
        cl = assemble_direct(plant, copyless_controller(), exo)  # As = -1, Bcl = E = 1, Dcl = F = 0
        assert cl.abscissa == -1.0 and cl.plant.state_dim == 1
        traj = simulate_exact(cl, exo, t_end=5.0, dt=0.01)
        expected = (np.exp(1j * traj.t) - np.exp(-traj.t)) / (1.0 + 1j)
        # Ccl = 1 and Dcl = 0, so the error is the state; e^{it} has no
        # partner e^{-it}, so the loop has no real form and samples in complex
        assert traj.errors.dtype == np.complex128
        assert np.abs(traj.errors[:, 0] - expected).max() < 1e-9

    def test_halving_dt_is_consistent(self, small_plant, small_exo):
        ctrl = synth_approx_robust(small_plant, small_exo, 1, eps=0.1)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        t1 = simulate_exact(cl, small_exo, t_end=2.0, dt=0.02)
        t2 = simulate_exact(cl, small_exo, t_end=2.0, dt=0.01)
        assert np.abs(t1.errors - t2.errors[::2]).max() < 1e-9

    def test_unstable_growth_capped(self):
        # x' = 40 x crosses the cap near t = 0.71, at a sample of the doubling
        # pass that fills rows 64-127; x' = 10 x near t = 2.85, in the pass
        # that fills rows 256-511. The message names the first step over the
        # cap in both.
        exo = single_freq_exo(omega=1.0, f=0.0)  # Bcl = 0 and Dcl = 0
        dt = 0.01
        for rate, n_steps in [(40.0, 200), (10.0, 500)]:
            cl = assemble_direct(scalar_plant(a=rate), copyless_controller(), exo)
            assert cl.abscissa == rate and cl.plant.state_dim == 1
            states, _, _ = sequential_reference(checks.dense_loop(cl), cl.plant, exo, np.ones(1), n_steps, dt)
            norms = np.hypot(np.abs(states[:, 0]), np.abs(exo.v0[0]))
            first = int(np.argmax(norms > 1e12 * (1.0 + norms[0])))
            assert first > 0
            with pytest.raises(ValueError, match=rf"growth cap at t={first * dt:.3f} "):
                simulate_exact(cl, exo, x0=np.ones(1), t_end=n_steps * dt, dt=dt)

    def test_growth_cap_stops_at_the_chunk_over_it(self, monkeypatch):
        # x' = x crosses the cap near t = 28.5, in the second of five chunks of
        # a 100 s run: the message names the sample that a check of the whole
        # horizon names, and no later chunk is filled
        exo, dt, n_steps = single_freq_exo(omega=1.0, f=0.0), 0.01, 10_000
        cl = assemble_direct(scalar_plant(a=1.0), copyless_controller(), exo)
        states, _, _ = sequential_reference(checks.dense_loop(cl), cl.plant, exo, np.ones(1), n_steps, dt)
        norms = np.hypot(np.abs(states[:, 0]), np.abs(exo.v0[0]))
        first = int(np.argmax(norms > 1e12 * (1.0 + norms[0])))
        assert first // loop._CHUNK == 1 and n_steps // loop._CHUNK >= 4
        fills, propagate = [], loop._propagate

        def counting_propagate(powers, X, *filled):  # one call per block and chunk
            fills.append(X.shape[1])
            propagate(powers, X, *filled)

        monkeypatch.setattr(loop, "_propagate", counting_propagate)
        with pytest.raises(ValueError, match=rf"growth cap at t={first * dt:.3f} "):
            simulate_exact(cl, exo, x0=np.ones(1), t_end=n_steps * dt, dt=dt)
        assert fills == [loop._CHUNK, loop._CHUNK]

    def test_time_grid_validation(self, toy_plant):
        exo = single_freq_exo(omega=0.0)
        ctrl = synth_regulating(toy_plant, exo, eps=0.1)
        cl = assemble_direct(toy_plant, ctrl, exo)
        with pytest.raises(ValueError):
            simulate_exact(cl, exo, t_end=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            simulate_exact(cl, exo, t_end=1.005, dt=0.01)
        with pytest.raises(ValueError):
            loop.free_response(toy_plant, np.ones(1), t_end=1.005, dt=0.01)

    def test_initial_state_validation(self, small_plant):
        # both entry points share one check: an x0 with extra entries, or
        # one with a NaN, is refused, not cut short or propagated
        n = small_plant.state_dim
        for x0 in (np.ones(n + 4), np.concatenate([[np.nan], np.ones(n - 1)])):
            with pytest.raises(ValueError, match="x0 must be a finite vector"):
                loop.free_response(small_plant, x0, t_end=1.0, dt=0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coupling_rejected(self, small_plant, small_exo, bad):
        # a NaN or Inf between two channel blocks must reach the kernels'
        # finiteness check, not be dropped by the roundoff threshold. G2 is
        # checked when the controller is built and Bcl formed when the loop is,
        # so the bad entry goes into G2 after both: at a copy of the first
        # dense block and the channel of the second
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        ctrl = dataclasses.replace(ctrl, G2=ctrl.G2.real.copy())  # a real inf stays inf in G2 C
        cl = assemble_direct(small_plant, ctrl, small_exo)
        blocks = checks._diagonal_blocks(checks.dense_loop(cl)[0])
        n_p = small_plant.state_dim
        copy, states = blocks[0][-1] - n_p, [idx[idx < n_p] for idx in blocks[:2]]
        channel = np.flatnonzero(small_plant.C[:, states[1]].any(axis=1))[0]
        assert copy >= 0 and not small_plant.C[channel, states[0]].any()
        ctrl.G2[copy, channel] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            simulate_exact(cl, small_exo, t_end=1.0, dt=0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_controller_rejected(self, small_plant, small_exo, bad):
        # the loop of assemble_direct joins its channels on a tolerance scaled by
        # ||Acl||_F; a NaN or Inf entry is refused there, not turned into a NaN or
        # inf tolerance that keeps or drops every coupling
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        ctrl = dataclasses.replace(ctrl, K0=ctrl.K0.real.copy())  # a real inf stays inf in K
        ctrl.K0[1, 0] = bad  # K0 is checked when the controller is built, not after
        cl = assemble_direct(small_plant, ctrl, small_exo)
        with pytest.raises(ValueError, match="NaN or Inf"):
            cl.abscissa
        with pytest.raises(ValueError, match="NaN or Inf"):
            simulate_exact(cl, small_exo, t_end=1.0, dt=0.01)

    def test_error_is_real_for_real_symmetric_data(self, sect5_plant, sect5_exo, sect5_loop):
        # the preset signals are real and its three loops exactly
        # conjugate-symmetric, so each samples in float64; the last state is
        # mapped back to the loop's own complex coordinates
        loops = [sect5_loop] + [
            assemble_direct(sect5_plant, synth(sect5_plant, sect5_exo, 0.15), sect5_exo)
            for synth in (synth_regulating, synth_robust)
        ]
        for cl in loops:
            traj = simulate_exact(cl, sect5_exo, t_end=1.0, dt=0.01)
            assert traj.errors.dtype == np.float64 and traj.energies.dtype == np.float64
            assert traj.states.shape == (1, cl.state_dim)
            assert traj.states.dtype == np.complex128


class TestBlockStepping:
    @pytest.mark.parametrize("n_steps", [1, 127, 128, 129, 3 * 128 + 7, 2**12 + 3])
    def test_matches_sequential_stepping(self, small_plant, small_exo, n_steps):
        # the approx loop splits into one block per channel; the regulating
        # loop of a reference that reaches every channel is one coupled block.
        # 127, 128 and 129 steps straddle the doubling pass that starts at row
        # 128; 2**12 + 3 steps end in a pass whose power is the step squared
        # 12 times, so the roundoff of repeated squaring must stay small.
        dt = 0.01
        basis = small_plant.basis
        coupled_exo = build_exosystem(
            [SignalTerm(np.ones(basis.dim), "sin", np.pi)],
            [SignalTerm(harmonic_coeffs(basis, 1, "sin"), "sin", 2.0 * np.pi)],
            basis.max_order,
        )
        for exo, ctrl, n_blocks in [
            (small_exo, synth_approx_robust(small_plant, small_exo, 2, eps=0.12), 7),
            (coupled_exo, synth_regulating(small_plant, coupled_exo, eps=0.1), 1),
        ]:
            cl = assemble_direct(small_plant, ctrl, exo)
            pair_form = loop._mapped(checks.dense_loop(cl)[0], cl.pairs, cl.pairs)
            assert len(cl.blocks) == len(checks._diagonal_blocks(pair_form)) == n_blocks
            x0 = np.random.default_rng(21).standard_normal(cl.state_dim)
            traj = simulate_exact(cl, exo, x0=x0, t_end=n_steps * dt, dt=dt)
            states, errors, energies = sequential_reference(checks.dense_loop(cl), cl.plant, exo, x0, n_steps, dt)
            assert traj.states.shape == (1, cl.state_dim)
            assert rel_gap(traj.states[0], states[-1]) < 1e-12
            assert traj.errors.shape == errors.shape
            assert rel_gap(traj.errors, errors) < 1e-12
            assert rel_gap(traj.energies, energies) < 1e-12

    def test_free_response_matches_sequential_stepping(self, small_plant):
        # the damped As is one block per output channel, the undamped one 21 2x2 blocks
        x0 = np.random.default_rng(22).standard_normal(small_plant.state_dim)
        dt, n_steps = 0.01, 2 * 128 + 45
        for plant, n_blocks in [(small_plant, 7), (small_plant.perturbed(q_scale=0.0), 21)]:
            assert len(checks._diagonal_blocks(plant.As)) == n_blocks
            resp = loop.free_response(plant, x0, t_end=n_steps * dt, dt=dt)
            step = linalg.expm(plant.As, dt)
            states = [x0]
            for _ in range(n_steps):
                states.append(step @ states[-1])
            states = np.array(states)
            energies = np.array([plant.energy(x) for x in states])
            assert resp.states.shape == (1, plant.state_dim)
            assert rel_gap(resp.states[0], states[-1]) < 1e-12
            assert rel_gap(resp.errors, states @ plant.C.T) < 1e-12
            assert rel_gap(resp.energies, energies) < 1e-12


    def test_chunks_match_sequential_stepping(self, small_plant, small_exo):
        # three whole chunks and a ragged fourth: each chunk starts one step
        # past the last samples of the chunk before
        dt, n_steps = 0.01, 3 * loop._CHUNK + 45
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        x0 = np.random.default_rng(25).standard_normal(cl.state_dim)
        traj = simulate_exact(cl, small_exo, x0=x0, t_end=n_steps * dt, dt=dt)
        states, errors, energies = sequential_reference(checks.dense_loop(cl), cl.plant, small_exo, x0, n_steps, dt)
        assert traj.errors.shape == errors.shape
        assert rel_gap(traj.states[0], states[-1]) < 1e-12
        assert rel_gap(traj.errors, errors) < 1e-12
        assert rel_gap(traj.energies, energies) < 1e-12

    def test_free_response_rows_over_chunks_match_sequential_stepping(self, small_plant):
        # three rows share each chunk's fill; the free plant is a loop with
        # no input driven by an exosystem at rest
        dt, n_steps = 0.01, 3 * loop._CHUNK + 45
        n, p = small_plant.state_dim, small_plant.output_dim
        rows = np.random.default_rng(26).standard_normal((3, n))
        at_rest = Exosystem(omegas=np.ones(1), E=np.zeros((p, 1)), F=np.zeros((p, 1)),
                            v0=np.zeros(1, dtype=complex))
        free = (small_plant.As, np.zeros((n, 1)), small_plant.C, np.zeros((p, 1)))
        batch = loop.free_response(small_plant, rows, t_end=n_steps * dt, dt=dt)
        for x0, resp in zip(rows, batch):
            states, errors, energies = sequential_reference(free, small_plant, at_rest, x0,
                                                            n_steps, dt)
            assert resp.errors.shape == errors.shape
            assert rel_gap(resp.states[0], states[-1]) < 1e-12
            assert rel_gap(resp.errors, errors) < 1e-12
            assert rel_gap(resp.energies, energies) < 1e-12

    def test_free_response_batch_matches_single_states(self, small_plant):
        # rows of initial states share one fill; each row's trajectory is the
        # one its own call gives, up to the roundoff of the wider GEMMs
        rng = np.random.default_rng(24)
        real_rows = rng.standard_normal((4, small_plant.state_dim))
        complex_rows = real_rows + 1j * rng.standard_normal(real_rows.shape)
        for rows in (real_rows, complex_rows):
            batch = loop.free_response(small_plant, rows, t_end=3.0, dt=0.01)
            assert len(batch) == rows.shape[0]
            for x0, resp in zip(rows, batch):
                single = loop.free_response(small_plant, x0, t_end=3.0, dt=0.01)
                assert resp.errors.dtype == single.errors.dtype == rows.dtype
                assert rel_gap(resp.errors, single.errors) < 1e-13
                assert rel_gap(resp.energies, single.energies) < 1e-13
                assert rel_gap(resp.states, single.states) < 1e-13

    def test_regulating_preset_loop_splits_at_roundoff(self, sect5_plant, sect5_exo):
        # its only cross-channel entries are projection roundoff of E and F,
        # at most eps*||Acl||_F, so it is one block per channel group
        ctrl = synth_regulating(sect5_plant, sect5_exo, 0.15)
        cl = assemble_direct(sect5_plant, ctrl, sect5_exo)
        pair_form = loop._mapped(checks.dense_loop(cl)[0], cl.pairs, cl.pairs)
        oracle = sorted((idx.size for idx in checks._diagonal_blocks(pair_form)), reverse=True)
        assert sorted((idx.size for idx in cl.blocks), reverse=True) == oracle == [212] + [16] * 10
        dt, n_steps = 0.01, 50
        x0 = np.random.default_rng(23).standard_normal(cl.state_dim)
        traj = simulate_exact(cl, sect5_exo, x0=x0, t_end=n_steps * dt, dt=dt)
        states, errors, energies = sequential_reference(checks.dense_loop(cl), cl.plant, sect5_exo, x0, n_steps, dt)
        assert rel_gap(traj.states[0], states[-1]) < 1e-12
        assert rel_gap(traj.errors, errors) < 1e-12
        assert rel_gap(traj.energies, energies) < 1e-12
        reg = solve_regulator(cl, sect5_exo)  # raises unless its residual check passes
        dense = np.column_stack([
            np.linalg.solve(1j * w * np.eye(cl.state_dim) - checks.dense_loop(cl)[0], cl.Bcl[:, k])
            for k, w in enumerate(sect5_exo.omegas)
        ])
        assert rel_gap(reg.Sigma, dense) < 1e-12

    def test_copy_pair_below_the_tolerance_shares_its_block(self, small_plant, small_exo):
        # on a stiff plant eps*||Acl||_F (about 0.03) exceeds omega = 1e-3, so the
        # copies' own coupling counts as zero. In pair coordinates the first copy
        # reaches channel 1 and the second channel 2 alone; the dense entry search
        # puts them in two blocks, the channel join keeps the pair in one
        plant = small_plant.perturbed(stiffness_scale=1e12)
        K0 = np.zeros((plant.output_dim, 2), dtype=complex)
        K0[1, 0], K0[2, 0] = 10.0, 10.0j
        K0[:, 1] = K0[:, 0].conj()
        ctrl = Controller("regulating", np.array([-1e-3, 1e-3]), 1, K0.T.copy(), K0, 1.0)
        cl = assemble_direct(plant, ctrl, small_exo)
        f, s = cl.pairs
        assert any(np.isin(f, idx).all() and np.isin(s, idx).all() for idx in cl.blocks)
        pair_form = loop._mapped(checks.dense_loop(cl)[0], cl.pairs, cl.pairs)
        oracle = checks._diagonal_blocks(pair_form)
        assert len(oracle) == len(cl.blocks) + 1
        block_of = {j: b for b, idx in enumerate(cl.blocks) for j in idx}
        assert all(len({block_of[j] for j in idx}) == 1 for idx in oracle)
        dense = linalg.eig(checks.dense_loop(cl)[0])
        assert checks.match_spectra(cl.spectrum, dense) <= 1e-12 * np.abs(dense).max()


    def test_roundoff_reach_is_judged_per_plant_block(self, small_plant, small_exo):
        # undamped, each mode is its own plant block. A copy coupled to channel 1
        # at about eps*||Acl||_F reaches the modes with the larger traces there
        # and not the others, as in the dense entry search
        plant = small_plant.perturbed(q_scale=0.0)
        traces = np.sort(np.abs(plant.trace[plant.channels == 1, 1]))
        G2, K0 = np.zeros((2, plant.output_dim), dtype=complex), np.zeros((plant.output_dim, 2))
        idle = Controller("regulating", np.array([-1.0, 1.0]), 1, G2, K0, 0.0)
        norm = np.linalg.norm(checks.dense_loop(assemble_direct(plant, idle, small_exo))[0])
        G2[:, 1] = np.finfo(float).eps * norm / np.sqrt(2.0 * traces[0] * traces[-1])
        cl = assemble_direct(plant, dataclasses.replace(idle, G2=G2), small_exo)
        pair_form = loop._mapped(checks.dense_loop(cl)[0], cl.pairs, cl.pairs)
        oracle = [idx.tolist() for idx in checks._diagonal_blocks(pair_form)]
        assert [idx.tolist() for idx in cl.blocks] == oracle
        joined = next(idx for idx in cl.blocks if plant.state_dim in idx)  # the copies' block
        assert 0 < np.isin(np.flatnonzero(plant.channels == 1), joined).sum() < traces.size

    def test_unreached_plant_block_spectra_are_computed_once_per_plant(self, sect5_exo, monkeypatch):
        # the approx5 copies reach the 11 channels of Y_N: 11 joined blocks of 16 + 4
        # states and 12 plant blocks of 16. The plant's blocks keep their spectra, so a
        # second loop on the same plant, at another gain, computes its joined blocks alone
        plant, eig, sizes = assemble_wave_plant(8, 12, 3.0), linalg.eig, []
        monkeypatch.setattr(linalg, "eig", lambda M: sizes.append(len(M)) or eig(M))
        for eps, expected in ((0.15, [16] * 12 + [20] * 11), (0.3, [20] * 11)):
            sizes.clear()
            assemble_direct(plant, synth_approx_robust(plant, sect5_exo, 5, eps), sect5_exo).spectrum
            assert sorted(sizes) == expected


class TestMemory:
    def test_peak_allocation_scales_with_outputs_not_states(self, small_plant, small_exo):
        # each block is reduced as soon as it is filled: the peak is a few
        # (outputs + widest block + q, n_rows) arrays, not the (n, n_rows)
        # history; the loop samples in real arithmetic, 8 bytes an entry
        ctrl = synth_approx_robust(small_plant, small_exo, 2, eps=0.12)
        cl = assemble_direct(small_plant, ctrl, small_exo)
        widest = max(idx.size for idx in cl.blocks)
        per_row = cl.Ccl.shape[0] + widest + small_exo.q
        assert cl.state_dim > 2 * per_row
        simulate_exact(cl, small_exo, t_end=1.0, dt=0.01)  # warm up lazy imports
        n_rows = 10_001
        tracemalloc.start()
        try:
            simulate_exact(cl, small_exo, t_end=(n_rows - 1) * 0.01, dt=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n_rows * per_row  # float64 entries

    def test_synthesis_path_forms_no_state_squared_array(self):
        # 48 angular orders: 1,564 states in 95 blocks, the largest 20. One
        # float64 state^2 array is 19.6 MB; the loop's blocks, its spectrum,
        # its regulator solution and the error bound stay well below that
        plant = assemble_wave_plant(8, 48, 3.0)
        exo = build_sect5_exosystem(plant.basis.max_order)
        ctrl = synth_approx_robust(plant, exo, 5, eps=0.15)
        tracemalloc.start()
        try:
            cl = assemble_direct(plant, ctrl, exo)
            stable = cl.is_stable
            bound = error_bound_delta(solve_regulator(cl, exo), cl, ctrl.projector())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cl.state_dim, len(cl.blocks), max(idx.size for idx in cl.blocks)) == (1564, 95, 20)
        assert stable and bound.delta > 0.0
        assert peak < 16e6 < 8 * cl.state_dim**2


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
        with pytest.raises(ValueError, match="does not fit into the horizon"):
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

    @pytest.mark.parametrize("steps", [1, 7, 300])
    def test_pieces_give_the_windows_of_one_push(self, steps):
        # windows that straddle pieces, and a window longer than any piece,
        # sum the same trapezoid areas in the same order as one push
        sq = np.random.default_rng(18).random(1000)
        whole, _ = loop.window_integrals(sq, 0.01, steps)
        cuts, pieces, before = [0, 1, 5, 6, 250, 999, 1000], [], ()
        for a, b in zip(cuts, cuts[1:]):
            values, before = loop.window_integrals(sq[a:b], 0.01, steps, before)
            pieces.append(values)
        assert whole.size == sq.size - steps
        assert np.array_equal(np.concatenate(pieces), whole)

    def test_error_norms_sq_applies_weights(self):
        rng = np.random.default_rng(17)
        t = np.arange(0.0, 0.5001, 0.01)
        errors = rng.standard_normal((t.size, 3)) + 1j * rng.standard_normal((t.size, 3))
        traj = make_trajectory(t, errors)
        P = np.diag([1.0, 1.0, 0.0])
        explicit = np.array([np.vdot(P @ e, P @ e).real for e in errors])
        assert np.allclose(traj.error_norms_sq(P), explicit, rtol=1e-14, atol=0.0)
        assert np.allclose(traj.error_norms_sq(), np.linalg.norm(errors, axis=1) ** 2, rtol=1e-14)


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
    @pytest.mark.parametrize("q_scale", [0.5, 1.5])
    def test_damping_perturbation_uses_one_gain(self, q_scale):
        # the perturbed As and E_s = E - Q F share the scaled gain, so the
        # error bound and its coarse estimate describe the same loop; the
        # preset signals reach past Y_N, which makes both bounds nonzero
        plant = assemble_wave_plant(3, 6, 3.0)
        exo = build_sect5_exosystem(5)
        ctrl = synth_approx_robust(plant, exo, 2, eps=0.15)
        cl = assemble_direct(plant.perturbed(q_scale=q_scale), ctrl, exo)
        assert cl.is_stable
        bound = error_bound_delta(solve_regulator(cl, exo), cl, ctrl.projector())
        assert 0.0 < bound.delta <= bound.delta_coarse

    def test_instability_reported_not_raised(self, sect5_plant, sect5_exo, approx5):
        cl = assemble_direct(sect5_plant.perturbed(stiffness_scale=1.05), approx5, sect5_exo)
        assert not cl.is_stable
        assert cl.abscissa >= 0

    def test_robust_controller_tracks_under_stiffness_perturbation(
        self, sect5_plant, sect5_exo
    ):
        rob = synth_robust(sect5_plant, sect5_exo, 0.15)
        cl = assemble_direct(sect5_plant.perturbed(stiffness_scale=0.95), rob, sect5_exo)
        assert cl.is_stable and cl.abscissa < 0
        traj = simulate_exact(cl, sect5_exo, t_end=41.0, dt=0.01)
        series = windowed_error(traj, window=1.0)
        pn_series = windowed_error(traj, window=1.0, weights=rob.projector())
        assert pn_series.values[-1] < 1e-6
        assert series.values[-1] <= series_at(series, 41.0 / 2.0) + 1e-12
