"""Property tests over small random plants and exosystems.

Each example draws a plant (2-3 radial modes, angular orders 0..1 to 0..3,
either inner boundary condition), a reference at one drive frequency and a
disturbance at another, both in [0.5, 8], with random Fourier profiles, and
a truncation order N below the angular cutoff.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wavereg import linalg, loop, synthesis
from wavereg.exosystem import SignalSpec, SignalTerm, build_exosystem
from wavereg.plant import assemble_wave_plant

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
    reference = SignalSpec(
        [SignalTerm(lambda th: plant.basis.synthesize(ref_coeffs, th), "sin", w_ref)]
    )
    disturbance = SignalSpec(
        [SignalTerm(lambda th: plant.basis.synthesize(dist_coeffs, th), "cos", w_dist)]
    )
    exo = build_exosystem(reference, disturbance, plant.basis.max_order)
    N = draw(st.integers(1, m_angular - 1))
    return plant, exo, N


_PROPERTY_SETTINGS = settings(max_examples=20, derandomize=True, deadline=None)


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
@given(small_problems())
def test_approx_controller_bound_and_closed_form(problem):
    plant, exo, N = problem
    ctrl = synthesis.synth_approx_robust(plant, exo, N, EPS)
    cl = loop.assemble_direct(plant, ctrl, exo)
    reg = synthesis.solve_regulator(cl, exo)
    bound = synthesis.error_bound_delta(reg, cl, ctrl.projector())
    assert bound.delta <= bound.delta_coarse + 1e-15
    gamma = synthesis.gamma_closed_form(plant, ctrl, exo)
    assert np.abs(gamma - reg.Gamma).max() <= 1e-8 * max(1.0, np.abs(reg.Gamma).max())


@_PROPERTY_SETTINGS
@given(small_problems())
def test_direct_and_transformed_spectra_agree(problem):
    plant, exo, N = problem
    ctrl = synthesis.synth_approx_robust(plant, exo, N, EPS)
    spec_d = linalg.eig(loop.assemble_direct(plant, ctrl, exo).Acl).eigenvalues
    spec_p = linalg.eig(loop.assemble_paper_Ae(plant, ctrl, exo).Acl).eigenvalues
    assert linalg.match_spectra(spec_d, spec_p) < 1e-8


@_PROPERTY_SETTINGS
@given(small_problems())
def test_energy_balance_along_blocked_trajectory(problem):
    # With the controller idle (K = 0) the plant sees the boundary force
    # u = E_s v - Q y, and its energy obeys d/dt E = 2 Re <u, y>. Checked in
    # integral form over several stepping blocks, against the trapezoid
    # rule's error bound T dt^2 / 12 max |P''| for the power P.
    plant, exo, _ = problem
    ctrl = synthesis.synth_regulating(plant, exo, 0.0)
    cl = loop.assemble_direct(plant, ctrl, exo)
    dt, t_end = 0.002, 2.0
    traj = loop.simulate_exact(cl, exo, t_end=t_end, dt=dt)
    assert traj.t.size > 3 * loop.BLOCK
    y = traj.states[:, : plant.state_dim] @ plant.C.T
    v = np.exp(1j * np.outer(traj.t, exo.omegas)) * exo.v0
    u = v @ synthesis.stabilized_disturbance(plant, exo).T - plant.Q_feedback * y
    power = 2.0 * np.real(np.sum(np.conj(u) * y, axis=1))
    injected = np.concatenate([[0.0], np.cumsum(0.5 * dt * (power[1:] + power[:-1]))])
    drift = np.abs(traj.energies - traj.energies[0] - injected)
    quadrature = t_end / 12.0 * np.abs(np.diff(power, 2)).max()
    scale = max(traj.energies.max(), np.abs(power).max())
    assert drift.max() <= 2.0 * quadrature + 1e-10 * scale
