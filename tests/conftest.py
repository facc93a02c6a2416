"""Shared fixtures: the full simulation preset (built once per session), a
small cheap plant for structural tests, handcrafted scalar toys, and the
per-step oracle of the sampler on a dense loop."""

from dataclasses import dataclass

import numpy as np
import pytest

from wavereg import checks, linalg
from wavereg.exosystem import Exosystem, SignalTerm, build_exosystem, build_sect5_exosystem
from wavereg.loop import assemble_direct
from wavereg.plant import FourierOutputBasis, assemble_wave_plant
from wavereg.synthesis import Controller, eval_transfer, solve_regulator, synth_approx_robust


@pytest.fixture(scope="session")
def sect5_plant():
    return assemble_wave_plant(8, 12, 3.0)


@pytest.fixture(scope="session")
def sect5_exo():
    return build_sect5_exosystem(11)


@pytest.fixture(scope="session")
def approx5(sect5_plant, sect5_exo):
    return synth_approx_robust(sect5_plant, sect5_exo, 5, 0.15)


@pytest.fixture(scope="session")
def sect5_loop(sect5_plant, approx5, sect5_exo):
    return assemble_direct(sect5_plant, approx5, sect5_exo)


@pytest.fixture(scope="session")
def sect5_reg(sect5_loop, sect5_exo):
    return solve_regulator(sect5_loop, sect5_exo)


@pytest.fixture(scope="session")
def small_plant():
    # 3 radial modes, angular orders 0..3: 21 oscillators, 7 outputs.
    return assemble_wave_plant(3, 4, 3.0)


def harmonic_coeffs(basis, m, parity):
    """Coefficients of the profile cos(m theta) or sin(m theta) on ``basis``."""
    coeffs = np.zeros(basis.dim)
    coeffs[2 * m - (parity == "cos")] = np.sqrt(np.pi)  # basis order: const, cos 1, sin 1, ...
    return coeffs


@pytest.fixture(scope="session")
def small_exo(small_plant):
    basis = small_plant.basis
    reference = [SignalTerm(harmonic_coeffs(basis, 1, "cos"), "sin", np.pi)]
    disturbance = [SignalTerm(harmonic_coeffs(basis, 1, "sin"), "sin", 2.0 * np.pi)]
    return build_exosystem(reference, disturbance, basis.max_order)


def series_at(series, time):
    """J of the :class:`wavereg.loop.ErrorSeries` at the grid point closest to ``time``."""
    return float(series.values[int(np.argmin(np.abs(series.t - time)))])


@dataclass(frozen=True)
class DensePlant:
    """Plant without wave structure, given by its dense matrices: what the
    loop and the synthesis read of a plant. Its channel transfer is the
    diagonal of the dense resolvent C (lambda - As)^{-1} B, which must be
    diagonal, and its input resolvent (lambda - As)^{-1} B a dense solve."""

    As: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q_feedback: float
    energy_weights: np.ndarray
    basis: FourierOutputBasis

    @property
    def state_dim(self):
        return self.As.shape[0]

    @property
    def output_dim(self):
        return self.basis.dim

    def transfer(self, lam):
        P = eval_transfer(self.As, self.B, self.C, lam)
        assert not (P - np.diag(np.diag(P))).any(), "dense transfer is not diagonal"
        return np.diag(P)

    def input_resolvent(self, lam):
        return linalg.solve_dense(lam * np.eye(self.state_dim) - self.As, self.B)

    def energy(self, x):
        return float(np.sum(self.energy_weights * np.abs(np.asarray(x)) ** 2))

    @property
    def blocks(self):  # one diagonal block, all of As, on the output channel of a scalar plant
        assert self.output_dim == 1, "a dense plant has no channel blocks"
        return [(np.arange(self.state_dim), self.As, 0)]

    def spectrum(self, u):
        return linalg.eig(self.blocks[u][1])


def scalar_plant(a=-1.0, b=1.0, c=1.0):
    """Single-state plant with As = a, B = b, C = c and no wave structure."""
    return DensePlant(
        As=np.array([[a]]),
        B=np.array([[b]]),
        C=np.array([[c]]),
        Q_feedback=0.0,
        energy_weights=np.ones(1),
        basis=FourierOutputBasis(0),
    )


@pytest.fixture
def toy_plant():
    return scalar_plant()


def single_freq_exo(omega, e=0.0, f=-1.0, dim_y=1):
    E = np.zeros((dim_y, 1), dtype=complex)
    F = np.zeros((dim_y, 1), dtype=complex)
    E[0, 0] = e
    F[0, 0] = f
    return Exosystem(
        omegas=np.array([float(omega)]), E=E, F=F, v0=np.ones(1, dtype=complex)
    )


def copyless_controller(dim_y=1):
    """A controller with no internal-model copies: its loop is the plant alone."""
    return Controller("regulating", np.zeros(0), 1, np.zeros((0, dim_y)), np.zeros((dim_y, 0)), 0.0)


def sigma_oracle(cl):
    """Sigma of the loop ``cl`` from ``checks.sylvester_blocks`` on its dense form."""
    Acl, Bcl, _, _ = checks.dense_loop(cl)
    return checks.sylvester_blocks(Acl, Bcl, cl.exo.omegas)


def sequential_reference(dense, plant, exo, x0, n_steps, dt):
    """Per-step oracle for simulate_exact on the dense loop ``dense`` = (Acl,
    Bcl, Ccl, Dcl), as ``checks.dense_loop`` and ``checks.assemble_paper_Ae``
    give it: one product with the one-step exponential per sample, errors
    and the energies of ``plant`` one state at a time."""
    Acl, Bcl, Ccl, Dcl = dense
    n, q = Acl.shape[0], exo.q
    aug = np.zeros((n + q, n + q), dtype=complex)
    aug[:n, :n] = Acl
    aug[:n, n:] = Bcl
    aug[n:, n:] = np.diag(1j * exo.omegas)
    step = linalg.expm(aug, dt)
    xi = np.concatenate([np.asarray(x0, dtype=complex), exo.v0])
    states, errors, energies = [], [], []
    for _ in range(n_steps + 1):
        states.append(xi[:n])
        errors.append(Ccl @ xi[:n] + Dcl @ xi[n:])
        energies.append(plant.energy(xi[: plant.state_dim]))
        xi = step @ xi
    return np.array(states), np.array(errors), np.array(energies)


def rel_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()
