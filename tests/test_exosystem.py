import numpy as np
import pytest

from wavereg.exosystem import (
    Exosystem,
    SignalTerm,
    build_exosystem,
    build_sect5_exosystem,
    frequencies,
    signals_at,
    v_at,
)
from wavereg.plant import FourierOutputBasis, project_profile

from conftest import harmonic_coeffs


def is_conjugate_symmetric(exo, tol=1e-12):
    """True if frequencies pair as +-w with conjugate columns and v0, which
    makes E v(t) and F v(t) real for all t."""
    order = {w: k for k, w in enumerate(exo.omegas)}
    for k, w in enumerate(exo.omegas):
        if -w not in order:
            return False
        j = order[-w]
        ok = (
            np.allclose(exo.E[:, k], exo.E[:, j].conj(), atol=tol)
            and np.allclose(exo.F[:, k], exo.F[:, j].conj(), atol=tol)
            and abs(exo.v0[k] - exo.v0[j].conj()) <= tol
        )
        if not ok:
            return False
    return True


def sect5_reference_profile(theta, t):
    return -(np.pi - theta) ** 2 / (2 * np.pi**2) * np.sin(np.pi * t) - 0.5 * np.sin(
        theta / 2.0
    ) * np.cos(2 * np.pi * t)


def sect5_disturbance_profile(theta, t):
    return np.cos(theta) * np.sin(2 * np.pi * t) + np.sin(theta) * np.sin(np.pi * t)


class TestStateFlow:
    def test_initial_state(self, sect5_exo):
        assert np.allclose(v_at(sect5_exo, 0.0), sect5_exo.v0)

    def test_array_of_times_gives_rows_of_scalar_calls(self, sect5_exo):
        t = np.random.default_rng(5).uniform(0.0, 50.0, 7)
        w, yref = signals_at(sect5_exo, t)
        assert w.shape == yref.shape == (t.size, sect5_exo.E.shape[0])
        for row, ti in enumerate(t):
            w_i, yref_i = signals_at(sect5_exo, ti)
            assert np.abs(w[row] - w_i).max() <= 1e-15
            assert np.abs(yref[row] - yref_i).max() <= 1e-15

    def test_half_period_flips_sign(self):
        exo = Exosystem(
            omegas=np.array([np.pi]),
            E=np.zeros((1, 1), dtype=complex),
            F=np.zeros((1, 1), dtype=complex),
            v0=np.array([1.0 + 0j]),
        )
        assert np.allclose(v_at(exo, 1.0), -exo.v0, atol=1e-14)

    def test_modulus_preserved(self, sect5_exo):
        rng = np.random.default_rng(21)
        for t in rng.uniform(0.0, 50.0, 5):
            assert np.allclose(np.abs(v_at(sect5_exo, t)), np.abs(sect5_exo.v0), atol=1e-12)

    def test_periodicity(self, sect5_exo):
        for t in (0.0, 0.3, 1.7, 13.4):
            assert np.abs(v_at(sect5_exo, t + 2.0) - v_at(sect5_exo, t)).max() < 1e-12

    def test_norm_v0(self, sect5_exo):
        assert np.linalg.norm(sect5_exo.v0) == pytest.approx(2.0)


class TestSect5Construction:
    def test_frequencies(self, sect5_exo):
        assert np.allclose(sect5_exo.omegas, np.pi * np.array([-2.0, -1.0, 1.0, 2.0]))
        assert sect5_exo.q == 4
        assert np.allclose(np.diag(sect5_exo.S), 1j * sect5_exo.omegas)

    def test_conjugate_symmetry(self, sect5_exo):
        assert is_conjugate_symmetric(sect5_exo)

    def test_signals_real(self, sect5_exo):
        for t in (0.0, 0.3, 1.7):
            w, yref = signals_at(sect5_exo, t)
            assert np.abs(w.imag).max() < 1e-12
            assert np.abs(yref.imag).max() < 1e-12

    def test_disturbance_vanishes_at_zero(self, sect5_exo):
        w, _ = signals_at(sect5_exo, 0.0)
        assert np.abs(w).max() < 1e-12

    def test_reference_at_zero_matches_projection_oracle(self, sect5_exo):
        # independent grid (different from the builder's) and direct sampling
        n = 8192
        theta = 2 * np.pi * np.arange(n) / n
        oracle = project_profile(sect5_reference_profile(theta, 0.0), 11)
        _, yref = signals_at(sect5_exo, 0.0)
        assert np.linalg.norm(yref.real - oracle) < 1e-6

    def test_disturbance_pointwise_at_quarter_second(self, sect5_exo):
        w, _ = signals_at(sect5_exo, 0.25)
        basis = FourierOutputBasis(11)
        theta = np.linspace(0.0, 2 * np.pi, 257)
        reconstructed = basis.synthesize(w.real, theta)
        assert np.abs(reconstructed - sect5_disturbance_profile(theta, 0.25)).max() < 1e-6

    def test_reference_pointwise_random_times(self, sect5_exo):
        basis = FourierOutputBasis(11)
        theta = np.linspace(0.0, 2 * np.pi, 257)
        # the quadratic profile is not band-limited; compare against its
        # order-11 projection instead of raw samples
        n = 8192
        fine = 2 * np.pi * np.arange(n) / n
        for t in (0.4, 1.23):
            _, yref = signals_at(sect5_exo, t)
            target = basis.synthesize(project_profile(sect5_reference_profile(fine, t), 11), theta)
            assert np.abs(basis.synthesize(yref.real, theta) - target).max() < 1e-6

    def test_deterministic_construction(self):
        a = build_sect5_exosystem(11)
        b = build_sect5_exosystem(11)
        assert np.array_equal(a.E, b.E) and np.array_equal(a.F, b.F)
        assert np.array_equal(a.omegas, b.omegas) and np.array_equal(a.v0, b.v0)

    def test_requires_enough_orders(self):
        with pytest.raises(ValueError):
            build_sect5_exosystem(4)


class TestGeneralBuilder:
    def test_zero_maps_give_zero_signals(self):
        spec = [SignalTerm(np.zeros(7), "sin", np.pi)]
        exo = build_exosystem(spec, spec, 3)
        for t in (0.0, 0.77):
            w, yref = signals_at(exo, t)
            assert np.abs(w).max() == 0.0 and np.abs(yref).max() == 0.0

    def test_frequency_union_sorted(self):
        basis = FourierOutputBasis(2)
        ref = [SignalTerm(harmonic_coeffs(basis, 1, "cos"), "sin", np.pi)]
        dist = [SignalTerm(harmonic_coeffs(basis, 1, "sin"), "cos", 3.0 * np.pi)]
        exo = build_exosystem(ref, dist, 2)
        assert np.allclose(exo.omegas, np.pi * np.array([-3.0, -1.0, 1.0, 3.0]))
        for term_freqs in (frequencies(ref), frequencies(dist)):
            for w in term_freqs:
                assert w in set(exo.omegas)

    def test_sampled_profile_term(self):
        n = 4096
        theta = 2 * np.pi * np.arange(n) / n
        ref = [SignalTerm(project_profile(np.cos(theta), 2), "cos", np.pi)]
        exo = build_exosystem(ref, [], 2)
        _, yref = signals_at(exo, 0.0)
        expected = np.zeros(5)
        expected[1] = np.sqrt(np.pi)
        assert np.abs(yref.real - expected).max() < 1e-12

    def test_sin_at_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            SignalTerm(np.ones(5), "sin", 0.0)

    def test_bad_temporal_factor_rejected(self):
        with pytest.raises(ValueError):
            SignalTerm(np.ones(5), "tan", np.pi)

    def test_coefficient_count_checked(self):
        # one coefficient would broadcast over all five outputs
        with pytest.raises(ValueError, match="needs 5 coefficients"):
            build_exosystem([SignalTerm(np.ones(1), "cos", np.pi)], [], 2)

    def test_distinct_frequencies_enforced(self):
        with pytest.raises(ValueError):
            Exosystem(
                omegas=np.array([1.0, 1.0]),
                E=np.zeros((1, 2), dtype=complex),
                F=np.zeros((1, 2), dtype=complex),
                v0=np.ones(2, dtype=complex),
            )

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            Exosystem(
                omegas=np.array([1.0]),
                E=np.zeros((2, 3), dtype=complex),
                F=np.zeros((2, 1), dtype=complex),
                v0=np.ones(1, dtype=complex),
            )
