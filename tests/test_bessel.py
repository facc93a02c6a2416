import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavereg import bessel

# 64-node Gauss-Legendre rule on [1, 2]: the quadrature oracle for radial integrals
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
RADIAL_NODES, RADIAL_WEIGHTS = 1.5 + 0.5 * _GL_X, 0.5 * _GL_W


def j_series(m, x, terms=60):
    """Independent power-series oracle for J_m(x), ascending series."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (m + 2 * k) / (
            math.factorial(k) * math.factorial(k + m)
        )
    return total


class TestBesselValues:
    def test_j0_at_origin_limit(self):
        J, _, _, _ = bessel.bessel_jy(0, 1e-8)
        assert abs(J - 1.0) < 1e-10

    @pytest.mark.parametrize("x", [1.0, 5.0, 20.0])
    def test_wronskian(self, x):
        J0, Y0, _, _ = bessel.bessel_jy(0, x)
        J1, Y1, _, _ = bessel.bessel_jy(1, x)
        assert abs(J1 * Y0 - J0 * Y1 - 2.0 / (np.pi * x)) < 1e-10

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0])
    def test_against_power_series(self, m, x):
        J, _, _, _ = bessel.bessel_jy(m, x)
        assert abs(J - j_series(m, x)) < 1e-12

    def test_j0_first_zero_by_independent_bisection(self):
        lo, hi = 2.0, 3.0
        flo = j_series(0, lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = j_series(0, mid)
            if (flo < 0) != (fm < 0):
                hi = mid
            else:
                lo, flo = mid, fm
        zero = 0.5 * (lo + hi)
        assert zero == pytest.approx(2.404825557695773, abs=1e-10)
        assert abs(bessel.bessel_jy(0, zero)[0]) < 1e-10

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_derivative_recurrence(self, m):
        # J'_m = (J_{m-1} - J_{m+1}) / 2 for m >= 1 and J'_0 = -J_1.
        x = np.linspace(0.7, 12.0, 9)
        _, _, Jp, _ = bessel.bessel_jy(m, x)
        if m == 0:
            expected = -bessel.bessel_jy(1, x)[0]
        else:
            expected = 0.5 * (bessel.bessel_jy(m - 1, x)[0] - bessel.bessel_jy(m + 1, x)[0])
        assert np.abs(Jp - expected).max() < 1e-12

    def test_values_against_mpmath(self):
        # J_m and Y_m within 4e-15 of the modulus sqrt(J_m^2 + Y_m^2) at seeded
        # points over the orders and arguments the plant reaches
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(32)
        for m, x in zip(rng.integers(0, 63, 200), rng.uniform(0.5, 800.0, 200)):
            J, Y, _, _ = bessel.bessel_jy(int(m), x)
            with mpmath.workdps(30):
                exact_J, exact_Y = mpmath.besselj(int(m), x), mpmath.bessely(int(m), x)
                tol = 4e-15 * float(mpmath.sqrt(exact_J**2 + exact_Y**2))
            assert abs(J - float(exact_J)) <= tol, (m, x)
            assert abs(Y - float(exact_Y)) <= tol, (m, x)

    def test_missing_libm_function_fails_with_its_name(self):
        with pytest.raises(ImportError, match="needs no_such_bessel "):
            bessel._libm_bessel("jn", "no_such_bessel")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel.bessel_jy(0, 0.0)
        with pytest.raises(ValueError):
            bessel.bessel_jy(0, -1.0)
        with pytest.raises(ValueError):
            bessel.bessel_jy(-1, 1.0)
        with pytest.raises(ValueError):
            bessel.bessel_jy(1.5, 1.0)


class TestCrossFunction:
    @pytest.mark.parametrize("m", [0, 1, 5])
    @pytest.mark.parametrize("k", [0.8, 2.3, 7.1])
    def test_dirichlet_inner_value_vanishes(self, m, k):
        assert abs(bessel.radial_profile(m, k, 1.0, "dirichlet")) < 1e-14

    @pytest.mark.parametrize("m", [0, 1, 5])
    @pytest.mark.parametrize("k", [0.8, 2.3, 7.1])
    def test_neumann_inner_slope_vanishes(self, m, k):
        # R'(1) = k (J'_m(k) Y'_m(k) - Y'_m(k) J'_m(k))
        _, _, Jp, Yp = bessel.bessel_jy(m, k)
        assert abs(k * (Jp * Yp - Yp * Jp)) < 1e-13 * k

    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_sign_scan_brackets_first_root(self, inner):
        grid = np.arange(0.5, 4.01, 0.1)
        vals = [bessel.cross_fn(0, k, inner) for k in grid]
        signs = np.sign(vals)
        assert np.any(signs[:-1] != signs[1:])

    def test_outer_slope_vanishes_at_root(self):
        mode = bessel.find_radial_roots(0, 1, "dirichlet")[0]
        J, Y, _, _ = bessel.bessel_jy(0, mode.k)
        _, _, Jp2, Yp2 = bessel.bessel_jy(0, 2.0 * mode.k)
        assert abs(mode.k * (Jp2 * Y - Yp2 * J)) < 1e-9

    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_asymptotic_spacing_pi(self, inner):
        modes = bessel.find_radial_roots(0, 12, inner)
        gaps = np.diff([m.k for m in modes])
        assert abs(gaps[-1] - np.pi) < 0.05 * np.pi

    def test_unknown_bc_rejected(self):
        with pytest.raises(ValueError):
            bessel.cross_fn(0, 1.0, "robin")


class TestRootFinding:
    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("m", [0, 2, 7])
    def test_roots_increasing_with_small_residual(self, inner, m):
        modes = bessel.find_radial_roots(m, 6, inner)
        ks = [mode.k for mode in modes]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        for mode in modes:
            assert abs(bessel.cross_fn(m, mode.k, inner)) < 1e-10
            assert mode.n >= 1 and mode.m == m

    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_orthonormal_in_radial_measure(self, inner):
        r = RADIAL_NODES
        values = np.array([mode.eval(r) for mode in bessel.find_radial_roots(2, 5, inner)])
        gram = (values * RADIAL_WEIGHTS * r) @ values.T
        assert np.abs(gram - np.eye(5)).max() < 1e-8

    def test_normalization_against_simpson_oracle(self):
        mode = bessel.find_radial_roots(1, 3, "neumann")[2]
        r = np.linspace(1.0, 2.0, 4097)
        f = mode.eval(r) ** 2 * r
        h = r[1] - r[0]
        simpson = h / 3.0 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum())
        assert simpson == pytest.approx(1.0, abs=1e-8)

    def test_boundary_trace_nonzero(self):
        for inner in ("dirichlet", "neumann"):
            for mode in bessel.find_radial_roots(3, 4, inner):
                assert abs(mode.boundary_trace) > 1e-3
                assert mode.boundary_trace == pytest.approx(mode.eval(2.0), rel=1e-15)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            bessel.find_radial_roots(0, 0, "neumann")
        with pytest.raises(ValueError):
            bessel.find_radial_roots(0, 2, "free")

    def test_unknown_inner_condition_refused_before_collocation(self, monkeypatch):
        calls = []
        collocate = bessel._collocation_wavenumbers
        monkeypatch.setattr(bessel, "_collocation_wavenumbers",
                            lambda *args: calls.append(args) or collocate(*args))
        with pytest.raises(ValueError, match="inner_bc must be one of"):
            bessel.find_radial_roots(0, 2, "mixed")
        assert calls == []

    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(m=st.integers(0, 60), count=st.integers(1, 30))
    @example(m=0, count=1)
    @example(m=60, count=30)
    def test_roots_match_brentq_oracle(self, inner, m, count):
        # scalar Brent iterations on each sign change of a 0.05 grid in k that
        # reaches past root count (spacing below pi, first root below m/2 + pi)
        grid = np.arange(0.01, 0.5 * m + (count + 1) * np.pi, 0.05)
        f = bessel.cross_fn(m, grid, inner)
        idx = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))[:count]
        oracle = [
            scipy.optimize.brentq(
                lambda k: bessel.cross_fn(m, k, inner), grid[i], grid[i + 1], xtol=1e-15
            )
            for i in idx
        ]
        ks = [mode.k for mode in bessel.find_radial_roots(m, count, inner)]
        assert len(oracle) == count and np.abs(np.array(ks) - oracle).max() < 1e-13

    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_lommel_norm_matches_quadrature(self, inner):
        r = RADIAL_NODES
        for m in range(12):
            for mode in bessel.find_radial_roots(m, 8, inner):
                raw = bessel.radial_profile(m, mode.k, r, inner)
                quad = 1.0 / np.sqrt(np.sum(RADIAL_WEIGHTS * raw**2 * r))
                assert mode.normalization == pytest.approx(quad, rel=1e-13)

    @pytest.mark.parametrize("skipped", [1, 2])
    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_scan_past_first_roots_raises(self, inner, m, skipped, monkeypatch):
        # seeds that start past root 1 (or 2) polish to true roots 2..9 (or
        # 3..10); only the last mode's zero count tells them from a complete set
        seeds = bessel._collocation_wavenumbers
        monkeypatch.setattr(
            bessel, "_collocation_wavenumbers", lambda *args: seeds(*args)[skipped:]
        )
        with pytest.raises(ValueError, match=f"mode 8 of order {m} has"):
            bessel.find_radial_roots(m, 8, inner)

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_repeated_seed_raises(self, inner, m, monkeypatch):
        # seeds that repeat root 1 and drop root 2 end on a true root 8 whose
        # zero count is right; only the disjoint brackets tell them apart
        seeds = bessel._collocation_wavenumbers
        monkeypatch.setattr(
            bessel, "_collocation_wavenumbers", lambda *args: seeds(*args)[[0, 0, 2, 3, 4, 5, 6, 7]]
        )
        with pytest.raises(ValueError, match=f"order {m} overlap: two seeds share a root"):
            bessel.find_radial_roots(m, 8, inner)

    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_moved_seed_raises(self, inner, monkeypatch):
        # a seed 1e-3 off its root leaves cross_fn one sign on its bracket
        seeds = bessel._collocation_wavenumbers
        monkeypatch.setattr(
            bessel, "_collocation_wavenumbers", lambda *args: seeds(*args) * (1.0 + 1e-3)
        )
        for m in (0, 3, 40):
            with pytest.raises(ValueError, match=f"cross_fn of order {m} keeps its sign"):
                bessel.find_radial_roots(m, 8, inner)

    @pytest.mark.parametrize("m", [0, 1, 30, 60])
    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_zero_count_certifies_twenty_roots(self, inner, m):
        # 8 * count sample points resolve the n - 1 zeros of every mode up to
        # n = 20 (and 30), so the zero count raises no false alarm
        for count in (20, 30):
            assert len(bessel.find_radial_roots(m, count, inner)) == count

    @pytest.mark.parametrize("m", [40, 41, 42, 43, 44, 50, 60])
    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_high_orders_meet_residual_tolerance(self, inner, m):
        # cross_fn's scale |w_Y| + |w_J| passes 1e6 at the first roots here
        ks = np.array([mode.k for mode in bessel.find_radial_roots(m, 8, inner)])
        wY, wJ = bessel._inner_weights(m, ks, inner)
        relative = np.abs(bessel.cross_fn(m, ks, inner)) / (np.abs(wY) + np.abs(wJ))
        assert ks.size == 8 and relative.max() < bessel.ROOT_RESIDUAL_TOL

    @pytest.mark.parametrize(
        "inner, m",
        [
            ("neumann", 42),
            ("neumann", 44),
            ("neumann", 60),
            ("dirichlet", 44),
            ("dirichlet", 50),
            ("dirichlet", 60),
        ],
    )
    def test_high_order_first_root_against_mpmath(self, inner, m):
        mpmath = pytest.importorskip("mpmath")
        k = bessel.find_radial_roots(m, 8, inner)[0].k
        deriv = 1 if inner == "neumann" else 0

        def cross(x):
            wY, wJ = mpmath.bessely(m, x, deriv), mpmath.besselj(m, x, deriv)
            return mpmath.besselj(m, 2 * x, 1) * wY - mpmath.bessely(m, 2 * x, 1) * wJ

        with mpmath.workdps(40):
            exact = mpmath.findroot(cross, mpmath.mpf(k))
            assert abs(float(exact - k)) <= 8 * np.spacing(k)

    @pytest.mark.parametrize("inner", ["dirichlet", "neumann"])
    def test_unpolished_roots_raise(self, inner, monkeypatch):
        # the seed brackets alone, 2e-6 relative wide, leave residuals far above the tolerance
        monkeypatch.setattr(bessel, "_SECANT_STEPS", 0)
        for m in range(12):
            with pytest.raises(ValueError, match="root polish stalled"):
                bessel.find_radial_roots(m, 8, inner)

    def test_scan_cap_reports_missing_roots(self, monkeypatch):
        monkeypatch.setattr(bessel, "_BRACKET_CAP", 10.0)
        with pytest.raises(ValueError, match="found only 3 of 8 roots"):
            bessel.find_radial_roots(0, 8, "neumann")
