import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from wavereg import checks, linalg


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def permute(rng, A, *rows):
    """``A`` under a random symmetric permutation, and ``rows`` permuted alike."""
    perm = rng.permutation(A.shape[0])
    return (A[np.ix_(perm, perm)], *(R[perm] for R in rows))


class TestSolveDense:
    def test_identity(self):
        B = np.arange(6.0).reshape(3, 2)
        X = linalg.solve_dense(np.eye(3), B)
        assert np.allclose(X, B, atol=1e-14)

    def test_diagonal_inverse(self):
        X = linalg.solve_dense(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(X, np.diag([0.5, 0.25]), atol=1e-14)

    def test_random_residual(self):
        rng = np.random.default_rng(0)
        A = random_complex(rng, (20, 20)) + 6 * np.eye(20)
        B = random_complex(rng, (20, 4))
        X = linalg.solve_dense(A, B)
        assert np.linalg.norm(A @ X - B) < 1e-10 * np.linalg.norm(B)

    def test_singular_raises(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve_dense(np.diag([1.0, 0.0]), np.eye(2))

    def test_singular_value_ratio_threshold(self):
        # sigma_min / sigma_max just below the threshold raises, just above it solves
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve_dense(np.diag([2.0, 0.9 * 2.0 * linalg.SINGULAR_RTOL]), np.ones(2))
        small = 1.1 * 2.0 * linalg.SINGULAR_RTOL
        X = linalg.solve_dense(np.diag([2.0, small]), np.ones(2))
        assert np.allclose(X, [0.5, 1.0 / small], rtol=1e-14, atol=0.0)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            linalg.solve_dense(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            linalg.solve_dense(np.eye(2), np.ones(3))

    def test_nonfinite_rejected(self):
        A = np.eye(2)
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.solve_dense(A, np.ones(2))


class TestEig:
    def test_diagonal(self):
        w = linalg.eig(np.diag([1.0, -2.0, 3.0j]))
        assert np.allclose(sorted(w.real), [-2.0, 0.0, 1.0])
        assert w.real.max() == pytest.approx(1.0, abs=1e-12)

    def test_companion_of_unit_circle_pair(self):
        w = linalg.eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert checks.match_spectra(w, [1j, -1j]) < 1e-12
        assert abs(w.real.max()) < 1e-12

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        A = random_complex(rng, (50, 50))
        w = linalg.eig(A)
        assert abs(w.sum() - np.trace(A)) < 1e-8 * abs(np.trace(A)) + 1e-8

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            linalg.eig(np.ones((2, 3)))

    def test_overflowing_norm_is_refused(self):
        # ||M||_F overflows on finite entries; a tolerance of inf would count
        # every entry as zero in the block partition and pass every residual
        M = np.array([[-1.0, 1e200], [-1e200, -1.0]])
        for use in (checks._diagonal_blocks, linalg.eig):
            with pytest.raises(ValueError, match="matrix norm overflows"):
                use(M)

    def test_norm_of_tiny_entries_does_not_underflow(self):
        # the squares of entries near 1e-180 underflow; a norm of 0 would be a
        # tolerance that passes no residual
        for scale in (1e-150, 1e-180, 1e-300, 5e-324):
            M = scale * np.array([[3.0, 0.0], [0.0, 4.0j]])
            assert linalg.frobenius_norm(M) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
        assert linalg.frobenius_norm(np.zeros((2, 2))) == 0.0


class TestExpm:
    def test_zero_matrix(self):
        for t in (0.0, 1.0, 17.5):
            for dtype in (float, complex):
                E = linalg.expm(np.zeros((4, 4), dtype=dtype), t)
                assert E.dtype == dtype and np.array_equal(E, np.eye(4))

    def test_unitary_diagonal(self):
        omega = np.array([1.0, -3.0, np.pi])
        E = linalg.expm(np.diag(1j * omega), 2.7)
        assert np.allclose(np.abs(np.diag(E)), 1.0, atol=1e-12)
        assert np.allclose(np.diag(E), np.exp(1j * omega * 2.7), atol=1e-12)

    def test_taylor_oracle(self):
        rng = np.random.default_rng(4)
        A = random_complex(rng, (8, 8))
        A *= 0.3 / np.linalg.norm(A)
        t = 0.9
        acc = np.eye(8, dtype=complex)
        term = np.eye(8, dtype=complex)
        for k in range(1, 40):
            term = term @ A * (t / k)
            acc = acc + term
        assert np.linalg.norm(linalg.expm(A, t) - acc) < 1e-10

    def test_semigroup_property(self):
        rng = np.random.default_rng(5)
        A = random_complex(rng, (6, 6))
        s, t = 0.4, 1.3
        lhs = linalg.expm(A, s + t)
        rhs = linalg.expm(A, s) @ linalg.expm(A, t)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * np.linalg.norm(lhs)

    def test_skew_adjoint_isometry(self):
        rng = np.random.default_rng(6)
        M = random_complex(rng, (10, 10))
        A = M - M.conj().T
        x = random_complex(rng, 10)
        for t in (0.1, 1.0, 10.0):
            y = linalg.expm(A, t) @ x
            assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-9 * np.linalg.norm(x)

    def test_norm_cap(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            linalg.expm(1e5 * np.eye(3), 100.0)

    def test_overflow_below_cap_fails_only_through_the_contract(self):
        # ||A t||_F = 1.7e5 passes the cap, exp(1e5) overflows in the squarings;
        # no RuntimeWarning may come first, even when warnings are errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflowed"):
                linalg.expm(1e3 * np.eye(3), 100.0)

    @pytest.mark.parametrize("scaled", [False, True], ids=["s=0", "s>0"])
    def test_scipy_oracle(self, scaled):
        # ||A t||_1 on one side of theta_13: the unscaled Pade approximant
        # agrees to roundoff, the squarings compound it
        rng = np.random.default_rng(8 + scaled)
        for k in range(60):
            n = int(rng.integers(1, 61))
            A = rng.standard_normal((n, n))
            if k % 2:
                A = A + 1j * rng.standard_normal((n, n))
            t = 10 ** rng.uniform(0.0, 2.0) if scaled else 10 ** rng.uniform(-3.0, 0.0)
            t *= linalg._THETA13 / np.abs(A).sum(axis=0).max()
            E, ref = linalg.expm(A, t), scipy.linalg.expm(A * t)
            assert E.dtype == ref.dtype == (complex if k % 2 else np.float64)
            rtol = 1e-10 if scaled else 1e-13
            assert np.linalg.norm(E - ref) <= rtol * np.linalg.norm(ref)

    def test_real_input_stays_real(self):
        # a real block gives a float64 result, the complex call's to roundoff;
        # the finiteness check still refuses it
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 12))
        E = linalg.expm(A, 0.3)
        assert E.dtype == np.float64
        assert np.abs(E - linalg.expm(A.astype(complex), 0.3)).max() < 1e-14 * np.abs(E).max()
        A[3, 4] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            linalg.expm(A, 0.3)


class TestSylvester:
    def test_scalar_formula(self):
        a, b, w = -2.0 + 0.5j, 1.3 - 0.2j, 0.7
        S = linalg.sylvester_diag(np.array([[a]]), np.array([[b]]), [w])
        assert abs(S[0, 0] - b / (1j * w - a)) < 1e-14

    def test_identity_case(self):
        S = linalg.sylvester_diag(-np.eye(3), np.eye(3)[:, :1], [0.0])
        assert np.allclose(S, np.eye(3)[:, :1], atol=1e-12)

    def test_diagonal_closed_form(self):
        d = np.array([-1.0, -3.0])
        Be = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        om = [0.5, -0.8]
        S = checks.sylvester_kron(np.diag(d), Be, om)
        expected = Be / (1j * np.array(om)[None, :] - d[:, None])
        assert np.allclose(S, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "sizes,q",
        [
            pytest.param((4,), 2, id="4-2"),
            pytest.param((12,), 3, id="12-3"),
            pytest.param((20,), 5, id="20-5"),
            pytest.param((1, 3, 5, 7), 3, id="blocks-1-3-5-7"),
        ],
    )
    def test_diag_matches_kron(self, sizes, q):
        n = sum(sizes)
        rng = np.random.default_rng(100 + n)
        Ae = scipy.linalg.block_diag(
            *(random_complex(rng, (m, m)) - (m + 2) * np.eye(m) for m in sizes)
        )
        Be = random_complex(rng, (n, q))
        om = rng.uniform(-3.0, 3.0, q)
        om += 0.01 * np.arange(q)  # keep frequencies distinct
        Ae, Be = permute(rng, Ae, Be)
        S1 = linalg.sylvester_diag(Ae, Be, om)
        S2 = checks.sylvester_kron(Ae, Be, om)
        assert np.abs(S1 - S2).max() < 1e-10 * max(1.0, np.abs(S1).max())

    def test_resonance_raises(self):
        Ae = np.array([[1j]])
        with pytest.raises(linalg.ResonanceError):
            linalg.sylvester_diag(Ae, np.array([[1.0]]), [1.0])
        # i*omega_1 = 2i is an eigenvalue of the 2x2 block only
        rng = np.random.default_rng(12)
        blocks = scipy.linalg.block_diag(
            random_complex(rng, (3, 3)) - 5.0 * np.eye(3), np.array([[2j, 1.0], [0.0, -1.0]])
        )
        Ae, Be = permute(rng, blocks, random_complex(rng, (5, 2)))
        with pytest.raises(linalg.ResonanceError) as info:
            linalg.sylvester_diag(Ae, Be, [0.5, 2.0])
        assert info.value.omega == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.sylvester_diag(np.eye(3), np.eye(3), [0.1, 0.2])


class TestOperatorNorm:
    """The largest singular value s[0] of ``linalg.svd`` and its input
    direction vh[0]^*, the maximizer of ||A v|| over unit vectors v."""

    def test_diagonal(self):
        _, s, vh = linalg.svd(np.diag([3.0, 1.0]))
        assert s[0] == pytest.approx(3.0, abs=1e-12)
        assert abs(abs(vh[0].conj()[0]) - 1.0) < 1e-12

    def test_column_vector(self):
        col = np.array([[1.0], [2.0], [-2.0]])
        _, s, _ = linalg.svd(col)
        assert s[0] == pytest.approx(3.0, abs=1e-12)

    def test_maximizer(self):
        rng = np.random.default_rng(7)
        A = random_complex(rng, (6, 4))
        _, s, vh = linalg.svd(A)
        vmax = vh[0].conj()
        assert abs(np.linalg.norm(vmax) - 1.0) < 1e-12
        assert abs(np.linalg.norm(A @ vmax) - s[0]) < 1e-10


class TestDecompositions:
    def test_svd_contract(self):
        rng = np.random.default_rng(8)
        A = random_complex(rng, (7, 5))
        u, s, vh = linalg.svd(A)
        assert np.all(np.diff(s) <= 0)
        rec = u @ (s[:, None] * vh)
        assert np.linalg.norm(rec - A) < 1e-10 * s[0]

    def test_match_spectra_permutation_invariant(self):
        rng = np.random.default_rng(9)
        vals = random_complex(rng, 15)
        shuffled = vals[rng.permutation(15)]
        assert checks.match_spectra(vals, shuffled) < 1e-15

    def test_match_spectra_size_mismatch(self):
        with pytest.raises(ValueError):
            checks.match_spectra([1.0], [1.0, 2.0])

    def test_match_spectra_is_the_bottleneck_distance(self):
        # multisets of size 1-6 drawn from a few values, so repeats are common:
        # the least largest distance over all pairings, at most the largest
        # distance of the Hungarian (least-sum) pairing and at least every
        # eigenvalue's distance to the other multiset
        rng = np.random.default_rng(38)
        for _ in range(300):
            n = rng.integers(1, 7)
            pool = rng.integers(-2, 3, 4) + 1j * rng.integers(-2, 3, 4)
            a, b = rng.choice(pool, n) + 0.5 * rng.integers(0, 2, n), rng.choice(pool, n)
            cost = np.abs(a[:, None] - b[None, :])
            dist = checks.match_spectra(a, b)
            assert dist == min(cost[range(n), p].max() for p in itertools.permutations(range(n)))
            rows, cols = scipy.optimize.linear_sum_assignment(cost)
            assert dist <= cost[rows, cols].max()
            assert dist >= max(cost.min(axis=0).max(), cost.min(axis=1).max())

    def test_is_normal(self):
        assert linalg.is_normal(np.diag([1.0, 2.0j]))
        assert not linalg.is_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))
