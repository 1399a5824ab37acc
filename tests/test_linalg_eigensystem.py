"""Tests for top-q eigensystem solvers."""

import importlib.util

import numpy as np
import pytest
import scipy.linalg

from repro.backend import to_numpy, use_backend
from repro.core.eigenpro2 import select_parameters
from repro.data import DATASETS, get_dataset
from repro.device import titan_xp
from repro.exceptions import ConfigurationError
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.linalg import eigensystem, randomized_top_eigensystem, top_eigensystem

HAS_TORCH = importlib.util.find_spec("torch") is not None

#: The mixed path runs through ``ArrayBackend`` ops only, so it is checked
#: on every installed backend (torch cases skip when torch is absent).
BACKENDS = [
    "numpy",
    pytest.param(
        "torch",
        marks=pytest.mark.skipif(not HAS_TORCH, reason="torch not installed"),
    ),
]


def _psd_matrix(rng, n=40, decay=2.0):
    """Random PSD matrix with power-law spectrum."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.arange(1, n + 1, dtype=float) ** (-decay)
    return (q * vals) @ q.T, vals, q


class TestDense:
    def test_matches_numpy_eigh(self, rng):
        a, vals, _ = _psd_matrix(rng)
        got_vals, got_vecs = top_eigensystem(a, 5, method="dense")
        np.testing.assert_allclose(got_vals, vals[:5], atol=1e-10)
        for i in range(5):
            resid = a @ got_vecs[:, i] - got_vals[i] * got_vecs[:, i]
            assert np.linalg.norm(resid) < 1e-9

    def test_descending_order(self, rng):
        a, _, _ = _psd_matrix(rng)
        vals, _ = top_eigensystem(a, 8, method="dense")
        assert (np.diff(vals) <= 1e-12).all()

    def test_orthonormal_vectors(self, rng):
        a, _, _ = _psd_matrix(rng)
        _, vecs = top_eigensystem(a, 6, method="dense")
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-9)

    def test_full_q_allowed(self, rng):
        a, vals, _ = _psd_matrix(rng, n=10)
        got, _ = top_eigensystem(a, 10, method="dense")
        np.testing.assert_allclose(got, vals, atol=1e-10)

    @pytest.mark.parametrize("q", [0, -1, 41])
    def test_q_out_of_range(self, rng, q):
        a, _, _ = _psd_matrix(rng)
        with pytest.raises(ConfigurationError):
            top_eigensystem(a, q)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ConfigurationError):
            top_eigensystem(rng.standard_normal((4, 5)), 2)

    def test_unknown_method(self, rng):
        a, _, _ = _psd_matrix(rng)
        with pytest.raises(ConfigurationError):
            top_eigensystem(a, 2, method="magic")


class TestRandomized:
    def test_close_to_dense_with_decay(self):
        # Pinned generator (not the session ``rng`` fixture): the sketch
        # accuracy of the randomized solver depends on the drawn matrix,
        # and this test was order-dependent on the shared fixture state.
        a, vals, _ = _psd_matrix(np.random.default_rng(1234), n=60, decay=2.5)
        got_vals, got_vecs = randomized_top_eigensystem(a, 5, seed=1)
        np.testing.assert_allclose(got_vals, vals[:5], rtol=1e-6)
        # Eigenvector quality via the residual (sign-agnostic).
        for i in range(5):
            resid = a @ got_vecs[:, i] - got_vals[i] * got_vecs[:, i]
            assert np.linalg.norm(resid) < 1e-5

    def test_kernel_matrix_spectrum(self, rng):
        """On a real kernel matrix randomized and dense agree to high
        precision — kernel spectra decay fast."""
        x = rng.standard_normal((80, 5))
        kmat = GaussianKernel(bandwidth=2.0)(x, x)
        dense_vals, _ = top_eigensystem(kmat, 6, method="dense")
        rand_vals, _ = randomized_top_eigensystem(
            kmat, 6, n_power_iter=5, seed=0
        )
        np.testing.assert_allclose(rand_vals, dense_vals, rtol=1e-6)

    def test_deterministic_given_seed(self, rng):
        a, _, _ = _psd_matrix(rng)
        v1, _ = randomized_top_eigensystem(a, 4, seed=42)
        v2, _ = randomized_top_eigensystem(a, 4, seed=42)
        np.testing.assert_array_equal(v1, v2)

    def test_auto_dispatch_small_uses_dense(self, rng):
        a, vals, _ = _psd_matrix(rng, n=30)
        got, _ = top_eigensystem(a, 3, method="auto")
        np.testing.assert_allclose(got, vals[:3], atol=1e-10)


@pytest.fixture
def mixed_from_side_one(monkeypatch):
    """Let ``"auto"`` take the mixed path at every float64 matrix side."""
    monkeypatch.setattr(eigensystem, "_MIXED_MIN_SIDE", 1)


def _auto_solve(a, q, backend):
    """``method="auto"`` under ``backend``; NumPy results plus the info."""
    info = {}
    with use_backend(backend):
        vals, vecs = top_eigensystem(a, q, info=info)
    return vals, to_numpy(vecs), info


class TestDenseUnchanged:
    def test_bitwise_equal_to_scipy_subset(self, rng):
        x = rng.standard_normal((90, 4))
        a = GaussianKernel(bandwidth=2.0)(x, x)
        s, q = a.shape[0], 12
        ref_vals, ref_vecs = scipy.linalg.eigh(
            (a + a.T) * 0.5, subset_by_index=(s - q, s - 1)
        )
        vals, vecs = top_eigensystem(a, q, method="dense")
        np.testing.assert_array_equal(vals, ref_vals[::-1])
        np.testing.assert_array_equal(vecs, ref_vecs[:, ::-1])

    def test_op_count_is_cubic(self, rng):
        a, _, _ = _psd_matrix(rng, n=50)
        with meter_scope() as meter:
            top_eigensystem(a, 7, method="dense")
        assert meter.counts["eig"].ops == 50**3


@pytest.mark.usefixtures("mixed_from_side_one")
class TestMixed:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_to_dense_on_kernel_block(self, rng, backend):
        x = rng.standard_normal((200, 6))
        a = LaplacianKernel(bandwidth=3.0)(x, x)
        q = 40
        dense_vals, _ = top_eigensystem(a, q + 1, method="dense")
        vals, vecs, info = _auto_solve(a, q, backend)
        assert info["solver"] == "mixed"
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(q), atol=1e-12)
        r = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert info["max_residual"] == pytest.approx(np.max(r / vals), rel=1e-6)
        assert info["max_residual"] <= eigensystem._MIXED_RESIDUAL_BOUND
        # Ritz values of a symmetric matrix: |theta_i - lambda_i| is at most
        # ||r_i|| (gap-free) and at most ||r_i||^2 / gap_i, gap_i being the
        # distance from theta_i to the neighbouring eigenvalues; plus the
        # dense solve's own backward error, ~ s * eps64 * lambda_1.
        gap = np.minimum(
            np.abs(vals - np.r_[np.inf, dense_vals[: q - 1]]),
            np.abs(vals - dense_vals[1 : q + 1]),
        )
        bound = np.minimum(r, r**2 / gap) + 200 * np.finfo(float).eps * vals[0]
        assert np.all(np.abs(vals - dense_vals[:q]) <= bound)

    def test_op_count_from_shapes(self, rng):
        a, _, _ = _psd_matrix(rng, n=50, decay=1.0)
        s, q = 50, 7
        k = q + eigensystem._GUARD_BAND
        with meter_scope() as meter:
            _, _, info = _auto_solve(a, q, "numpy")
        assert info["solver"] == "mixed"
        # float32 subset solve s^3, K Q s^2 k (k = q + band pairs), Q^T Q
        # and Q^T K Q 2 s k^2, Q W and K Q W 2 s k q, the k x k problem k^3.
        assert meter.counts["eig"].ops == (
            s**3 + s * s * k + 2 * s * k * k + 2 * s * k * q + k**3
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_falls_back_below_float32_resolution(self, backend):
        """A tail below float32 resolution (lambda_q / lambda_1 < 1e-7)
        fails the residual guard; the result is the dense solve's."""
        a, vals, _ = _psd_matrix(np.random.default_rng(5), n=60, decay=6.0)
        q = 30
        assert vals[q - 1] / vals[0] < 1e-7
        got_vals, got_vecs, info = _auto_solve(a, q, backend)
        assert info["solver"] == "mixed→dense"
        assert info["max_residual"] > eigensystem._MIXED_RESIDUAL_BOUND
        with use_backend(backend):
            ref_vals, ref_vecs = top_eigensystem(a, q, method="dense")
        np.testing.assert_array_equal(got_vals, ref_vals)
        np.testing.assert_array_equal(got_vecs, to_numpy(ref_vecs))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cluster_at_cut_within_backward_error(self, backend):
        """Eigenvalues q .. q + band equal to 1e-9 relative: float32 cannot
        tell which of them are the top q, yet every Ritz value stays within
        the float32 solve's backward error, of order s * eps32 * lambda_1,
        of the true eigenvalue, and no fallback runs."""
        rng = np.random.default_rng(6)
        n, q = 60, 20
        vals = np.linspace(1.0, 0.5, n)
        vals[q - 1 : q + eigensystem._GUARD_BAND + 2] = vals[q - 1] * (
            1 - 1e-9 * np.arange(eigensystem._GUARD_BAND + 3)
        )
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (basis * vals) @ basis.T
        got_vals, _, info = _auto_solve(a, q, backend)
        assert info["solver"] == "mixed"
        eps32 = np.finfo(np.float32).eps
        assert np.all(np.abs(got_vals - vals[:q]) <= n * eps32 * vals[0])

    def test_leaves_input_untouched(self, rng):
        a, _, _ = _psd_matrix(rng, n=30)
        before = a.copy()
        _auto_solve(a, 5, "numpy")
        np.testing.assert_array_equal(a, before)


class TestAutoDispatch:
    """Which solver ``"auto"`` runs, observed through spies; the
    stride-0 matrices below are never solved."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = []

        def solver(name):
            def spy(a, q, *args, **kwargs):
                calls.append(name)
                return np.ones(q), np.zeros((a.shape[0], q))

            return spy

        monkeypatch.setattr(
            eigensystem, "_mixed_top_eigensystem", solver("mixed")
        )
        monkeypatch.setattr(
            eigensystem, "_dense_top_eigensystem", solver("dense")
        )
        monkeypatch.setattr(
            eigensystem, "randomized_top_eigensystem", solver("randomized")
        )
        return calls

    def test_large_float64_goes_mixed_not_randomized(self, spies):
        # s > 4096 with q < s / 4 went to the randomized solver, whose
        # trailing eigenvalues were off by 26% on the mnist analog.
        a = np.broadcast_to(np.float64(1.0), (5000, 5000))
        info = {}
        top_eigensystem(a, 300, info=info)
        assert spies == ["mixed"]
        assert info["solver"] == "mixed"

    @pytest.mark.parametrize(
        "side, dtype, expected",
        [
            (1023, np.float64, "dense"),
            (1024, np.float64, "mixed"),
            (2000, np.float32, "dense"),
        ],
    )
    def test_cut_over(self, spies, side, dtype, expected):
        a = np.broadcast_to(dtype(1.0), (side, side))
        top_eigensystem(a, 10)
        assert spies == [expected]

    def test_randomized_by_name(self, spies):
        top_eigensystem(np.broadcast_to(1.0, (50, 50)), 5, method="randomized")
        assert spies == ["randomized"]


def _param_tolerances(dense, mixed):
    """Derived bounds on ``|dense - mixed|`` for (lambda_q, beta(K_G), eta)
    of two :func:`select_parameters` runs differing only in the solver.

    With ``R = K V - V Theta`` the residuals of a solve (``K V`` is the
    stored ``point_projections``; ``V^T R = 0`` after Rayleigh–Ritz),
    ``K + E`` with ``E = -(R V^T + V R^T)``, ``||E||_F = sqrt(2) ||R||_F``,
    has ``V`` as an exact invariant subspace.  The deflated diagonal
    ``k_G(x, x) = k(x, x) - x^T h(K) x`` with ``h(l) = max(l - sigma_q, 0)``
    then moves by at most ``||h(K + E) - h(K)||_F <= ||E||_F`` (Lipschitz
    functions of symmetric matrices are Frobenius-Lipschitz), plus
    ``|Delta sigma_q|`` from the shift, plus ``2 ||R||_F +
    sum ||r_j||^2 / theta_j`` because the projections are ``K V = V Theta
    + R`` rather than ``V Theta``.  Both solves carry such residuals.
    """
    (p_d, pre_d, ext_d), (p_m, pre_m, ext_m) = dense, mixed
    s, q_used = ext_d.s, p_d.q_adjusted

    def residuals(ext):
        proj, vecs = to_numpy(ext.point_projections), to_numpy(ext.eigvecs)
        r = np.linalg.norm(proj - vecs * ext.eigvals, axis=0)
        return r, np.linalg.norm(r), np.sum(r**2 / ext.eigvals)

    r_m, fro_m, quad_m = residuals(ext_m)
    _, fro_d, quad_d = residuals(ext_d)
    # sigma_q error: min(||r||, ||r||^2 / gap) for the mixed pair (the gap
    # from the dense neighbours; the last held pair has no known lower
    # neighbour and keeps the gap-free bound), plus the dense solve's
    # backward error s * eps64 * sigma_1.
    sig_d, i = ext_d.eigvals, q_used - 1
    lower = sig_d[i + 1] if i + 1 < sig_d.size else -np.inf
    gap = min(
        abs(ext_m.eigvals[i] - (sig_d[i - 1] if i else np.inf)),
        abs(ext_m.eigvals[i] - lower),
    )
    d_sigma = min(r_m[i], r_m[i] ** 2 / gap) + s * np.finfo(float).eps * sig_d[0]
    tol_lambda = d_sigma / s
    tol_beta = (
        (np.sqrt(2.0) + 2.0) * (fro_m + fro_d) + quad_m + quad_d + d_sigma
    )
    # eta = m / (beta + (m - 1) lambda_q): perturb the denominator.
    m = p_d.batch_size
    den = p_d.beta_kg + (m - 1) * p_d.lambda_q
    shift = tol_beta + (m - 1) * tol_lambda
    tol_eta = p_d.eta * shift / (den - shift)
    return tol_lambda, tol_beta, tol_eta


class TestMixedSetupAccuracy:
    """Parameter selection on every registered analog sees the mixed
    solve exactly as the dense one, at the smallest side ``auto`` sends
    to the mixed path."""

    S, Q = eigensystem._MIXED_MIN_SIDE, 300

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "kernel",
        [LaplacianKernel(bandwidth=10.0), GaussianKernel(bandwidth=5.0)],
        ids=["laplacian", "gaussian"],
    )
    @pytest.mark.parametrize("analog", sorted(DATASETS))
    def test_select_parameters_match_dense(
        self, monkeypatch, analog, kernel, backend
    ):
        x = get_dataset(analog, n_train=self.S, n_test=1, seed=0).x_train

        def select():
            with use_backend(backend):
                return select_parameters(
                    kernel, x, 10, titan_xp(), s=self.S, q_max=self.Q, seed=0
                )

        solvers = []
        real = eigensystem._mixed_top_eigensystem

        def recording(a, q, info):
            out = real(a, q, info)
            solvers.append(info["solver"])
            return out

        monkeypatch.setattr(eigensystem, "_mixed_top_eigensystem", recording)
        mixed = select()
        monkeypatch.setattr(eigensystem, "_MIXED_MIN_SIDE", self.S + 1)
        dense = select()

        p_d, p_m = dense[0], mixed[0]
        # No cell falls back, the near-identity block (Gaussian bw 5 on
        # timit: the top 300 eigenvalues lie within 2e-3 of 1) included.
        assert solvers == ["mixed"]
        assert (p_m.q, p_m.q_adjusted, p_m.batch_size) == (
            p_d.q,
            p_d.q_adjusted,
            p_d.batch_size,
        )
        tol_lambda, tol_beta, tol_eta = _param_tolerances(dense, mixed)
        assert abs(p_m.lambda_q - p_d.lambda_q) <= tol_lambda
        assert abs(p_m.beta_kg - p_d.beta_kg) <= tol_beta
        assert abs(p_m.eta - p_d.eta) <= tol_eta
