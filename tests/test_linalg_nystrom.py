"""Tests for the Nyström extension — the core approximation of Section 4."""

import dataclasses
import importlib.util

import numpy as np
import pytest

from repro.backend import get_backend, to_numpy, use_backend
from repro.config import use_precision
from repro.exceptions import ConfigurationError
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.linalg import (
    NystromExtension,
    eigensystem,
    nystrom_extension,
    top_eigensystem,
)
from repro.observe import Tracer, trace_scope


@pytest.fixture(scope="module")
def gauss_data():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 6))
    return GaussianKernel(bandwidth=2.5), x


class TestFactory:
    def test_shapes(self, gauss_data):
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, subsample_size=64, q=10, seed=0)
        assert ext.s == 64
        assert ext.q == 10
        assert ext.points.shape == (64, 6)
        assert ext.eigvals.shape == (10,)
        assert ext.eigvecs.shape == (64, 10)
        assert ext.indices.shape == (64,)

    def test_explicit_indices(self, gauss_data):
        kernel, x = gauss_data
        idx = np.arange(50)
        ext = nystrom_extension(kernel, x, 50, 5, indices=idx)
        np.testing.assert_array_equal(ext.indices, idx)
        np.testing.assert_allclose(ext.points, x[:50])

    def test_duplicate_indices_rejected(self, gauss_data):
        kernel, x = gauss_data
        with pytest.raises(ConfigurationError, match="unique"):
            nystrom_extension(kernel, x, 4, 2, indices=np.array([0, 1, 1, 2]))

    def test_q_must_be_below_s(self, gauss_data):
        kernel, x = gauss_data
        with pytest.raises(ConfigurationError):
            nystrom_extension(kernel, x, 10, 10)

    def test_subsample_size_bounds(self, gauss_data):
        kernel, x = gauss_data
        with pytest.raises(ConfigurationError):
            nystrom_extension(kernel, x, 0, 1)
        with pytest.raises(ConfigurationError):
            nystrom_extension(kernel, x, len(x) + 1, 1)


class TestEigenvalueEstimates:
    def test_operator_eigenvalues_scale(self, gauss_data):
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 100, 5, seed=0)
        np.testing.assert_allclose(
            ext.operator_eigenvalues, ext.eigvals / 100, atol=1e-14
        )

    def test_estimates_converge_with_s(self, gauss_data):
        """lambda_i ≈ sigma_i/s should approach the full-matrix values
        lambda_i(K)/n as s grows — the Nyström consistency property."""
        kernel, x = gauss_data
        n = x.shape[0]
        full_vals, _ = top_eigensystem(kernel(x, x), 4)
        truth = full_vals / n
        errors = []
        for s in (40, 150, n):
            ext = nystrom_extension(
                kernel, x, s, 4, indices=np.arange(s)
            )
            errors.append(np.abs(ext.operator_eigenvalues - truth).max())
        assert errors[-1] < 1e-10  # s = n is exact
        assert errors[1] < errors[0] * 1.5  # roughly improving

    def test_full_subsample_exact(self, gauss_data):
        kernel, x = gauss_data
        n = x.shape[0]
        ext = nystrom_extension(kernel, x, n, 6, indices=np.arange(n))
        full_vals, _ = top_eigensystem(kernel(x, x), 6)
        np.testing.assert_allclose(ext.eigvals, full_vals, atol=1e-10)


class TestEigenfunctions:
    def test_l2_normalization_on_subsample(self, gauss_data):
        """Empirical L2 norm over the subsample of ẽ_i should be ≈ 1:
        (1/s) sum_j ẽ_i(x_rj)^2 = 1."""
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 80, 5, seed=0)
        vals = ext.eigenfunction_values(ext.points)  # (s, q)
        norms = np.mean(vals**2, axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-8)

    def test_values_on_subsample_match_eigvecs(self, gauss_data):
        """On the subsample itself ẽ_i(x_rj) = sqrt(s) * e_i[j]."""
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 60, 4, seed=0)
        vals = ext.eigenfunction_values(ext.points)
        np.testing.assert_allclose(
            vals, np.sqrt(60) * ext.eigvecs, atol=1e-8
        )

    def test_rkhs_coefficients_unit_norm(self, gauss_data):
        """||ê_i||_H^2 = c_i^T K_s c_i must be 1."""
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 70, 5, seed=0)
        coef = ext.rkhs_coefficients()
        k_s = kernel(ext.points, ext.points)
        gram = coef.T @ k_s @ coef
        np.testing.assert_allclose(np.diag(gram), 1.0, rtol=1e-8)

    def test_feature_map_shape(self, gauss_data):
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 30, 3, seed=0)
        assert ext.feature_map(x[:7]).shape == (7, 30)


class TestTruncation:
    def test_truncated_keeps_top_pairs(self, gauss_data):
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 50, 10, seed=0)
        t = ext.truncated(4)
        assert t.q == 4
        np.testing.assert_array_equal(t.eigvals, ext.eigvals[:4])
        np.testing.assert_array_equal(t.eigvecs, ext.eigvecs[:, :4])

    def test_truncated_bounds(self, gauss_data):
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 50, 10, seed=0)
        with pytest.raises(ConfigurationError):
            ext.truncated(0)
        with pytest.raises(ConfigurationError):
            ext.truncated(11)


def _uncached(ext):
    """The same extension without its stored subsample projections."""
    return dataclasses.replace(ext, point_projections=None)


class TestPointProjections:
    """``projections(points)`` returns the ``K_s V`` that
    :func:`nystrom_extension` formed, bitwise equal to evaluating it."""

    BACKENDS = [
        "numpy",
        pytest.param(
            "torch",
            marks=pytest.mark.skipif(
                importlib.util.find_spec("torch") is None,
                reason="torch not installed",
            ),
        ),
    ]

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("precision", ["float64", "float32", "mixed"])
    def test_cached_matches_uncached_bitwise(
        self, gauss_data, backend_name, precision
    ):
        kernel, x = gauss_data
        with use_backend(backend_name), use_precision(precision):
            ext = nystrom_extension(kernel, x, 80, 12, seed=0)
            for q in (12, 7, 2):
                t = ext.truncated(q)
                cached = t.projections(t.points)
                uncached = _uncached(t).projections(t.points)
                bk = get_backend()
                assert bk.dtype_of(cached) == bk.dtype_of(uncached)
                np.testing.assert_array_equal(
                    to_numpy(cached), to_numpy(uncached)
                )

    def test_no_kernel_evaluation_on_points(self, gauss_data):
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 60, 8, seed=0)
        with meter_scope() as meter:
            ext.projections(ext.points)
        assert meter.total("kernel_eval") == 0
        # Equal values that are not the extension's points go the
        # evaluating way.
        with meter_scope() as meter:
            ext.projections(ext.points.copy())
        assert meter.total("kernel_eval") == 60 * 60 * x.shape[1]

    def test_truncation_keeps_projections_only_for_all_pairs(self, gauss_data):
        """A column slice of ``K_s V`` differs in the last bits from
        ``K_s V[:, :q]`` (BLAS tiles the narrower product differently), so
        only ``truncated(Q)`` may keep the stored projections."""
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 50, 10, seed=0)
        assert ext.point_projections.shape == (50, 10)
        assert ext.truncated(10).point_projections is ext.point_projections
        assert ext.truncated(4).point_projections is None

    def test_queried_under_another_precision(self, gauss_data):
        """Built in float64, read in float32: the stored projections come
        back in the dtype the evaluating branch would produce.

        Bound: the stored value is the float64 product rounded once, off
        by at most ``u |P|`` (``u = 2**-24``).  The evaluating branch
        forms ``K_s`` in float32 (each entry within a few ulps, allow 4)
        and sums ``s`` float32 products, off by at most
        ``(s + 4 + 1) u (|K_s| @ |V|)``.  Their difference is within the
        sum, ``(s + 6) u (|K_s| @ |V|)``.
        """
        kernel, x = gauss_data
        s = 40
        ext = nystrom_extension(kernel, x, s, 5, seed=0)
        with use_precision("float32"):
            cached = ext.projections(ext.points)
            uncached = _uncached(ext).projections(ext.points)
        assert cached.dtype == uncached.dtype == np.float32
        u = np.finfo(np.float32).eps / 2
        scale = np.abs(kernel(ext.points, ext.points)) @ np.abs(ext.eigvecs)
        diff = np.abs(cached.astype(np.float64) - uncached)
        assert np.all(diff <= (s + 6) * u * scale)

    def test_rejects_inconsistent_projections(self, gauss_data):
        kernel, x = gauss_data
        ext = nystrom_extension(kernel, x, 20, 4, seed=0)
        with pytest.raises(ConfigurationError, match="point_projections"):
            dataclasses.replace(ext, point_projections=np.zeros((20, 3)))


class TestEigensolveSpan:
    """The ``setup/eigensolve`` span names the solver that ran and, for
    the mixed path, its largest relative residual."""

    @pytest.mark.parametrize("solver", ["dense", "mixed"])
    def test_solver_and_residual_attributes(
        self, gauss_data, monkeypatch, solver
    ):
        kernel, x = gauss_data
        if solver == "mixed":
            # "auto" takes the mixed path from this side up.
            monkeypatch.setattr(eigensystem, "_MIXED_MIN_SIDE", 120)
        tracer = Tracer()
        with trace_scope(tracer):
            ext = nystrom_extension(kernel, x, 120, 10, seed=0)
        (event,) = [e for e in tracer.events if e.name == "setup/eigensolve"]
        assert event.attrs["solver"] == solver
        if solver == "dense":
            assert "max_residual" not in event.attrs
            return
        resid = ext.point_projections - ext.eigvecs * ext.eigvals
        rel = np.linalg.norm(resid, axis=0) / ext.eigvals
        assert event.attrs["max_residual"] == pytest.approx(rel.max(), rel=1e-6)


class TestValidation:
    def test_rejects_ascending_eigvals(self, gauss_data):
        kernel, x = gauss_data
        with pytest.raises(ConfigurationError, match="descending"):
            NystromExtension(
                kernel=kernel,
                points=x[:5],
                eigvals=np.array([1.0, 2.0]),
                eigvecs=np.zeros((5, 2)),
            )

    def test_rejects_inconsistent_shapes(self, gauss_data):
        kernel, x = gauss_data
        with pytest.raises(ConfigurationError):
            NystromExtension(
                kernel=kernel,
                points=x[:5],
                eigvals=np.array([2.0, 1.0]),
                eigvecs=np.zeros((4, 2)),
            )

    def test_laplacian_extension_works(self, rng):
        x = rng.standard_normal((100, 4))
        ext = nystrom_extension(LaplacianKernel(bandwidth=2.0), x, 40, 6, seed=1)
        assert (ext.eigvals >= 0).all()
