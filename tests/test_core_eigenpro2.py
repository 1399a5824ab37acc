"""Tests for the EigenPro 2.0 trainer and its automatic parameter selection."""

import dataclasses
import math

import numpy as np
import pytest

from repro.config import use_precision
from repro.core import eigenpro2
from repro.core.eigenpro2 import (
    EigenPro2,
    default_q_max,
    default_subsample_size,
    select_parameters,
)
from repro.device import DeviceSpec, SimulatedDevice, titan_xp
from repro.exceptions import ConfigurationError
from repro.data import get_dataset
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.observe import Tracer, trace_scope


class TestDefaults:
    def test_subsample_rule_matches_paper(self):
        """Section 5: s = 2e3 for n <= 1e5, s = 1.2e4 beyond."""
        assert default_subsample_size(50_000) == 2000
        assert default_subsample_size(100_000) == 2000
        assert default_subsample_size(100_001) == 12_000
        assert default_subsample_size(500) == 500  # capped at n

    def test_q_max_bounds(self):
        assert default_q_max(2000) == 300
        assert default_q_max(100) == 99
        with pytest.raises(ConfigurationError):
            default_subsample_size(0)
        with pytest.raises(ConfigurationError):
            default_q_max(0)


class TestSelectParameters:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(17)
        return rng.standard_normal((400, 10))

    def test_autoparams_complete(self, data):
        params, precond, ext = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=3, device=titan_xp(), seed=0
        )
        assert params.n == 400 and params.d == 10 and params.l == 3
        assert params.q_adjusted >= params.q
        assert params.m_max >= 1
        assert params.eta > 0
        assert params.beta_k == 1.0
        assert params.m_star_kg > params.m_star_k
        assert params.acceleration > 1

    def test_batch_size_is_m_max(self, data):
        params, _, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=titan_xp(), seed=0
        )
        assert params.batch_size == min(params.m_max, 400)

    def test_small_device_small_batch(self, data):
        """A weaker device must get a smaller m_max and shallower q."""
        weak = SimulatedDevice(
            DeviceSpec(
                name="weak", parallel_capacity=1e5, throughput=1e9,
                memory_scalars=1e9,
            )
        )
        strong = titan_xp()
        p_weak, _, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=weak, seed=0
        )
        p_strong, _, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=strong, seed=0
        )
        assert p_weak.m_max <= p_strong.m_max
        assert p_weak.q <= p_strong.q

    def test_q_override(self, data):
        params, precond, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=titan_xp(),
            q=7, seed=0,
        )
        assert params.q_adjusted == 7
        assert precond is not None and precond.q == 7

    def test_q_zero_disables_preconditioning(self, data):
        params, precond, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=titan_xp(),
            q=0, seed=0,
        )
        assert precond is None
        assert params.lambda_q == params.lambda_1

    def test_eta_about_half_m_relationship(self, data):
        """At the adaptive operating point eta ≈ m/2 for normalized
        kernels (Table 4's pattern), modulo the m <= n clamp and the
        adjusted-q overshoot which only increases eta."""
        params, _, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=titan_xp(), seed=0
        )
        assert params.eta >= 0.4 * params.batch_size

    def test_invalid_l(self, data):
        with pytest.raises(ConfigurationError):
            select_parameters(
                GaussianKernel(bandwidth=2.0), data, l=0, device=titan_xp()
            )


class TestEigenPro2Training:
    def test_fits_and_interpolates(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=10)
        assert model.mse(ds.x_train, ds.y_train) < 0.01
        err = model.classification_error(ds.x_test, ds.labels_test)
        assert err < 0.5

    def test_less_device_time_to_target_than_sgd(self, medium_dataset):
        """The paper's core claim (Figure 2): simulated device time to a
        train-MSE target is far smaller for EigenPro 2.0 than for plain
        SGD at SGD's own optimal batch size — each EigenPro 2.0 iteration
        costs the same device time as a tiny SGD iteration (both below
        the parallel capacity) but makes ~m_max/m* times the progress."""
        from repro.baselines import KernelSGD
        from repro.device import titan_xp

        ds = medium_dataset
        kernel = GaussianKernel(bandwidth=2.5)
        target = 1e-3
        dev2 = titan_xp()
        ep2 = EigenPro2(kernel, device=dev2, seed=0)
        ep2.fit(ds.x_train, ds.y_train, epochs=100, stop_train_mse=target)
        dev1 = titan_xp()
        sgd = KernelSGD(kernel, device=dev1, seed=0)
        sgd.fit(ds.x_train, ds.y_train, epochs=100, stop_train_mse=target)
        assert ep2.history_.final.train_mse < target
        assert sgd.history_.final.train_mse < target
        assert dev2.elapsed < dev1.elapsed / 3

    def test_params_exposed(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(LaplacianKernel(bandwidth=5.0), seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=1)
        assert model.params_ is not None
        row = model.params_.as_row()
        assert row["kernel"] == "laplacian"
        assert "q (adjusted q)" in row

    def test_prepare_without_training(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), seed=0)
        params = model.prepare(ds.x_train, l=ds.l)
        assert model.model_ is None  # nothing trained
        assert params.batch_size >= 1

    def test_device_memory_includes_preconditioner(self, medium_dataset):
        ds = medium_dataset
        dev = titan_xp()
        model = EigenPro2(GaussianKernel(bandwidth=2.5), device=dev, seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=1)
        n, d, l = ds.n_train, ds.d, ds.l
        m = model.batch_size_
        expected = n * (d + l + m) + model.preconditioner_.memory_scalars
        assert dev.memory.peak == pytest.approx(expected)

    def test_correction_ops_recorded(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), seed=0)
        with meter_scope() as meter:
            model.fit(ds.x_train, ds.y_train, epochs=1)
        assert meter.total("precond") > 0
        assert meter.total("kernel_eval") > 0

    def test_explicit_batch_and_step(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(
            GaussianKernel(bandwidth=2.5), batch_size=50, step_size=10.0,
            seed=0,
        )
        model.fit(ds.x_train, ds.y_train, epochs=1)
        assert model.batch_size_ == 50
        assert model.step_size_ == 10.0

    def test_stable_at_analytic_step_size(self, medium_dataset):
        """Full damping (1.0) must not diverge: train MSE stays finite and
        decreases."""
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), damping=1.0, seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=5)
        series = model.history_.series("train_mse")
        assert all(np.isfinite(series))
        assert series[-1] < series[0]

    def test_multilabel_shapes(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=1)
        pred = model.predict(ds.x_test)
        assert pred.shape == (ds.n_test, ds.l)
        labels = model.predict_labels(ds.x_test)
        assert labels.shape == (ds.n_test,)


class TestSetupReuse:
    """Parameter selection forms the ``s x s`` subsample block once and
    reuses its projections ``K_s V`` for the Eq.-7 scan and ``beta(K_G)``,
    without changing a bit of the result."""

    @pytest.fixture(scope="class")
    def mnist(self):
        return get_dataset("mnist", n_train=400, n_test=10, seed=0)

    def test_one_subsample_block(self, mnist):
        """With ``s = n = 400`` and ``d = 784`` the pass evaluates:

        - ``nystrom_extension``: ``K_s``, ``s * s * d`` kernel ops;
        - ``estimate_beta``: nothing (the Laplacian kernel is normalized);
        - ``select_q`` -> ``beta_pq_table``: ``kernel.diag`` (records no
          ops) and the stored projections of the subsample;
        - ``beta_kg`` -> ``modified_diag``: the same, on the preconditioner's
          extension, which keeps the stored projections because the
          selected ``q`` is all ``Q`` extracted pairs.

        Total: exactly ``s * s * d``.  Re-evaluating ``K_s`` for each
        projection would record it three times.
        """
        x = mnist.x_train
        n, d = x.shape
        with meter_scope() as meter:
            params, precond, ext = select_parameters(
                LaplacianKernel(bandwidth=10.0), x, mnist.l, titan_xp(), seed=0
            )
        assert params.s == n
        assert params.q_adjusted == ext.q  # no truncation: both reuses apply
        assert meter.total("kernel_eval") == n * n * d
        assert precond.extension.point_projections is ext.point_projections

    def test_setup_spans(self, mnist):
        tracer = Tracer()
        with trace_scope(tracer):
            select_parameters(
                LaplacianKernel(bandwidth=10.0), mnist.x_train, mnist.l,
                titan_xp(), seed=0,
            )
        counts = tracer.counts()
        assert counts["setup/kernel_ss"] == 1
        assert counts["setup/eigensolve"] == 1
        assert counts["setup/select_q"] == 1
        # beta(K) and beta(K_G).
        assert counts["setup/beta"] == 2

    @pytest.mark.parametrize(
        "q, precision",
        [(None, "float64"), (50, "float64"), (None, "mixed")],
        ids=["auto", "q50", "auto-mixed"],
    )
    def test_cached_and_uncached_fits_bitwise(
        self, mnist, monkeypatch, q, precision
    ):
        """``params_`` and the 2-epoch weights are bitwise equal whether
        or not the extension carries its subsample projections.  ``q=50``
        truncates the extension, so ``beta(K_G)`` evaluates ``K_s`` again
        while the Eq.-7 scan still reuses it."""

        def fit():
            model = EigenPro2(LaplacianKernel(bandwidth=10.0), q=q, seed=0)
            with use_precision(precision):
                model.fit(mnist.x_train, mnist.y_train, epochs=2)
            return model

        cached = fit()
        build = eigenpro2.nystrom_extension
        monkeypatch.setattr(
            eigenpro2,
            "nystrom_extension",
            lambda *a, **kw: dataclasses.replace(
                build(*a, **kw), point_projections=None
            ),
        )
        uncached = fit()
        assert uncached.preconditioner_.extension.point_projections is None
        assert cached.params_ == uncached.params_
        np.testing.assert_array_equal(
            cached.model_.weights, uncached.model_.weights
        )
        assert cached.history_.series("train_mse") == uncached.history_.series(
            "train_mse"
        )
