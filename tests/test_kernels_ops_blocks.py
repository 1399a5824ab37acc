"""Edge-case regression tests for the blocked-operation layer.

Covers :func:`repro.kernels.ops.row_block_sizes` corner cases and the
memory contract of :func:`predict_in_blocks`: streamed temporaries must
respect the scalar budget (:data:`~repro.config.DEFAULT_BLOCK_SCALARS` by
default), which the shared :class:`~repro.kernels.ops.BlockWorkspace`
makes directly observable via its per-thread high-water mark.  Also
covered: the ``debug_workspace`` assertion that pooled scratch cannot be
silently discarded, on the streaming primitives and both trainers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.config import DEFAULT_BLOCK_SCALARS, debug_workspace
from repro.core.eigenpro2 import EigenPro2
from repro.device.presets import titan_xp
from repro.exceptions import ConfigurationError
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.kernels.ops import (
    BlockWorkspace,
    block_workspace,
    kernel_matrix,
    kernel_matvec,
    predict_in_blocks,
    row_block_sizes,
)
from repro.shard import ShardedEigenPro2


class TestRowBlockSizesEdges:
    def test_zero_rows_empty(self):
        assert row_block_sizes(0, 10**9, max_scalars=1) == []

    def test_zero_rows_zero_cols(self):
        assert row_block_sizes(0, 0) == []

    def test_zero_cols_counts_as_width_one(self):
        # Degenerate zero-width blocks are scheduled as if one scalar per
        # row, so the budget still bounds block height.
        sizes = row_block_sizes(7, 0, max_scalars=5)
        assert sum(sizes) == 7
        assert max(sizes) <= 5

    def test_pathological_wide_row(self):
        """One row wider than the whole budget still gets scheduled —
        one row at a time, the documented over-budget escape hatch."""
        sizes = row_block_sizes(3, 1_000, max_scalars=10)
        assert sizes == [1, 1, 1]

    def test_budget_exactly_divisible(self):
        """Budget an exact multiple of the width: full blocks, no runt."""
        sizes = row_block_sizes(12, 5, max_scalars=20)  # 4 rows per block
        assert sizes == [4, 4, 4]
        assert all(b * 5 <= 20 for b in sizes)

    def test_budget_equals_one_row(self):
        assert row_block_sizes(4, 6, max_scalars=6) == [1, 1, 1, 1]

    def test_runt_block_when_not_divisible(self):
        sizes = row_block_sizes(10, 3, max_scalars=9)  # 3 rows per block
        assert sizes == [3, 3, 3, 1]

    def test_rejects_negative_cols(self):
        with pytest.raises(ConfigurationError):
            row_block_sizes(5, -2)


class TestWorkspaceBudget:
    @pytest.fixture(autouse=True)
    def fresh_workspace(self):
        block_workspace().reset()
        yield
        block_workspace().reset()

    def test_predict_in_blocks_respects_default_budget(self):
        """Peak temporary allocation stays under DEFAULT_BLOCK_SCALARS."""
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((300, 8))
        w = rng.standard_normal((300, 2))
        x = rng.standard_normal((500, 8))
        predict_in_blocks(GaussianKernel(bandwidth=2.0), centers, w, x)
        assert 0 < block_workspace().peak_scalars <= DEFAULT_BLOCK_SCALARS

    def test_tight_budget_respected(self):
        rng = np.random.default_rng(1)
        centers = rng.standard_normal((40, 4))
        w = rng.standard_normal(40)
        x = rng.standard_normal((100, 4))
        budget = 200  # 5 rows of 40 columns per block
        kernel_matvec(
            GaussianKernel(bandwidth=2.0), x, centers, w, max_scalars=budget
        )
        assert block_workspace().peak_scalars <= budget

    def test_pathological_row_exceeds_by_one_row_only(self):
        """A single row wider than the budget allocates exactly one row."""
        rng = np.random.default_rng(2)
        centers = rng.standard_normal((50, 3))
        w = rng.standard_normal(50)
        x = rng.standard_normal((4, 3))
        kernel_matvec(
            GaussianKernel(bandwidth=2.0), x, centers, w, max_scalars=10
        )
        assert block_workspace().peak_scalars == 50  # one (1, 50) row block

    def test_buffer_reused_across_blocks(self):
        """Streaming many equal blocks must not grow the pool."""
        rng = np.random.default_rng(3)
        centers = rng.standard_normal((64, 4))
        w = rng.standard_normal((64, 1))
        x = rng.standard_normal((1024, 4))
        kernel_matvec(
            GaussianKernel(bandwidth=2.0), x, centers, w, max_scalars=1024
        )
        # 16-row blocks of 64 columns: exactly one 1024-scalar buffer.
        assert block_workspace().peak_scalars == 1024

    def test_repeated_get_keeps_one_buffer(self):
        """Re-requesting a key recycles its single buffer."""
        ws = BlockWorkspace()
        bk = NumpyBackend()
        for _ in range(5):
            ws.get(bk, 8, 16, np.float64)
        assert ws.peak_scalars == 8 * 16

    def test_results_unchanged_by_reuse(self):
        """Workspace recycling must not corrupt later blocks (values are
        contracted before the buffer is reused)."""
        rng = np.random.default_rng(4)
        centers = rng.standard_normal((30, 5))
        w = rng.standard_normal((30, 2))
        x = rng.standard_normal((90, 5))
        k = LaplacianKernel(bandwidth=1.5)
        tiny = kernel_matvec(k, x, centers, w, max_scalars=60)
        full = kernel_matvec(k, x, centers, w, max_scalars=10**9)
        np.testing.assert_allclose(tiny, full, atol=1e-12)

    def test_reset_clears_peak(self):
        rng = np.random.default_rng(5)
        kernel_matvec(
            GaussianKernel(bandwidth=2.0),
            rng.standard_normal((10, 3)),
            rng.standard_normal((10, 3)),
            rng.standard_normal(10),
        )
        assert block_workspace().peak_scalars > 0
        block_workspace().reset()
        assert block_workspace().peak_scalars == 0


class TestWorkspaceDebugFlag:
    def test_discarded_scratch_raises_under_debug(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        kernel = GaussianKernel(bandwidth=1.0)
        bad = np.empty((2, 2))  # wrong shape
        with debug_workspace():
            with pytest.raises(ConfigurationError):
                kernel(x, x, out=bad)
        # With the flag off (forced — CI may export REPRO_DEBUG_WORKSPACE)
        # the historical fall-back-to-allocate holds.
        with debug_workspace(False):
            out = kernel(x, x, out=bad)
        assert out.shape == (4, 4)

    def test_wrong_dtype_raises_under_debug(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        kernel = GaussianKernel(bandwidth=1.0)
        bad = np.empty((4, 4), dtype=np.float32)
        with debug_workspace():
            with pytest.raises(ConfigurationError):
                kernel(x, x, out=bad)

    def test_streaming_paths_clean_under_debug(self, small_dataset):
        """The hot paths request correctly-dtyped scratch up front, so the
        debug assertions never fire on them — the serial trainer and the
        sharded one alike, including a dtype-pinned kernel."""
        ds = small_dataset
        kw = dict(s=80, batch_size=32, seed=0, damping=0.9)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(ds.x_train.shape[0])
        with debug_workspace():
            kernel_matvec(
                GaussianKernel(bandwidth=2.5), ds.x_test, ds.x_train, w
            )
            # float32-pinned kernel against float64 data: kernel_matrix
            # must route blocks through pooled eval-dtype scratch.
            pinned = GaussianKernel(bandwidth=2.5, dtype=np.float32)
            kernel_matrix(pinned, ds.x_test[:16], ds.x_train[:32])
            trainer = EigenPro2(
                GaussianKernel(bandwidth=2.5), device=titan_xp(), **kw
            )
            trainer.fit(ds.x_train, ds.y_train, epochs=1)
            sharded = ShardedEigenPro2(
                GaussianKernel(bandwidth=2.5),
                n_shards=2,
                device=titan_xp(),
                **kw,
            )
            try:
                sharded.fit(ds.x_train, ds.y_train, epochs=1)
            finally:
                sharded.close()
