"""Parity suite for the pipelined (double-buffered) sharded engine.

The pipeline earns its keep only if it is *invisible* to the numbers:
with ``pipeline=True`` the sharded :class:`~repro.shard.ShardedEigenPro2`
must produce weights, histories and aggregate op counts identical to its
serial run — nothing stale is ever read, because the prefetched block
depends only on data the update never writes.  The assertions below
demand exact equality for op counts/histories and ~1e-14 for weights,
with and without periodic checkpoints.

Also covered: the :class:`~repro.kernels.ops.BlockWorkspace` double-buffer
contract (two rotating buffers per key, never more) and the
``debug_workspace`` assertion that pooled scratch cannot be silently
discarded.

Set ``REPRO_SHARD_G`` to restrict the shard counts exercised (same
convention as ``tests/test_shard_parity.py``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.config import debug_workspace
from repro.core.eigenpro2 import EigenPro2
from repro.device.presets import titan_xp
from repro.exceptions import ConfigurationError
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel
from repro.kernels.ops import BlockWorkspace, block_workspace
from repro.shard import ShardedEigenPro2

_ENV_G = os.environ.get("REPRO_SHARD_G")
G_VALUES = [int(_ENV_G)] if _ENV_G else [1, 2, 4]

shard_counts = pytest.mark.parametrize("g", G_VALUES)

KW = dict(s=80, batch_size=32, seed=0, damping=0.9)


def _fit(trainer, ds, epochs=2):
    trainer.fit(ds.x_train, ds.y_train, epochs=epochs)
    return trainer


class TestPipelinedShardedEigenPro2:
    # The default cadence (25) keeps the bare shard-count id; ``0`` runs
    # the epoch loop with no anchor or periodic checkpoints at all.
    @pytest.mark.parametrize(
        "g, checkpoint_every",
        [pytest.param(g, 25, id=str(g)) for g in G_VALUES]
        + [pytest.param(g, 0, id=f"{g}-no-checkpoint") for g in G_VALUES],
    )
    def test_weights_and_history_match_serial(
        self, small_dataset, g, checkpoint_every
    ):
        ds = small_dataset
        with meter_scope() as serial_meter:
            serial = ShardedEigenPro2(
                GaussianKernel(bandwidth=2.5),
                n_shards=g,
                device=titan_xp(),
                checkpoint_every=checkpoint_every,
                pipeline=False,
                **KW,
            )
            _fit(serial, ds)
            serial.close()
        with meter_scope() as pipe_meter:
            pipelined = ShardedEigenPro2(
                GaussianKernel(bandwidth=2.5),
                n_shards=g,
                device=titan_xp(),
                checkpoint_every=checkpoint_every,
                pipeline=True,
                **KW,
            )
            _fit(pipelined, ds)
            pipelined.close()
        scale = max(float(np.abs(np.asarray(serial._alpha)).max()), 1.0)
        np.testing.assert_allclose(
            np.asarray(pipelined._alpha),
            np.asarray(serial._alpha),
            atol=1e-14 * scale,
            rtol=0,
        )
        assert pipelined.history_.series("train_mse") == serial.history_.series(
            "train_mse"
        )
        # Aggregate op counts — including the separately-metered
        # "allreduce" communication — are identical.
        assert serial_meter.as_dict() == pipe_meter.as_dict()
        if checkpoint_every == 0:
            assert serial.last_checkpoint_ is None
            assert pipelined.last_checkpoint_ is None

    @shard_counts
    def test_pipelined_matches_unsharded_serial(self, small_dataset, g):
        """The full cross-check: pipelined sharded vs serial unsharded."""
        ds = small_dataset
        ref = _fit(
            EigenPro2(GaussianKernel(bandwidth=2.5), device=titan_xp(), **KW),
            ds,
        )
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=g,
            device=titan_xp(),
            **KW,
        )
        try:
            _fit(trainer, ds)
            scale = max(float(np.abs(np.asarray(ref._alpha)).max()), 1.0)
            np.testing.assert_allclose(
                np.asarray(trainer._alpha),
                np.asarray(ref._alpha),
                atol=1e-6 * scale,
                rtol=0,
            )
        finally:
            trainer.close()

    def test_pipeline_default_on(self):
        trainer = ShardedEigenPro2(GaussianKernel(bandwidth=2.0), n_shards=2)
        assert trainer.pipeline is True
        serial = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.0), n_shards=2, pipeline=False
        )
        assert serial.pipeline is False

    @shard_counts
    def test_shard_workspace_caps_at_two_blocks(self, small_dataset, g):
        """Pipelined shards hold at most two (m, n_i) blocks of scratch."""
        ds = small_dataset
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=g,
            device=titan_xp(),
            pipeline=True,
            **KW,
        )
        try:
            trainer.fit(ds.x_train, ds.y_train, epochs=1)
            group = trainer.shard_group_
            m = trainer.batch_size_
            for ex in group.executors:
                assert 0 < ex.workspace_peak <= 2 * m * ex.n_centers
        finally:
            trainer.close()


class TestWorkspaceDoubleBuffer:
    @pytest.fixture(autouse=True)
    def fresh_workspace(self):
        block_workspace().reset()
        yield
        block_workspace().reset()

    def test_two_slots_two_buffers(self):
        """Alternating slots keeps exactly two resident blocks per key."""
        ws = BlockWorkspace()
        bk = NumpyBackend()
        a0 = ws.get(bk, 8, 16, np.float64, slot=0)
        a1 = ws.get(bk, 8, 16, np.float64, slot=1)
        assert ws.peak_scalars == 2 * 8 * 16
        a0[...] = 1.0
        a1[...] = 2.0
        # Re-requesting a slot recycles that slot's buffer and leaves the
        # other untouched — the double-buffer discipline.
        b0 = ws.get(bk, 8, 16, np.float64, slot=0)
        assert np.shares_memory(b0, a0)
        assert not np.shares_memory(b0, a1)
        assert float(a1.min()) == 2.0
        # Many more alternating requests never grow the pool.
        for t in range(10):
            ws.get(bk, 8, 16, np.float64, slot=t % 2)
        assert ws.peak_scalars == 2 * 8 * 16

    def test_default_slot_single_buffer(self):
        ws = BlockWorkspace()
        bk = NumpyBackend()
        for _ in range(5):
            ws.get(bk, 8, 16, np.float64)
        assert ws.peak_scalars == 8 * 16


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
        pipelined sharded one alike, including a dtype-pinned kernel."""
        from repro.kernels.ops import kernel_matrix, kernel_matvec

        ds = small_dataset
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
                GaussianKernel(bandwidth=2.5), device=titan_xp(), **KW
            )
            trainer.fit(ds.x_train, ds.y_train, epochs=1)
            sharded = ShardedEigenPro2(
                GaussianKernel(bandwidth=2.5),
                n_shards=2,
                device=titan_xp(),
                **KW,
            )
            try:
                sharded.fit(ds.x_train, ds.y_train, epochs=1)
            finally:
                sharded.close()
