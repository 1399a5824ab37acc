"""Parity of the sharded step engine against the serial unsharded trainer.

:class:`~repro.shard.ShardedEigenPro2` runs one fused step per iteration
(form the ``(m, n_i)`` block, contract it, all-reduce); the module and
class names date from when it also had a double-buffered pipelined
engine.  What is pinned here still holds for the one engine: the sharded
fit must reproduce the serial unsharded :class:`~repro.core.eigenpro2.EigenPro2`
run — weights and histories to 1e-6 (relative), and aggregate compute op
counts *exactly*, with communication metered separately under
``"allreduce"`` (absent at ``g = 1``).

Set ``REPRO_SHARD_G`` to restrict the shard counts exercised (same
convention as ``tests/test_shard_parity.py``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.eigenpro2 import EigenPro2
from repro.device.presets import titan_xp
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel
from repro.shard import ShardedEigenPro2

_ENV_G = os.environ.get("REPRO_SHARD_G")
G_VALUES = [int(_ENV_G)] if _ENV_G else [1, 2, 4]

shard_counts = pytest.mark.parametrize("g", G_VALUES)

KW = dict(s=80, batch_size=32, seed=0, damping=0.9)


def _fit(trainer, ds, epochs=2):
    trainer.fit(ds.x_train, ds.y_train, epochs=epochs)
    return trainer


class TestPipelinedShardedEigenPro2:
    @shard_counts
    def test_weights_and_history_match_serial(self, small_dataset, g):
        ds = small_dataset
        with meter_scope() as serial_meter:
            serial = _fit(
                EigenPro2(GaussianKernel(bandwidth=2.5), device=titan_xp(), **KW),
                ds,
            )
        with meter_scope() as shard_meter:
            sharded = ShardedEigenPro2(
                GaussianKernel(bandwidth=2.5),
                n_shards=g,
                device=titan_xp(),
                **KW,
            )
            try:
                _fit(sharded, ds)
                alpha = np.array(sharded._alpha)
                history = sharded.history_.series("train_mse")
            finally:
                sharded.close()
        scale = max(float(np.abs(serial._alpha).max()), 1.0)
        np.testing.assert_allclose(alpha, serial._alpha, atol=1e-6 * scale, rtol=0)
        np.testing.assert_allclose(
            history, serial.history_.series("train_mse"), rtol=1e-6
        )
        # Aggregate compute op counts are identical; the cross-shard
        # reduction is metered on its own and is zero at g = 1.
        shard_ops = shard_meter.as_dict()
        allreduce = shard_ops.pop("allreduce", 0)
        assert shard_ops == serial_meter.as_dict()
        assert (allreduce > 0) == (g > 1)

    @shard_counts
    def test_pipelined_matches_unsharded_serial(self, small_dataset, g):
        """The full cross-check: sharded vs serial unsharded weights."""
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
