"""The shard group: one data-parallel engine over a pluggable transport.

A :class:`ShardGroup` drives ``g`` shard workers as one engine and plays
the role of the cluster in :mod:`repro.device.cluster`'s data-parallel
model: each collective step maps a task over the shards and the caller
combines the per-shard partials with
:func:`~repro.shard.transport.allreduce_sum`.  *Where* the workers run
is the group's :class:`~repro.shard.transport.ShardTransport` —
in-process threads (default), worker processes over shared memory, or
``torch.distributed`` ranks — selected by ``ShardGroup.build(...,
transport=<registered name>)`` through the transport registry
(:func:`repro.shard.transport.available_transports`).

Accounting invariants (pinned by ``tests/test_shard_parity.py`` and the
cross-transport conformance suite
``tests/test_shard_transport_conformance.py``):

- every operation a worker performs is recorded on its private meter
  (workers have no ambient meters), and each submitted task runs under
  the submitter's :class:`~repro.shard.transport.ExecContext` (its
  precision and tracing flag), which captures the task's own op-count
  delta *on the worker*; :meth:`ShardGroup.map` /
  :meth:`~repro.shard.transport.PendingMap.result` relay those deltas to
  the meters active on the *calling* thread — so a metered sharded
  computation reports exactly the op counts of its unsharded
  equivalent, while per-shard totals remain inspectable;
- communication is recorded separately under the ``"allreduce"``
  category (zero for ``g = 1``), mirroring the cluster model's
  separation of compute time from network time;
- each shard has a dedicated FIFO worker, so the per-worker
  :class:`~repro.kernels.ops.BlockWorkspace` high-water mark *is* the
  shard's scratch peak.

Asynchronous collectives
------------------------
:meth:`ShardGroup.map_allreduce_async` submits a fused collective step
without barriering: it returns a
:class:`~repro.shard.transport.PendingReduce` whose ``result()`` is
awaited only when the reduced values are consumed (the serve
dispatcher keeps several ticks in flight this way).  Every worker runs
a single FIFO queue, which makes :meth:`mirror_rows` asynchronous: a
row push queued (thread transport with device copies) or written
directly into shared memory (process transport) after step ``t`` is
applied before step ``t+1``'s contraction by construction, with no
per-update barrier.

Observability
-------------
When a :class:`repro.observe.Tracer` is active on the calling thread
(``with trace_scope(tracer): ...``), every collective a group runs is
bracketed by wall-clock spans recorded by the transport layer:
caller-side ``submit``/``allreduce``/``mirror``/``gather``/
``scatter_state`` spans, plus worker-side spans (``form_block``,
``gemm``, stamped with ``shard=<id>``) that ride the same
:class:`~repro.shard.transport.ExecContext` reply as the op-count
deltas — :meth:`~repro.shard.transport.PendingMap.result` relays both
to the calling thread.  Tracing is opt-in and
ambient: with no active tracer the transports send byte-identical
messages and record nothing, so the conformance suite's RPC and
op-count pins hold unchanged.

Serving
-------
A fitted group is also a serving session: its centers/weights stay
resident on the shards, so answering a predict request is one fused
``map_allreduce`` away.  :meth:`ShardGroup.serve` wraps the group in a
:class:`repro.serve.ModelServer` — a persistent micro-batching front
end that coalesces concurrent ``predict(x)`` requests into one
dispatcher tick per round-trip and scatters per-request rows back to
waiting futures.  Lifecycle under serving is strict: :meth:`close` is
idempotent (double-close is a no-op) and any submission after close
raises a clean :class:`~repro.exceptions.ShardError` on every
transport — the server relies on this to drain gracefully.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.backend import ArrayBackend, to_numpy
from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel
from repro.shard.plan import ShardPlan
from repro.shard.transport import (
    PendingMap,
    PendingReduce,
    ShardExecutor,
    ShardTransport,
    allreduce_sum,
    resolve_transport,
)

__all__ = [
    "PendingMap",
    "PendingReduce",
    "ShardExecutor",
    "ShardGroup",
    "allreduce_sum",
]


class ShardGroup:
    """A team of shard workers driven as one data-parallel engine.

    Build one with :meth:`build` (which shards the centers/weights for
    you and spins up the chosen transport) and run collective steps with
    :meth:`map`; combine the returned per-shard partials with
    :meth:`allreduce`.  Use as a context manager, or call :meth:`close`
    when done, to join the workers and release transport resources.
    """

    def __init__(
        self,
        transport: ShardTransport,
        kernel: Kernel | None = None,
    ) -> None:
        self.transport = transport
        self.kernel = kernel

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def build(
        cls,
        centers: Any,
        weights: Any | None = None,
        *,
        g: int | None = None,
        backends: str | ArrayBackend | Sequence[str | ArrayBackend] | None = None,
        kernel: Kernel | None = None,
        transport: str | type[ShardTransport] = "thread",
        **transport_options: Any,
    ) -> "ShardGroup":
        """Shard ``centers`` (and optionally ``weights``) across ``g``
        workers of the chosen transport.

        Parameters
        ----------
        g:
            Shard count; defaults to ``len(backends)`` when a backend
            list is given, else 1.
        backends:
            ``None`` (a fresh :class:`~repro.backend.NumpyBackend`
            instance per shard), one spec applied to every shard
            (``"torch:cpu"``), or one spec per shard
            (``["torch:cuda:0", "torch:cuda:1"]``).  The process
            transport accepts NumPy specs only.
        kernel:
            Optional kernel attached to the group, enabling
            :func:`repro.shard.sharded_predict` without re-passing it.
        transport:
            Any name in
            :func:`repro.shard.transport.registered_transports` —
            ``"thread"`` (default), ``"process"``, ``"torchdist"`` — or
            a :class:`~repro.shard.transport.ShardTransport` subclass;
            extra keyword arguments are forwarded to the transport
            constructor (e.g. ``start_method=`` for the process
            transport, ``timeout_s=`` for torchdist).
        """
        centers_np = np.asarray(to_numpy(centers))
        if centers_np.ndim == 1:
            centers_np = centers_np[None, :]
        weights_np = None if weights is None else np.asarray(to_numpy(weights))
        if isinstance(backends, (str, ArrayBackend)) or backends is None:
            g = 1 if g is None else int(g)
            backend_specs: list[Any] = [backends] * g
        else:
            backend_specs = list(backends)
            if g is not None and int(g) != len(backend_specs):
                raise ConfigurationError(
                    f"g={g} conflicts with {len(backend_specs)} backend specs"
                )
            g = len(backend_specs)
        plan = ShardPlan.contiguous(centers_np.shape[0], g)
        transport_cls = resolve_transport(transport)
        engine = transport_cls(
            plan, centers_np, weights_np, backends=backend_specs,
            **transport_options,
        )
        return cls(engine, kernel=kernel)

    @property
    def plan(self) -> ShardPlan:
        return self.transport.plan

    @property
    def g(self) -> int:
        return self.transport.g

    @property
    def executors(self) -> list:
        return self.transport.executors

    def __enter__(self) -> "ShardGroup":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Join every worker and release transport resources.

        Idempotent: a second close is a no-op.  Afterwards any
        submission raises :class:`~repro.exceptions.ShardError` (see
        :meth:`repro.shard.transport.ShardTransport._require_serving`).
        """
        self.transport.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (closing is irreversible)."""
        return self.transport.closed

    # -------------------------------------------------------------- serving
    def serve(self, **server_kwargs: Any) -> Any:
        """Open a :class:`repro.serve.ModelServer` over this (fitted)
        group: a persistent micro-batching predict front end.

        The group is *borrowed*: closing the server drains in-flight
        requests but leaves this group open.  Keyword arguments are
        forwarded to the server (``options=``, ``metrics=``, ...).
        """
        from repro.serve import ModelServer

        return ModelServer(group=self, **server_kwargs)

    def reset_workspaces(self) -> None:
        """Drop pooled scratch buffers on every shard's worker (keeps the
        workers alive)."""
        self.transport.reset_workspaces()

    # ------------------------------------------------------------ execution
    def map(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Run ``fn(worker, *args, **kwargs)`` on every shard in
        parallel; results in shard order.

        Each worker's work is metered on its private meter only; after
        the barrier the per-shard op-count deltas are relayed to the
        meters active on the calling thread, so callers see aggregate
        counts identical to the unsharded computation.  Cross-process
        transports require ``fn`` (and its arguments) to be picklable —
        module-level task functions, not closures.
        """
        return self.transport.map(fn, *args, **kwargs)

    def allreduce(self, partials: Sequence[Any], bk: ArrayBackend | None = None) -> Any:
        """Combine per-shard partials through the transport's collective
        (host-ordered sum; metered under ``"allreduce"``)."""
        return self.transport.allreduce(partials, bk=bk)

    def map_allreduce(
        self, fn: Callable[..., Any], *args: Any,
        bk: ArrayBackend | None = None, **kwargs: Any,
    ) -> tuple[Any, list[Any | None]]:
        """Run ``fn`` on every shard and all-reduce its (first) result in
        one fused step: returns ``(reduced, extras)``.  Transports whose
        collective rides the task channel (torchdist) execute ``fn`` and
        the fabric all-reduce inside a single task per rank — one RPC
        round-trip per step instead of two."""
        return self.transport.map_allreduce(fn, *args, bk=bk, **kwargs)

    def map_allreduce_async(
        self, fn: Callable[..., Any], *args: Any,
        bk: ArrayBackend | None = None, **kwargs: Any,
    ) -> PendingReduce:
        """Non-blocking :meth:`map_allreduce`; await the returned
        :class:`~repro.shard.transport.PendingReduce` where the reduced
        value is consumed."""
        return self.transport.map_allreduce_async(fn, *args, bk=bk, **kwargs)

    # ----------------------------------------------------------- state push
    def broadcast_state(self, **items: Any) -> None:
        """Merge ``items`` into every worker's per-fit ``state`` dict."""
        self.transport.broadcast_state(**items)

    def scatter_state(self, key: str, values: Sequence[Any]) -> None:
        """Set per-fit ``state[key]`` to a different value per shard."""
        self.transport.scatter_state(key, values)

    def scatter_state_items(self, items: Sequence[dict[str, Any]]) -> None:
        """Merge a per-shard dict into each worker's ``state`` in one
        task per worker — the batched (single round-trip) form of
        :meth:`broadcast_state` + :meth:`scatter_state`."""
        self.transport.scatter_state_items(items)

    # ------------------------------------------------------------- liveness
    def alive(self) -> list[bool]:
        """Per-shard liveness flags (never raises); see
        :meth:`repro.shard.transport.ShardTransport.alive`."""
        return self.transport.alive()

    def dead_shards(self) -> list[int]:
        """Shard ids whose workers are no longer serving."""
        return self.transport.dead_shards()

    # ----------------------------------------------------------- accounting
    def op_counts(self) -> dict[str, int]:
        """Op counts summed across all shard meters."""
        return self.transport.op_counts()

    def memory_report(self) -> dict[str, Any]:
        """Per-shard and aggregate memory accounting in scalars."""
        return self.transport.memory_report()

    # -------------------------------------------------------------- weights
    @property
    def needs_mirror(self) -> bool:
        """True when weight updates must be mirrored to the shards."""
        return self.transport.needs_mirror

    @property
    def needs_final_sync(self) -> bool:
        """True when restoring a weight snapshot requires a full
        :meth:`set_weights`."""
        return self.transport.needs_final_sync

    def mirror_rows(
        self, global_idx: np.ndarray, rows: np.ndarray
    ) -> PendingMap | None:
        """Push updated weight rows to the shards without barriering (see
        :meth:`repro.shard.transport.ShardTransport.mirror_rows`)."""
        return self.transport.mirror_rows(global_idx, rows)

    def gather_weights(self) -> np.ndarray:
        """Concatenate all shard weight rows back into one host array."""
        return self.transport.gather_weights()

    def set_weights(self, weights: Any) -> None:
        """Scatter a full ``(n, l)`` weight array onto the shards."""
        self.transport.set_weights(np.asarray(to_numpy(weights)))
