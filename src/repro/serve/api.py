"""The serving request/response vocabulary.

:class:`PredictRequest` and :class:`PredictResponse` are the typed
surface every serving entry point speaks — the in-process
:class:`~repro.serve.ModelServer`, the HTTP adapter
(:mod:`repro.serve.http`) and the client layer
(:mod:`repro.serve.client`).  A request carries the rows to score plus
its *quality-of-service envelope* (priority, deadline, correlation id,
free-form tags); a response carries the predicted values plus the
serving provenance a production caller wants next to them: the serving
run id, where the request's latency went (queue vs batch), and whether
the engine had to retry the tick.

Raw arrays remain first-class: :meth:`ModelServer.submit
<repro.serve.ModelServer.submit>` wraps a bare ``(b, d)`` array in a
default-QoS :class:`PredictRequest` internally and keeps its historical
array-out contract, while :meth:`ModelServer.submit_request
<repro.serve.ModelServer.submit_request>` resolves to a full
:class:`PredictResponse`.

A request that misses its deadline while queued is *shed*: its future
fails with :class:`~repro.exceptions.DeadlineExceeded` before any shard
work runs (see the scheduling notes in :mod:`repro.serve.server`), so a
:class:`PredictResponse` is only ever produced for served requests —
``shed`` exists on the response for adapters that serialize failures
into the same wire schema (the HTTP adapter's error bodies).

On the wire a row array travels in one of two JSON forms: a nested
list of numbers, or *packed* by :func:`pack_rows` as ``{"shape": [b,
d], "f8": "<base64>"}`` — the C-order little-endian float64 bytes.
Both carry the same float64 bits; packing skips the per-float text
conversion, which dominates the cost of a JSON body of many rows.
"""

from __future__ import annotations

import base64
import binascii
import math
import uuid
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "PredictRequest",
    "PredictResponse",
    "pack_rows",
    "unpack_rows",
]

_F8 = np.dtype("<f8")


def pack_rows(rows: Any) -> dict[str, Any]:
    """The packed JSON form of a float64 array of at most 2 dimensions
    (rows ``(b, d)`` or ``(d,)``; a single-output model answers a single
    sample with a 0-d value)."""
    rows = np.asarray(rows, dtype=_F8)
    return {
        "shape": list(rows.shape),
        "f8": base64.b64encode(rows.tobytes()).decode("ascii"),
    }


def unpack_rows(packed: Any) -> np.ndarray:
    """Inverse of :func:`pack_rows`; :class:`ConfigurationError` on a
    malformed packed object.  A 0-d shape unpacks too (it is a valid
    answer); as a request it fails the engine's ``(b, d)``/``(d,)``
    check like a bare JSON number does."""
    if not isinstance(packed, dict) or set(packed) != {"shape", "f8"}:
        raise ConfigurationError(
            'packed rows must be an object with exactly the keys "shape" '
            'and "f8"'
        )
    shape = packed["shape"]
    if (
        not isinstance(shape, list)
        or len(shape) > 2
        or not all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ConfigurationError(
            "packed shape must be at most 2 non-negative integers, got "
            f"{shape!r}"
        )
    if not isinstance(packed["f8"], str):
        raise ConfigurationError("packed f8 must be a base64 string")
    try:
        raw = base64.b64decode(packed["f8"], validate=True)
    except binascii.Error as exc:
        raise ConfigurationError(
            f"packed f8 is not valid base64: {exc}"
        ) from exc
    # Python ints: a product of hostile shape entries must not wrap.
    if len(raw) != 8 * math.prod(shape):
        raise ConfigurationError(
            f"packed f8 holds {len(raw)} bytes, shape {shape} needs "
            f"{8 * math.prod(shape)}"
        )
    return np.frombuffer(raw, dtype=_F8).astype(np.float64).reshape(shape)


def _new_request_id() -> str:
    return f"r-{uuid.uuid4().hex[:12]}"


@dataclass(frozen=True)
class PredictRequest:
    """One typed prediction request.

    Attributes
    ----------
    rows:
        The samples to score: ``(b, d)`` for any ``b >= 0``, or a single
        sample ``(d,)`` (the response's ``values`` is then its one
        result row).  Anything array-like the backends accept.
    priority:
        Cohort-formation rank; *higher* is served first.  Requests of
        equal priority keep FIFO order (see
        :mod:`repro.serve.server`).  Default ``0``.
    deadline_s:
        Seconds from submission after which the request is useless to
        its caller.  Once expired, the dispatcher *sheds* the request —
        fails its future with :class:`~repro.exceptions.DeadlineExceeded`
        at cohort formation, consuming no tick.  ``None`` (default)
        never sheds.  Must be ``> 0`` when given: a non-positive
        deadline is a request that was dead on arrival, which is a
        caller bug, not load.
    request_id:
        Correlation id echoed on the response (and in shed errors).
        Auto-generated when omitted.
    tags:
        Free-form caller metadata (model variant, tenant, experiment
        arm, ...).  Opaque to the engine; carried for exporters and
        adapters.
    """

    rows: Any
    priority: int = 0
    deadline_s: float | None = None
    request_id: str = field(default_factory=_new_request_id)
    tags: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.deadline_s is not None and not float(self.deadline_s) > 0:
            raise ConfigurationError(
                f"deadline_s must be > 0 seconds (or None), got "
                f"{self.deadline_s!r}"
            )
        if int(self.priority) != self.priority:
            raise ConfigurationError(
                f"priority must be an integer, got {self.priority!r}"
            )
        if not isinstance(self.request_id, str) or not self.request_id:
            raise ConfigurationError(
                f"request_id must be a non-empty string, got "
                f"{self.request_id!r}"
            )


@dataclass(frozen=True)
class PredictResponse:
    """One served prediction, with its latency provenance.

    Attributes
    ----------
    values:
        The predicted rows — bit-identical to a solo
        :func:`~repro.shard.sharded_predict` on the same group (``(b,
        l)``; ``(l,)`` for a single-sample ``(d,)`` request).
    run_id:
        The serving session's run id (correlates with the server's
        :class:`~repro.observe.MetricsRegistry` snapshots and logs).
    request_id:
        Echo of the request's correlation id.
    queue_s:
        Seconds the request waited before its dispatcher tick fired.
    batch_s:
        Seconds from tick dispatch to this request's rows being
        scattered back (shared tick compute + per-request scatter).
    shed:
        Always ``False`` on responses the engine produces (shed
        requests fail with
        :class:`~repro.exceptions.DeadlineExceeded` instead); present
        so adapters can serialize served and shed outcomes into one
        wire schema.
    retries:
        Engine retries the carrying tick needed before succeeding
        (``0`` on the happy path).
    """

    values: np.ndarray
    run_id: str
    request_id: str
    queue_s: float
    batch_s: float
    shed: bool = False
    retries: int = 0

    def as_dict(self, *, packed: bool = False) -> dict[str, Any]:
        """JSON-ready form: ``values`` as nested lists, or as
        :func:`pack_rows` output when ``packed``.  Either way the floats
        survive the round trip bitwise (packed carries the bytes;
        :func:`json.dumps` emits shortest round-trip reprs)."""
        values = np.asarray(self.values)
        return {
            "values": pack_rows(values) if packed else values.tolist(),
            "run_id": self.run_id,
            "request_id": self.request_id,
            "queue_s": self.queue_s,
            "batch_s": self.batch_s,
            "shed": self.shed,
            "retries": self.retries,
        }
