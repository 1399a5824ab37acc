"""The serving client surface: one interface, two transports.

Examples, benchmarks and downstream callers should be written against
:class:`ServeClient` — the minimal protocol every serving transport
implements — so the same driver runs unchanged against an in-process
engine and a network adapter:

- :class:`LocalClient` wraps a live :class:`~repro.serve.ModelServer`
  (zero copies beyond the engine's own; the reference for latency);
- :class:`HttpClient` speaks JSON to a :class:`~repro.serve.http
  .ServeHTTPServer` over stdlib :mod:`urllib` (no third-party HTTP
  stack), sending rows packed as base64 float64 bytes
  (:func:`~repro.serve.api.pack_rows`) and getting values back packed
  the same way.  It raises the same exception types the engine raises
  locally — :class:`~repro.exceptions.DeadlineExceeded` for shed requests,
  :class:`~repro.exceptions.ShardError` for backpressure/unavailable,
  :class:`~repro.exceptions.ConfigurationError` for malformed input —
  so QoS handling code is transport-agnostic too.

Both speak the typed vocabulary of :mod:`repro.serve.api`:
``predict(x)`` keeps the historical array-out contract,
``predict_request(...)`` returns a full
:class:`~repro.serve.PredictResponse`.  The packed rows carry the
float64 bytes themselves in both directions, so
:meth:`HttpClient.predict` returns bits identical to
:meth:`LocalClient.predict` on the same engine (pinned in
``tests/test_serve_http.py``).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.backend import numeric_rows, to_numpy
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    ShardError,
)
from repro.serve.api import (
    PredictRequest,
    PredictResponse,
    pack_rows,
    unpack_rows,
)

__all__ = ["HttpClient", "LocalClient", "ServeClient"]


@runtime_checkable
class ServeClient(Protocol):
    """What a serving transport owes its callers.

    ``predict`` is array-out (back-compat with every pre-redesign call
    site); ``predict_request`` is the typed path carrying QoS in and
    latency provenance out; ``health`` and ``stats`` expose the
    liveness and metrics surface production tooling scrapes.
    """

    def predict(
        self, x: Any, timeout: float | None = None
    ) -> np.ndarray:  # pragma: no cover - protocol
        ...

    def predict_request(
        self, request: Any, timeout: float | None = None
    ) -> PredictResponse:  # pragma: no cover - protocol
        ...

    def health(self) -> dict:  # pragma: no cover - protocol
        ...

    def stats(self) -> dict:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class LocalClient:
    """:class:`ServeClient` over an in-process
    :class:`~repro.serve.ModelServer` (borrowed: closing the client
    does not close the engine unless ``owns_server=True``)."""

    def __init__(self, server: Any, *, owns_server: bool = False) -> None:
        self.server = server
        self.owns_server = bool(owns_server)

    def predict(self, x: Any, timeout: float | None = None) -> np.ndarray:
        return self.server.predict(x, timeout=timeout)

    def predict_request(
        self, request: Any, timeout: float | None = None
    ) -> PredictResponse:
        return self.server.predict_request(request, timeout=timeout)

    def health(self) -> dict:
        return {
            "status": "closed" if self.server.closed else "ok",
            "run_id": self.server.run_id,
            "transport": self.server.group.transport.name,
            "g": self.server.group.g,
        }

    def stats(self) -> dict:
        return self.server.stats()

    def close(self) -> None:
        if self.owns_server:
            self.server.close()

    def __enter__(self) -> "LocalClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class HttpClient:
    """:class:`ServeClient` over a :class:`~repro.serve.http
    .ServeHTTPServer` base URL (e.g. ``"http://127.0.0.1:8041"``)."""

    def __init__(self, base_url: str, *, timeout_s: float = 60.0) -> None:
        if not str(base_url).startswith(("http://", "https://")):
            raise ConfigurationError(
                f"base_url must be an http(s) URL, got {base_url!r}"
            )
        self.base_url = str(base_url).rstrip("/")
        if not float(timeout_s) > 0:
            raise ConfigurationError(
                f"timeout_s must be > 0, got {timeout_s!r}"
            )
        self.timeout_s = float(timeout_s)

    # ------------------------------------------------------------- plumbing
    def _round_trip(
        self,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        req = urllib.request.Request(
            f"{self.base_url}{path}",
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        timeout = self.timeout_s if timeout is None else float(timeout)
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            # Error statuses still carry a JSON body (the adapter's
            # error schema); surface it instead of the bare HTTPError.
            try:
                payload = json.loads(exc.read())
            except Exception:
                payload = {"error": "http_error", "detail": str(exc)}
            return exc.code, payload

    @staticmethod
    def _raise_for(status: int, payload: dict) -> None:
        detail = payload.get("detail", payload.get("error", "unknown"))
        if status == 400:
            raise ConfigurationError(f"rejected by server: {detail}")
        if status == 504 or payload.get("error") == "deadline_exceeded":
            raise DeadlineExceeded(str(detail))
        raise ShardError(f"serving endpoint failed ({status}): {detail}")

    # ------------------------------------------------------------ interface
    def predict(self, x: Any, timeout: float | None = None) -> np.ndarray:
        return self.predict_request(x, timeout=timeout).values

    def predict_request(
        self, request: Any, timeout: float | None = None
    ) -> PredictResponse:
        if not isinstance(request, PredictRequest):
            request = PredictRequest(rows=request)
        body: dict[str, Any] = {
            "rows": pack_rows(to_numpy(numeric_rows(request.rows))),
            "priority": request.priority,
            "request_id": request.request_id,
        }
        if request.deadline_s is not None:
            body["deadline_s"] = request.deadline_s
        if request.tags:
            body["tags"] = dict(request.tags)
        status, payload = self._round_trip("/predict", body, timeout)
        if status != 200:
            self._raise_for(status, payload)
        return PredictResponse(
            values=unpack_rows(payload["values"]),
            run_id=str(payload.get("run_id", "")),
            request_id=str(payload.get("request_id", request.request_id)),
            queue_s=float(payload.get("queue_s", float("nan"))),
            batch_s=float(payload.get("batch_s", float("nan"))),
            shed=bool(payload.get("shed", False)),
            retries=int(payload.get("retries", 0)),
        )

    def health(self) -> dict:
        status, payload = self._round_trip("/healthz")
        payload["http_status"] = status
        return payload

    def stats(self) -> dict:
        status, payload = self._round_trip("/metrics")
        if status != 200:  # pragma: no cover - adapter always serves it
            self._raise_for(status, payload)
        return payload

    def close(self) -> None:
        """Nothing to release client-side (connections are per-call);
        present so drivers treat both transports uniformly."""

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
