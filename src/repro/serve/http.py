"""HTTP front end for :class:`~repro.serve.ModelServer`.

The in-process server becomes a network service through a deliberately
small stdlib adapter — :class:`ServeHTTPServer` wraps
``http.server.ThreadingHTTPServer`` (one daemon thread per connection,
no third-party dependencies) and translates JSON requests into the
typed :class:`~repro.serve.PredictRequest` /
:class:`~repro.serve.PredictResponse` vocabulary:

``POST /predict``
    Body ``{"rows": ..., "priority": 0, "deadline_s": 0.2,
    "request_id": "...", "tags": {...}}`` (everything but ``rows``
    optional).  ``rows`` is either a nested list ``[[...], ...]`` or
    packed as ``{"shape": [b, d], "f8": "<base64>"}`` — the base64 of
    the C-order little-endian float64 bytes
    (:func:`~repro.serve.api.pack_rows`); :class:`~repro.serve
    .HttpClient` always sends the packed form, hand-written clients
    (curl) can keep the nested list.  Replies ``200`` with a
    :meth:`PredictResponse.as_dict() <repro.serve.PredictResponse
    .as_dict>` payload — predicted values, in the form the request's
    rows used, plus per-request timings (``queue_s``/``batch_s``), the
    serving run id and the retry count.
    Errors map onto transport-meaningful statuses: ``400`` for
    malformed requests (bad JSON, a malformed packed object, wrong
    shape/features, non-finite rows), ``503`` with ``Retry-After`` when
    the queue is at its backpressure bound, and ``504`` with
    ``{"shed": true, "error": "deadline_exceeded"}`` when the request's
    deadline expired before its tick (the dispatcher shed it without
    spending shard work).

``GET /healthz``
    Liveness/readiness: ``200 {"status": "ok", ...}`` while serving,
    ``503`` once the server is closed (or a shard died).

``GET /metrics``
    The run-ID-stamped :meth:`~repro.serve.ModelServer.stats` snapshot
    as JSON — counters, gauges and latency histograms with p50/p95/p99.

**Bitwise contract, over the wire.**  Both row forms are lossless
float64 transports in both directions.  The packed form carries the
IEEE-754 bytes themselves; for the nested list, ``json.dumps`` emits
shortest round-trip reprs and ``json.loads`` parses them back to the
identical double.  So ``POST /predict`` responses carry *exactly* the
bits an in-process :meth:`~repro.serve.ModelServer.predict` — and
therefore a solo :func:`~repro.shard.sharded_predict` — would return
(pinned by ``tests/test_serve_http.py`` and the
``bench_serve.py --http`` smoke).  The packed form is the fast one:
it skips the per-float text conversion that otherwise dominates a
many-row request on both ends.

The adapter *borrows* the :class:`~repro.serve.ModelServer` by default
(closing the adapter stops the listener but leaves the engine serving
in-process callers); pass ``owns_server=True`` to tie their lifecycles.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    ReproError,
    ShardError,
)
from repro.serve.api import PredictRequest, PredictResponse, unpack_rows

__all__ = ["ServeHTTPServer"]

_LOG = logging.getLogger("repro.serve.http")

#: Largest accepted ``POST /predict`` body; a row payload beyond this is
#: a misbehaving client, not load (64 MiB of JSON is ~4M float64 reprs
#: as a nested list, or ~6M float64 values packed as base64).
MAX_BODY_BYTES = 64 * 1024 * 1024


def _request_from_payload(payload: Any) -> PredictRequest:
    """Build a typed request from a decoded JSON body (400 on nonsense)."""
    if not isinstance(payload, dict) or "rows" not in payload:
        raise ConfigurationError(
            'predict body must be a JSON object with a "rows" field'
        )
    unknown = set(payload) - {
        "rows", "priority", "deadline_s", "request_id", "tags",
    }
    if unknown:
        raise ConfigurationError(
            f"unknown predict fields {sorted(unknown)}; expected rows, "
            "priority, deadline_s, request_id, tags"
        )
    rows = payload["rows"]
    kwargs: dict[str, Any] = {
        "rows": unpack_rows(rows) if isinstance(rows, dict)
        else np.asarray(rows, dtype=np.float64),
    }
    if payload.get("priority") is not None:
        kwargs["priority"] = int(payload["priority"])
    if payload.get("deadline_s") is not None:
        kwargs["deadline_s"] = float(payload["deadline_s"])
    if payload.get("request_id") is not None:
        kwargs["request_id"] = str(payload["request_id"])
    tags = payload.get("tags")
    if tags is not None:
        if not isinstance(tags, dict):
            raise ConfigurationError(
                f"tags must be a JSON object, got {type(tags).__name__}"
            )
        kwargs["tags"] = tags
    return PredictRequest(**kwargs)


class _Handler(BaseHTTPRequestHandler):
    """Routes the three endpoints onto the wrapped ModelServer."""

    # The adapter instance is attached to the *server class* per bind
    # (see ServeHTTPServer); handlers reach it through self.server.
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------- plumbing
    def log_message(self, fmt: str, *args: Any) -> None:
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    def _reply(self, status: int, payload: dict, headers: dict | None = None) -> None:
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError as exc:
            # NaN/Inf has no standard JSON spelling: fail the reply
            # rather than send a body strict parsers reject.
            status = 500
            body = json.dumps(
                {"error": "non_finite_reply", "detail": str(exc)}
            ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------ endpoints
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        adapter: "ServeHTTPServer" = self.server.adapter  # type: ignore[attr-defined]
        adapter.model_server.metrics.inc("serve/http_requests")
        if self.path in ("/healthz", "/health"):
            closed = adapter.model_server.closed
            self._reply(
                503 if closed else 200,
                {
                    "status": "closed" if closed else "ok",
                    "run_id": adapter.model_server.run_id,
                    "transport": adapter.model_server.group.transport.name,
                    "g": adapter.model_server.group.g,
                },
            )
        elif self.path == "/metrics":
            self._reply(200, adapter.model_server.stats())
        else:
            self._reply(
                404,
                {"error": "not_found",
                 "detail": f"no route {self.path!r}; try /predict, "
                           "/healthz, /metrics"},
            )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        adapter: "ServeHTTPServer" = self.server.adapter  # type: ignore[attr-defined]
        adapter.model_server.metrics.inc("serve/http_requests")
        if self.path != "/predict":
            self._reply(
                404,
                {"error": "not_found",
                 "detail": f"no POST route {self.path!r}; try /predict"},
            )
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length <= 0 or length > MAX_BODY_BYTES:
                raise ConfigurationError(
                    f"Content-Length must be in (0, {MAX_BODY_BYTES}], "
                    f"got {length}"
                )
            payload = json.loads(self.rfile.read(length))
            request = _request_from_payload(payload)
        except (ConfigurationError, ValueError, TypeError) as exc:
            self._reply(400, {"error": "bad_request", "detail": str(exc)})
            return
        try:
            future = adapter.model_server.submit_request(request)
        except ConfigurationError as exc:
            # Shape/feature validation happens at enqueue: still the
            # client's fault, still a 400.
            self._reply(400, {"error": "bad_request", "detail": str(exc)})
            return
        except ShardError as exc:
            # Backpressure (queue full) or closed: tell the client to
            # back off rather than queueing unboundedly.
            self._reply(
                503,
                {"error": "unavailable", "detail": str(exc),
                 "request_id": request.request_id},
                headers={"Retry-After": "1"},
            )
            return
        try:
            response: PredictResponse = future.result(
                adapter.request_timeout_s
            )
        except DeadlineExceeded as exc:
            adapter.model_server.metrics.inc("serve/http_shed")
            self._reply(
                504,
                {"error": "deadline_exceeded", "shed": True,
                 "detail": str(exc), "request_id": request.request_id},
            )
            return
        except ReproError as exc:
            self._reply(
                500,
                {"error": type(exc).__name__, "detail": str(exc),
                 "request_id": request.request_id},
            )
            return
        except Exception as exc:  # incl. adapter-side future timeout
            future.cancel()
            self._reply(
                500,
                {"error": type(exc).__name__, "detail": str(exc),
                 "request_id": request.request_id},
            )
            return
        packed = isinstance(payload["rows"], dict)  # answer in kind
        self._reply(200, response.as_dict(packed=packed))


class ServeHTTPServer:
    """A threaded HTTP listener over a live
    :class:`~repro.serve.ModelServer`.

    Parameters
    ----------
    model_server:
        The serving engine to expose.  Borrowed by default: closing the
        adapter leaves it serving in-process callers.
    host, port:
        Bind address; ``port=0`` (default) picks a free ephemeral port
        (read it back from :attr:`port` / :attr:`url`).
    owns_server:
        When True, :meth:`close` also closes the wrapped engine (and
        with it any group the engine owns).
    request_timeout_s:
        Hard cap an HTTP worker waits on a request's future before
        failing the connection with ``500`` (deadlines should fire long
        before this backstop).

    Usage::

        with ModelServer(model, g=2) as engine:
            with ServeHTTPServer(engine) as http_srv:
                requests.post(f"{http_srv.url}/predict",
                              json={"rows": x.tolist()})
    """

    def __init__(
        self,
        model_server: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        owns_server: bool = False,
        request_timeout_s: float = 60.0,
    ) -> None:
        if model_server.closed:
            raise ConfigurationError(
                "model_server is closed; serve a live one"
            )
        if not float(request_timeout_s) > 0:
            raise ConfigurationError(
                f"request_timeout_s must be > 0, got {request_timeout_s!r}"
            )
        self.model_server = model_server
        self.owns_server = bool(owns_server)
        self.request_timeout_s = float(request_timeout_s)
        self._httpd = ThreadingHTTPServer((host, int(port)), _Handler)
        self._httpd.daemon_threads = True
        # Reach-back pointer for handlers (one ThreadingHTTPServer per
        # adapter, so instance state never crosses adapters).
        self._httpd.adapter = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._closed = False
        self._thread.start()
        _LOG.info(
            "serve.http.open run=%s addr=%s:%d owns_server=%s",
            model_server.run_id[:8], self.host, self.port, self.owns_server,
        )

    # ------------------------------------------------------------ inspection
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the listener (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    @property
    def closed(self) -> bool:
        return self._closed

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        """Stop the listener (idempotent); close the engine too when
        ``owns_server``."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._thread.join(timeout=10)
        self._httpd.server_close()
        if self.owns_server:
            self.model_server.close()
        _LOG.info("serve.http.close addr=%s:%d", self.host, self.port)

    def __enter__(self) -> "ServeHTTPServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"<ServeHTTPServer {state} {self.url}>"
