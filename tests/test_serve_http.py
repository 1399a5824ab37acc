"""HTTP transport suite (:mod:`repro.serve.http` / :mod:`.client`).

The load-bearing claim is that HTTP adds a *transport*, not a numeric
path: ``POST /predict`` responses are bit-identical to in-process
:meth:`~repro.serve.ModelServer.predict` — and therefore to a solo
:func:`~repro.shard.sharded_predict` — because both row forms (nested
JSON lists and packed base64 float64 bytes) round-trip float64
losslessly.  Around that: the health/metrics endpoints, the error
mapping (400 malformed / 503 backpressure / 504 shed), the per-request
timings on the wire, and the :class:`~repro.serve.ServeClient`
interface both transports implement.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    ShardError,
)
from repro.kernels import GaussianKernel
from repro.serve import (
    HttpClient,
    LocalClient,
    ModelServer,
    PredictRequest,
    PredictResponse,
    ServeClient,
    ServeHTTPServer,
    ServeOptions,
)
from repro.serve.api import pack_rows, unpack_rows
from repro.shard import ShardGroup, sharded_predict

N, D, L = 151, 4, 3


@pytest.fixture(scope="module")
def served():
    """One engine + HTTP adapter shared by the module (per-test servers
    would pay a socket bind per test for no isolation gain: requests are
    independent and the suite never closes the shared pair)."""
    rng = np.random.default_rng(29)
    centers = rng.standard_normal((N, D))
    weights = rng.standard_normal((N, L))
    kernel = GaussianKernel(bandwidth=2.0)
    with ShardGroup.build(
        centers, weights, g=2, kernel=kernel, transport="thread"
    ) as group:
        with ModelServer(group=group) as server:
            with ServeHTTPServer(server) as http_srv:
                yield group, server, http_srv


def _post(url: str, payload: dict, timeout: float = 30.0):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# --------------------------------------------------------------------------
# Bitwise round trip
# --------------------------------------------------------------------------


def test_http_predict_bitwise_vs_in_process(served):
    group, server, http_srv = served
    rng = np.random.default_rng(31)
    for rows in (1, 7, 23):
        x = rng.standard_normal((rows, D))
        want = np.asarray(sharded_predict(group, x))
        np.testing.assert_array_equal(server.predict(x, timeout=60), want)
        status, payload = _post(
            f"{http_srv.url}/predict", {"rows": x.tolist()}
        )
        assert status == 200
        got = np.asarray(payload["values"], dtype=np.float64)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_http_client_predict_bitwise(served):
    group, _, http_srv = served
    rng = np.random.default_rng(37)
    x = rng.standard_normal((9, D))
    client = HttpClient(http_srv.url)
    np.testing.assert_array_equal(
        client.predict(x), np.asarray(sharded_predict(group, x))
    )


@pytest.mark.parametrize("rows", [0, 1, 7, 23, None],
                         ids=["b0", "b1", "b7", "b23", "single"])
def test_packed_round_trip_bitwise(served, rows):
    """HttpClient sends packed rows and gets packed values back; a bare
    POST with packed rows is answered packed too."""
    _, server, http_srv = served
    rng = np.random.default_rng(47)
    x = rng.standard_normal(D if rows is None else (rows, D))
    want = server.predict(x, timeout=60)
    got = HttpClient(http_srv.url).predict(x)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    status, payload = _post(f"{http_srv.url}/predict", {"rows": pack_rows(x)})
    assert status == 200
    assert payload["values"]["shape"] == list(want.shape)
    np.testing.assert_array_equal(unpack_rows(payload["values"]), want)


def test_single_sample_round_trip(served):
    group, server, http_srv = served
    x = np.random.default_rng(41).standard_normal(D)
    resp = HttpClient(http_srv.url).predict_request(PredictRequest(rows=x))
    want = server.predict(x, timeout=60)  # engine's (l,) single-sample form
    assert resp.values.shape == want.shape == (L,)
    np.testing.assert_array_equal(resp.values, want)
    np.testing.assert_array_equal(
        resp.values, np.asarray(sharded_predict(group, x)).reshape(-1)
    )


def test_response_carries_timings_and_identity(served):
    _, server, http_srv = served
    x = np.zeros((2, D))
    req = PredictRequest(rows=x, request_id="r-timed", tags={"arm": "a"})
    resp = HttpClient(http_srv.url).predict_request(req)
    assert isinstance(resp, PredictResponse)
    assert resp.request_id == "r-timed"
    assert resp.run_id == server.run_id
    assert resp.queue_s >= 0.0 and resp.batch_s > 0.0
    assert resp.shed is False and resp.retries == 0


# --------------------------------------------------------------------------
# Health and metrics endpoints
# --------------------------------------------------------------------------


def test_healthz(served):
    _, server, http_srv = served
    with urllib.request.urlopen(f"{http_srv.url}/healthz", timeout=30) as r:
        payload = json.loads(r.read())
        assert r.status == 200
    assert payload["status"] == "ok"
    assert payload["run_id"] == server.run_id
    assert payload["transport"] == "thread" and payload["g"] == 2


def test_metrics_snapshot(served):
    _, server, http_srv = served
    server.predict(np.zeros((1, D)), timeout=60)  # at least one sample
    with urllib.request.urlopen(f"{http_srv.url}/metrics", timeout=30) as r:
        snap = json.loads(r.read())
    assert snap["run_id"]["id"] == server.run_id
    assert "serve/request_s" in snap["histograms"]
    assert snap["counters"]["serve/http_requests"] >= 1


def test_unknown_routes_404(served):
    _, _, http_srv = served
    for get in (f"{http_srv.url}/nope",):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(get, timeout=30)
        assert err.value.code == 404
    status, payload = _post(f"{http_srv.url}/predictx", {"rows": [[0.0]]})
    assert status == 404 and payload["error"] == "not_found"


# --------------------------------------------------------------------------
# Error mapping
# --------------------------------------------------------------------------


#: One packed zero row; its byte count (8*D) also matches the 3-D and
#: sign-flipped shapes below, so only the shape check can reject those.
_ONE_ROW = pack_rows(np.zeros((1, D)))


@pytest.mark.parametrize(
    "payload",
    [
        {},  # no rows
        {"rows": [[0.0] * D], "surprise": 1},  # unknown field
        {"rows": "nonsense"},  # not numeric
        {"rows": [[0.0] * (D + 1)]},  # wrong feature count
        {"rows": [[0.0] * D], "tags": "not-a-dict"},
        {"rows": [[0.0] * D], "deadline_s": -1.0},
        {"rows": {"shape": [1, D], "f8": "not base64!"}},
        {"rows": {"shape": [2, D], "f8": _ONE_ROW["f8"]}},
        {"rows": {"shape": [1, 1, D], "f8": _ONE_ROW["f8"]}},
        {"rows": {"shape": [-1, -D], "f8": _ONE_ROW["f8"]}},
        {"rows": {**_ONE_ROW, "dtype": "f8"}},
    ],
    ids=["no-rows", "unknown-field", "non-numeric", "bad-features",
         "bad-tags", "bad-deadline", "packed-bad-base64",
         "packed-length-mismatch", "packed-3d", "packed-negative-shape",
         "packed-extra-key"],
)
def test_malformed_requests_400(served, payload):
    _, _, http_srv = served
    status, body = _post(f"{http_srv.url}/predict", payload)
    assert status == 400
    assert body["error"] == "bad_request" and body["detail"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(served, bad):
    """NaN/Inf rows are a client error in both row forms (400, never a
    200 carrying non-standard JSON), and a ConfigurationError
    in-process."""
    _, server, http_srv = served
    x = np.zeros((2, D))
    x[1, 2] = bad
    for rows in (x.tolist(), pack_rows(x)):
        status, body = _post(f"{http_srv.url}/predict", {"rows": rows})
        assert status == 400 and "non-finite" in body["detail"]
    with pytest.raises(ConfigurationError, match="non-finite"):
        HttpClient(http_srv.url).predict(x)
    with pytest.raises(ConfigurationError, match="non-finite"):
        server.predict(x, timeout=60)
    with pytest.raises(ConfigurationError, match="non-finite"):
        server.submit_request(PredictRequest(rows=x[1]))


@pytest.fixture
def single_output_served():
    """A single-output model (1-D weights) on its own engine + adapter,
    so a single sample is answered with a 0-d value."""
    rng = np.random.default_rng(53)
    with ShardGroup.build(
        rng.standard_normal((40, D)), rng.standard_normal(40), g=2,
        kernel=GaussianKernel(bandwidth=2.0), transport="thread",
    ) as group:
        with ModelServer(group=group) as server:
            with ServeHTTPServer(server) as http_srv:
                yield server, http_srv


def test_zero_d_value_round_trip(single_output_served):
    server, http_srv = single_output_served
    x = np.random.default_rng(59).standard_normal(D)
    want = server.predict(x, timeout=60)
    assert want.shape == ()
    got = HttpClient(http_srv.url).predict(x)
    assert got.shape == () and got.tobytes() == want.tobytes()
    status, payload = _post(f"{http_srv.url}/predict", {"rows": x.tolist()})
    assert status == 200 and payload["values"] == float(want)
    # A 0-d *request* is still a bad request, packed or not.
    for rows in (1.0, pack_rows(np.float64(1.0))):
        status, body = _post(f"{http_srv.url}/predict", {"rows": rows})
        assert status == 400 and "(b, d) or (d,)" in body["detail"]


def test_non_finite_values_reply(single_output_served):
    """A diverged model (NaN weights) predicts NaN from finite rows.  The
    packed form carries those bits like any others; the nested list has
    no standard JSON spelling for them, so that reply is a 500, never a
    200 with a body strict parsers reject."""
    server, http_srv = single_output_served
    weights = np.full(40, np.nan)
    with ShardGroup.build(
        np.zeros((40, D)), weights, g=2,
        kernel=GaussianKernel(bandwidth=2.0), transport="thread",
    ) as group:
        with ModelServer(group=group) as nan_server:
            with ServeHTTPServer(nan_server) as nan_http:
                x = np.zeros((2, D))
                want = nan_server.predict(x, timeout=60)
                assert np.isnan(want).all()
                got = HttpClient(nan_http.url).predict(x)
                assert got.tobytes() == want.tobytes()
                status, body = _post(
                    f"{nan_http.url}/predict", {"rows": x.tolist()}
                )
                assert status == 500 and body["error"] == "non_finite_reply"


def test_expired_deadline_maps_to_504_shed(served):
    """A shed request surfaces as 504 with the shed flag — and the
    HttpClient raises the same DeadlineExceeded the engine raises."""
    group, _, _ = served
    with ModelServer(
        group=group, options=ServeOptions(batch_wait=5e-3)
    ) as slow:
        with ServeHTTPServer(slow) as adapter:
            status, body = _post(
                f"{adapter.url}/predict",
                {"rows": np.zeros((1, D)).tolist(), "deadline_s": 1e-6},
            )
            assert status == 504
            assert body["error"] == "deadline_exceeded"
            assert body["shed"] is True
            with pytest.raises(DeadlineExceeded):
                HttpClient(adapter.url).predict_request(
                    PredictRequest(rows=np.zeros((1, D)), deadline_s=1e-6)
                )
            shed = slow.stats()["counters"]["serve/http_shed"]
            assert shed == 2


def test_closed_engine_maps_to_503(served):
    group, _, _ = served
    engine = ModelServer(group=group)
    adapter = ServeHTTPServer(engine)
    try:
        engine.close()
        status, body = _post(
            f"{adapter.url}/predict", {"rows": np.zeros((1, D)).tolist()}
        )
        assert status == 503 and body["error"] == "unavailable"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{adapter.url}/healthz", timeout=30)
        assert err.value.code == 503
        # The client surface raises the engine's exception type.
        with pytest.raises(ShardError):
            HttpClient(adapter.url).predict(np.zeros((1, D)))
    finally:
        adapter.close()


#: Rows of the right width that are not a bool/integer/float array.
_NON_NUMERIC_ROWS = [
    [["a", "b", "c", "d"]],
    [[1, 2, 3, None]],
    [[0.0] * D, [0.0] * (D - 1)],  # ragged
]


def test_http_client_raises_configuration_error_on_400(served):
    _, server, http_srv = served
    with pytest.raises(ConfigurationError):
        HttpClient(http_srv.url).predict(np.zeros((1, D + 2)))
    for client in (HttpClient(http_srv.url), LocalClient(server)):
        for rows in _NON_NUMERIC_ROWS:
            with pytest.raises(ConfigurationError):
                client.predict(rows, timeout=60)


# --------------------------------------------------------------------------
# Client interface and adapter lifecycle
# --------------------------------------------------------------------------


def test_both_clients_satisfy_protocol_and_agree(served):
    group, server, http_srv = served
    local = LocalClient(server)
    remote = HttpClient(http_srv.url)
    assert isinstance(local, ServeClient)
    assert isinstance(remote, ServeClient)
    x = np.random.default_rng(43).standard_normal((6, D))
    np.testing.assert_array_equal(local.predict(x), remote.predict(x))
    assert local.health()["run_id"] == remote.health()["run_id"]
    assert (
        local.stats()["run_id"]["id"] == remote.stats()["run_id"]["id"]
    )


def test_http_client_validates_construction():
    with pytest.raises(ConfigurationError, match="base_url"):
        HttpClient("ftp://example")
    with pytest.raises(ConfigurationError, match="timeout_s"):
        HttpClient("http://127.0.0.1:1", timeout_s=0)


def test_adapter_rejects_closed_engine(served):
    group, _, _ = served
    engine = ModelServer(group=group)
    engine.close()
    with pytest.raises(ConfigurationError, match="closed"):
        ServeHTTPServer(engine)


def test_adapter_close_is_idempotent_and_borrows(served):
    group, _, _ = served
    engine = ModelServer(group=group)
    adapter = ServeHTTPServer(engine)
    url = adapter.url
    adapter.close()
    adapter.close()
    assert adapter.closed
    # Borrowed engine still serves in-process after the listener stops.
    engine.predict(np.zeros((1, D)), timeout=60)
    engine.close()
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(f"{url}/healthz", timeout=2)


def test_owns_server_ties_lifecycles(served):
    group, _, _ = served
    engine = ModelServer(group=group)
    with ServeHTTPServer(engine, owns_server=True):
        pass
    assert engine.closed
    assert not group.closed  # the group stays borrowed throughout
