"""End-to-end tests: in-process HTTP gateway + client (repro.serving)."""

import http.client
import json
import socket
import statistics
import sys
import threading
import time
from urllib.request import urlopen

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DMFSGDConfig
from repro.core.engine import DMFSGDEngine, matrix_label_fn
from repro.serving import (
    GatewayError,
    IngestPipeline,
    OnlineEvaluator,
    PredictionService,
    ServingClient,
    ServingGateway,
)
from repro.serving.gateway import GatewayCore, _BadRequest
from repro.serving.plane import SHARDS_ALIAS_TOMBSTONE
from repro.serving.store import CoordinateStore


@pytest.fixture(scope="module")
def stack(rtt_labels_module):
    """Engine pre-trained briefly, wrapped in store/service/ingest."""
    labels = rtt_labels_module
    n = labels.shape[0]
    config = DMFSGDConfig(neighbors=8)
    engine = DMFSGDEngine(n, matrix_label_fn(labels), config, rng=11)
    engine.run(rounds=120)
    store = CoordinateStore(engine.coordinates)
    service = PredictionService(store, cache_size=256)
    ingest = IngestPipeline(
        engine,
        store,
        batch_size=64,
        refresh_interval=500,
        evaluator=OnlineEvaluator("class", window=500),
    )
    return store, service, ingest


@pytest.fixture(scope="module")
def rtt_labels_module():
    from repro.datasets import load_meridian

    return load_meridian(n_hosts=40, rng=7).class_matrix()


@pytest.fixture(scope="module")
def gateway(stack):
    _, service, ingest = stack
    with ServingGateway(service, ingest, port=0) as gw:
        yield gw


@pytest.fixture(scope="module")
def client(gateway):
    return ServingClient(gateway.url)


class TestQueryEndpoints:
    def test_health(self, client, stack):
        store, _, _ = stack
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["nodes"] == store.n

    def test_predict_pair_matches_service(self, client, stack):
        store, _, _ = stack
        payload = client.predict(1, 2)
        assert payload["estimate"] == pytest.approx(
            store.snapshot().estimate(1, 2)
        )
        assert payload["label"] in (-1, 1)

    def test_predict_from(self, client, stack):
        store, _, _ = stack
        payload = client.predict_from(0, targets=[1, 2, 3])
        assert payload["targets"] == [1, 2, 3]
        assert payload["estimates"][0] == pytest.approx(
            store.snapshot().estimate(0, 1)
        )

    def test_predict_from_full_row_masks_self(self, client, stack):
        store, _, _ = stack
        payload = client.predict_from(5)
        assert len(payload["estimates"]) == store.n
        assert payload["estimates"][5] is None

    def test_stats_exposes_both_sides(self, client):
        payload = client.stats()
        assert "service" in payload and "ingest" in payload
        assert payload["service"]["pair_queries"] >= 1

    def test_stats_exposes_guard_and_online_eval(self, client):
        payload = client.stats()
        assert payload["guard"]["mode"] == "guarded"
        assert "deduped" in payload["guard"]
        assert "rejected_total" in payload["guard"]
        assert payload["online_eval"]["mode"] == "class"
        assert "auc" in payload["online_eval"]
        # split drop counters are individually visible
        for key in ("dropped_invalid", "dropped_nan", "rejected_guard"):
            assert key in payload["ingest"]

    def test_version_endpoint(self, client, stack):
        store, _, _ = stack
        assert client.version() == store.version


class TestBatchEndpoint:
    def test_matches_snapshot_estimates(self, client, stack):
        store, _, _ = stack
        pairs = [(1, 2), (5, 9), (2, 1)]
        payload = client.estimate_batch(pairs)
        snapshot = store.snapshot()
        assert payload["sources"] == [1, 5, 2]
        assert payload["targets"] == [2, 9, 1]
        for (src, dst), estimate in zip(pairs, payload["estimates"]):
            assert estimate == pytest.approx(snapshot.estimate(src, dst))
        assert all(label in (-1, 1) for label in payload["labels"])

    def test_self_pair_answers_null_not_400(self, client):
        payload = client.estimate_batch([(3, 3), (3, 4)])
        assert payload["estimates"][0] is None
        assert payload["labels"][0] is None
        assert payload["estimates"][1] is not None

    def test_empty_batch(self, client, stack):
        store, _, _ = stack
        payload = client.estimate_batch([])
        assert payload["estimates"] == []
        assert payload["version"] == store.version

    def test_out_of_range_is_400(self, client, stack):
        store, _, _ = stack
        with pytest.raises(GatewayError) as excinfo:
            client.estimate_batch([(0, store.n + 3)])
        assert excinfo.value.status == 400

    def test_malformed_pairs_are_400(self, client):
        for body in (
            {"pairs": "nope"},
            {"pairs": [[1]]},
            {"pairs": [[1, 2, 3]]},
            {"pairs": [[1.5, 2]]},
            {},
        ):
            with pytest.raises(GatewayError) as excinfo:
                client._request("/estimate/batch", body)
            assert excinfo.value.status == 400

    def test_works_on_read_only_gateway(self, stack):
        store, service, _ = stack
        with ServingGateway(service, None, port=0) as gw:
            client = ServingClient(gw.url)
            payload = client.estimate_batch([(0, 1)])
            assert payload["estimates"][0] == pytest.approx(
                store.snapshot().estimate(0, 1)
            )

    def test_batch_queries_counted(self, client):
        before = client.stats()["service"]["batch_queries"]
        client.estimate_batch([(0, 1), (1, 2)])
        stats = client.stats()["service"]
        assert stats["batch_queries"] == before + 1
        assert stats["batch_pairs"] >= 2


class TestErrorHandling:
    def test_missing_parameter_is_400(self, client, gateway):
        with pytest.raises(GatewayError) as excinfo:
            client._request("/predict?src=0")
        assert excinfo.value.status == 400

    def test_out_of_range_is_400(self, client, stack):
        store, _, _ = stack
        with pytest.raises(GatewayError) as excinfo:
            client.predict(0, store.n + 5)
        assert excinfo.value.status == 400

    def test_unknown_path_is_404(self, client):
        with pytest.raises(GatewayError) as excinfo:
            client._request("/nope")
        assert excinfo.value.status == 404

    def test_bad_ingest_body_is_400(self, client):
        with pytest.raises(GatewayError) as excinfo:
            client._request("/ingest", {"measurements": "nope"})
        assert excinfo.value.status == 400

    def test_non_numeric_measurement_is_400(self, client):
        # float()/np.asarray raise TypeError on JSON objects; the
        # gateway must answer 400 instead of dropping the connection.
        with pytest.raises(GatewayError) as excinfo:
            client._request("/ingest", {"measurements": [[1, 2, {}]]})
        assert excinfo.value.status == 400
        with pytest.raises(GatewayError) as excinfo:
            client._request("/ingest", {"measurements": [[1, 2, {}], [0, 1, 1.0]]})
        assert excinfo.value.status == 400

    def test_single_measurement_uses_scalar_fast_path(self, client):
        """One-measurement posts take IngestPipeline.submit; behavior
        (accepted counts, invalid-sample dropping) matches the batch
        path."""
        before = client.stats()["ingest"]["received"]
        assert client.ingest([(0, 1, 123.0)])["accepted"] == 1
        assert client.ingest([(4, 4, 1.0)])["accepted"] == 0  # self-pair
        payload = client._request(
            "/ingest", {"measurements": [[0, 1, None]]}
        )  # null value -> NaN -> dropped, not raised
        assert payload["accepted"] == 0
        assert client.stats()["ingest"]["received"] == before + 3

    def test_self_pair_is_400(self, client):
        with pytest.raises(GatewayError) as excinfo:
            client.predict(3, 3)
        assert excinfo.value.status == 400

    def test_non_json_body_is_400(self, gateway):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            gateway.url + "/ingest", data=b"not json"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urlopen(request, timeout=5)
        excinfo.value.close()  # the error holds the response's socket
        assert excinfo.value.code == 400


class TestReadOnlyGateway:
    def test_post_without_ingest_is_400(self, stack):
        _, service, _ = stack
        with ServingGateway(service, None, port=0) as gw:
            client = ServingClient(gw.url)
            with pytest.raises(GatewayError) as excinfo:
                client.refresh()
            assert excinfo.value.status == 400
            assert client.health()["status"] == "ok"


class TestOnlineLearningEndToEnd:
    def test_streamed_measurements_change_predictions(self, client, stack):
        """The acceptance-criteria scenario: query, stream >= 1k
        measurements, observe the served prediction change."""
        store, _, _ = stack
        rng = np.random.default_rng(99)
        n = store.n

        before = client.predict(3, 7)
        version_before = before["version"]

        # 1200 measurements: hammer pair (3, 7) with bad-class labels,
        # mixed with background traffic on random other pairs.
        measurements = []
        for k in range(1200):
            if k % 2 == 0:
                src, dst = (3, 7) if k % 4 == 0 else (7, 3)
                measurements.append((src, dst, -1.0))
            else:
                src = int(rng.integers(0, n))
                dst = int((src + 1 + rng.integers(0, n - 1)) % n)
                value = float(rng.choice([-1.0, 1.0]))
                measurements.append((src, dst, value))

        response = client.ingest(measurements)
        assert response["accepted"] == 1200
        client.refresh()  # drain the buffer and publish

        after = client.predict(3, 7)
        assert after["version"] > version_before  # refresh policy fired
        assert after["estimate"] != before["estimate"]
        assert after["estimate"] < before["estimate"]  # pushed toward bad

        stats = client.stats()
        ingest_stats = stats["ingest"]
        # guarded mode merges within-batch duplicates of the hammered
        # pair; every sample is accounted for either way
        assert ingest_stats["applied"] + ingest_stats["deduped"] >= 1200
        assert ingest_stats["publishes"] >= 1
        # hammering one pair with a constant class produced dedup work
        assert stats["guard"]["deduped"] > 0
        # ... and the hot pair's estimate never left the finite range
        assert after["estimate"] is not None
        assert stats["online_eval"]["samples"] > 0

    def test_cache_invalidated_by_ingest_publish(self, client):
        first = client.predict(2, 9)
        cached = client.predict(2, 9)
        assert cached["cached"] is True
        client.ingest([(2, 9, -1.0)] * 64)
        client.refresh()
        fresh = client.predict(2, 9)
        assert fresh["cached"] is False
        assert fresh["version"] > first["version"]


class TestGatewayLifecycle:
    def test_port_zero_picks_free_port(self, gateway):
        assert gateway.port > 0
        assert str(gateway.port) in gateway.url

    def test_double_start_rejected(self, gateway):
        with pytest.raises(RuntimeError):
            gateway.start()

    def test_raw_http_speaks_json(self, gateway):
        with urlopen(gateway.url + "/health", timeout=5) as response:
            assert response.headers["Content-Type"] == "application/json"
            payload = json.loads(response.read().decode())
        assert payload["status"] == "ok"


# ----------------------------------------------------------------------
# scale-out additions (PR 3): selectors backend, coalescing, shards
# ----------------------------------------------------------------------


def _small_stack(n=30, shards=None, seed=13):
    """A tiny engine/store/service/ingest stack for backend tests."""
    from repro.serving import ShardedCoordinateStore, ShardedIngest

    config = DMFSGDConfig(neighbors=8)
    engine = DMFSGDEngine(
        n, matrix_label_fn(np.sign(np.random.default_rng(seed).normal(size=(n, n)))),
        config, rng=seed,
    )
    engine.run(rounds=40)
    if shards:
        store = ShardedCoordinateStore(engine.coordinates, shards=shards)
        ingest = ShardedIngest(
            engine, store, batch_size=32, refresh_interval=100, workers=True
        )
    else:
        store = CoordinateStore(engine.coordinates)
        ingest = IngestPipeline(engine, store, batch_size=32, refresh_interval=100)
    service = PredictionService(store, cache_size=64)
    return store, service, ingest


class TestSelectorsBackend:
    @pytest.fixture(scope="class")
    def selectors_gateway(self):
        _, service, ingest = _small_stack()
        with ServingGateway(service, ingest, port=0, backend="selectors") as gw:
            yield gw

    @pytest.fixture(scope="class")
    def selectors_client(self, selectors_gateway):
        return ServingClient(selectors_gateway.url)

    def test_health_and_version(self, selectors_client):
        health = selectors_client.health()
        assert health["status"] == "ok"
        assert selectors_client.version() == health["version"]

    def test_predict_matches_service(self, selectors_gateway, selectors_client):
        payload = selectors_client.predict(3, 7)
        direct = selectors_gateway.service.predict_pair(3, 7)
        assert payload["estimate"] == pytest.approx(direct.estimate)
        assert payload["label"] == direct.label

    def test_batch_endpoint(self, selectors_client):
        result = selectors_client.estimate_batch([(1, 2), (3, 4), (5, 5)])
        assert len(result["estimates"]) == 3
        assert result["estimates"][2] is None  # self-pair -> null

    def test_ingest_and_refresh(self, selectors_client):
        before = selectors_client.version()
        response = selectors_client.ingest([(1, 2, 1.0)] * 40)
        assert response["accepted"] == 40
        assert selectors_client.refresh() > before

    def test_errors_are_json(self, selectors_client):
        with pytest.raises(GatewayError) as excinfo:
            selectors_client.predict(0, 10**9)
        assert excinfo.value.status == 400
        with pytest.raises(GatewayError) as excinfo:
            selectors_client._request("/nope")
        assert excinfo.value.status == 404

    def test_large_body_round_trip(self, selectors_client):
        # a many-KB POST exercises the chunked non-blocking read path
        pairs = [(i % 29, (i + 1) % 29) for i in range(4000)]
        result = selectors_client.estimate_batch(pairs)
        assert len(result["estimates"]) == 4000

    def test_invalid_backend_rejected(self):
        _, service, _ = _small_stack(n=12)
        with pytest.raises(ValueError, match="backend"):
            ServingGateway(service, backend="twisted")

class TestSelectorsCoalescing:
    """The selectors loop defers /predict into the coalescer and writes
    the response on batch completion (ROADMAP: combine both wins)."""

    @pytest.fixture(scope="class")
    def coalescing_gateway(self):
        _, service, ingest = _small_stack()
        gw = ServingGateway(
            service,
            ingest,
            port=0,
            backend="selectors",
            coalesce_window=0.002,
        )
        assert gw.coalescer is not None  # no longer warned away
        with gw:
            yield gw

    def test_predict_is_coalesced_end_to_end(self, coalescing_gateway):
        client = ServingClient(coalescing_gateway.url)
        payload = client.predict(3, 7)
        assert payload["coalesced"] is True
        direct = coalescing_gateway.service.store.snapshot()
        expected = direct.estimate_pairs(np.array([3]), np.array([7]))[0]
        assert payload["estimate"] == pytest.approx(expected)

    def test_concurrent_predicts_share_gathers(self, coalescing_gateway):
        import threading

        url = coalescing_gateway.url
        results, failures = [], []
        lock = threading.Lock()

        def worker(wid):
            client = ServingClient(url)
            local = np.random.default_rng(wid)
            try:
                for _ in range(10):
                    s = int(local.integers(0, 30))
                    t = int((s + 1 + local.integers(0, 29)) % 30)
                    out = client.predict(s, t)
                    with lock:
                        results.append(out)
            except Exception as exc:  # pragma: no cover - diagnostic
                with lock:
                    failures.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert len(results) == 40
        assert all(r["coalesced"] is True for r in results)
        stats = coalescing_gateway.coalescer.as_dict()
        assert stats["requests"] >= 40

    def test_bad_request_answers_alone(self, coalescing_gateway):
        client = ServingClient(coalescing_gateway.url)
        with pytest.raises(GatewayError) as excinfo:
            client.predict(3, 3)  # self-pair
        assert excinfo.value.status == 400
        with pytest.raises(GatewayError) as excinfo:
            client.predict(0, 10**9)  # out of range
        assert excinfo.value.status == 400
        # the shared batch path is unaffected by the rejections
        assert client.predict(1, 2)["coalesced"] is True

    def test_stats_carry_coalescer_section(self, coalescing_gateway):
        client = ServingClient(coalescing_gateway.url)
        client.predict(5, 6)
        stats = client.stats()
        assert stats["coalescer"]["requests"] >= 1

    def test_pipelined_bytes_do_not_redispatch(self, coalescing_gateway):
        """A deferred connection is quiesced: trailing bytes a client
        pipelines behind the deferred /predict must not re-dispatch the
        stale parse state (regression: duplicate coalescer tickets and
        a corrupt interleaved response stream)."""
        import socket

        before = coalescing_gateway.coalescer.as_dict()["requests"]
        with socket.create_connection(
            (coalescing_gateway.host, coalescing_gateway.port), timeout=5.0
        ) as sock:
            sock.sendall(
                b"GET /predict?src=1&dst=2 HTTP/1.1\r\n"
                b"Host: x\r\n\r\n"
                b"GET /predict?src=3&dst=4 HTTP/1.1\r\n"
                b"Host: x\r\n\r\n"
            )
            sock.settimeout(5.0)
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closes after one response
                raw += chunk
        # exactly one complete, well-formed response for request 1
        assert raw.count(b"HTTP/1.1 200") == 1
        head, _, body = raw.partition(b"\r\n\r\n")
        payload = json.loads(body)
        assert payload["source"] == 1 and payload["target"] == 2
        assert payload["coalesced"] is True
        after = coalescing_gateway.coalescer.as_dict()["requests"]
        assert after == before + 1  # the pipelined bytes never submitted


class TestShardedGateway:
    @pytest.fixture(scope="class")
    def sharded_gateway(self):
        _, service, ingest = _small_stack(shards=4)
        with ServingGateway(
            service, ingest, port=0, coalesce_window=0.002
        ) as gw:
            yield gw

    @pytest.fixture(scope="class")
    def sharded_client(self, sharded_gateway):
        return ServingClient(sharded_gateway.url)

    def test_predict_is_coalesced(self, sharded_client):
        payload = sharded_client.predict(2, 9)
        assert payload["coalesced"] is True
        assert payload["label"] in (-1, 1, None)

    def test_coalesced_self_pair_still_400(self, sharded_client):
        with pytest.raises(GatewayError) as excinfo:
            sharded_client.predict(4, 4)
        assert excinfo.value.status == 400

    def test_concurrent_predicts_share_batches(self, sharded_gateway, sharded_client):
        import threading

        errors = []

        def hammer():
            try:
                for _ in range(10):
                    sharded_client.predict(1, 5)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = sharded_gateway.coalescer.as_dict()
        assert stats["requests"] >= 40
        assert stats["batches"] >= 1

    def test_shards_endpoint(self, sharded_client):
        shards = sharded_client.shards()
        assert len(shards) == 4
        for entry in shards:
            assert {"shard", "queue_depth", "version", "snapshot_age_s"} <= set(entry)

    def test_stats_carries_shard_and_coalescer_sections(self, sharded_client):
        stats = sharded_client.stats()
        assert len(stats["shards"]) == 4
        assert "coalescer" in stats
        assert stats["ingest"]["shard_count"] == 4
        # the deprecated numeric alias is gone; a tombstone names the
        # replacement key for one release
        assert stats["ingest"]["shards"] == SHARDS_ALIAS_TOMBSTONE

    def test_ingest_routes_through_shards(self, sharded_client):
        response = sharded_client.ingest(
            [(i % 29, (i + 3) % 29, 1.0) for i in range(200)]
        )
        assert response["accepted"] == 200
        version = sharded_client.refresh()
        assert version == sum(
            entry["version"] for entry in sharded_client.shards()
        )

    def test_shards_endpoint_400_on_unsharded(self, client):
        with pytest.raises(GatewayError) as excinfo:
            client.shards()
        assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# the HTTP/1.1 transports: one codec, persistent acceptors, keep-alive
# ----------------------------------------------------------------------


def _exchange(address, raw: bytes) -> bytes:
    """Send raw bytes on a fresh connection; everything until EOF."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _replies(raw: bytes):
    """``[(status, body), ...]`` of back-to-back HTTP responses."""
    replies = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        replies.append((int(head[9:12]), rest[:length]))
        raw = rest[length:]
    return replies


def _transport_threads(exclude=()):
    return [
        t
        for t in threading.enumerate()
        if t.name in ("repro-serving-gateway", "repro-gateway-acceptor")
        and t not in exclude
    ]


@pytest.fixture(scope="module")
def tiny_stack():
    return _small_stack(n=20)


@pytest.fixture(params=["threading", "selectors"])
def any_gateway(request, tiny_stack):
    _, service, ingest = tiny_stack
    with ServingGateway(service, ingest, port=0, backend=request.param) as gw:
        yield gw


@pytest.fixture
def threaded_gateway(tiny_stack):
    _, service, ingest = tiny_stack
    with ServingGateway(service, ingest, port=0) as gw:
        yield gw


def _legacy_post(core, path, body):
    """``/estimate/batch`` and ``/ingest`` as they validated entry by entry.

    The reference for :class:`TestBodyValidation`: the gateway now checks
    a body with one ``np.asarray`` and a shape test, and must answer every
    body exactly as this per-entry loop did.
    """
    if path == "/estimate/batch":
        payload = core._read_body(body)
        pairs = payload.get("pairs")
        if not isinstance(pairs, list):
            raise _BadRequest('body must contain a "pairs" list')
        for entry in pairs:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise _BadRequest("each pair must be [source, target]")
        if pairs:
            array = np.asarray(pairs, dtype=float)
            if not np.all(np.isfinite(array) & (array == np.floor(array))):
                raise _BadRequest("pair indices must be integers")
            sources = array[:, 0].astype(int)
            targets = array[:, 1].astype(int)
        else:
            sources = np.array([], dtype=int)
            targets = np.array([], dtype=int)
        return 200, core.service.predict_pairs(sources, targets).as_dict()
    ingest = core.ingest
    payload = core._read_body(body)
    measurements = payload.get("measurements")
    if not isinstance(measurements, list):
        raise _BadRequest('body must contain a "measurements" list')
    triples = []
    for entry in measurements:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise _BadRequest("each measurement must be [source, target, value]")
        triples.append(entry)
    if len(triples) == 1:
        src, dst, value = (
            float("nan") if entry is None else float(entry)
            for entry in triples[0]
        )
        kept = int(ingest.submit(src, dst, value))
    elif triples:
        array = np.asarray(triples, dtype=float)
        kept = ingest.submit_many(array[:, 0], array[:, 1], array[:, 2])
    else:
        kept = 0
    return 200, {
        "accepted": kept,
        "received": len(triples),
        "buffered": ingest.buffered,
        "version": ingest.store.version,
    }


def _reply(core, path, body):
    """What the transports would send: status and JSON bytes (or the raise)."""
    try:
        status, payload = core.handle("POST", path, {}, body)
    except Exception as exc:  # handle() maps only client errors to 400
        return "raised", type(exc).__name__, str(exc)
    return status, json.dumps(payload).encode("utf-8")


#: what may stand where a number belongs in a malformed body
_ODD_VALUES = st.one_of(
    st.sampled_from(
        [None, True, False, "3", "x", "", 2.5, 10**400, [], [1], [1, 2], {"a": 1}]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 22),  # node ids, a few out of range
)


@st.composite
def _defect(draw, width):
    """One malformed entry for a body of ``width``-long rows."""
    kind = draw(st.sampled_from(["arity", "not-a-list", "bad-value"]))
    if kind == "arity":  # ragged, too long, or the empty list
        size = draw(st.integers(0, 5).filter(lambda size: size != width))
        return draw(st.lists(st.integers(0, 19), min_size=size, max_size=size))
    if kind == "not-a-list":
        return draw(_ODD_VALUES.filter(lambda value: not isinstance(value, list)))
    row = draw(st.lists(st.integers(0, 19), min_size=width, max_size=width))
    row[draw(st.integers(0, width - 1))] = draw(_ODD_VALUES)
    return row


@st.composite
def _bodies(draw):
    """A route and a body: well-formed rows with malformed entries mixed in."""
    path, key, width = draw(
        st.sampled_from(
            [("/estimate/batch", "pairs", 2), ("/ingest", "measurements", 3)]
        )
    )
    row = st.lists(st.integers(0, 19), min_size=width, max_size=width)
    entries = draw(st.lists(row, max_size=4))
    for defect in draw(st.lists(_defect(width), max_size=3)):
        entries.insert(draw(st.integers(0, len(entries))), defect)
    if draw(st.integers(0, 9)) == 0:  # the list itself is missing
        entries = draw(_ODD_VALUES)
    return path, json.dumps({key: entries}).encode("utf-8")


class TestBodyValidation:
    """Malformed batch and ingest bodies get the per-entry loop's answer."""

    @pytest.fixture(scope="class")
    def cores(self):
        # two identical stacks, so accepted ingest keeps them in step
        legacy = GatewayCore(*_small_stack(n=20)[1:])
        legacy._post = lambda path, body: _legacy_post(legacy, path, body)
        return legacy, GatewayCore(*_small_stack(n=20)[1:])

    @given(_bodies())
    @settings(max_examples=500, deadline=None)
    def test_replies_match_the_per_entry_validator(self, cores, request_body):
        path, body = request_body
        legacy, core = cores
        assert _reply(core, path, body) == _reply(legacy, path, body)


_HUGE_HEADER = b"X-Pad: " + b"a" * (70 * 1024) + b"\r\n"


class TestMalformedRequests:
    """Both backends refuse bad requests with the same JSON answer."""

    @pytest.mark.parametrize(
        "raw, status, error",
        [
            (
                b"POST /ingest HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                400,
                "bad Content-Length",
            ),
            (
                b"POST /ingest HTTP/1.1\r\nContent-Length: 1.5\r\n\r\n",
                400,
                "bad Content-Length",
            ),
            (
                b"POST /ingest HTTP/1.1\r\nContent-Length: 40000000\r\n\r\n",
                413,
                "body too large",
            ),
            (b"GET /health HTTP/1.1\r\n" + _HUGE_HEADER, 431, "headers too large"),
            (b"BOGUS\r\n\r\n", 400, "malformed request line"),
            (
                b"PUT /ingest HTTP/1.1\r\nConnection: close\r\n\r\n",
                405,
                "method PUT not allowed",
            ),
            (
                b"DELETE /health HTTP/1.1\r\nConnection: close\r\n\r\n",
                405,
                "method DELETE not allowed",
            ),
            (b"HEAD /health HTTP/1.1\r\n\r\n", 405, "method HEAD not allowed"),
        ],
        ids=[
            "negative-length",
            "non-integer-length",
            "body-cap",
            "header-cap",
            "request-line",
            "put",
            "delete",
            "head",
        ],
    )
    def test_answered_with_json(self, any_gateway, raw, status, error):
        reply = _exchange((any_gateway.host, any_gateway.port), raw)
        [(got, body)] = _replies(reply)
        assert got == status
        assert json.loads(body) == {"error": error}


class TestThreadedTransport:
    def test_keepalive_round_trips_are_fast(self, threaded_gateway):
        conn = http.client.HTTPConnection(
            threaded_gateway.host, threaded_gateway.port, timeout=5.0
        )
        try:
            conn.request("GET", "/health")
            conn.getresponse().read()
            sock = conn.sock
            rtts = []
            for _ in range(10):
                started = time.perf_counter()
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                rtts.append(time.perf_counter() - started)
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
            assert conn.sock is sock  # one connection served all of them
        finally:
            conn.close()
        assert statistics.median(rtts) < 0.010

    def test_pipelined_requests_answered_in_order(self, threaded_gateway):
        raw = _exchange(
            (threaded_gateway.host, threaded_gateway.port),
            b"GET /predict?src=1&dst=2 HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /predict?src=3&dst=4 HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n",
        )
        first, second = _replies(raw)
        assert first[0] == second[0] == 200
        assert json.loads(first[1])["source"] == 1
        assert json.loads(second[1])["source"] == 3

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /health HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_requests_end_the_connection(self, threaded_gateway, raw):
        # _exchange reads until EOF: it returns only if the server closed
        [(status, body)] = _replies(
            _exchange((threaded_gateway.host, threaded_gateway.port), raw)
        )
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_idle_connections_do_not_starve_a_new_one(self, threaded_gateway):
        address = (threaded_gateway.host, threaded_gateway.port)
        idle = [http.client.HTTPConnection(*address, timeout=5.0) for _ in range(8)]
        try:
            for conn in idle:  # each now pins one acceptor in recv()
                conn.request("GET", "/health")
                conn.getresponse().read()
            [(status, _)] = _replies(
                _exchange(
                    address,
                    b"GET /version HTTP/1.1\r\nConnection: close\r\n\r\n",
                )
            )
            assert status == 200
        finally:
            for conn in idle:
                conn.close()

    def test_pool_bookkeeping_survives_a_burst(self, threaded_gateway):
        """More clients than cores under a tiny switch interval: every
        request is answered, and once every connection is gone each
        live acceptor counts as idle (a lost update breaks that)."""
        address = (threaded_gateway.host, threaded_gateway.port)
        statuses, errors = [], []

        def client():
            try:
                for _ in range(10):
                    raw = _exchange(
                        address,
                        b"GET /version HTTP/1.1\r\nConnection: close\r\n\r\n",
                    )
                    statuses.extend(status for status, _ in _replies(raw))
            except OSError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(12)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in clients)
        assert errors == []
        assert statuses == [200] * 120
        server = threaded_gateway._server
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with server._lock:
                # +1: the serve thread, which is not in the spawned set
                settled = server._idle == len(server._threads) + 1
            if settled and not server._conns:
                break
            time.sleep(0.01)
        assert settled and not server._conns

    def test_stop_ends_every_transport_thread(self, tiny_stack):
        _, service, ingest = tiny_stack
        others = _transport_threads()  # of the module's other gateways
        gateway = ServingGateway(service, ingest, port=0).start()
        address = (gateway.host, gateway.port)
        held = http.client.HTTPConnection(*address, timeout=5.0)
        held.request("GET", "/health")
        held.getresponse().read()
        assert len(_transport_threads(others)) == 2  # serve thread + spare
        gateway.stop()
        held.close()
        assert _transport_threads(others) == []
        socket.create_server(address).close()  # the port is free again
