"""Stdlib-only JSON/HTTP gateway in front of the serving components.

A thin transport layer: every endpoint delegates to
:class:`~repro.serving.service.PredictionService` and the ingest
pipeline (single-store :class:`~repro.serving.ingest.IngestPipeline`
or sharded :class:`~repro.serving.shard.ShardedIngest` — the gateway
is agnostic); no model logic lives here.  Routing itself is
transport-agnostic too: :class:`GatewayCore` maps
``(method, path, params, body)`` to ``(status, payload)`` and is
served by either of two backends:

* ``backend="threading"`` — the default: a pool of persistent
  acceptor threads, each serving the connection it accepted with
  HTTP/1.1 keep-alive; the pool grows by one thread when its last idle
  acceptor takes a connection, so steady traffic starts no thread per
  connection;
* ``backend="selectors"`` — a single-threaded non-blocking event loop
  on :mod:`selectors`, one response per connection: no thread per
  connection at all, the shape for many short-lived connections.

Both speak HTTP/1.1 through one codec: the same head parser (request
line, ``Content-Length``, ``Connection``; 64 KB header and 32 MB body
caps answered 431/413) and the same response writer, which sends the
head and body in one write.

Endpoints (all JSON):

========  =======================  =======================================
method    path                     meaning
========  =======================  =======================================
GET       ``/health``              liveness + model vitals
GET       ``/version``             served snapshot version
GET       ``/stats``               service + ingest + guard + shards + ...
GET       ``/metrics``             Prometheus text exposition (the same
                                   registry ``/stats`` summarizes)
GET       ``/shards``              per-shard queue depth / snapshot age
                                   (+ ``cluster`` section on a cluster
                                   gateway: per-group health + mirrors)
GET       ``/membership``          epoch, node count, tombstones, pending ops
GET       ``/predict``             ``?src=i&dst=j`` single-pair prediction
GET       ``/predict_from``        ``?src=i[&targets=j,k,...]`` one-to-many
POST      ``/estimate/batch``      ``{"pairs": [[src, dst], ...]}`` vectorized
POST      ``/ingest``              ``{"measurements": [[src, dst, value], ...]}``
POST      ``/refresh``             force flush + publish (new version)
POST      ``/membership/join``     ``{"node"?, "warm_start"?}`` live node add
POST      ``/membership/leave``    ``{"node", "compact"?}`` live node removal
POST      ``/admin/reconfig``      ``{"shards"?, "action"?, "autopilot"?}``
                                   live topology change / autopilot control
========  =======================  =======================================

The membership endpoints exist only when the gateway was built with a
:class:`~repro.serving.membership.MembershipManager`
(``repro serve --allow-membership``); they answer 400 otherwise.

With a :class:`~repro.serving.shard.RequestCoalescer` attached
(``coalesce_window``), concurrent ``GET /predict`` requests inside the
window are answered by **one** ``predict_pairs`` gather — the
per-request path rides the vectorized batch path; such responses carry
``"coalesced": true``.  ``/stats`` of a sharded gateway carries a
``shards`` section (per-shard queue depth, snapshot age and version)
and, when coalescing, a ``coalescer`` section.

Use :class:`ServingGateway` programmatically (``start()`` /
``stop()``, or as a context manager — port 0 picks a free port, which
is how the end-to-end tests run it in-process) or via the ``repro
serve`` CLI command.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import threading
import time
import traceback
from collections import deque
from typing import Dict, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.obs import bridge, tracing
from repro.obs.metrics import MetricsRegistry
from repro.serving import faults
from repro.serving.guard import BackgroundCheckpointer
from repro.serving.service import PredictionService, classify_score

__all__ = ["GatewayCore", "ServingGateway", "BACKENDS"]

#: gateway transport backends selectable via ``ServingGateway(backend=...)``
BACKENDS = ("threading", "selectors")


class _BadRequest(ValueError):
    """Client error: reported as HTTP 400 with a JSON body."""


def _get_int(params: Dict[str, list], name: str) -> int:
    if name not in params:
        raise _BadRequest(f"missing query parameter {name!r}")
    raw = params[name][-1]
    try:
        return int(raw)
    except ValueError:
        raise _BadRequest(f"parameter {name!r} must be an integer, got {raw!r}")


def _rows(entries: list, width: int, message: str) -> np.ndarray:
    """A non-empty JSON list of ``width``-long number lists as an array.

    A well-formed body costs one ``np.asarray`` and a shape check.  Only
    a body that fails them walks its entries, so the per-entry checks
    name the error, in the same order and words as ever, and the final
    conversion raises exactly what converting the entries always raised.
    """
    try:
        array = np.asarray(entries, dtype=float)
        if array.shape == (len(entries), width):
            return array
    except Exception:
        pass  # the slow path below reports it
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != width:
            raise _BadRequest(message)
    return np.asarray(entries, dtype=float)


def _request_class(method: str, path: str) -> Optional[str]:
    """Shed class of a request: ``ingest`` | ``batch`` | ``None``.

    ``None`` means never shed — single reads are the availability
    number and cost one gather, so overload protection must not touch
    them (nor health/stats, which operators need *most* while shedding).
    """
    if method != "POST":
        return None
    if path == "/ingest":
        return "ingest"
    if path == "/estimate/batch":
        return "batch"
    return None


#: routes that may appear as a ``route`` metric label — anything else
#: collapses into "other" so scans cannot explode series cardinality
_OBS_ROUTES = frozenset(
    {
        "/health",
        "/version",
        "/stats",
        "/metrics",
        "/membership",
        "/shards",
        "/predict",
        "/predict_from",
        "/estimate/batch",
        "/ingest",
        "/refresh",
        "/membership/join",
        "/membership/leave",
        "/admin/reconfig",
    }
)


class GatewayCore:
    """Transport-independent request routing.

    Both HTTP backends funnel every request through
    :meth:`handle` — one code path to test, two transports to serve
    it.  The core never raises for client errors: it returns the
    ``(status, payload)`` pair the transport should serialize.
    """

    def __init__(
        self,
        service: PredictionService,
        ingest=None,
        *,
        checkpointer: Optional[BackgroundCheckpointer] = None,
        coalescer=None,
        membership=None,
        autopilot=None,
        deadline_s: Optional[float] = None,
        shedder: Optional[faults.LoadShedder] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        self.service = service
        self.ingest = ingest
        self.checkpointer = checkpointer
        self.coalescer = coalescer
        self.membership = membership
        self.autopilot = autopilot
        self.deadline_s = deadline_s
        self.shedder = shedder
        self.obs = registry
        if registry is not None:
            self._m_requests = registry.counter(
                "repro_requests_total",
                "HTTP requests handled, by route and status.",
                labels=("route", "status"),
            )
            self._m_request_seconds = registry.histogram(
                "repro_request_seconds",
                "End-to-end request handling latency.",
                labels=("route",),
            )
        self._overload_lock = threading.Lock()
        self.deadline_exceeded = 0
        self.injected_rejects = 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _retry_after_s(self) -> float:
        if self.shedder is not None:
            return self.shedder.retry_after_s
        return 0.5

    def handle(
        self, method: str, path: str, params: Dict[str, list], body: bytes
    ) -> Tuple[int, Dict]:
        """Route one request; returns ``(http_status, json_payload)``.

        With a metrics registry bound, every request lands in the
        ``repro_requests_total`` / ``repro_request_seconds`` families
        on its way out; an unbound gateway pays one attribute check.
        """
        if self.obs is None:
            return self._handle(method, path, params, body)
        started = time.monotonic()
        status, payload = self._handle(method, path, params, body)
        route = path if path in _OBS_ROUTES else "other"
        self._m_requests.inc(route=route, status=status)
        self._m_request_seconds.observe(
            time.monotonic() - started, route=route
        )
        return status, payload

    def _handle(
        self, method: str, path: str, params: Dict[str, list], body: bytes
    ) -> Tuple[int, Dict]:
        """The actual routing behind :meth:`handle`.

        Overload protection runs here, in order: an armed chaos plan
        may reject the request at ``gateway.accept``; the load shedder
        may shed ingest/batch work by queue-fill watermark; and a
        configured per-request deadline converts a too-slow success
        into 503 — all three answer ``503 + Retry-After`` (the payload
        carries ``retry_after`` seconds; both transports emit it as
        the header), so clients back off instead of piling on.
        """
        if faults.injector is not None:
            verdict = faults.injector.fire(
                "gateway.accept", method=method, path=path
            )
            if verdict is faults.DROP:
                with self._overload_lock:
                    self.injected_rejects += 1
                return 503, {
                    "error": "request rejected by the armed chaos plan",
                    "retry_after": self._retry_after_s(),
                }
        started = time.monotonic()
        if self.shedder is not None:
            kind = _request_class(method, path)
            if kind is not None and self.shedder.should_shed(kind):
                return 503, {
                    "error": f"overloaded: {kind} shed at queue fill "
                    f"{self.shedder.queue_fill():.2f}",
                    "shed": kind,
                    "retry_after": self.shedder.retry_after_s,
                }
        try:
            if method == "GET":
                status, payload = self._get(path, params)
            elif method == "POST":
                status, payload = self._post(path, body)
            else:
                return 405, {"error": f"method {method} not allowed"}
        except (_BadRequest, ValueError, TypeError, IndexError) as exc:
            # TypeError covers np.asarray on non-numeric JSON entries; a
            # serving endpoint answers 400, it never drops the connection.
            return 400, {"error": str(exc)}
        if self.deadline_s is not None and status == 200:
            elapsed = time.monotonic() - started
            if elapsed > self.deadline_s:
                # the work happened but missed its budget: answering
                # 503 keeps the latency contract honest — a client
                # would have timed out anyway, and Retry-After beats a
                # zombie response it already gave up on
                with self._overload_lock:
                    self.deadline_exceeded += 1
                return 503, {
                    "error": f"deadline exceeded: {elapsed * 1000.0:.1f}ms "
                    f"> {self.deadline_s * 1000.0:.1f}ms budget",
                    "retry_after": self._retry_after_s(),
                }
        return status, payload

    def overload_info(self) -> Optional[Dict[str, object]]:
        """The ``overload`` section of ``/stats`` (None when unarmed)."""
        if (
            self.deadline_s is None
            and self.shedder is None
            and faults.injector is None
        ):
            return None
        info: Dict[str, object] = {
            "deadline_s": self.deadline_s,
            "deadline_exceeded": self.deadline_exceeded,
            "injected_rejects": self.injected_rejects,
        }
        if self.shedder is not None:
            info["shedder"] = self.shedder.as_dict()
        if faults.injector is not None:
            info["chaos"] = faults.injector.as_dict()
        return info

    def _read_body(self, body: bytes) -> Dict:
        if not body:
            raise _BadRequest("empty request body")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _BadRequest("request body is not valid JSON")
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # GET routes
    # ------------------------------------------------------------------

    def _get(self, path: str, params: Dict[str, list]) -> Tuple[int, Dict]:
        service = self.service
        if path == "/health":
            snapshot = service.store.snapshot()
            return 200, {
                "status": "ok",
                "version": snapshot.version,
                "nodes": snapshot.n,
                "rank": snapshot.rank,
            }
        if path == "/version":
            return 200, {"version": service.store.version}
        if path == "/stats":
            payload = {"service": service.stats().as_dict()}
            if self.ingest is not None:
                # one atomic snapshot: ingest + guard counters agree
                payload.update(self.ingest.stats_payload())
                if self.ingest.evaluator is not None:
                    payload["online_eval"] = self.ingest.evaluator.evaluate()
            if self.checkpointer is not None:
                payload["checkpoint"] = self.checkpointer.as_dict()
            if self.coalescer is not None:
                payload["coalescer"] = self.coalescer.as_dict()
            if self.membership is not None:
                payload["membership"] = self.membership.as_dict()
            if self.autopilot is not None:
                payload["autopilot"] = self.autopilot.as_dict()
            overload = self.overload_info()
            if overload is not None:
                payload["overload"] = overload
            if self.obs is not None:
                payload["obs"] = self.obs.summary()
            tracer = tracing.tracer
            if tracer is not None:
                harvest = getattr(self.ingest, "harvest_traces", None)
                if harvest is not None:
                    # fold worker-side ring entries (shm or per-group)
                    # into the tracer before snapshotting
                    for entry in harvest():
                        tracer.merge(**entry)
                payload["traces"] = tracer.snapshot()
            return 200, payload
        if path == "/metrics":
            if self.obs is None:
                return 404, {
                    "error": "no metrics registry is bound on this gateway"
                }
            return 200, self.obs.render()
        if path == "/membership":
            if self.membership is None:
                return 400, {
                    "error": "membership is not enabled on this gateway "
                    "(serve with --allow-membership)"
                }
            return 200, self.membership.as_dict()
        if path == "/shards":
            shard_info = getattr(self.ingest, "shard_info", None)
            if shard_info is None:
                return 400, {"error": "gateway is not sharded"}
            payload = {"shards": shard_info()}
            cluster_info = getattr(self.ingest, "cluster_info", None)
            if cluster_info is not None:
                payload["cluster"] = cluster_info()
            return 200, payload
        if path == "/predict":
            src = _get_int(params, "src")
            dst = _get_int(params, "dst")
            if self.coalescer is not None:
                return 200, self._predict_coalesced(src, dst)
            return 200, service.predict_pair(src, dst).as_dict()
        if path == "/predict_from":
            src = _get_int(params, "src")
            targets = None
            if "targets" in params:
                raw = params["targets"][-1]
                try:
                    targets = np.array(
                        [int(t) for t in raw.split(",") if t != ""],
                        dtype=int,
                    )
                except ValueError:
                    raise _BadRequest(
                        f"targets must be comma-separated integers, got {raw!r}"
                    )
            return 200, service.predict_from(src, targets).as_dict()
        return 404, {"error": f"unknown path {path!r}"}

    @staticmethod
    def _coalesced_payload(
        src: int, dst: int, estimate: float, version: int
    ) -> Dict:
        finite = np.isfinite(estimate)
        return {
            "source": int(src),
            "target": int(dst),
            "estimate": float(estimate) if finite else None,
            "label": classify_score(estimate),
            "version": version,
            "cached": False,
            "coalesced": True,
        }

    def _predict_coalesced(self, src: int, dst: int) -> Dict:
        """Single-pair prediction through the coalesced batch path.

        Same contract as :meth:`PredictionService.predict_pair` — the
        self-pair is rejected up front (one bad request must not ride a
        shared gather into a batch-wide NaN surprise).  This is the
        *blocking* shape used by the threading backend, where the
        connection's handler thread can afford to wait out the window.
        """
        if int(src) == int(dst):
            raise _BadRequest(
                f"the path from node {int(src)} to itself is undefined"
            )
        estimate, version = self.coalescer.estimate(src, dst)
        return self._coalesced_payload(src, dst, estimate, version)

    def try_submit_coalesced(
        self,
        method: str,
        path: str,
        params: Dict[str, list],
        respond: "callable",
    ) -> bool:
        """Non-blocking coalesced predict for event-loop transports.

        Returns ``True`` when the request was taken over: the query
        joined the open batch and ``respond(status, payload)`` will be
        called — from the coalescer's flush worker — once the shared
        gather lands.  The selectors backend routes ``GET /predict``
        through here so its single event-loop thread never waits out a
        coalescing window inside a handler; everything else returns
        ``False`` and takes the ordinary synchronous path.
        """
        if self.coalescer is None or method != "GET" or path != "/predict":
            return False
        try:
            src = _get_int(params, "src")
            dst = _get_int(params, "dst")
            if src == dst:
                raise _BadRequest(
                    f"the path from node {src} to itself is undefined"
                )
            ticket = self.coalescer.submit(src, dst)
        except (_BadRequest, ValueError, TypeError) as exc:
            respond(400, {"error": str(exc)})
            return True

        def finish() -> None:
            try:
                estimate, version = ticket.result(timeout=0)
                payload = self._coalesced_payload(src, dst, estimate, version)
                respond(200, payload)
            except BaseException as exc:  # pragma: no cover - defensive
                respond(500, {"error": f"coalesced predict failed: {exc!r}"})

        ticket.on_done(finish)
        return True

    # ------------------------------------------------------------------
    # POST routes
    # ------------------------------------------------------------------

    def _post(self, path: str, body: bytes) -> Tuple[int, Dict]:
        ingest = self.ingest
        if path == "/estimate/batch":
            # a read path despite the POST verb (the pair list does
            # not fit a query string); works on read-only gateways
            payload = self._read_body(body)
            pairs = payload.get("pairs")
            if not isinstance(pairs, list):
                raise _BadRequest('body must contain a "pairs" list')
            if pairs:
                array = _rows(pairs, 2, "each pair must be [source, target]")
                if not np.all(
                    np.isfinite(array) & (array == np.floor(array))
                ):
                    raise _BadRequest("pair indices must be integers")
                sources = array[:, 0].astype(int)
                targets = array[:, 1].astype(int)
            else:
                sources = np.array([], dtype=int)
                targets = np.array([], dtype=int)
            prediction = self.service.predict_pairs(sources, targets)
            return 200, prediction.as_dict()
        if path == "/ingest":
            if ingest is None:
                return 400, {"error": "gateway is read-only"}
            payload = self._read_body(body)
            measurements = payload.get("measurements")
            if not isinstance(measurements, list):
                raise _BadRequest('body must contain a "measurements" list')
            message = "each measurement must be [source, target, value]"
            count = len(measurements)
            if count == 1:
                # the scalar fast path: single-measurement posts skip
                # the array round-trip entirely
                entry = measurements[0]
                if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                    raise _BadRequest(message)
            elif count:
                array = _rows(measurements, 3, message)
            tracer = tracing.tracer
            if tracer is not None and count:
                # mint the request's span and park it in thread-local
                # context; the routed plane stamps admit and threads
                # the id through the shard queues from there
                accept_us = tracing.now_us()
                span_id = tracer.begin(
                    route="/ingest", samples=count, accept_us=accept_us
                )
                tracing.set_context(span_id, accept_us)
            try:
                if count == 1:
                    # None -> NaN, matching np.asarray's coercion on the
                    # batch path
                    src, dst, value = (
                        float("nan") if item is None else float(item)
                        for item in entry
                    )
                    kept = int(ingest.submit(src, dst, value))
                elif count:
                    kept = ingest.submit_many(
                        array[:, 0], array[:, 1], array[:, 2]
                    )
                else:
                    kept = 0
            finally:
                if tracer is not None:
                    tracing.clear_context()
            return 200, {
                "accepted": kept,
                "received": count,
                "buffered": ingest.buffered,
                "version": ingest.store.version,
            }
        if path == "/refresh":
            if ingest is None:
                return 400, {"error": "gateway is read-only"}
            return 200, {"version": ingest.publish()}
        if path in ("/membership/join", "/membership/leave"):
            if self.membership is None:
                return 400, {
                    "error": "membership is not enabled on this gateway "
                    "(serve with --allow-membership)"
                }
            payload = self._read_body(body) if body else {}
            if path == "/membership/join":
                node = payload.get("node")
                if node is not None and (
                    not isinstance(node, int) or isinstance(node, bool)
                ):
                    raise _BadRequest('"node" must be an integer node id')
                warm_start = payload.get("warm_start")
                if warm_start is not None and not isinstance(warm_start, str):
                    raise _BadRequest('"warm_start" must be a string')
                return 200, self.membership.join(node, warm_start=warm_start)
            node = payload.get("node")
            if not isinstance(node, int) or isinstance(node, bool):
                raise _BadRequest('body must carry an integer "node" id')
            compact = payload.get("compact", True)
            if not isinstance(compact, bool):
                raise _BadRequest('"compact" must be a boolean')
            return 200, self.membership.leave(node, compact=compact)
        if path == "/admin/reconfig":
            return self._admin_reconfig(body)
        return 404, {"error": f"unknown path {path!r}"}

    def _admin_reconfig(self, body: bytes) -> Tuple[int, Dict]:
        """Operator topology control: re-stride now, or steer autopilot.

        Body (JSON object), one of:

        * ``{"shards": N}`` — re-stride the plane to ``N`` partitions;
        * ``{"action": "split", "shard": p}`` /
          ``{"action": "merge", "shard": p, "other": q}`` — single-step
          transitions naming the triggering shard(s);
        * ``{"autopilot": "pause" | "resume"}`` — suspend/resume the
          control loop's decisions (sampling continues).

        Replies with the live :meth:`topology` payload (plus the
        autopilot state when one is attached).  Manual actions run
        through :meth:`Autopilot.reconfig` when the loop is attached so
        the operator's change lands on the same action timeline and
        starts a cooldown.
        """
        ingest = self.ingest
        if ingest is None:
            return 400, {"error": "gateway is read-only"}
        if not callable(getattr(ingest, "set_shard_count", None)):
            return 400, {
                "error": "topology is not mutable on this gateway "
                "(cluster planes re-partition via their partition book)"
            }
        payload = self._read_body(body)
        steer = payload.get("autopilot")
        if steer is not None:
            if self.autopilot is None:
                return 400, {
                    "error": "autopilot is not enabled on this gateway "
                    "(serve with --autopilot)"
                }
            if steer not in ("pause", "resume"):
                raise _BadRequest('"autopilot" must be "pause" or "resume"')
            if steer == "pause":
                self.autopilot.pause()
            else:
                self.autopilot.resume()
            return 200, {
                "autopilot": self.autopilot.as_dict(),
                "topology": ingest.topology(),
            }
        shards = payload.get("shards")
        action = payload.get("action")
        if (shards is None) == (action is None):
            raise _BadRequest(
                'body must carry exactly one of "shards" or "action" '
                '(or an "autopilot" steer)'
            )
        if shards is not None:
            if not isinstance(shards, int) or isinstance(shards, bool):
                raise _BadRequest('"shards" must be an integer')
            if self.autopilot is not None:
                topology = self.autopilot.reconfig(shards, reason="admin")
            else:
                topology = ingest.set_shard_count(shards, reason="admin")
        else:
            if action not in ("split", "merge"):
                raise _BadRequest('"action" must be "split" or "merge"')
            shard = payload.get("shard")
            if not isinstance(shard, int) or isinstance(shard, bool):
                raise _BadRequest('body must carry an integer "shard" id')
            if action == "split":
                topology = ingest.split_shard(shard, reason="admin")
            else:
                other = payload.get("other")
                if not isinstance(other, int) or isinstance(other, bool):
                    raise _BadRequest(
                        'merge needs an integer "other" shard id'
                    )
                topology = ingest.merge_shards(shard, other, reason="admin")
        reply: Dict[str, object] = {"topology": topology}
        if self.autopilot is not None:
            reply["autopilot"] = self.autopilot.as_dict()
        return 200, reply


# ----------------------------------------------------------------------
# HTTP/1.1 codec shared by both backends
# ----------------------------------------------------------------------

#: caps on one request's header block and body
_MAX_HEADER = 64 * 1024
_MAX_BODY = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """A request refused before routing; answered as JSON, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Head(NamedTuple):
    """What the transports need from a request head."""

    method: str
    target: str
    content_length: int
    keep_alive: bool


def _head_end(buf) -> int:
    """Where the blank line ending the head starts; -1 if not in yet.

    Raises :class:`_HttpError` (431) once over the cap without one.
    """
    end = buf.find(b"\r\n\r\n")
    if end < 0 and len(buf) > _MAX_HEADER:
        raise _HttpError(431, "headers too large")
    return end


def _parse_head(block: bytes) -> _Head:
    """Parse a request line plus headers (without the blank line).

    Raises :class:`_HttpError` for an empty, negative or non-integer
    ``Content-Length`` (400), a body over the cap (413) or a
    malformed request line (400).  HTTP/1.1 keeps the connection alive
    unless the client sends ``Connection: close``; HTTP/1.0 closes.  A
    ``HEAD`` closes too: its client reads no body, so the JSON body of
    the 405 answer would desynchronize the stream.
    """
    lines = block.split(b"\r\n")
    length = 0
    connection = b""
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            value = value.strip()
            if not value.isdigit():
                raise _HttpError(400, "bad Content-Length")
            length = int(value)
        elif name == b"connection":
            connection = value.strip().lower()
    if length > _MAX_BODY:
        raise _HttpError(413, "body too large")
    parts = lines[0].split()
    if len(parts) < 2:
        raise _HttpError(400, "malformed request line")
    keep_alive = (
        len(parts) > 2
        and parts[2] == b"HTTP/1.1"
        and parts[0] != b"HEAD"
        and b"close" not in connection
    )
    return _Head(
        parts[0].decode("latin-1"),
        parts[1].decode("latin-1"),
        length,
        keep_alive,
    )


def _render(status: int, payload, keep_alive: bool) -> bytes:
    """One response, status line to body, as a single buffer."""
    retry = ""
    if isinstance(payload, str):
        # a pre-rendered text page (GET /metrics), not JSON
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
        retry_after = payload.get("retry_after") if status == 503 else None
        if retry_after is not None:
            # RFC 7231 Retry-After in seconds; clients honor it on 503
            retry = f"Retry-After: {float(retry_after):g}\r\n"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{retry}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    ).encode("latin-1")
    return head + body


def _split_target(target: str) -> Tuple[str, Dict[str, list]]:
    """``(path, query params)`` of a request target."""
    url = urlparse(target)
    return url.path, parse_qs(url.query)


def _answer(core: GatewayCore, method: str, path: str, params, body: bytes):
    """:meth:`GatewayCore.handle`; a handler bug answers 500."""
    try:
        return core.handle(method, path, params, body)
    except Exception as exc:  # pragma: no cover - defensive
        traceback.print_exc()
        return 500, {"error": f"internal error: {exc!r}"}


# ----------------------------------------------------------------------
# threading backend (persistent acceptor threads, keep-alive)
# ----------------------------------------------------------------------


class _ThreadedServer:
    """HTTP/1.1 with keep-alive on a pool of persistent acceptor threads.

    Every acceptor blocks in ``accept()`` on the shared listener and
    serves the connection it took itself, request after request, until
    the client closes or asks to.  The acceptor that takes the last
    idle slot starts one more, so concurrency stays unbounded, as with
    a thread per connection, while steady traffic starts no thread at
    all.  An acceptor that finishes a connection while ``_SPARE``
    others wait in ``accept()`` retires.  The thread that calls
    :meth:`serve_forever` is the first acceptor and never retires.
    """

    #: idle acceptors kept when a connection ends
    _SPARE = 4
    #: accept() timeout: how soon an idle acceptor notices shutdown
    _POLL_S = 0.1

    def __init__(
        self, address: Tuple[str, int], core: GatewayCore, verbose: bool
    ) -> None:
        self.core = core
        self.verbose = verbose
        self._listener = socket.create_server(
            address, family=socket.AF_INET, backlog=128
        )
        self._listener.settimeout(self._POLL_S)
        self.server_address = self._listener.getsockname()
        self._lock = threading.Lock()
        self._idle = 0
        self._threads: set = set()
        self._conns: set = set()
        self._shutdown = threading.Event()

    def serve_forever(self) -> None:
        self._acceptor(permanent=True)

    def shutdown(self) -> None:
        self._shutdown.set()
        with self._lock:
            conns = list(self._conns)
            threads = list(self._threads)
        for sock in conns:
            try:
                # wakes the acceptor blocked in recv() on it
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        # the serve thread is its caller's to join
        for thread in threads:
            thread.join(timeout=5.0)

    def server_close(self) -> None:
        self._listener.close()

    # -- the pool ------------------------------------------------------

    def _spawn(self) -> None:
        thread = threading.Thread(
            target=self._acceptor, name="repro-gateway-acceptor", daemon=True
        )
        with self._lock:
            # checked under the lock shutdown() snapshots the pool with,
            # so every started acceptor is one shutdown() joins
            if self._shutdown.is_set():
                return
            self._threads.add(thread)
        thread.start()

    def _next_connection(self) -> Optional[socket.socket]:
        """Block in ``accept()``; None once shutting down."""
        while not self._shutdown.is_set():
            try:
                return self._listener.accept()[0]
            except socket.timeout:
                continue
            except OSError:
                # out of descriptors, or the listener is closed: back off
                self._shutdown.wait(self._POLL_S)
        return None

    def _acceptor(self, permanent: bool = False) -> None:
        try:
            while True:
                with self._lock:
                    self._idle += 1
                sock = self._next_connection()
                with self._lock:
                    self._idle -= 1
                    if sock is not None and self._shutdown.is_set():
                        sock.close()  # taken after shutdown() snapshot
                        sock = None
                    if sock is None:
                        return
                    self._conns.add(sock)
                    grow = self._idle == 0
                if grow:
                    self._spawn()
                try:
                    self._serve(sock)
                finally:
                    with self._lock:
                        self._conns.discard(sock)
                        retire = not permanent and self._idle >= self._SPARE
                    sock.close()
                if retire:
                    return
        finally:
            with self._lock:
                self._threads.discard(threading.current_thread())

    # -- one connection ------------------------------------------------

    def _serve(self, sock: socket.socket) -> None:
        """Answer requests on one connection until either side closes."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = bytearray()
        try:
            while True:
                try:
                    end = _head_end(buf)
                    while end < 0:
                        chunk = sock.recv(65536)
                        if not chunk:
                            return
                        buf += chunk
                        end = _head_end(buf)
                    head = _parse_head(bytes(buf[:end]))
                except _HttpError as exc:
                    sock.sendall(_render(exc.status, {"error": str(exc)}, False))
                    return
                start = end + 4
                stop = start + head.content_length
                while len(buf) < stop:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                body = bytes(buf[start:stop])
                del buf[:stop]
                path, params = _split_target(head.target)
                status, payload = _answer(
                    self.core, head.method, path, params, body
                )
                if self.verbose:  # pragma: no cover - debug aid
                    print(
                        f"[threading] {head.method} {head.target} -> {status}",
                        file=sys.stderr,
                    )
                sock.sendall(_render(status, payload, head.keep_alive))
                if not head.keep_alive:
                    return
        except OSError:
            return


# ----------------------------------------------------------------------
# selectors backend (single-threaded non-blocking event loop)
# ----------------------------------------------------------------------


class _Connection:
    """Parse state of one non-blocking client connection."""

    __slots__ = ("sock", "inbuf", "outbuf", "head", "header_end")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = b""
        self.outbuf = b""
        self.head: Optional[_Head] = None
        self.header_end = 0


class _SelectorsServer:
    """Minimal HTTP/1.1 server on a :mod:`selectors` event loop.

    One thread runs accept + read + parse + dispatch + write for every
    connection — no thread per connection at all, the shape for many
    short-lived connections.  Handlers (NumPy gathers) run inline: they are
    microseconds-scale, far below the socket round-trip they answer.
    Responses close the connection (``Connection: close``) to keep the
    state machine small; clients like :mod:`urllib` handle this
    transparently.

    With a coalescer attached, ``GET /predict`` is *deferred* instead
    of answered inline: the loop submits the query to the coalescer and
    moves on; when the shared batch gather lands, the coalescer's flush
    worker pushes the finished response onto a completion queue and
    pokes the loop through a wake pipe, which then writes the response
    — the event loop never sleeps out a coalescing window inside a
    handler.
    """

    #: selector key marking the wake pipe's read end
    _WAKE = "wake"

    def __init__(
        self, address: Tuple[str, int], core: GatewayCore, verbose: bool
    ) -> None:
        self.core = core
        self.verbose = verbose
        self._listener = socket.create_server(
            address, family=socket.AF_INET, backlog=128, reuse_port=False
        )
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        # completion plumbing for deferred (coalesced) responses: any
        # thread may append + poke the wake pipe; only the loop drains
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(
            self._wake_recv, selectors.EVENT_READ, self._WAKE
        )
        self._completions: "deque[Tuple[_Connection, int, Dict]]" = deque()
        self._shutdown = threading.Event()
        self._stopped = threading.Event()
        # starts set: shutdown() must not wait on a loop that never ran
        self._stopped.set()

    # -- loop ----------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.1) -> None:
        self._stopped.clear()
        try:
            while not self._shutdown.is_set():
                try:
                    ready = self._selector.select(poll_interval)
                except (OSError, RuntimeError):
                    if self._shutdown.is_set():  # selector torn down
                        return
                    raise
                for key, events in ready:
                    if key.data is None:
                        self._accept()
                    elif key.data is self._WAKE:
                        self._drain_completions()
                    elif events & selectors.EVENT_READ:
                        self._read(key.data)
                    elif events & selectors.EVENT_WRITE:
                        self._write(key.data)
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        self._shutdown.set()
        self._stopped.wait(timeout=5.0)

    def server_close(self) -> None:
        for key in list(self._selector.get_map().values()):
            if key.data is not None and key.data is not self._WAKE:
                self._close(key.data)
        for sock in (self._listener, self._wake_recv, self._wake_send):
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError):
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()

    # -- deferred completions (coalesced predict) ----------------------

    def _complete_later(
        self, conn: "_Connection", status: int, payload: Dict
    ) -> None:
        """Hand a finished response back to the loop (any thread)."""
        self._completions.append((conn, status, payload))
        try:
            self._wake_send.send(b"\x00")
        except (BlockingIOError, OSError):  # pragma: no cover - full pipe
            pass  # a poke is already pending; the loop will drain

    def _drain_completions(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass
        while True:
            try:
                conn, status, payload = self._completions.popleft()
            except IndexError:
                return
            if conn.sock.fileno() < 0:  # client went away meanwhile
                continue
            self._respond(conn, status, payload)

    # -- connection handling -------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _Connection(sock)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _close(self, conn: _Connection) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _read(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if not chunk:
            self._close(conn)
            return
        conn.inbuf += chunk
        if conn.head is None:
            try:
                end = _head_end(conn.inbuf)
                if end < 0:
                    return
                conn.head = _parse_head(conn.inbuf[:end])
            except _HttpError as exc:
                self._respond(conn, exc.status, {"error": str(exc)})
                return
            conn.header_end = end + 4
        if len(conn.inbuf) - conn.header_end >= conn.head.content_length:
            self._dispatch(conn)

    def _dispatch(self, conn: _Connection) -> None:
        method, target = conn.head.method, conn.head.target
        body = conn.inbuf[
            conn.header_end : conn.header_end + conn.head.content_length
        ]
        path, params = _split_target(target)
        try:
            deferred = self.core.try_submit_coalesced(
                method,
                path,
                params,
                lambda status, payload, conn=conn: self._complete_later(
                    conn, status, payload
                ),
            )
        except Exception:  # pragma: no cover - defensive
            deferred = False
        if deferred:
            # quiesce the connection while the coalescer owns it: stop
            # watching for reads (trailing/pipelined bytes must not
            # re-dispatch the same parse state) — _respond re-registers
            # the socket for writing when the completion lands
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            conn.inbuf = b""
            if self.verbose:  # pragma: no cover - debug aid
                print(
                    f"[selectors] {method} {target} -> coalescing",
                    file=sys.stderr,
                )
            return
        status, payload = _answer(self.core, method, path, params, body)
        if self.verbose:  # pragma: no cover - debug aid
            print(
                f"[selectors] {method} {target} -> {status}", file=sys.stderr
            )
        self._respond(conn, status, payload)

    def _respond(self, conn: _Connection, status: int, payload) -> None:
        conn.outbuf = _render(status, payload, keep_alive=False)
        try:
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
        except KeyError:
            # the connection was quiesced while its response was
            # deferred through the coalescer; watch it again for writes
            self._selector.register(conn.sock, selectors.EVENT_WRITE, conn)
        self._write(conn)

    def _write(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        conn.outbuf = conn.outbuf[sent:]
        if not conn.outbuf:
            self._close(conn)


# ----------------------------------------------------------------------
# the public gateway
# ----------------------------------------------------------------------


class ServingGateway:
    """Owns the HTTP server wrapping a service (+ optional ingest).

    Parameters
    ----------
    service:
        Query frontend.
    ingest:
        Write path — an :class:`~repro.serving.ingest.IngestPipeline`
        or a :class:`~repro.serving.shard.ShardedIngest`; omit for a
        read-only gateway (the ingest/refresh POST endpoints then
        return 400; ``/estimate/batch`` still works).
    checkpointer:
        Optional :class:`~repro.serving.guard.BackgroundCheckpointer`;
        its thread lives exactly as long as the gateway serves.
    host, port:
        Bind address; ``port=0`` lets the OS pick a free port (read it
        back from :attr:`port` / :attr:`url`).
    backend:
        ``"threading"`` (persistent acceptor threads, keep-alive) or
        ``"selectors"`` (single-threaded non-blocking event loop).
    coalesce_window:
        Seconds concurrent single ``GET /predict`` requests wait to
        share one batch gather; ``None`` disables coalescing.  On the
        threading backend the handler thread blocks for the window; on
        the selectors backend the request is *deferred* — the loop
        enqueues it into the coalescer and writes the response when
        the batch completes, so the event loop never blocks.
    membership:
        Optional :class:`~repro.serving.membership.MembershipManager`;
        enables the ``/membership`` endpoints (live node join/leave).
        When coalescing is also on, the manager's coalescer reference
        is wired here so epoch transitions refresh its cached model
        size.
    autopilot:
        Optional :class:`~repro.serving.autopilot.Autopilot`; its
        sampling thread lives exactly as long as the gateway serves,
        and ``/stats`` gains the ``autopilot`` section.
    deadline_s:
        Optional per-request budget in seconds; a handled request that
        exceeds it answers ``503 + Retry-After`` instead of a zombie
        success the client already timed out on.
    shed_watermark:
        Optional queue-fill fraction in ``(0, 1]`` arming a
        :class:`~repro.serving.faults.LoadShedder` over the ingest
        plane: ingest sheds at the watermark, batch estimates at
        ``min(watermark + 0.1, 1.0)``, single reads never.
    trace:
        Arm the module-global request tracer (off by default: the
        untraced hot path pays one branch).  Spans are minted per
        ``POST /ingest`` and stamped through admit → queue → apply →
        publish; read them back in the ``traces`` section of
        ``/stats``.  The tracer is process-global, like the fault
        injector; a gateway that armed it disarms it on :meth:`stop`.
    verbose:
        Log requests to stderr (quiet by default: tests and benches).

    Every gateway owns a :class:`~repro.obs.metrics.MetricsRegistry`
    (:attr:`registry`) serving ``GET /metrics``: request counters and
    latency histograms are first-class instruments; ingest/shard/
    fault/cluster/autopilot vitals ride scrape-time collectors over
    the same snapshot surfaces ``/stats`` reads.
    """

    def __init__(
        self,
        service: PredictionService,
        ingest=None,
        *,
        checkpointer: Optional[BackgroundCheckpointer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = "threading",
        coalesce_window: Optional[float] = None,
        coalesce_max_batch: int = 4096,
        membership=None,
        autopilot=None,
        deadline_s: Optional[float] = None,
        shed_watermark: Optional[float] = None,
        trace: bool = False,
        verbose: bool = False,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.service = service
        self.ingest = ingest
        self.checkpointer = checkpointer
        self.backend = backend
        self.coalescer = None
        if coalesce_window is not None:
            from repro.serving.shard import RequestCoalescer

            self.coalescer = RequestCoalescer(
                service,
                window=coalesce_window,
                max_batch=coalesce_max_batch,
            )
        self.membership = membership
        if membership is not None and self.coalescer is not None:
            # epoch transitions must refresh the coalescer's cached n
            membership.coalescer = self.coalescer
        self.autopilot = autopilot
        shedder = None
        if shed_watermark is not None:
            if ingest is None:
                raise ValueError(
                    "shed_watermark needs an ingest plane (the shedder "
                    "reads its queue-fill signal)"
                )
            shedder = faults.LoadShedder(
                ingest,
                ingest_watermark=shed_watermark,
                batch_watermark=min(shed_watermark + 0.1, 1.0),
            )
        self._owns_tracer = False
        if trace and tracing.tracer is None:
            tracing.install()
            self._owns_tracer = True
        self.registry = MetricsRegistry()
        self.core = GatewayCore(
            service,
            ingest,
            checkpointer=checkpointer,
            coalescer=self.coalescer,
            membership=membership,
            autopilot=autopilot,
            deadline_s=deadline_s,
            shedder=shedder,
            registry=self.registry,
        )
        bridge.bind_gateway(self.registry, self.core)
        bind_obs = getattr(ingest, "bind_obs", None)
        if bind_obs is not None:
            # the routed planes arm chunk metadata + latency histograms
            bind_obs(self.registry)
        if backend == "selectors":
            self._server = _SelectorsServer((host, port), self.core, verbose)
        else:
            self._server = _ThreadedServer((host, port), self.core, verbose)
        self._thread: Optional[threading.Thread] = None
        self._activated = False

    @property
    def host(self) -> str:
        """Bound interface address."""
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """Bound TCP port (the OS pick when constructed with 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    def _activate(self) -> None:
        self._activated = True
        if self.checkpointer is not None:
            self.checkpointer.start()
        if self.coalescer is not None:
            self.coalescer.start()
        if self.autopilot is not None:
            self.autopilot.start()

    def start(self) -> "ServingGateway":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._activate()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serving-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        self._activate()
        self._server.serve_forever()

    def stop(self) -> None:
        """Shut down the server and release the port."""
        if self._activated:
            # shutdown() blocks forever unless serve_forever has run.
            self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.autopilot is not None and self._activated:
            self.autopilot.stop()
        if self.coalescer is not None and self._activated:
            self.coalescer.stop()
        if self.checkpointer is not None and self._activated:
            self.checkpointer.stop()
        close_ingest = getattr(self.ingest, "close", None)
        if close_ingest is not None:
            close_ingest()
        self._server.server_close()
        if self._owns_tracer:
            self._owns_tracer = False
            tracing.uninstall()

    def __enter__(self) -> "ServingGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingGateway(url={self.url!r}, backend={self.backend!r})"
        )
