"""Gateway launcher: runs one ``build_gateway`` instance in its own process.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/server.py '<json kwargs for build_gateway>'

Prints one JSON line ``{"port": ..., "pid": ...}`` once the gateway is
serving, then obeys line commands on stdin:

``trace on`` / ``trace off``
    Wrap (or unwrap) the public layer functions listed in ``LAYERS`` on
    the built instances.  Unwrapped, the gateway runs its own code with
    no benchmark hook in the call path.
``dump <path>``
    Write every span recorded so far to ``<path>`` as JSON lines.
``stop`` (or end of input)
    Stop the gateway, its workers included, and exit.

Every command is answered with one JSON line.  Nothing under ``src/``
is modified: the spans are recorded around calls into each layer.
"""
from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Tracer:
    """In-memory span recorder for the wrapped layer functions.

    A span is ``(name, start_ns, end_ns, span_id, parent_id, request_id,
    label)``.  ``GatewayCore.handle`` opens a request: it mints the
    request id that every span nested under it on the same thread
    shares.  Spans opened outside a request (shard worker threads,
    background publishes) carry request id ``None``.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        self._originals: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, label_of=None, request=False):
        """A traced stand-in for ``fn`` recording span ``name``."""
        ids = self._ids
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            if stack:
                parent_id, request_id = stack[-1]
            else:
                parent_id = None
                request_id = span_id if request else None
            stack.append((span_id, request_id))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = label_of(*args) if label_of is not None else None
                spans.append(
                    (name, start, end, span_id, parent_id, request_id, label)
                )

        return traced

    def patch(self, owner, attr, name, *, on_class=False, **wrap_kwargs):
        """Record the patch; applied by :meth:`install`."""
        self._patches.append((owner, attr, name, on_class, wrap_kwargs))

    def install(self) -> None:
        # an instance patch wraps the bound method the gateway would
        # have called; a class patch wraps the plain function
        self._originals = [getattr(p[0], p[1]) for p in self._patches]
        for (owner, attr, name, _on_class, kwargs), original in zip(
            self._patches, self._originals
        ):
            setattr(owner, attr, self.wrap(name, original, **kwargs))

    def uninstall(self) -> None:
        for (owner, attr, _name, on_class, _kwargs), original in zip(
            self._patches, self._originals
        ):
            if on_class:
                setattr(owner, attr, original)
            else:
                # drop the instance attribute: lookups fall back to the
                # class method, exactly as before tracing
                delattr(owner, attr)

    def dump(self, path: str) -> int:
        keys = ("name", "start_ns", "end_ns", "id", "parent", "request",
                "label")
        spans = list(self.spans)
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
        return len(spans)


def _route_label(method, path, *_rest):
    return path


def register_layers(tracer: Tracer, gateway) -> None:
    """Declare which public functions of the built instances are traced."""
    from repro.serving.procs import ProcessShardedIngest, ProcessShardedStore
    from repro.serving.shard import (
        ShardedCoordinateStore,
        ShardedIngest,
        ShardedSnapshot,
    )

    core = gateway.core
    tracer.patch(
        core, "handle", "gateway.handle", label_of=_route_label, request=True
    )
    service = core.service
    tracer.patch(service, "predict_pair", "service.predict_pair")
    tracer.patch(service, "predict_pairs", "service.predict_pairs")
    # snapshots are rebuilt on every publish: patch their class
    tracer.patch(
        ShardedSnapshot,
        "estimate_pairs",
        "shard.estimate_pairs",
        on_class=True,
    )
    store = service.store
    ingest = core.ingest
    if isinstance(store, ProcessShardedStore):
        tracer.patch(store, "snapshot", "procs.snapshot")
    elif isinstance(store, ShardedCoordinateStore):
        tracer.patch(store, "snapshot", "shard.snapshot")
        tracer.patch(store, "publish_shard", "store.publish_shard")
    if isinstance(ingest, ProcessShardedIngest):
        tracer.patch(ingest, "submit_many", "procs.submit_many")
    elif isinstance(ingest, ShardedIngest):
        tracer.patch(ingest, "submit_many", "shard.submit_many")


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.serving.app import build_gateway

    kwargs = json.loads(argv[1])
    gateway = build_gateway(**kwargs).start()
    tracer = Tracer()
    register_layers(tracer, gateway)
    traced = False

    def reply(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    try:
        reply({"port": gateway.port, "pid": os.getpid()})
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "trace":
                want = arg == "on"
                if want != traced:
                    (tracer.install if want else tracer.uninstall)()
                    traced = want
                reply({"trace": traced})
            elif command == "dump":
                reply({"spans": tracer.dump(arg)})
            elif command == "stop":
                break
            else:
                reply({"error": f"unknown command {line.strip()!r}"})
    finally:
        gateway.stop()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
