"""HTTP load generator: open- and closed-loop streams over raw sockets.

Every request opens its own TCP connection and sends ``Connection:
close``, as the repo's ``ServingClient`` (urllib) does, so a stream
never holds more than one connection open.  Requests are encoded to
bytes before timing starts; the hot loop only connects, sends, reads
to end of stream and records timestamps.  Replies are parsed after the
phase, from the bytes kept here.
"""
from __future__ import annotations

import gc
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

#: seconds before a request counts as timed out (and failed)
TIMEOUT_S = 10.0


def get_request(path: str) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    ).encode("ascii")


def post_request(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body


def exchange(address, request: bytes) -> bytes:
    """Send one request on a fresh connection; the raw reply bytes."""
    with socket.create_connection(address, timeout=TIMEOUT_S) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(262144)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def split_reply(raw: bytes):
    """``(status, body)`` of a raw HTTP reply; status 0 if malformed."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep or not head.startswith(b"HTTP/1.") or len(head) < 12:
        return 0, b""
    try:
        return int(head[9:12]), body
    except ValueError:
        return 0, b""


@dataclass
class Stream:
    """One request stream, run by one generator thread.

    ``due`` holds send offsets in seconds for an open loop (each
    request is timed from when it was due); ``None`` makes a closed
    loop (the next request goes out when the previous reply is in).
    ``requests`` is cycled in order; ``pairs[k]`` holds the pairs
    request ``k`` asks about, for checking its answer.  ``keep_every``
    keeps the whole body of every n-th reply and only its last 64 bytes
    (where the ``version`` field sits) of the others.
    """

    name: str
    kind: str  # "read" or "ingest"
    route: str
    requests: Sequence[bytes]
    due: Optional[np.ndarray] = None
    pairs_per_request: int = 1
    keep_every: int = 1
    pairs: Optional[Sequence] = None


@dataclass
class Record:
    """What one stream did in one window."""

    stream: Stream
    index: List[int] = field(default_factory=list)
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    status: List[int] = field(default_factory=list)
    body: List[bytes] = field(default_factory=list)


def _run(stream: Stream, address, start: float, offset: float, end: float,
         cursor: int, record: Record) -> None:
    """Drive ``stream`` from ``start`` until ``end`` (perf_counter s).

    Open loop: sends every request due in ``[offset, offset + end -
    start)`` of the stream's schedule.  Closed loop: starts at request
    ``cursor`` of the cycled pool.
    """
    clock = time.perf_counter
    requests = stream.requests
    pool = len(requests)
    keep = stream.keep_every
    if stream.due is not None:
        due = stream.due
        lo, hi = np.searchsorted(due, [offset, offset + end - start])
        schedule = zip(range(lo, hi), (start + due[lo:hi] - offset).tolist())
    else:
        schedule = None
    k = cursor
    while True:
        if schedule is not None:
            item = next(schedule, None)
            if item is None:
                return
            k, due_at = item
            wait = due_at - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
        else:
            sent = due_at = clock()
            if sent >= end:
                return
        try:
            status, body = split_reply(exchange(address, requests[k % pool]))
        except OSError:
            status, body = -1, b""
        done = clock()
        record.index.append(k)
        record.due.append(due_at)
        record.sent.append(sent)
        record.done.append(done)
        record.status.append(status)
        record.body.append(
            body if (len(record.index) - 1) % keep == 0 else body[-64:]
        )
        k += 1


def run_window(streams: Sequence[Stream], address, offset: float,
               seconds: float, cursors: dict) -> List[Record]:
    """Run up to two streams concurrently for ``seconds``.

    One stream runs on a helper thread and one on the calling thread,
    so the generator uses at most two threads and two connections.
    ``cursors`` maps a closed-loop stream's name to its next request
    and is advanced here, so consecutive windows continue the cycle.
    The garbage collector is paused inside the window.
    """
    if not 1 <= len(streams) <= 2:
        raise ValueError("a window runs one or two streams")
    records = [Record(s) for s in streams]
    start = time.perf_counter() + 0.01
    end = start + seconds
    gc.collect()
    gc.disable()
    errors: List[BaseException] = []

    def helper(stream: Stream, record: Record) -> None:
        try:
            _run(stream, address, start, offset, end,
                 cursors.get(stream.name, 0), record)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    try:
        threads = [
            threading.Thread(target=helper, args=(s, r))
            for s, r in zip(streams[1:], records[1:])
        ]
        for t in threads:
            t.start()
        try:
            _run(streams[0], address, start, offset, end,
                 cursors.get(streams[0].name, 0), records[0])
        finally:
            for t in threads:
                t.join()
    finally:
        gc.enable()
    if errors:
        raise errors[0]
    for s, r in zip(streams, records):
        if s.due is None and r.index:
            cursors[s.name] = r.index[-1] + 1
    return records
