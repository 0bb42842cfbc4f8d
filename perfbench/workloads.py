"""The benchmark's workloads and the inputs they send, all from one seed.

The served model is fixed: the Meridian twin with 1000 nodes, RTT
(symmetric), the paper's pre-training (``rounds = 20 * k``) and
``build_gateway``'s default model seed.  The workload seed drives only
the traffic: which pairs are read, which measurements are posted and
when.  The evaluation pairs behind ``served_auc`` use their own fixed
seed, so every run scores the same pairs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from loadgen import Stream, get_request, post_request

NODES = 1000
#: build_gateway's default model seed, passed explicitly so the
#: benchmark's own copy of the twin is the one the gateway serves
MODEL_SEED = 20111206
EVAL_SEED = 7
EVAL_PAIRS = 16384
BATCH_PAIRS = 1024
#: Zipf exponent over READ_KEYS candidate pairs; with the gateway's
#: 4096-entry LRU cache about half of the point reads hit
ZIPF_S = 0.95
READ_KEYS = 100_000
HOT_SHARE = 0.3
#: per-pair token bucket on the two process-plane workloads: the hot
#: pair of every ingest body exceeds it, so the admission guard rejects
PAIR_RATE_LIMIT = 50.0

MODEL = {"dataset": "meridian", "nodes": NODES, "seed": MODEL_SEED}
PROCESS_PLANE = dict(MODEL, workers="processes", shards=2,
                     pair_rate_limit=PAIR_RATE_LIMIT)
THREAD_PLANE = dict(MODEL, workers="threads", shards=4)


@dataclass
class Phase:
    """Streams that run together for ``share`` of the run's seconds."""

    share: float
    streams: List[Stream]


@dataclass
class Workload:
    name: str
    gateway: Dict[str, object]
    build: Callable[["Inputs", float], List[Phase]]
    #: the latency whose traced/untraced ratio is trace.overhead_ratio
    primary: str


class Inputs:
    """Seeded request material over the twin's ground truth."""

    def __init__(self, data, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.quantities = np.asarray(data.quantities, dtype=float)
        self.read_keys = self.pairs(
            np.random.default_rng([seed, 1]), READ_KEYS
        )
        weights = 1.0 / np.arange(1, READ_KEYS + 1) ** ZIPF_S
        self.read_weights = weights / weights.sum()

    def pairs(self, rng, count: int) -> np.ndarray:
        """``count`` uniform pairs with a finite ground truth, no self."""
        out = np.empty((0, 2), dtype=int)
        n = self.quantities.shape[0]
        while len(out) < count:
            cand = rng.integers(0, n, size=(2 * count, 2))
            ok = (cand[:, 0] != cand[:, 1]) & np.isfinite(
                self.quantities[cand[:, 0], cand[:, 1]]
            )
            out = np.concatenate([out, cand[ok]])
        return out[:count]

    def poisson(self, rate: float, seconds: float) -> np.ndarray:
        size = int(rate * seconds * 1.3) + 64
        gaps = self.rng.exponential(1.0 / rate, size=size)
        due = np.cumsum(gaps)
        return due[due < seconds]

    def point_reads(self, name: str, rate: float, seconds: float) -> Stream:
        """Open-loop Poisson ``GET /predict`` over Zipf-skewed pairs."""
        due = self.poisson(rate, seconds)
        ranks = self.rng.choice(READ_KEYS, size=len(due), p=self.read_weights)
        pairs = self.read_keys[ranks]
        requests = [
            get_request(f"/predict?src={i}&dst={j}")
            for i, j in pairs.tolist()
        ]
        return Stream(name, "read", "/predict", requests, due=due,
                      pairs=pairs)

    def batch_reads(self, name: str, pool: int = 32) -> Stream:
        """Closed-loop 1024-pair ``POST /estimate/batch`` bodies."""
        pairs = [self.pairs(self.rng, BATCH_PAIRS) for _ in range(pool)]
        requests = [
            post_request(
                "/estimate/batch", json.dumps({"pairs": p.tolist()}).encode()
            )
            for p in pairs
        ]
        return Stream(name, "read", "/estimate/batch", requests,
                      pairs_per_request=BATCH_PAIRS, keep_every=16,
                      pairs=pairs)

    def _ingest_body(self, size: int, hot=None) -> bytes:
        pairs = self.pairs(self.rng, size)
        if hot is not None:
            pairs[: int(HOT_SHARE * size)] = hot
            pairs = pairs[self.rng.permutation(size)]
        values = np.round(self.quantities[pairs[:, 0], pairs[:, 1]], 4)
        rows = [[i, j, v] for (i, j), v in zip(pairs.tolist(), values.tolist())]
        return json.dumps({"measurements": rows}).encode()

    def open_ingest(self, name: str, rate: float, size: int,
                    seconds: float) -> Stream:
        """Fixed-rate open-loop ``POST /ingest`` of uniform pairs."""
        due = np.arange(int(rate * seconds) + 1) / rate
        due = due[due < seconds]
        requests = [
            post_request("/ingest", self._ingest_body(size)) for _ in due
        ]
        return Stream(name, "ingest", "/ingest", requests, due=due,
                      pairs_per_request=size)

    def closed_ingest(self, name: str, size: int, pool: int = 256) -> Stream:
        """Closed-loop ``POST /ingest``; ``HOT_SHARE`` of each body is one
        hot pair, so in-batch dedup and the pair limiter do real work."""
        hot = self.pairs(self.rng, 1)[0]
        requests = [
            post_request("/ingest", self._ingest_body(size, hot=hot))
            for _ in range(pool)
        ]
        return Stream(name, "ingest", "/ingest", requests,
                      pairs_per_request=size)


# ``horizon`` is the longest time any phase runs, warm-up included:
# open-loop schedules are drawn that long and cut by the window.


def _point_reads(inputs: Inputs, horizon: float) -> List[Phase]:
    return [
        Phase(0.6, [
            inputs.point_reads("reads-a", 300.0, horizon),
            inputs.point_reads("reads-b", 300.0, horizon),
        ]),
        # ingest metrics exist on every workload; here they come from a
        # closing phase, after the reads, so the reads see one version
        Phase(0.4, [inputs.closed_ingest("ingest", 1024)]),
    ]


def _batch_under_ingest(inputs: Inputs, horizon: float) -> List[Phase]:
    return [
        Phase(1.0, [
            inputs.batch_reads("batch"),
            inputs.open_ingest("ingest", 40.0, 256, horizon),
        ]),
    ]


def _ingest_stream(inputs: Inputs, horizon: float) -> List[Phase]:
    return [
        Phase(1.0, [
            inputs.closed_ingest("ingest", 1024),
            inputs.point_reads("reads", 100.0, horizon),
        ]),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("point_reads", PROCESS_PLANE, _point_reads, "read_p50_ms"),
        Workload("batch_under_ingest", THREAD_PLANE, _batch_under_ingest,
                 "read_p50_ms"),
        Workload("ingest_stream", PROCESS_PLANE, _ingest_stream,
                 "ingest_p50_ms"),
    )
}


def eval_requests(inputs: Inputs) -> tuple:
    """The fixed evaluation pairs, as batch requests, and the pairs."""
    pairs = inputs.pairs(np.random.default_rng(EVAL_SEED), EVAL_PAIRS)
    requests = [
        post_request(
            "/estimate/batch",
            json.dumps({"pairs": chunk.tolist()}).encode(),
        )
        for chunk in np.split(pairs, EVAL_PAIRS // BATCH_PAIRS)
    ]
    return pairs, requests
