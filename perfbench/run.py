"""Out-of-process HTTP benchmark of the serving gateway.

Run from the repository root::

    python3 perfbench/run.py --workload point_reads --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a readable report.  The run exits non-zero
when a correctness check fails.  Full results, the machine stamp and
the spans of a traced run are written under ``.perfbench_out/``.

This process is the load generator (at most two threads, one
connection each); the gateway runs in a process of its own, started by
``perfbench/server.py``.  See ``perfbench/DESIGN.md`` for why each
workload exists and which layer metric should move which end-to-end
metric.
"""
from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

# The generator keeps to two threads: numpy's BLAS pool would add one.
# The gateway process gets the environment as it was (see Server).
_SERVER_ENV = dict(os.environ)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from loadgen import exchange, run_window, split_reply  # noqa: E402
from workloads import (  # noqa: E402
    MODEL_SEED,
    NODES,
    WORKLOADS,
    Inputs,
    eval_requests,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

#: how far the served AUC may fall below its pre-ingest value
AUC_MARGIN = 0.02
#: relative tolerance for "equal up to float rounding"
ESTIMATE_RTOL = 1e-9
#: gateway instances per untraced run; each serves an equal share of
#: the timed load, and every end-to-end metric is their median
SETUPS = 3
#: longest warm-up before each phase on each instance
WARMUP_S = 1.0
#: trace-run windows alternate untraced / traced
TRACE_WINDOWS = (False, True, False, True)
#: smallest chunk of a robust percentile
MIN_CHUNK = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_pairs_per_s": "pairs/s",
    "ingest_mps": "measurements/s",
    "served_auc": "auc",
    "availability": "ratio",
    "rss_mb": "MB",
}


@dataclass
class Window:
    """One timed window of a phase and what the plane applied in it.

    ``drain`` is the final drain after the phase's last window: the
    applied counter is read after it, so ``ingest_mps`` counts only
    measurements the plane really applied.
    """

    traced: bool
    records: list
    seconds: float
    drain: float = 0.0
    applied: int = 0

    def of_kind(self, kind: str) -> list:
        return [r for r in self.records if r.stream.kind == kind]


def robust_percentile(windows, kind: str, q: float) -> float:
    """Percentile ``q`` of the latencies of ``kind``, in ms.

    The samples, in due-time order, are cut into consecutive chunks
    that each hold at least ten samples beyond the percentile (and at
    least ``MIN_CHUNK``), and the result is the median of the chunks'
    percentiles: a pause or a burst of host noise that hits one chunk
    moves that chunk only.  With fewer than three chunks' worth of
    samples it is the percentile of all of them.
    """
    samples = latencies(r for w in windows for r in w.of_kind(kind))
    chunk = max(MIN_CHUNK, math.ceil(10 / (1 - q / 100)))
    chunks = len(samples) // chunk
    if chunks < 3:
        return percentile(samples, q)
    return statistics.median(
        percentile(part, q) for part in np.array_split(samples, chunks)
    )


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# the gateway process
# ----------------------------------------------------------------------


class Server:
    """One gateway process started through ``server.py``."""

    def __init__(self, config: dict) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=_SERVER_ENV,
        )
        try:
            hello = self._reply()
            self.port = hello["port"]
            self.pid = hello["pid"]
            self.address = ("127.0.0.1", self.port)
            while True:
                try:
                    status, _ = self.request("GET", "/health")
                except OSError:
                    status = 0
                if status == 200:
                    break
                time.sleep(0.005)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"gateway process exited with {self.proc.wait()}"
            )
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def request(self, method: str, path: str, body: bytes = b""):
        conn = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            conn.request(method, path, body=body or None)
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        check(status == 200, f"GET {path} answered {status}")
        return json.loads(body)

    def post_json(self, path: str, payload: dict) -> dict:
        status, body = self.request(
            "POST", path, json.dumps(payload).encode()
        )
        check(status == 200, f"POST {path} answered {status}")
        return json.loads(body)

    def pids(self) -> list:
        """The gateway and every process below it (the shard workers)."""
        found, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            found.append(pid)
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tasks:
                try:
                    with open(f"/proc/{pid}/task/{tid}/children") as fh:
                        todo.extend(int(c) for c in fh.read().split())
                except OSError:
                    pass
        return found

    def cpu_s(self) -> float:
        """User + system CPU seconds of the gateway and its workers."""
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])
        return total / ticks

    def rss_mb(self) -> float:
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmRSS:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def close(self) -> None:
        """Stop the gateway and wait for it (and its workers) to end."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                for pid in self.pids():
                    try:
                        os.kill(pid, 9)
                    except OSError:
                        pass
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# /metrics and /stats
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> dict:
    """Prometheus text -> ``{(name, labels): value}``."""
    out = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            out[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return out


def family_sum(metrics: dict, name: str) -> float:
    return sum(v for (n, _), v in metrics.items() if n == name)


def histogram_delta(before: dict, after: dict, family: str) -> dict:
    """p50, p99 (ms) and count of a histogram between two scrapes."""
    from repro.obs.metrics import histogram_quantile

    cumulative: dict = {}  # upper bound -> count at or below it
    for (name, labels), value in after.items():
        if name == family + "_bucket":
            le = re.search(r'le="([^"]+)"', labels).group(1)
            bound = float("inf") if le == "+Inf" else float(le)
            cumulative[bound] = cumulative.get(bound, 0.0) + value - before.get(
                (name, labels), 0.0)
    count = cumulative.pop(float("inf"), 0.0)
    counts = np.diff([cumulative[b] for b in sorted(cumulative)],
                     prepend=0.0).tolist()
    return {"count": count,
            "p50": 1000.0 * histogram_quantile(counts, count, 0.5),
            "p99": 1000.0 * histogram_quantile(counts, count, 0.99)}


def ingest_counters(stats: dict) -> dict:
    ingest = stats.get("ingest", {})
    return {
        k: int(ingest.get(k, 0))
        for k in ("received", "applied", "deduped", "rejected_guard",
                  "dropped_invalid", "dropped_nan", "dropped_backpressure")
    }


# ----------------------------------------------------------------------
# machine stamp
# ----------------------------------------------------------------------


def machine_stamp(seed: int) -> dict:
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        # the checkout may not be a git repository: the source digest
        # identifies the code measured either way
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# references and replies
# ----------------------------------------------------------------------


def offline_model(data, tau: float):
    """The served model rebuilt here, the way ``build_gateway`` trains it."""
    from repro.core.config import DMFSGDConfig
    from repro.core.engine import DMFSGDEngine, matrix_label_fn
    from repro.experiments.common import PAPER_NEIGHBORS

    config = DMFSGDConfig.paper_defaults("meridian")
    engine = DMFSGDEngine(
        data.n,
        matrix_label_fn(data.class_matrix(tau)),
        config,
        metric=data.metric,
        rng=MODEL_SEED,
    )
    engine.run(rounds=20 * PAPER_NEIGHBORS["meridian"])
    table = engine.coordinates
    return table.U.copy(), table.V.copy()


_VERSION = re.compile(rb'"version": (\d+)')


def reply_version(body: bytes) -> int:
    found = _VERSION.findall(body)
    check(bool(found), f"reply carries no version: {body[-64:]!r}")
    return int(found[-1])


def sign_label(estimate: float) -> int:
    return -1 if estimate < 0 else 1


def served_auc(server: Server, eval_requests, truth) -> float:
    """AUC of the served estimates on the fixed evaluation pairs."""
    from repro.evaluation.roc import auc_score

    scores = []
    for request in eval_requests:
        status, body = split_reply(exchange(server.address, request))
        check(status == 200, f"evaluation batch answered {status}")
        scores.extend(
            np.nan if e is None else e for e in json.loads(body)["estimates"]
        )
    return auc_score(truth, np.asarray(scores, dtype=float))


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


@dataclass
class Instance:
    """One gateway instance: its start-up, what it served, its checks."""

    setup_s: float
    base_version: int = 0
    pre_auc: float = 0.0
    post_auc: float = 0.0
    rss_mb: float = 0.0
    windows: list = field(default_factory=list)  # the timed windows
    warm: list = field(default_factory=list)  # records of the warm-ups
    stats: tuple = ()  # /stats before the first phase and after the last
    metrics: tuple = ()  # /metrics, likewise
    cpu_server: float = 0.0
    cpu_gen: float = 0.0
    timed_wall: float = 0.0
    keepalive_ms: Optional[float] = None
    spans: Optional[list] = None
    attempted: int = 0
    failed: int = 0


def measure(server: Server, inst: Instance, phases, plan, seconds: float,
            warmup: float, offsets: dict, cursors: dict, evaluation,
            spans_path: Optional[str]) -> None:
    """Run every phase once on ``server``: a warm-up, then the windows
    of ``plan``, which share ``seconds`` in the phases' proportions.

    ``offsets`` (each phase's place in its open-loop schedules) and
    ``cursors`` (each closed-loop stream's place in its pool) carry over
    from one instance to the next, so every instance sends requests of
    its own.
    """
    trace = spans_path is not None
    inst.base_version = server.get_json("/health")["version"]
    inst.pre_auc = served_auc(server, *evaluation)
    stats0 = server.get_json("/stats")
    metrics0 = parse_metrics(server.request("GET", "/metrics")[1].decode())
    for index, phase in enumerate(phases):
        has_ingest = any(s.kind == "ingest" for s in phase.streams)
        offset = offsets.get(index, 0.0)
        inst.warm.append(
            run_window(phase.streams, server.address, offset, warmup, cursors)
        )
        offset += warmup
        if has_ingest:
            server.post_json("/refresh", {})
        applied = ingest_counters(server.get_json("/stats"))["applied"]
        phase_start = time.perf_counter()
        c0, g0 = server.cpu_s(), time.process_time()
        span = phase.share * seconds / len(plan)
        for n, traced in enumerate(plan):
            if trace:
                server.command("trace on" if traced else "trace off")
            started = time.perf_counter()
            records = run_window(
                phase.streams, server.address, offset, span, cursors
            )
            window = Window(traced, records, time.perf_counter() - started)
            offset += span
            if n == len(plan) - 1:
                inst.timed_wall += time.perf_counter() - phase_start
                inst.cpu_server += server.cpu_s() - c0
                inst.cpu_gen += time.process_time() - g0
                inst.rss_mb = server.rss_mb()
                if trace:
                    server.command("trace off")
                if has_ingest:
                    # the final drain: a measurement counts once applied
                    server.post_json("/refresh", {})
                    window.drain = time.perf_counter() - started - (
                        window.seconds)
            if has_ingest:
                now = ingest_counters(server.get_json("/stats"))["applied"]
                window.applied, applied = now - applied, now
            inst.windows.append(window)
        offsets[index] = offset
    server.post_json("/refresh", {})
    stats1 = server.get_json("/stats")
    metrics1 = parse_metrics(server.request("GET", "/metrics")[1].decode())
    inst.stats, inst.metrics = (stats0, stats1), (metrics0, metrics1)
    inst.post_auc = served_auc(server, *evaluation)
    if trace:
        inst.keepalive_ms = keepalive_rtt_ms(server)
        server.command(f"dump {spans_path}")
        inst.spans = load_spans(spans_path)


def check_instance(inst: Instance, reference) -> list:
    """Every correctness check on what one instance served.

    Fills in ``inst.attempted`` and ``inst.failed``; returns the names
    of the checks that passed.
    """
    inst.attempted, inst.failed, accepted_total = check_replies(
        inst.warm + [w.records for w in inst.windows], reference,
        inst.base_version,
    )
    counts = ingest_counters(inst.stats[1])
    expected = accepted_total - counts["deduped"] - counts["rejected_guard"]
    check(counts["applied"] == expected,
          f"applied {counts['applied']} != accepted {accepted_total} "
          f"- deduped {counts['deduped']} - rejected {counts['rejected_guard']}")
    check(inst.post_auc >= inst.pre_auc - AUC_MARGIN,
          f"served AUC fell from {inst.pre_auc:.4f} to {inst.post_auc:.4f}")
    checks = ["versions never go down on any stream",
              "accepted <= received on every /ingest reply",
              "applied == accepted - deduped - guard-rejected after the drain",
              f"served_auc >= pre-ingest AUC - {AUC_MARGIN}"]
    if reference is not None:
        checks.append(
            "every /predict answer of the read phase equals the offline model")
    return checks


def end_to_end(inst: Instance) -> dict:
    """The end-to-end values of one instance, ``setup_s`` aside."""
    read_windows = [w for w in inst.windows if w.of_kind("read")]
    ingest_windows = [w for w in inst.windows if w.of_kind("ingest")]
    return {
        "read_p50_ms": robust_percentile(read_windows, "read", 50),
        "read_pairs_per_s": sum(
            r.stream.pairs_per_request * r.status.count(200)
            for w in read_windows for r in w.of_kind("read")
        ) / sum(w.seconds for w in read_windows),
        "ingest_mps": sum(w.applied for w in ingest_windows) / sum(
            w.seconds + w.drain for w in ingest_windows),
        "served_auc": inst.post_auc,
        "availability": 1.0 - inst.failed / inst.attempted,
        "rss_mb": inst.rss_mb,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setups: int) -> dict:
    """One run of ``name``.

    Untraced, the gateway is started ``setups`` times and every
    instance serves ``seconds / setups`` of timed load; each end-to-end
    metric is the median over the instances.  Traced, one instance
    serves all ``seconds``, in alternating untraced and traced windows.
    """
    from repro.experiments.common import get_dataset

    workload = WORKLOADS[name]
    stamp = machine_stamp(seed)
    data = get_dataset("meridian", n_hosts=NODES, seed=MODEL_SEED)
    tau = data.median()
    truth_classes = data.class_matrix(tau)
    inputs = Inputs(data, seed)
    instances = 1 if trace else setups
    plan = TRACE_WINDOWS if trace else (False,)
    # the gateway's first full garbage collection after start-up (about
    # 55 ms, some 0.8 s into load) falls inside each warm-up
    warmup = min(WARMUP_S, 0.2 * seconds / instances)
    phases = workload.build(inputs, seconds + instances * warmup)
    eval_pairs, eval_reqs = eval_requests(inputs)
    evaluation = (eval_reqs, truth_classes[eval_pairs[:, 0], eval_pairs[:, 1]])
    reference = offline_model(data, tau) if name == "point_reads" else None
    spans_path = None
    if trace:
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"{name}-seed{seed}-spans.jsonl")

    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "stamp": stamp, "checks": []}
    done = []
    offsets: dict = {}
    cursors: dict = {}
    for _ in range(instances):
        server = Server(workload.gateway)
        inst = Instance(server.setup_s)
        try:
            measure(server, inst, phases, plan, seconds / instances, warmup,
                    offsets, cursors, evaluation, spans_path)
        finally:
            server.close()
        result["checks"] = check_instance(inst, reference)
        done.append(inst)

    result["pre_ingest_auc"] = statistics.median(i.pre_auc for i in done)
    result["attempted"] = sum(i.attempted for i in done)
    result["failed"] = sum(i.failed for i in done)
    result["samples"] = {"setup_s": len(done),
                         "requests_attempted": result["attempted"],
                         "requests_failed": result["failed"]}
    if trace:
        inst = done[0]
        result["per_layer"], result["per_layer_notes"] = per_layer(
            workload, inst.windows, inst.spans, *inst.stats, *inst.metrics,
            inst.cpu_server, inst.cpu_gen, inst.timed_wall, inst.keepalive_ms,
        )
        return result
    # -- end-to-end: medians over the instances ------------------------
    each = [end_to_end(i) for i in done]
    values = {"setup_s": statistics.median(i.setup_s for i in done)}
    values.update((k, statistics.median(e[k] for e in each)) for k in each[0])
    result["end_to_end"] = {
        k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()
    }
    result["per_instance"] = [dict(e, setup_s=i.setup_s)
                              for i, e in zip(done, each)]
    # too unsteady to gate (see DESIGN.md): reported here, and per layer
    # in a traced run as e2e.<name>
    timed = [w for i in done for w in i.windows]
    result["ungated"] = {
        f"{kind}_p{q}_ms": {
            "value": statistics.median(
                robust_percentile(
                    [w for w in i.windows if w.of_kind(kind)], kind, q)
                for i in done),
            "unit": "ms"}
        for kind, q in (("read", 99), ("ingest", 50), ("ingest", 99))
    }
    result["samples"].update(
        windows=len(timed),
        read=sum(len(latencies(w.of_kind("read"))) for w in timed),
        ingest=sum(len(latencies(w.of_kind("ingest"))) for w in timed),
    )
    return result


def check_replies(record_lists, reference, base_version):
    """Check every reply, stream by stream in send order.

    Returns ``(attempted, failed, accepted)``: requests sent, requests
    that did not answer 200, and the measurements ``/ingest`` accepted.
    """
    streams: dict = {}
    for records in record_lists:
        for record in records:
            streams.setdefault(record.stream.name, []).append(record)
    attempted = failed = accepted = 0
    for name, records in streams.items():
        last = -1
        for record in records:
            stream = record.stream
            for position, (k, status, body) in enumerate(
                zip(record.index, record.status, record.body)
            ):
                attempted += 1
                if status != 200:
                    failed += 1
                    continue
                version = reply_version(body)
                check(version >= last,
                      f"{name}: version went down {last} -> {version}")
                last = version
                if position % stream.keep_every:
                    continue  # only the tail of this reply was kept
                reply = json.loads(body)
                if stream.kind == "ingest":
                    check(reply["accepted"] <= reply["received"]
                          == stream.pairs_per_request,
                          f"{name}: bad ingest reply {reply}")
                    accepted += reply["accepted"]
                else:
                    check_read(stream, k, reply, reference, base_version)
    return attempted, failed, accepted


def check_read(stream, k: int, reply: dict, reference, base_version) -> None:
    """Answers echo the pairs asked, and labels follow the estimates.

    With ``reference`` (the offline model), a ``/predict`` answer must
    also come from the unchanged pre-trained model and equal it.
    """
    pairs = stream.pairs[k % len(stream.pairs)]
    if stream.route == "/predict":
        i, j = (int(x) for x in pairs)
        check((reply["source"], reply["target"]) == (i, j),
              f"/predict answered {reply} for ({i}, {j})")
        estimate = reply["estimate"]
        check(estimate is not None and reply["label"] == sign_label(estimate),
              f"/predict label does not follow its estimate: {reply}")
        if reference is not None:
            U, V = reference
            expected = float(U[i] @ V[j])
            check(reply["version"] == base_version,
                  f"read-only phase served version {reply['version']}, "
                  f"expected {base_version}")
            check(np.isclose(estimate, expected, rtol=ESTIMATE_RTOL,
                             atol=ESTIMATE_RTOL),
                  f"/predict ({i}, {j}) = {estimate}, offline {expected}")
            check(reply["label"] == sign_label(expected),
                  f"/predict ({i}, {j}) label differs from the offline model")
        return
    estimates = np.array(
        [np.nan if e is None else e for e in reply["estimates"]], dtype=float
    )
    check(reply["sources"] == pairs[:, 0].tolist()
          and reply["targets"] == pairs[:, 1].tolist(),
          "/estimate/batch answered other pairs than it was asked")
    check(bool(np.all(np.isfinite(estimates))), "batch answer holds NaN")
    check(reply["labels"] == [sign_label(e) for e in estimates.tolist()],
          "batch labels do not follow their estimates")


def latencies(records) -> list:
    """Milliseconds from when each request was due until its reply, in
    due-time order."""
    return [
        1000.0 * (done - due)
        for due, done in sorted(
            (due, done) for r in records for due, done in zip(r.due, r.done)
        )
    ]


def keepalive_rtt_ms(server: Server, count: int = 10) -> float:
    """Median ``GET /health`` round trip on one persistent connection."""
    conn = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        conn.request("GET", "/health")
        conn.getresponse().read()
        times = []
        for _ in range(count):
            started = time.perf_counter()
            conn.request("GET", "/health")
            reply = conn.getresponse()
            reply.read()
            times.append(1000.0 * (time.perf_counter() - started))
            check(reply.status == 200, f"keep-alive /health answered "
                  f"{reply.status}")
    finally:
        conn.close()
    return statistics.median(times)


def load_spans(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------

#: name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "gateway.transport_us": "us",
    "gateway.predict.handle_us": "us",
    "gateway.predict.self_us": "us",
    "gateway.batch.handle_us": "us",
    "gateway.batch.self_us": "us",
    "gateway.ingest.handle_us": "us",
    "gateway.ingest.self_us": "us",
    "gateway.keepalive_rtt_ms": "ms",
    "service.predict_pair_us": "us",
    "service.cache_hit_ratio": "ratio",
    "service.predict_pairs_us": "us",
    "shard.estimate_pairs_us": "us",
    "shard.snapshot_us": "us",
    "shard.submit_many_us": "us",
    "shard.queue_wait_ms.p50": "ms",
    "shard.queue_wait_ms.p99": "ms",
    "shard.queue_wait_ms.count": "count",
    "shard.apply_ms.p50": "ms",
    "shard.apply_ms.p99": "ms",
    "shard.apply_ms.count": "count",
    "procs.snapshot_us": "us",
    "procs.submit_many_us": "us",
    "procs.queue_wait_ms.p50": "ms",
    "procs.queue_wait_ms.p99": "ms",
    "procs.queue_wait_ms.count": "count",
    "procs.apply_ms.p50": "ms",
    "procs.apply_ms.p99": "ms",
    "procs.apply_ms.count": "count",
    "procs.applied": "count",
    "guard.admit_ratio": "ratio",
    "ingest.deduped": "count",
    "store.publishes": "count",
    "store.publish_us": "us",
    "server.cpu_util": "ratio",
    "loadgen.late_p99_ms": "ms",
    "loadgen.cpu_util": "ratio",
    "trace.overhead_ratio": "ratio",
    "e2e.read_p99_ms": "ms",
    "e2e.ingest_p50_ms": "ms",
    "e2e.ingest_p99_ms": "ms",
}

_ROUTE_KEY = {"/predict": "predict", "/estimate/batch": "batch",
              "/ingest": "ingest"}


def per_layer(workload, windows, spans, stats0, stats1, metrics0, metrics1,
              cpu_server, cpu_gen, timed_wall, keepalive_ms):
    """Per-layer values and, for each one left at 0, why it is missing."""
    durations: dict = {}
    selfs: dict = {}
    children: dict = {}
    # spans are stored as they end, so a child comes before its parent
    for span in spans:
        us = (span["end_ns"] - span["start_ns"]) / 1000.0
        key = span["name"]
        if key == "gateway.handle":
            key = f"gateway.{_ROUTE_KEY.get(span['label'], 'other')}"
            selfs.setdefault(key, []).append(
                us - children.get(span["id"], 0.0))
        durations.setdefault(key, []).append(us)
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + us
    values, notes = {}, {}

    def p50(samples, name):
        if samples:
            return statistics.median(samples)
        notes[name] = "no calls on this workload's path"
        return 0.0

    for route in ("predict", "batch", "ingest"):
        values[f"gateway.{route}.handle_us"] = p50(
            durations.get(f"gateway.{route}", []),
            f"gateway.{route}.handle_us")
        values[f"gateway.{route}.self_us"] = p50(
            selfs.get(f"gateway.{route}", []), f"gateway.{route}.self_us")
    for name in ("service.predict_pair", "service.predict_pairs",
                 "shard.estimate_pairs", "shard.snapshot", "shard.submit_many",
                 "procs.snapshot", "procs.submit_many"):
        values[name + "_us"] = p50(durations.get(name, []), name + "_us")
    values["store.publish_us"] = p50(
        durations.get("store.publish_shard", []), "store.publish_us")
    if "store.publish_us" in notes:
        notes["store.publish_us"] = (
            "publish_shard is a thread-plane call; process workers publish "
            "in their own processes")

    traced = [r for w in windows if w.traced for r in w.records]
    untraced = [r for w in windows if not w.traced for r in w.records]
    read_route = next(r.stream.route for r in traced if r.stream.kind == "read")
    client_us = [
        1e6 * (done - sent)
        for r in traced if r.stream.route == read_route
        for sent, done in zip(r.sent, r.done)
    ]
    values["gateway.transport_us"] = statistics.median(client_us) - values[
        f"gateway.{_ROUTE_KEY[read_route]}.handle_us"]
    values["gateway.keepalive_rtt_ms"] = keepalive_ms

    svc0, svc1 = stats0["service"], stats1["service"]
    hits = svc1["cache_hits"] - svc0["cache_hits"]
    lookups = hits + svc1["cache_misses"] - svc0["cache_misses"]
    values["service.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    if not lookups:
        notes["service.cache_hit_ratio"] = "no single-pair reads"

    plane = "procs" if workload.gateway["workers"] == "processes" else "shard"
    other = "shard" if plane == "procs" else "procs"
    for family, metric in (("repro_ingest_queue_wait_seconds", "queue_wait_ms"),
                           ("repro_ingest_apply_seconds", "apply_ms")):
        hist = histogram_delta(metrics0, metrics1, family)
        for q in ("p50", "p99", "count"):
            values[f"{plane}.{metric}.{q}"] = hist[q]
            values[f"{other}.{metric}.{q}"] = 0.0
            notes[f"{other}.{metric}.{q}"] = f"the workload runs the {plane} plane"
    for name in ("snapshot_us", "submit_many_us"):
        notes[f"{other}.{name}"] = f"the workload runs the {plane} plane"
    applied = (family_sum(metrics1, "repro_shard_applied_total")
               - family_sum(metrics0, "repro_shard_applied_total"))
    values["procs.applied"] = applied if plane == "procs" else 0.0
    if plane != "procs":
        notes["procs.applied"] = "the workload runs the shard (thread) plane"
    values["store.publishes"] = (
        family_sum(metrics1, "repro_shard_publishes_total")
        - family_sum(metrics0, "repro_shard_publishes_total"))

    in0, in1 = ingest_counters(stats0), ingest_counters(stats1)
    delta = {k: in1[k] - in0[k] for k in in1}
    refused = (delta["rejected_guard"] + delta["dropped_invalid"]
               + delta["dropped_nan"] + delta["dropped_backpressure"])
    values["guard.admit_ratio"] = (
        (delta["received"] - refused) / delta["received"]
        if delta["received"] else 0.0)
    values["ingest.deduped"] = float(delta["deduped"])

    values["server.cpu_util"] = cpu_server / timed_wall
    values["loadgen.cpu_util"] = cpu_gen / timed_wall
    late = [
        1000.0 * (sent - due)
        for w in windows for r in w.records if r.stream.due is not None
        for due, sent in zip(r.due, r.sent)
    ]
    values["loadgen.late_p99_ms"] = percentile(late, 99)
    untraced_windows = [w for w in windows if not w.traced]
    for kind, q in (("read", 99), ("ingest", 50), ("ingest", 99)):
        values[f"e2e.{kind}_p{q}_ms"] = robust_percentile(
            untraced_windows, kind, q)
    kind = "read" if workload.primary.startswith("read") else "ingest"
    values["trace.overhead_ratio"] = statistics.median(
        latencies(r for r in traced if r.stream.kind == kind)
    ) / statistics.median(
        latencies(r for r in untraced if r.stream.kind == kind))
    return values, {k: v for k, v in notes.items() if values[k] == 0.0}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def report(result: dict) -> None:
    stamp = result["stamp"]
    print(f"# {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={int(result['trace'])}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    samples = result["samples"]
    print("# samples: " + " ".join(f"{k}={v}" for k, v in samples.items()))
    print(f"# pre-ingest served_auc={result['pre_ingest_auc']:.6f}")
    for name in result["checks"]:
        print(f"# check ok: {name}")
    for name, metric in result.get("end_to_end", {}).items():
        print(f"{name:28s} {metric['value']:14.6f} {metric['unit']}")
    for name, metric in result.get("ungated", {}).items():
        print(f"{name:28s} {metric['value']:14.6f} {metric['unit']}"
              "   not gated: too unsteady, see DESIGN.md")
    if result["trace"]:
        print("# per-layer (traced run)")
        for name, unit in PER_LAYER_UNITS.items():
            note = result["per_layer_notes"].get(name)
            print(f"{name:28s} {result['per_layer'][name]:14.6f} {unit}"
                  + (f"   n/a: {note}" if note else ""))


def final_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {
            k: {"value": result["per_layer"][k], "unit": unit}
            for k, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = result["end_to_end"]
    return {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, traced and not")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.smoke:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
        for name in WORKLOADS:
            for trace in (False, True):
                try:
                    result = run_workload(name, args.seed, 2.0, trace,
                                          setups=2)
                except CheckFailed as exc:
                    print(f"smoke {name} trace={int(trace)}: CHECK FAILED: {exc}")
                    return 1
                line = final_line(result, trace)
                listed = declared["per_layer" if trace else "end_to_end"]
                if [m["name"] for m in listed] != list(line["metrics"]):
                    print(f"smoke {name} trace={int(trace)}: metrics differ "
                          "from BENCHMARK.json")
                    return 1
                print(f"smoke {name} trace={int(trace)}: ok, "
                      f"{line['attempted']} requests, {line['failed']} failed, "
                      f"{len(line['metrics'])} metrics")
        return 0
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), SETUPS)
    except CheckFailed as exc:
        print(f"# CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    report(result)
    print(json.dumps(final_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
