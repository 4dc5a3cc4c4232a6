"""Served workloads: a live 2-shard ``repro.cli serve-cluster`` deployment.

One connection streams pre-encoded binary frames and ``sync``s.  Queries
run closed loop after ``sync`` (each waits for the previous answer) or open
loop on a second connection during ingest, each timed from its intended
send time.  :func:`perfbench.workloads.served_config` sizes each workload.

Every input is made from the workload seed before any process spawns, so
load generation is on no clock.  Each trial spawns a fresh deployment.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.common import (
    Ledger,
    Tracer,
    end_processes,
    process_tree,
    tree_peak_rss_mb,
)
from repro.server.framing import read_frame_sync, write_frame_sync

DOMAIN_SIZE = 1 << 16
SHARDS = 2
#: router↔shard links.  Over shm a link intermittently stalls until the
#: router's 30 s request timeout, then recovers by journal replay (about
#: once in 25 freq-stream deployments), which fails the ``sync`` and the
#: queries waiting behind it; tcp links have not stalled.
TRANSPORT = "tcp"
#: items per ``query`` call: the planted items, popular ones, random probes
QUERY_ITEMS = 32
#: a query, a ``sync`` or a shutdown that takes longer has failed
TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ServedConfig:
    """Sizes of one served workload (the benchmark's fixed work per run)."""

    name: str
    protocol: str
    num_users: int
    trials: int
    queries_per_trial: int
    #: open-loop query rate (queries/s) during ingest; ``None`` queries
    #: closed loop after ``sync``
    open_loop_rate: Optional[float] = None
    #: planted heavy-hitter fractions (heavy-hitter workloads only)
    planted: Tuple[float, ...] = ()
    #: ``serve-cluster --checkpoint-reports`` (``None``: the deployment's
    #: default of 65,536)
    checkpoint_reports: Optional[int] = None
    #: times the whole report stream is sent (and ``sync``ed) per deployment
    passes: int = 1


@dataclass
class ServedInputs:
    """Everything generated from the seed before the deployment spawns."""

    params: object
    values: np.ndarray
    plan_seed: int
    blob: bytes
    payloads: List[bytes]
    planted: Tuple[int, ...]
    queries: List[int]
    expected: np.ndarray
    offline: object

    @property
    def num_reports(self) -> int:
        return int(self.values.size)


@dataclass
class TrialResult:
    """One deployment's measurements."""

    setup_s: float
    #: first byte sent → ``sync`` reply, one per pass of the report stream
    ingest_s: List[float]
    job_s: float
    peak_rss_mb: float
    #: per-query latency from intended send time (failures: the timeout)
    latencies_ms: List[float]
    late_ms: List[float]
    router_stats: Dict[str, object]
    shard_stats: List[Dict[str, object]]
    state_pull_ms: float = 0.0
    snapshot_ms: List[float] = field(default_factory=list)


def make_inputs(config: ServedConfig, seed: int) -> ServedInputs:
    """Values, public parameters, framed reports and the offline answers."""
    from repro.engine import encode_stream, make_plan, run_simulation
    from repro.protocol.wire import merge_aggregators
    from repro.server.framing import encode_reports_frame
    from repro.workloads.distributions import planted_workload, zipf_workload

    gen = np.random.default_rng(seed)
    planted: Tuple[int, ...] = ()
    if config.protocol == "expander_sketch":
        from repro.core.heavy_hitters import PrivateExpanderSketch

        workload = planted_workload(config.num_users, DOMAIN_SIZE,
                                    heavy_fractions=list(config.planted),
                                    rng=gen)
        values = workload.values
        planted = tuple(int(x) for x in workload.heavy_elements)
        params = PrivateExpanderSketch(DOMAIN_SIZE, epsilon=4.0
                                       ).public_params(config.num_users,
                                                       rng=gen)
    elif config.protocol == "hashtogram":
        from repro.engine.bench import build_bench_params

        values = zipf_workload(config.num_users, DOMAIN_SIZE,
                               support=2_000, rng=gen)
        params = build_bench_params("hashtogram", DOMAIN_SIZE, 1.0,
                                    config.num_users, rng=gen)
    else:
        raise ValueError(f"no served workload for {config.protocol!r}")
    plan_seed = int(gen.integers(0, 2**63 - 1))
    popular = np.unique(values[:4096])[: QUERY_ITEMS // 2]
    probes = gen.integers(0, DOMAIN_SIZE,
                          size=QUERY_ITEMS - len(planted)
                          - popular.size)
    queries = [*planted, *(int(x) for x in popular), *(int(x) for x in probes)]

    payloads = []
    plan = make_plan(params, config.num_users,
                     rng=np.random.default_rng(plan_seed))
    stream = encode_stream(params, values, rng=np.random.default_rng(plan_seed))
    for batch, chunk in zip(stream, plan, strict=True):
        payloads.append(encode_reports_frame(batch, 0, "binary",
                                             route=chunk.route_key))
    aggregator = run_simulation(params, values,
                                rng=np.random.default_rng(plan_seed),
                                workers=2).aggregator
    # every pass delivers the stream again: the served state is the exact
    # integer sum of that many copies
    offline = merge_aggregators([aggregator] * config.passes).finalize()
    expected = np.asarray(offline.estimate_many(queries), dtype=float)
    return ServedInputs(params=params, values=values, plan_seed=plan_seed,
                        blob=b"".join(payloads), payloads=payloads,
                        planted=planted, queries=queries, expected=expected,
                        offline=offline)


class Deployment:
    """One live ``serve-cluster`` process tree rooted in ``base_dir``."""

    def __init__(self, config: ServedConfig, params_file: Path,
                 base_dir: Path) -> None:
        self.config = config
        self.params_file = params_file
        self.base_dir = base_dir
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> None:
        from repro.cluster.supervisor import spawn_server_process

        extra = ["--shards", str(SHARDS),
                 "--transport", TRANSPORT,
                 "--base-dir", str(self.base_dir)]
        if self.config.checkpoint_reports is not None:
            extra += ["--checkpoint-reports",
                      str(self.config.checkpoint_reports)]
        self.proc, self.host, self.port = spawn_server_process(
            "serve-cluster", self.params_file, extra)

    def client(self):
        from repro.server import AggregationClient

        return AggregationClient(self.host, self.port,
                                 timeout=TIMEOUT_S,
                                 wire_format="binary")

    def stop(self, client=None) -> None:
        """Shut down over ``client``, then make sure the whole tree is gone."""
        proc = self.proc
        if proc is None:
            return
        tree = process_tree(proc.pid) if proc.poll() is None else [proc.pid]
        try:
            if client is not None:
                client.shutdown()
                client.close()
            proc.wait(timeout=TIMEOUT_S)
        except (OSError, RuntimeError, ValueError,
                subprocess.TimeoutExpired):
            proc.kill()
            proc.wait(timeout=TIMEOUT_S)
        finally:
            # The router reaps its shards on shutdown; after a kill they are
            # orphans, re-parented to the benchmark (see become_subreaper).
            end_processes(tree[1:], grace_s=10.0)
            if proc.stdout is not None:
                proc.stdout.close()
            self.proc = None
            shutil.rmtree(self.base_dir, ignore_errors=True)


def measure_setup(config: ServedConfig, params_file: Path,
                  work_dir: Path) -> float:
    """Spawn a deployment, time it to its first ``hello`` reply, stop it."""
    base_dir = work_dir / f"{config.name}-setup"
    shutil.rmtree(base_dir, ignore_errors=True)
    base_dir.mkdir(parents=True)
    deployment = Deployment(config, params_file, base_dir)
    client = None
    try:
        start = time.perf_counter()
        deployment.start()
        client = deployment.client()
        client.hello()
        return time.perf_counter() - start
    finally:
        deployment.stop(client)


def _shard_stats(stats: Dict[str, object]) -> List[Dict[str, object]]:
    """Each shard's own ``stats`` (dedupe and drain counters live there)."""
    from repro.server import AggregationClient

    out = []
    for shard in stats.get("shards", []):
        with AggregationClient(str(shard["host"]), int(shard["port"]),
                               timeout=TIMEOUT_S) as client:
            out.append(client.stats())
    return out


class OpenLoop:
    """Frequency queries fired on a fixed schedule over their own connection.

    Query ``i`` is due at ``start + i / rate`` and is written then, whether
    or not earlier answers have arrived (requests pipeline on the one
    connection; the server answers a connection's frames in order).  Its
    latency runs from that due time to its answer, so a stall is charged to
    every query queued behind it.
    """

    def __init__(self, host: str, port: int, queries: Sequence[int],
                 count: int, rate: float, timeout_s: float, ledger: Ledger,
                 tracer: Tracer) -> None:
        import socket

        self.frame = {"type": "query", "items": [int(x) for x in queries]}
        self.num_items = len(self.frame["items"])
        self.count = count
        self.rate = rate
        self.timeout_s = timeout_s
        self.ledger = ledger
        self.tracer = tracer
        self.due: List[float] = []
        self.latencies_ms: List[float] = []
        self.late_ms: List[float] = []
        self.last_answer = 0.0
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rwb")
        self._threads: List[threading.Thread] = []

    def start(self, at: float) -> None:
        self.due = [at + i / self.rate for i in range(self.count)]
        self._threads = [threading.Thread(target=self._send, daemon=True),
                         threading.Thread(target=self._receive, daemon=True)]
        for thread in self._threads:
            thread.start()

    def join(self) -> None:
        budget = self.count / self.rate + self.timeout_s + 60.0
        for thread in self._threads:
            thread.join(timeout=budget)
            if thread.is_alive():
                raise RuntimeError("open-loop query thread did not finish")
        try:
            self._stream.close()
        except OSError:
            pass  # a frame the dead peer never took; already charged
        self._sock.close()

    def _send(self) -> None:
        for due in self.due:
            with self.tracer.span("loadgen.wait"):
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            self.late_ms.append(max(0.0, (time.perf_counter() - due) * 1000.0))
            try:
                with self.tracer.span("client.query_send"):
                    write_frame_sync(self._stream, self.frame)
            except OSError:
                return  # the receiver charges every unanswered query

    def _receive(self) -> None:
        for i, due in enumerate(self.due):
            try:
                reply = read_frame_sync(self._stream)
            except (OSError, ValueError) as exc:
                self._fail_rest(i, f"{type(exc).__name__}: {exc}")
                return
            done = time.perf_counter()
            if reply is None:
                self._fail_rest(i, "connection closed")
                return
            self.last_answer = done
            estimates = reply.get("estimates")
            ok = (reply.get("type") == "estimates"
                  and isinstance(estimates, list)
                  and len(estimates) == self.num_items
                  and bool(np.isfinite(np.asarray(estimates, float)).all()))
            self.latencies_ms.append((done - due) * 1000.0)
            self.ledger.check("query", ok, f"open-loop query {i} got "
                              f"{str(reply)[:120]}")

    def _fail_rest(self, first: int, why: str) -> None:
        missing = self.count - first
        self.latencies_ms.extend([self.timeout_s * 1000.0] * missing)
        self.ledger.record("query", missing, missing,
                           f"{missing} open-loop queries unanswered: {why}")


def _query(client, inputs: ServedInputs, ledger: Ledger, label: str,
           tracer: Tracer):
    """One blocking ``query``; returns ``(answer or None, client)``.

    The answer must equal the offline engine's.  An errored or timed-out
    query is a failure, and its connection is replaced by a fresh one.
    """
    from repro.server import AggregationClient

    try:
        with tracer.span("client.query"):
            answer = client.query(inputs.queries)
    except (OSError, RuntimeError, ValueError) as exc:
        ledger.record("query", 1, 1, f"{label}: {type(exc).__name__}: {exc}")
        client.close()
        client = AggregationClient(client.host, client.port,
                                   timeout=TIMEOUT_S, wire_format="binary")
        client.hello()
        return None, client
    ledger.check("answer", np.array_equal(answer, inputs.expected),
                 f"{label} differs from the offline engine")
    return answer, client


def run_trial(config: ServedConfig, inputs: ServedInputs, work_dir: Path,
              trial: int, ledger: Ledger, tracer: Tracer,
              layer_probes: bool = False) -> TrialResult:
    """Spawn a deployment, stream the workload, query it, verify, tear down."""
    from repro.protocol.wire import load_child_state

    base_dir = work_dir / f"{config.name}-trial{trial}"
    shutil.rmtree(base_dir, ignore_errors=True)
    base_dir.mkdir(parents=True)
    params_file = work_dir / f"{config.name}-params.json"
    deployment = Deployment(config, params_file, base_dir)
    client = None
    try:
        start = time.perf_counter()
        with tracer.span("cluster.spawn"):
            deployment.start()
            client = deployment.client()
            with tracer.span("client.hello"):
                published = client.hello()
        setup_s = time.perf_counter() - start
        ledger.check("hello", published == inputs.params,
                     "the deployment published other parameters")

        loop: Optional[OpenLoop] = None
        if config.open_loop_rate is not None:
            loop = OpenLoop(deployment.host, deployment.port, inputs.queries,
                            config.queries_per_trial, config.open_loop_rate,
                            TIMEOUT_S, ledger, tracer)

        first_byte = time.perf_counter()
        if loop is not None:
            loop.start(first_byte)
        ingest_s: List[float] = []
        absorbed = 0
        for _ in range(config.passes):
            begin = time.perf_counter()
            with tracer.span("client.send_raw"):
                client.send_raw(inputs.blob)
            with tracer.span("client.sync"):
                absorbed = client.sync()
            ingest_s.append(time.perf_counter() - begin)
        sent = inputs.num_reports * config.passes
        missing = max(sent - absorbed, 0)
        ledger.record("report", sent, missing,
                      f"{missing} reports sent but not absorbed")

        latencies: List[float] = []
        for i in range(0 if loop is not None else config.queries_per_trial):
            begin = time.perf_counter()
            answer, client = _query(client, inputs, ledger, f"query {i}",
                                    tracer)
            latencies.append(TIMEOUT_S * 1000.0 if answer is None else
                             (time.perf_counter() - begin) * 1000.0)
        # The streaming client's last answer is settled, so it too must
        # equal the offline engine.
        _, client = _query(client, inputs, ledger, "settled query", tracer)
        job_s = time.perf_counter() - first_byte
        late: List[float] = []
        if loop is not None:
            loop.join()
            latencies, late = loop.latencies_ms, loop.late_ms

        result = TrialResult(setup_s=setup_s, ingest_s=ingest_s, job_s=job_s,
                             peak_rss_mb=0.0, latencies_ms=latencies,
                             late_ms=late, router_stats={}, shard_stats=[])
        begin = time.perf_counter()
        with tracer.span("client.pull_state"):
            reply = client.pull_state()
        result.state_pull_ms = (time.perf_counter() - begin) * 1000.0
        if inputs.planted:
            # Recovery is judged on the served state itself: finalize the
            # pulled merged state here and look for every planted item.
            with tracer.span("protocol.finalize"):
                served = load_child_state(inputs.params.make_aggregator(),
                                          reply["state"]).finalize()
            ledger.check("answer", served.estimates == inputs.offline.estimates,
                         "served heavy-hitter list differs from the offline "
                         "engine")
            for item in inputs.planted:
                ledger.check("planted", item in served.estimates,
                             f"planted heavy hitter {item} was missed")

        with tracer.span("client.stats"):
            stats = client.stats()
        result.router_stats = dict(stats.get("router", {}))
        result.shard_stats = _shard_stats(stats)
        if layer_probes:
            result.snapshot_ms = _time_snapshots(stats, tracer)
        result.peak_rss_mb = tree_peak_rss_mb(deployment.proc.pid)
        return result
    finally:
        deployment.stop(client)


def _time_snapshots(stats: Dict[str, object], tracer: Tracer,
                    repeats: int = 3) -> List[float]:
    """Timed ``snapshot()`` on a live shard (a ``serve --snapshot-dir``)."""
    from repro.server import AggregationClient

    shard = stats["shards"][0]
    out = []
    with AggregationClient(str(shard["host"]), int(shard["port"]),
                           timeout=TIMEOUT_S) as client:
        for _ in range(repeats):
            start = time.perf_counter()
            with tracer.span("server.snapshot"):
                client.snapshot()
            out.append((time.perf_counter() - start) * 1000.0)
    return out


def write_params(inputs: ServedInputs, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(inputs.params.to_dict()))
