"""In-process per-layer measurements for the traced run.

Each function replays part of a workload's own inputs — its chunk plan, its
frames — through one layer's public functions and returns named figures.
Nothing here spawns a deployment; the served figures (router counters,
shard snapshots, state pulls) come from the live trial itself.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.common import Tracer
from perfbench.sim import PROTOCOLS

#: self-time layers, named after the ``<layer>.`` prefix of span names
TRACE_LAYERS = ("client", "cluster", "codec", "engine", "loadgen", "protocol",
                "server", "transport")

#: per-protocol figures and their units; the metric is ``<name>.<protocol>``
PROTOCOL_METRICS = {
    "encode.ns_per_report": "ns",
    "absorb.ns_per_report": "ns",
    "merge.ms": "ms",
    "finalize.ms": "ms",
    "codec.wire_bytes_per_report": "B",
    "codec.decode_ns_per_report": "ns",
    "codec.state_bytes": "B",
    "codec.state_pack_ms": "ms",
    "codec.state_unpack_ms": "ms",
}

#: every other per-layer figure and its unit
LAYER_METRICS = {
    "server.atomic_absorb_overhead": "x",
    "server.drain_s": "s",
    "server.snapshot_ms": "ms",
    "server.reports_rejected": "count",
    "server.reports_deduped": "count",
    "transport.tcp.mb_per_s": "MB/s",
    "transport.shm.mb_per_s": "MB/s",
    "router.checkpoints": "count",
    "router.frames_forwarded": "count",
    "router.state_pull_ms": "ms",
    "router.journal_replayed_frames": "count",
    "router.shard_restarts": "count",
    "journal.append_us": "us",
    "engine.ingest_s": "s",
    "engine.merge_s": "s",
    "engine.speedup_vs_1_worker": "x",
    "loadgen.late_ms_p50": "ms",
    "loadgen.late_ms_max": "ms",
    "error_rate": "ratio",
    "trace.overhead_pct": "%",
    "reconcile.stage_sum_ms": "ms",
    "reconcile.unattributed_ms": "ms",
    **{f"self_ms.{layer}": "ms" for layer in TRACE_LAYERS},
}


def all_metric_units() -> Dict[str, str]:
    """Every per-layer metric of ``BENCHMARK.json`` with its unit."""
    units = {f"{name}.{protocol}": unit
             for name, unit in PROTOCOL_METRICS.items()
             for protocol in PROTOCOLS}
    units.update(LAYER_METRICS)
    return units


def replay_protocol(protocol: str, params, values: np.ndarray, plan_seed: int,
                    tracer: Tracer, codec_reports: Optional[int] = None
                    ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Encode, absorb, merge, finalize and (un)pack one workload in-process.

    The chunk plan is the workload's own; chunks alternate between two
    shard-equivalent aggregators, which are then merged as the router and
    the engine merge theirs.  ``codec_reports`` bounds how many reports the
    wire-codec figures frame and decode (all when ``None``).  Returns the
    per-layer metrics and the state-envelope timings the reconciliation
    line needs.
    """
    from repro.engine import make_plan
    from repro.protocol.binary import decode_reports_payload, pack_state, \
        unpack_state
    from repro.protocol.wire import child_state, load_child_state, \
        merge_aggregators
    from repro.server.framing import encode_reports_frame

    plan = make_plan(params, int(values.size),
                     rng=np.random.default_rng(plan_seed))
    encoder = params.make_encoder()
    shards = [params.make_aggregator(), params.make_aggregator()]
    encode_s = absorb_s = decode_s = 0.0
    wire_bytes = framed = 0
    for i, chunk in enumerate(plan):
        begin = time.perf_counter()
        with tracer.span("protocol.encode_batch"):
            batch = encoder.encode_batch(values[chunk.start:chunk.stop],
                                         chunk.generator(),
                                         first_user_index=chunk.start)
        mid = time.perf_counter()
        with tracer.span("protocol.absorb_batch"):
            shards[i % 2].absorb_batch(batch)
        end = time.perf_counter()
        encode_s += mid - begin
        absorb_s += end - mid
        if codec_reports is None or framed < codec_reports:
            frame = encode_reports_frame(batch, 0, "binary",
                                         route=chunk.route_key)
            begin = time.perf_counter()
            with tracer.span("codec.decode_reports"):
                decode_reports_payload(frame[4:])
            decode_s += time.perf_counter() - begin
            wire_bytes += len(frame)
            framed += len(batch)
    num_reports = max(int(values.size), 1)

    begin = time.perf_counter()
    with tracer.span("protocol.merge"):
        merged = merge_aggregators(shards)
    merge_s = time.perf_counter() - begin
    begin = time.perf_counter()
    with tracer.span("protocol.finalize"):
        merged.finalize()
    finalize_s = time.perf_counter() - begin

    begin = time.perf_counter()
    with tracer.span("codec.pack_state"):
        blob = pack_state(child_state(shards[0]))
    pack_s = time.perf_counter() - begin
    begin = time.perf_counter()
    with tracer.span("codec.unpack_state"):
        load_child_state(params.make_aggregator(), unpack_state(blob))
    unpack_s = time.perf_counter() - begin
    # The pull frame's JSON/base64 envelope around the packed state: built
    # by each shard, taken apart by the router.
    begin = time.perf_counter()
    with tracer.span("codec.state_envelope"):
        text = json.dumps({"type": "state",
                           "state": base64.b64encode(blob).decode("ascii")})
    wrap_s = time.perf_counter() - begin
    begin = time.perf_counter()
    with tracer.span("codec.state_envelope"):
        base64.b64decode(json.loads(text)["state"])
    unwrap_s = time.perf_counter() - begin
    return {
        f"encode.ns_per_report.{protocol}": encode_s / num_reports * 1e9,
        f"absorb.ns_per_report.{protocol}": absorb_s / num_reports * 1e9,
        f"merge.ms.{protocol}": merge_s * 1e3,
        f"finalize.ms.{protocol}": finalize_s * 1e3,
        f"codec.wire_bytes_per_report.{protocol}": wire_bytes / max(framed, 1),
        f"codec.decode_ns_per_report.{protocol}": decode_s / max(framed, 1)
        * 1e9,
        f"codec.state_bytes.{protocol}": float(len(blob)),
        f"codec.state_pack_ms.{protocol}": pack_s * 1e3,
        f"codec.state_unpack_ms.{protocol}": unpack_s * 1e3,
    }, {"envelope_wrap_ms": wrap_s * 1e3, "envelope_unwrap_ms": unwrap_s * 1e3}


def atomic_absorb_overhead(params, payloads: Sequence[bytes],
                           tracer: Tracer) -> float:
    """``WindowedAggregator.absorb_batch(atomic=True)`` over raw absorb time.

    Replays one shard's share (every other frame) of the workload, one
    absorb per frame, as a shard whose queue drains frame by frame would.
    """
    from repro.protocol.binary import decode_reports_payload
    from repro.server.window import WindowedAggregator

    batches = [decode_reports_payload(frame[4:])[1]
               for frame in payloads[::2]]
    raw = params.make_aggregator()
    begin = time.perf_counter()
    with tracer.span("protocol.absorb_batch"):
        for batch in batches:
            raw.absorb_batch(batch)
    raw_s = time.perf_counter() - begin
    windowed = WindowedAggregator(params)
    begin = time.perf_counter()
    with tracer.span("server.atomic_absorb"):
        for batch in batches:
            windowed.absorb_batch(batch, 0, atomic=True)
    atomic_s = time.perf_counter() - begin
    return atomic_s / max(raw_s, 1e-9)


def journal_append_us(payloads: Sequence[bytes], work_dir: Path,
                      tracer: Tracer, limit: int = 256) -> float:
    """Median ``FrameJournal.append`` time, configured as the router's."""
    from repro.cluster.journal import FrameJournal

    path = work_dir / f"journal-probe-{os.getpid()}.log"
    journal = FrameJournal(path, fsync=False)
    times: List[float] = []
    try:
        for seq, frame in enumerate(payloads[:limit], start=1):
            begin = time.perf_counter()
            with tracer.span("cluster.journal_append"):
                journal.append(frame[4:], 1, seq)
            times.append(time.perf_counter() - begin)
    finally:
        journal.delete()
    return statistics.median(times) * 1e6


def transport_mb_per_s(transport: str, blob: bytes, num_frames: int,
                       tracer: Tracer) -> float:
    """Relay the workload's frames through ``repro.transport`` dial/serve.

    Both ends run in this process; the receiving end reads every frame and
    answers a final ``sync`` with its count, which must match.
    """
    from repro import transport as transports
    from repro.server.framing import frame_bytes, read_frame_payload

    address = ("tcp://127.0.0.1:0" if transport == "tcp"
               else f"shm://perfbench-{os.getpid()}")

    async def relay() -> float:
        frames = 0

        async def handler(reader, writer) -> None:
            nonlocal frames
            while True:
                payload = await read_frame_payload(reader)
                if payload is None:
                    return
                if payload[:1] == b"{":
                    writer.write(frame_bytes(json.dumps(
                        {"frames": frames}).encode()))
                    await writer.drain()
                else:
                    frames += 1

        listener = await transports.serve(handler, address)
        try:
            conn = await transports.dial(listener.address, timeout=60.0)
            try:
                begin = time.perf_counter()
                with tracer.span(f"transport.{transport}_relay"):
                    conn.writer.write(blob)
                    await conn.writer.drain()
                    await conn.send(b'{"type": "sync"}')
                    reply = await conn.recv(timeout=300.0)
                elapsed = time.perf_counter() - begin
            finally:
                conn.close()
                await conn.wait_closed()
        finally:
            listener.close()
            await listener.wait_closed()
        seen = None if reply is None else json.loads(reply)["frames"]
        if seen != num_frames:
            raise RuntimeError(f"{transport} relay saw {seen} of "
                               f"{num_frames} frames")
        return len(blob) / elapsed / 1e6

    return asyncio.run(relay())
