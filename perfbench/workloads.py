"""Workload definitions, metric assembly and the reconciliation lines.

End-to-end metrics (``--trace 0``), for every workload:

``setup_s``
    served: spawning ``serve-cluster`` to its first ``hello`` reply;
    ``sim-six``: building the six public parameter sets.  Median of at
    least three set-ups.
``ingest_reports_per_s``
    served: reports confirmed by ``sync`` over first byte sent → ``sync``
    reply, summed over every pass of the report stream in the run;
    ``sim-six``: reports encoded and absorbed over the engine's
    encode+absorb wall time, all six protocols.  Median over trials.
``query_p50_ms`` / ``query_tail_ms``
    served: merged ``query`` calls (``hh-cluster`` closed loop after
    ingest, ``freq-stream`` open loop during ingest, timed from the
    intended send time); ``sim-six``: one analyst round reading half the
    domain from every finalized estimator.  The tail is the highest
    percentile with at least ten samples beyond it; the header line records
    which.
``job_s``
    served: first byte sent → the streaming client's last answer (its
    closed-loop queries, then one settled query); ``sim-six``: values in
    hand → six finalized estimators.  Median over trials.
``peak_rss_mb``
    served: summed ``VmHWM`` of the router and its shards; ``sim-six``: the
    benchmark process over the measured trials (its peak is reset after
    the 1-worker reference job) plus its largest pool worker.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench import layers, served, sim
from perfbench.common import (
    Ledger,
    Tracer,
    median,
    reset_peak_rss,
    tail_percentile,
    tail_value,
    vm_hwm_mb,
)

E2E_UNITS = {
    "setup_s": "s",
    "ingest_reports_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "job_s": "s",
    "peak_rss_mb": "MB",
}

#: set-ups timed per run (``setup_s`` reports their median)
SETUP_SAMPLES = 3


@dataclass
class Outcome:
    ledger: Ledger
    metrics: Dict[str, Tuple[float, str]]
    lines: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)


def served_config(name: str, seconds: int, smoke: bool = False,
                  trace: bool = False) -> served.ServedConfig:
    """The served workloads, sized so one run measures about ``seconds``.

    ``smoke`` shrinks a run to seconds for the benchmark's own tests.
    ``trace`` halves the ``hh-cluster`` queries: a traced run makes two
    deployments, one untraced and one traced, and must stay well within
    the time one run may take on a host running at half speed.  The
    heavy-hitter population stays at 200k even then: the expander sketch
    misses 10%-heavy items at 20k-50k users, so a smaller smoke run would
    fail the recovery gate rather than test the benchmark.
    """
    if name == "hh-cluster":
        # 1-1.7 s per merged query at this size: the queries are most of
        # the run, and their count fixes the tail percentile (p60 at 25;
        # at 21 or fewer the tail rule picks the median itself).  One
        # deployment per run: tearing down 1.7 GB of shard and router state
        # costs seconds that measure nothing.  Streaming the reports three
        # times instead of once did not steady ingest_reports_per_s (IQR
        # 0.11 against 0.16 over five seeds) and made a run 35 s longer.
        queries = max(11, seconds)
        return served.ServedConfig(
            name=name, protocol="expander_sketch", num_users=200_000,
            trials=1, queries_per_trial=max(11, queries // 2) if trace
            else queries,
            planted=(0.1, 0.08, 0.06))
    if name == "freq-stream":
        # Each pass streams the 8M reports again (~0.25 s), and the 40
        # open-loop queries span the first two seconds, so every query meets
        # the writes: p50 and tail are both read latency under writes, one
        # population.  A checkpoint every 2^24 reports per shard (about one
        # in four passes) keeps the router's in-memory journal small.  At
        # the default of 65,536 a checkpoint, an fsync, would come every
        # few frames, and fsync latency on the ext4 disk this was sized on
        # swung 2x from minute to minute, which made ingest and query
        # figures spread 22-32% from run to run.
        return served.ServedConfig(
            name=name, protocol="hashtogram",
            num_users=200_000 if smoke else 8_000_000,
            trials=max(1, seconds // 10), passes=20,
            checkpoint_reports=1 << 24,
            queries_per_trial=40, open_loop_rate=20.0)
    raise ValueError(f"unknown served workload {name!r}")


def run(name: str, seed: int, seconds: int, trace: bool, work_dir: Path,
        ledger: Ledger, smoke: bool = False) -> Outcome:
    """Run one workload; every check it makes is counted in ``ledger``."""
    if name == "sim-six":
        # 9-13 s for each 2-worker trial and 11-14 s for the 1-worker
        # reference, analyst rounds included
        return _run_sim(200_000 if smoke else 1_000_000,
                        max(1, round(seconds / 15)), seed, trace, work_dir,
                        ledger)
    return _run_served(served_config(name, seconds, smoke, trace), seed,
                       trace, work_dir, ledger)


# ----- served workloads ---------------------------------------------------------------

def _served_e2e(inputs: served.ServedInputs,
                trials: List[served.TrialResult],
                setups: List[float]) -> Dict[str, Tuple[float, str]]:
    latencies = [x for t in trials for x in t.latencies_ms]
    ingest_s = [x for t in trials for x in t.ingest_s]
    values = {
        "setup_s": median(setups),
        "ingest_reports_per_s": inputs.num_reports * len(ingest_s)
        / sum(ingest_s),
        "query_p50_ms": median(latencies),
        "query_tail_ms": tail_value(latencies),
        "job_s": median([t.job_s for t in trials]),
        "peak_rss_mb": median([t.peak_rss_mb for t in trials]),
    }
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}


def _run_served(config: served.ServedConfig, seed: int, trace: bool,
                work_dir: Path, ledger: Ledger) -> Outcome:
    untraced = Tracer(False)
    inputs = served.make_inputs(config, seed)
    params_file = work_dir / f"{config.name}-params.json"
    served.write_params(inputs, params_file)
    num_trials = 1 if trace else config.trials
    trials = [served.run_trial(config, inputs, work_dir, i, ledger, untraced)
              for i in range(num_trials)]
    setups = [t.setup_s for t in trials]
    # setup_s is an end-to-end metric, which a traced run does not report
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(served.measure_setup(config, params_file, work_dir))
    e2e = _served_e2e(inputs, trials, setups)
    count = sum(len(t.latencies_ms) for t in trials)
    outcome = Outcome(ledger=ledger, metrics=e2e, details={
        "config": {"protocol": config.protocol,
                   "num_users": config.num_users,
                   "transport": served.TRANSPORT, "shards": served.SHARDS,
                   "trials": config.trials,
                   "queries_per_trial": config.queries_per_trial,
                   "query_loop": ("open" if config.open_loop_rate else
                                  "closed"),
                   "open_loop_rate_per_s": config.open_loop_rate,
                   "plan_seed": inputs.plan_seed,
                   "planted_items": list(inputs.planted)},
        "query_samples": count,
        "query_tail_percentile": round(tail_percentile(count), 2)})
    if trace:
        _trace_served(config, inputs, e2e, ledger, work_dir, seed, outcome)
    else:
        outcome.lines = _e2e_lines(e2e)
    return outcome


def _trace_served(config: served.ServedConfig, inputs: served.ServedInputs,
                  untraced_e2e, ledger: Ledger, work_dir: Path, seed: int,
                  outcome: Outcome) -> None:
    tracer = Tracer(True)
    with tracer.span("bench.trial"):
        trial = served.run_trial(config, inputs, work_dir, 1, ledger, tracer,
                                 layer_probes=True)
    traced_e2e = _served_e2e(inputs, [trial], [trial.setup_s])
    protocol = config.protocol
    figures, envelope = layers.replay_protocol(
        protocol, inputs.params, inputs.values, inputs.plan_seed, tracer)
    overhead = layers.atomic_absorb_overhead(inputs.params, inputs.payloads,
                                             tracer)
    append_us = layers.journal_append_us(inputs.payloads, work_dir, tracer)
    tcp = layers.transport_mb_per_s("tcp", inputs.blob, len(inputs.payloads),
                                    tracer)
    shm = layers.transport_mb_per_s("shm", inputs.blob, len(inputs.payloads),
                                    tracer)
    router = trial.router_stats
    shard_sum = {key: sum(float(s.get(key, 0)) for s in trial.shard_stats)
                 for key in ("drain_s", "reports_rejected", "reports_deduped")}
    figures.update({
        "server.atomic_absorb_overhead": overhead,
        "server.drain_s": shard_sum["drain_s"],
        "server.snapshot_ms": median(trial.snapshot_ms),
        "server.reports_rejected": shard_sum["reports_rejected"],
        "server.reports_deduped": shard_sum["reports_deduped"],
        "transport.tcp.mb_per_s": tcp,
        "transport.shm.mb_per_s": shm,
        "router.checkpoints": float(router["checkpoints"]),
        "router.frames_forwarded": float(router["frames_forwarded"]),
        "router.state_pull_ms": trial.state_pull_ms,
        "router.journal_replayed_frames":
            float(router["journal_replayed_frames"]),
        "router.shard_restarts": float(router["shard_restarts"]),
        "journal.append_us": append_us,
    })
    if trial.late_ms:
        figures["loadgen.late_ms_p50"] = median(trial.late_ms)
        figures["loadgen.late_ms_max"] = max(trial.late_ms)

    p = protocol
    num = inputs.num_reports
    hop_mb = len(inputs.blob) / 1e6
    # Shards decode and drain in parallel; the router forwards, journals
    # and checkpoints inline, one frame at a time.
    ingest_stages = {
        "client_to_router_tcp": hop_mb / tcp * 1e3,
        "router_to_shard_tcp": hop_mb / tcp * 1e3,
        "journal_append": len(inputs.payloads) * append_us / 1e3,
        "checkpoints": router["checkpoints"] * median(trial.snapshot_ms)
        / config.passes,
        "decode": num / served.SHARDS
        * figures[f"codec.decode_ns_per_report.{p}"] / 1e6,
        "slowest_shard_drain": max(float(s["drain_s"])
                                   for s in trial.shard_stats) * 1e3
        / config.passes,
    }
    ingest_ms = num / traced_e2e["ingest_reports_per_s"][0] * 1e3
    lines = [_reconcile_line(config.name, "ingest", ingest_ms, ingest_stages)]
    # Both shards pack and wrap their state at once; the router unwraps,
    # unpacks, merges and finalizes on one event loop.
    query_stages = {
        "shard_pack": figures[f"codec.state_pack_ms.{p}"],
        "shard_envelope_wrap": envelope["envelope_wrap_ms"],
        "router_envelope_unwrap_x2": 2 * envelope["envelope_unwrap_ms"],
        "router_unpack_x2": 2 * figures[f"codec.state_unpack_ms.{p}"],
        "merge": figures[f"merge.ms.{p}"],
        "finalize": figures[f"finalize.ms.{p}"],
    }
    query_ms = traced_e2e["query_p50_ms"][0]
    lines.append(_reconcile_line(config.name, "query_p50", query_ms,
                                 query_stages))
    # the stage the workload exists to stress carries the metric
    primary = ((ingest_ms, ingest_stages) if config.open_loop_rate
               else (query_ms, query_stages))
    figures["reconcile.stage_sum_ms"] = sum(primary[1].values())
    figures["reconcile.unattributed_ms"] = primary[0] - sum(primary[1].values())
    _finish_trace(outcome, tracer, figures, untraced_e2e, traced_e2e, ledger,
                  work_dir, config.name, seed, lines)


# ----- sim-six ------------------------------------------------------------------------

def _sim_e2e(num_users: int, trials: List[sim.SimTrial], rounds: List[float],
             setups: List[float]) -> Dict[str, Tuple[float, str]]:
    """``peak_rss_mb`` covers what ran since the last :func:`reset_peak_rss`."""
    reports = num_users * len(sim.PROTOCOLS)
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    values = {
        "setup_s": median(setups),
        "ingest_reports_per_s": median([reports / sum(t.ingest_s.values())
                                        for t in trials]),
        "query_p50_ms": median(rounds),
        "query_tail_ms": tail_value(rounds),
        "job_s": median([t.job_s for t in trials]),
        "peak_rss_mb": vm_hwm_mb(os.getpid()) + children_mb,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}


def _time_builds(num_users: int, seed: int,
                 setups: List[float]) -> Dict[str, object]:
    """Build the parameter sets ``SETUP_REPEATS`` times, timing each."""
    for _ in range(sim.SETUP_REPEATS):
        begin = time.perf_counter()
        params = sim.build_params(num_users, seed)
        setups.append(time.perf_counter() - begin)
    return params


def _run_sim(num_users: int, num_trials: int, seed: int, trace: bool,
             work_dir: Path, ledger: Ledger) -> Outcome:
    untraced = Tracer(False)
    inputs = sim.make_inputs(num_users, seed)
    sim.build_params(num_users, inputs.params_seed)  # imports, lazy set-up
    # Set-ups are timed at the start, after the reference job and after the
    # trials, and analyst rounds in groups between the protocols of the
    # next job: short bursts, spread over the run so that a slow spell of
    # the host moves a part of them only.
    setups: List[float] = []
    params = _time_builds(num_users, inputs.params_seed, setups)
    # The serial engine is the reference every multi-worker answer matches.
    # It runs in this process, so the peak resident set is reset after it:
    # peak_rss_mb is that of the measured multi-worker trials alone.
    reference = sim.run_trial(params, inputs, 1, untraced)
    _time_builds(num_users, inputs.params_seed, setups)
    gc.collect()
    reset_peak_rss()
    rounds: List[float] = []
    previous, trials = reference, []
    for _ in range(1 if trace else num_trials):
        def between(job=previous):
            rounds.extend(sim.analyst_rounds(job, inputs, sim.ROUNDS_PER_GROUP,
                                             untraced))
        trial = sim.run_trial(params, inputs, sim.WORKERS, untraced, between)
        sim.check_trial(previous, None if previous is reference
                        else reference.answers, inputs, ledger)
        previous = trial
        trials.append(trial)
    rounds += sim.analyst_rounds(previous, inputs, sim.ROUNDS_PER_GROUP
                                 * len(sim.PROTOCOLS), untraced)
    sim.check_trial(previous, reference.answers, inputs, ledger)
    _time_builds(num_users, inputs.params_seed, setups)
    e2e = _sim_e2e(num_users, trials, rounds, setups)
    count = len(rounds)
    outcome = Outcome(ledger=ledger, metrics=e2e, details={
        "config": {"protocols": list(sim.PROTOCOLS),
                   "num_users": num_users, "workers": sim.WORKERS,
                   "trials": num_trials,
                   "query_rounds_per_group": sim.ROUNDS_PER_GROUP,
                   "query_items_per_estimator": sim.NUM_QUERY_ITEMS,
                   "rappor_candidates": sim.RAPPOR_CANDIDATES,
                   "plan_seed": inputs.plan_seed,
                   "planted_items": {p: list(v)
                                     for p, v in inputs.planted.items()}},
        "query_samples": count,
        "query_tail_percentile": round(tail_percentile(count), 2)})
    if not trace:
        outcome.lines = _e2e_lines(e2e)
        return outcome

    tracer = Tracer(True)
    with tracer.span("engine.job"):
        traced = sim.run_trial(params, inputs, sim.WORKERS, tracer)
    traced_rounds = sim.analyst_rounds(traced, inputs, sim.ROUNDS_PER_GROUP
                                       * len(sim.PROTOCOLS), tracer)
    sim.check_trial(traced, reference.answers, inputs, ledger)
    traced_e2e = _sim_e2e(num_users, [traced], traced_rounds, setups)
    figures: Dict[str, float] = {}
    serial_stages: Dict[str, float] = {}
    for protocol in sim.PROTOCOLS:
        replay, _ = layers.replay_protocol(protocol, params[protocol],
                                           inputs.values[protocol],
                                           inputs.plan_seed, tracer,
                                           codec_reports=1 << 16)
        figures.update(replay)
        serial_stages[protocol] = (
            num_users * (replay[f"encode.ns_per_report.{protocol}"]
                                + replay[f"absorb.ns_per_report.{protocol}"])
            / 1e6 + replay[f"finalize.ms.{protocol}"])
    figures.update({
        "engine.ingest_s": sum(traced.ingest_s.values()),
        "engine.merge_s": sum(traced.merge_s.values()),
        "engine.speedup_vs_1_worker": reference.job_s / trials[0].job_s,
    })
    serial_ms = reference.job_s * 1e3
    lines = [_reconcile_line("sim-six", "job_1_worker", serial_ms,
                             serial_stages),
             f"reconcile sim-six job_{sim.WORKERS}_workers: "
             f"e2e_ms={trials[0].job_s * 1e3:.1f} "
             f"serial_stage_sum_ms={sum(serial_stages.values()):.1f}"]
    figures["reconcile.stage_sum_ms"] = sum(serial_stages.values())
    figures["reconcile.unattributed_ms"] = (serial_ms
                                            - sum(serial_stages.values()))
    _finish_trace(outcome, tracer, figures, e2e, traced_e2e, ledger,
                  work_dir, "sim-six", seed, lines)
    return outcome


# ----- shared output ------------------------------------------------------------------

def _reconcile_line(workload: str, what: str, e2e_ms: float,
                    stages: Dict[str, float]) -> str:
    total = sum(stages.values())
    parts = " ".join(f"{k}={v:.1f}" for k, v in stages.items())
    return (f"reconcile {workload} {what}: e2e_ms={e2e_ms:.1f} "
            f"stage_sum_ms={total:.1f} unattributed_ms={e2e_ms - total:.1f} "
            f"[{parts}]")


def _e2e_lines(e2e: Dict[str, Tuple[float, str]]) -> List[str]:
    return [f"{name} {value:.6g} {unit}" for name, (value, unit) in e2e.items()]


def _finish_trace(outcome: Outcome, tracer: Tracer, figures: Dict[str, float],
                  untraced_e2e, traced_e2e, ledger: Ledger, work_dir: Path,
                  workload: str, seed: int, lines: List[str]) -> None:
    """Fill every per-layer metric, add self times, overhead, spans file."""
    figures["error_rate"] = ledger.error_rate
    base = untraced_e2e["job_s"][0]
    figures["trace.overhead_pct"] = ((traced_e2e["job_s"][0] - base)
                                     / base * 100.0)
    for layer, seconds in tracer.self_seconds_by_layer().items():
        if layer in layers.TRACE_LAYERS:
            figures[f"self_ms.{layer}"] = seconds * 1e3
    units = layers.all_metric_units()
    unknown = set(figures) - set(units)
    if unknown:
        raise RuntimeError(f"unregistered per-layer metrics: {sorted(unknown)}")
    # A layer the workload never enters does no work on it: reported as 0.
    outcome.metrics = {name: (figures.get(name, 0.0), unit)
                       for name, unit in units.items()}
    for name, (value, unit) in outcome.metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"per-layer metric {name} is {value}")
    spans_file = work_dir / f"trace-{workload}-{seed}.json"
    tracer.write(spans_file)
    outcome.lines = [
        *lines,
        "e2e untraced vs traced: " + " ".join(
            f"{k}={untraced_e2e[k][0]:.6g}/{traced_e2e[k][0]:.6g}"
            for k in E2E_UNITS),
        f"spans: {len(tracer.spans)} written to {spans_file.name}",
        *(f"{name} {value:.6g} {unit}"
          for name, (value, unit) in outcome.metrics.items()),
    ]
    outcome.details["spans_file"] = str(spans_file.name)
