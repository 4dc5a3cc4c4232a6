"""Offline workload ``sim-six``: ``run_simulation`` over all six protocols.

A trial runs encode → absorb → merge → finalize for every registered
protocol through :func:`repro.engine.run_simulation`, then times analyst
rounds against the finalized estimators.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import Ledger, Tracer

#: every registered wire protocol, in the order a trial runs them
PROTOCOLS = ("explicit", "hashtogram", "cms", "rappor", "expander_sketch",
             "single_hash")
HEAVY_HITTER_PROTOCOLS = ("expander_sketch", "single_hash")
#: domain of the small-domain protocols (explicit histogram, RAPPOR)
SMALL_DOMAIN = 1 << 10
DOMAIN_SIZE = 1 << 16
WORKERS = 2
PLANTED = (0.1, 0.08, 0.06)
#: parameter builds timed in each of a run's three set-up groups
#: (``setup_s`` reports the median of all of them)
SETUP_REPEATS = 25
#: timed analyst rounds per group; a round reads all six estimators and is
#: one latency sample.  One untimed round before each group fills the
#: caches.  A job's estimators are read by one group before each protocol
#: of the next job (see :func:`run_trial`'s ``between``); the last job's,
#: by as many rounds at once.
ROUNDS_PER_GROUP = 6
#: items per estimator per round: half the large domain, so one round is
#: ~25 ms of work and a brief stall of the host moves few samples
NUM_QUERY_ITEMS = 1 << 15
#: RAPPOR decodes by least squares against a candidate list; its cost
#: grows with the list, so it gets a shorter one of its own
RAPPOR_CANDIDATES = 256


@dataclass
class SimInputs:
    values: Dict[str, np.ndarray]
    planted: Dict[str, Tuple[int, ...]]
    queries: Dict[str, List[int]]
    plan_seed: int
    #: seed of the public parameters (rebuilt identically by each setup)
    params_seed: int


def make_inputs(num_users: int, seed: int) -> SimInputs:
    from repro.workloads.distributions import planted_workload

    gen = np.random.default_rng(seed)
    big = planted_workload(num_users, DOMAIN_SIZE,
                           heavy_fractions=list(PLANTED), rng=gen)
    small = planted_workload(num_users, SMALL_DOMAIN,
                             heavy_fractions=list(PLANTED), rng=gen)
    values, planted, queries = {}, {}, {}
    for protocol in PROTOCOLS:
        workload = small if protocol in ("explicit", "rappor") else big
        domain = SMALL_DOMAIN if protocol in ("explicit", "rappor") \
            else DOMAIN_SIZE
        values[protocol] = workload.values
        planted[protocol] = tuple(int(x) for x in workload.heavy_elements)
        size = (RAPPOR_CANDIDATES if protocol == "rappor"
                else NUM_QUERY_ITEMS)
        probes = gen.integers(0, domain, size=size - len(planted[protocol]))
        queries[protocol] = [*planted[protocol], *(int(x) for x in probes)]
    return SimInputs(values=values, planted=planted, queries=queries,
                     plan_seed=int(gen.integers(0, 2**63 - 1)),
                     params_seed=int(gen.integers(0, 2**63 - 1)))


def build_params(num_users: int, seed: int) -> Dict[str, object]:
    """The six public parameter sets (the workload's set-up)."""
    from repro.baselines.single_hash import SingleHashHeavyHitters
    from repro.core.heavy_hitters import PrivateExpanderSketch
    from repro.engine.bench import build_bench_params
    from repro.protocol import ExplicitHistogramParams, RapporParams

    gen = np.random.default_rng(seed)
    n, domain = num_users, DOMAIN_SIZE
    return {
        "explicit": ExplicitHistogramParams(SMALL_DOMAIN, 1.0),
        "hashtogram": build_bench_params("hashtogram", domain, 1.0, n,
                                         rng=gen),
        "cms": build_bench_params("cms", domain, 1.0, n, rng=gen),
        "rappor": RapporParams.create(SMALL_DOMAIN, 1.0, rng=gen),
        "expander_sketch": PrivateExpanderSketch(domain, 4.0).public_params(
            n, rng=gen),
        "single_hash": SingleHashHeavyHitters(domain, 4.0).public_params(
            n, rng=gen),
    }


def answer(estimator, protocol: str, items: List[int]) -> np.ndarray:
    """One analyst query against a finalized estimator."""
    if protocol == "rappor":
        return np.asarray(estimator.estimate_candidates(items), dtype=float)
    return np.asarray(estimator.estimate_many(items), dtype=float)


@dataclass
class SimTrial:
    job_s: float
    ingest_s: Dict[str, float]
    merge_s: Dict[str, float]
    finalize_s: Dict[str, float]
    estimators: Dict[str, object]
    #: the last analyst round's answers (see :func:`analyst_rounds`)
    answers: Dict[str, np.ndarray]


def run_trial(params: Dict[str, object], inputs: SimInputs, workers: int,
              tracer: Tracer, between: Callable[[], None] = lambda: None
              ) -> SimTrial:
    """One job: six protocols from values in hand to finalized estimators.

    ``between`` runs before each protocol, off the job's clock.
    """
    from repro.engine import run_simulation

    ingest, merge, finalize, estimators = {}, {}, {}, {}
    job_s = 0.0
    for protocol in PROTOCOLS:
        between()
        start = time.perf_counter()
        with tracer.span("engine.run_simulation"):
            result = run_simulation(params[protocol], inputs.values[protocol],
                                    rng=np.random.default_rng(inputs.plan_seed),
                                    workers=workers)
        begin = time.perf_counter()
        with tracer.span("protocol.finalize"):
            estimators[protocol] = result.finalize()
        finalize[protocol] = time.perf_counter() - begin
        ingest[protocol] = result.ingest_s
        merge[protocol] = result.merge_s
        job_s += time.perf_counter() - start
    return SimTrial(job_s=job_s, ingest_s=ingest, merge_s=merge,
                    finalize_s=finalize, estimators=estimators, answers={})


def analyst_rounds(trial: SimTrial, inputs: SimInputs, rounds: int,
                   tracer: Tracer) -> List[float]:
    """Time ``rounds`` analyst rounds on ``trial``'s estimators, in ms.

    The answers of the last round are kept in ``trial.answers``.
    """
    # A job leaves gigabytes of garbage behind; collect it first so that
    # the rounds do not pay for it.
    gc.collect()
    query_ms: List[float] = []
    for round_index in range(1 + rounds):
        begin = time.perf_counter()
        for protocol in PROTOCOLS:
            with tracer.span("protocol.query"):
                trial.answers[protocol] = answer(trial.estimators[protocol],
                                                 protocol,
                                                 inputs.queries[protocol])
        if round_index > 0:
            query_ms.append((time.perf_counter() - begin) * 1000.0)
    return query_ms


def check_trial(trial: SimTrial, reference: Optional[Dict[str, np.ndarray]],
                inputs: SimInputs, ledger: Ledger) -> None:
    """Answers must equal the reference bit for bit; planted items recovered.

    The trial's estimators are released afterwards: later trials should not
    query with an ever larger heap for the collector to walk.
    """
    for protocol in PROTOCOLS if reference is not None else ():
        ledger.check("answer", np.array_equal(trial.answers[protocol],
                                              reference[protocol]),
                     f"{protocol}: answers differ from the 1-worker engine")
    for protocol in HEAVY_HITTER_PROTOCOLS:
        found = trial.estimators[protocol].estimates
        for item in inputs.planted[protocol]:
            ledger.check("planted", item in found,
                         f"{protocol}: planted heavy hitter {item} was missed")
    trial.estimators.clear()
