"""The benchmark's three replay workloads.

Each workload builds its inputs from the seed alone, stands up the
program's default configuration through its public API, replays the
trace once and returns an :class:`Iteration`.  All three are open loop:
the trace is an arrival schedule in virtual time, fixed before the replay
starts, so a slow replay never thins the offered load.

The fleet configuration (node specs, balancer, router and shard seeds)
is the same for every seed; only the generated trace changes with it.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import repro.cluster as cluster
import repro.workloads as workloads
from repro.faults import FaultInjector
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.sched.dataset import generate_dataset
from repro.sched.online import OnlineConfig, OnlinePredictor
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.shard import ShardPlan, digest_responses, run_sharded
from repro.shard.worker import GroupRuntime

from metrics import (
    Outcome,
    merge_counters,
    outcome_from_responses,
    outcome_from_rows,
    router_counters,
)

MODEL_SPECS = {spec.name: spec for spec in (SIMPLE, MNIST_SMALL)}
ROUTER_SEED = 123

# flood-replay / sharded-flood trace: fixed request count, cut from a
# mixed trace whose natural length always exceeds it, so every seed
# replays the same population and the flash crowd (1.5 s) lies well
# inside the replayed window.  Short MMPP sojourns give ~750 calm/burst
# cycles per trace, which keeps the offered load (and with it every
# virtual metric) steady from seed to seed; 30/10 ms sojourns varied the
# load by ~5% between seeds and the shed share by ~15%.
FLOOD_REQUESTS = 48_000
FLOOD_HORIZON_S = 6.0
FLOOD_SOJOURN_S = (0.006, 0.002)
FLOOD_NODES = (
    cluster.NodeSpec("node-a"),
    cluster.NodeSpec("node-b"),
    cluster.NodeSpec("node-c", device_classes=("cpu",)),
    cluster.NodeSpec("node-d", device_classes=("cpu",)),
)
SHARD_GROUPS = tuple(
    (
        cluster.NodeSpec(f"shard{g}-a"),
        cluster.NodeSpec(f"shard{g}-b", device_classes=("cpu",)),
    )
    for g in range(2)
)
SHARD_WORKERS = 2

# drift-varied trace: Poisson arrivals, lognormal batches (sigma 1) over
# both zoo models, with a silent 16x dGPU throttle on every node across
# the middle third of the horizon.  A low rate over a long virtual horizon
# keeps p99 and energy steady from seed to seed (the same request count
# at 1200 req/s over 3 s varied p99 by ~11% between seeds) and keeps the
# replay short enough for several replays per run.
DRIFT_RATE_HZ = 300.0
DRIFT_MEAN_BATCH = 512
DRIFT_HORIZON_S = 12.0
DRIFT_SLO_S = 0.3
DRIFT_THROTTLE = 16.0
DRIFT_NODES = tuple(cluster.NodeSpec(f"node-{c}") for c in "abcd")


@dataclass
class Iteration:
    """One set-up plus replay of a workload."""

    setup_s: float
    replay_s: float
    outcome: Outcome
    counters: dict = field(default_factory=dict)
    shard: dict = field(default_factory=dict)
    worker_rss_mb: float = 0.0
    worker_spans: list = field(default_factory=list)


def flood_trace(seed: int):
    """Production-shaped mixed trace: MMPP + flash crowd + sessions."""
    horizon = FLOOD_HORIZON_S
    mmpp = workloads.MMPPStream(
        horizon_s=horizon, slo_s=0.3,
        rates_hz=(3_000.0, 12_000.0), mean_sojourn_s=FLOOD_SOJOURN_S,
        batch_sigma=0.0,
    )
    flash = workloads.FlashCrowdStream(
        horizon_s=horizon, slo_s=0.2,
        base_rate_hz=800.0, peak_rate_hz=8_000.0,
        spike_at_s=1.5, ramp_s=0.3, decay_tau_s=0.8,
        batch_sigma=0.0,
    )
    sessions = workloads.SessionStream(
        horizon_s=horizon, slo_s=0.4, session_rate_hz=300.0, batch_sigma=0.0
    )
    mix = workloads.MixedTrace(components=(
        workloads.TraceComponent(
            process=mmpp, models=(MNIST_SMALL.name, SIMPLE.name), name="mmpp"
        ),
        workloads.TraceComponent(process=flash, models=(SIMPLE.name,), name="flash"),
        workloads.TraceComponent(
            process=sessions, models=(MNIST_SMALL.name,), name="sessions"
        ),
    ))
    trace = mix.build(rng=seed, n_requests=FLOOD_REQUESTS)
    if len(trace) != FLOOD_REQUESTS:
        raise RuntimeError(
            f"seed {seed} built only {len(trace)} of {FLOOD_REQUESTS} requests"
        )
    return trace


def drift_trace(seed: int):
    """Poisson arrivals with lognormal batches over both zoo models."""
    stream = workloads.PoissonStream(
        horizon_s=DRIFT_HORIZON_S, slo_s=DRIFT_SLO_S, rate_hz=DRIFT_RATE_HZ,
        mean_batch=DRIFT_MEAN_BATCH, batch_sigma=1.0,
    )
    return workloads.make_trace(stream, [SIMPLE, MNIST_SMALL], rng=seed)


def train_predictor():
    """The offline RF device predictor every workload starts from."""
    dataset = generate_dataset(
        "throughput",
        specs=[SIMPLE, MNIST_SMALL],
        batches=(1, 64, 1024, 16384, 262144),
    )
    return dataset, DevicePredictor("throughput").fit(dataset)


def run_flood_replay(seed: int, detail: bool = False, tracer=None) -> Iteration:
    t0 = time.perf_counter()
    trace = flood_trace(seed)
    _, predictor = train_predictor()
    fleet = cluster.make_fleet(
        list(FLOOD_NODES), {Policy.THROUGHPUT: predictor}, MODEL_SPECS
    )
    router = cluster.ClusterRouter(fleet, balancer="least-ect", rng=ROUTER_SEED)
    t1 = time.perf_counter()
    result = router.serve_trace(trace, vectorized=True)
    t2 = time.perf_counter()
    digest = digest_responses(result.responses)
    return Iteration(
        setup_s=t1 - t0,
        replay_s=t2 - t1,
        outcome=outcome_from_responses(trace, result.responses, digest, detail),
        counters=router_counters(router) if detail else {},
    )


def run_drift_varied(seed: int, detail: bool = False, tracer=None) -> Iteration:
    t0 = time.perf_counter()
    trace = drift_trace(seed)
    dataset, base = train_predictor()
    predictor = OnlinePredictor(base, MODEL_SPECS, dataset, OnlineConfig())
    fleet = cluster.make_fleet(
        list(DRIFT_NODES), {Policy.THROUGHPUT: predictor}, MODEL_SPECS
    )
    router = cluster.ClusterRouter(fleet, balancer="least-ect", rng=ROUTER_SEED)
    injector = FaultInjector(router)
    third = DRIFT_HORIZON_S / 3.0
    for spec in DRIFT_NODES:
        injector.throttle_device(
            third, spec.name, "dgpu", DRIFT_THROTTLE, duration_s=third
        )
    t1 = time.perf_counter()
    result = router.serve_trace(trace)
    t2 = time.perf_counter()
    digest = digest_responses(result.responses)
    return Iteration(
        setup_s=t1 - t0,
        replay_s=t2 - t1,
        outcome=outcome_from_responses(trace, result.responses, digest, detail),
        counters=router_counters(router) if detail else {},
    )


def _group_report(runtime, detail: bool, tracer) -> dict:
    """What a shard group ships back beside its outcome rows.

    The rows carry no energy and no dispatch/start stamps, so the group
    sums its served energy here (one pass over its responses) and, for a
    traced iteration, adds the stamps, its layer counters and its
    worker's spans.
    """
    responses = runtime.router.result().responses
    report = {
        "pid": os.getpid(),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "energy_j": sum(r.inner.energy_j for r in responses if r.served),
    }
    if detail:
        served = [r for r in responses if r.served]
        report["request_id"] = np.array(
            [r.request.request_id for r in served], np.int64
        )
        report["dispatched_s"] = np.array([r.inner.dispatched_s for r in served])
        report["start_s"] = np.array([r.inner.start_s for r in served])
        report["device"] = np.array([r.inner.device for r in served], dtype=object)
        report["counters"] = router_counters(runtime.router)
        if tracer is not None:
            report["spans"] = tracer.drain()
    return report


def run_sharded_flood(
    seed: int, detail: bool = False, tracer=None, inline: bool = False
) -> Iteration:
    t0 = time.perf_counter()
    trace = flood_trace(seed)
    _, predictor = train_predictor()
    plan = ShardPlan(groups=SHARD_GROUPS, n_workers=SHARD_WORKERS)

    # The replay starts at the first front-tier window; the time before
    # it is worker start-up (fork plus each group's fleet build).
    front_cls = type(cluster.make_front_tier(plan.front_tier, plan.n_groups))
    begin_window = front_cls.begin_window
    first_window: list = []

    def probe(self, summaries):
        if not first_window:
            first_window.append(time.perf_counter())
        return begin_window(self, summaries)

    finalize = GroupRuntime.finalize

    def finalize_with_report(runtime):
        outcome = finalize(runtime)
        outcome.telemetry["perfbench"] = _group_report(runtime, detail, tracer)
        return outcome

    front_cls.begin_window = probe
    GroupRuntime.finalize = finalize_with_report
    try:
        t_call = time.perf_counter()
        result = run_sharded(
            plan, trace, {Policy.THROUGHPUT: predictor}, MODEL_SPECS,
            inline=inline,
        )
        t_end = time.perf_counter()
    finally:
        front_cls.begin_window = begin_window
        GroupRuntime.finalize = finalize

    reports = [result.group_telemetry[g]["perfbench"] for g in range(plan.n_groups)]
    startup_s = first_window[0] - t_call
    outcome = outcome_from_rows(
        trace, result.rows, result.digest, sum(r["energy_j"] for r in reports)
    )
    worker_rss: dict = {}
    for report in reports:
        worker_rss[report["pid"]] = max(
            worker_rss.get(report["pid"], 0.0), report["maxrss_mb"]
        )
    iteration = Iteration(
        setup_s=(t_call - t0) + startup_s,
        replay_s=result.wall_s,
        outcome=outcome,
        shard={
            "startup_s": startup_s,
            "replay_s": result.wall_s,
            "merge_s": t_end - first_window[0] - result.wall_s,
            "windows": result.n_windows,
        },
        worker_rss_mb=0.0 if inline else sum(worker_rss.values()),
    )
    if detail:
        _attach_worker_detail(iteration, reports)
    return iteration


def _attach_worker_detail(iteration: Iteration, reports) -> None:
    outcome = iteration.outcome
    n = outcome.request_id.size
    position = np.empty(outcome.attempted, np.int64)
    position[outcome.request_id] = np.arange(n)
    outcome.dispatched_s = np.full(n, np.nan)
    outcome.start_s = np.full(n, np.nan)
    outcome.device = np.full(n, "", dtype=object)
    for report in reports:
        rows = position[report["request_id"]]
        outcome.dispatched_s[rows] = report["dispatched_s"]
        outcome.start_s[rows] = report["start_s"]
        outcome.device[rows] = report["device"]
    iteration.counters = merge_counters(r["counters"] for r in reports)
    iteration.worker_spans = [r["spans"] for r in reports if "spans" in r]


@dataclass(frozen=True)
class Workload:
    """A named workload and the record of why the benchmark runs it.

    ``run(seed, detail=False, tracer=None)`` performs one iteration.
    ``detail`` adds what the per-layer metrics need; ``tracer`` is the
    installed tracer, which only a workload with worker processes uses
    (to ship their spans back).
    """

    name: str
    run: object
    why: str
    loop: str
    input_size: str
    loads: tuple
    idle: tuple
    workers: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flood-replay",
            run=run_flood_replay,
            why=(
                "Per-request bookkeeping in the frontend and router does the "
                "work here: admission, queues, coalescing, completions and "
                "telemetry. The decision cache absorbs placement, so the "
                "predictor does almost nothing."
            ),
            loop=(
                "open loop; MMPP (3k/12k req/s, "
                f"{FLOOD_SOJOURN_S[0] * 1e3:g}/{FLOOD_SOJOURN_S[1] * 1e3:g} ms "
                "sojourns) + flash crowd (0.8k->8k req/s at 1.5 s) + sessions "
                "(300/s), fixed batch sizes per component, vectorized "
                "serve_trace"
            ),
            input_size=f"{FLOOD_REQUESTS} requests, 4 nodes (2 full, 2 CPU-only)",
            loads=("workloads", "cluster", "serving", "telemetry", "sim", "hw"),
            idle=("sched.online", "shard"),
        ),
        Workload(
            name="drift-varied",
            run=run_drift_varied,
            why=(
                "Many (model, batch) cells make the decision cache mostly "
                "miss, so the scheduler does the work: balancer ECT probes, "
                "predictor queries, online refits and cache invalidations, "
                "on the per-event dispatch path."
            ),
            loop=(
                f"open loop; Poisson {DRIFT_RATE_HZ:g} req/s, lognormal "
                f"batches (mean {DRIFT_MEAN_BATCH}, sigma 1), SLO "
                f"{DRIFT_SLO_S:g} s, {DRIFT_THROTTLE:g}x dGPU throttle over "
                "the middle third, per-event serve_trace"
            ),
            input_size=(
                f"~{int(DRIFT_RATE_HZ * DRIFT_HORIZON_S)} requests over "
                f"{DRIFT_HORIZON_S:g} s, 4 symmetric nodes"
            ),
            loads=("workloads", "sched.predictor", "sched.online",
                   "sched.backlog", "cluster", "hw"),
            idle=("shard",),
        ),
        Workload(
            name="sharded-flood",
            run=run_sharded_flood,
            why=(
                "The only workload that exercises repro.shard: the "
                "conservative window protocol, pickled IPC between the "
                "coordinator and its workers, and the outcome merge."
            ),
            loop=(
                "open loop; the flood-replay trace through run_sharded, "
                "least-loaded front tier, 0.25 s windows"
            ),
            input_size=(
                f"{FLOOD_REQUESTS} requests, 2 groups (1 full + 1 CPU-only "
                f"node each), {SHARD_WORKERS} worker processes"
            ),
            loads=("shard", "serving", "cluster", "sim", "telemetry"),
            idle=("sched.online",),
            workers=SHARD_WORKERS,
        ),
    )
}
