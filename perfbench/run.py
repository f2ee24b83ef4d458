"""Replay benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flood-replay --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed`` alone.  The run repeats set-up
plus replay until ``--seconds`` are spent (at least three times) and
reports medians of the host (wall-clock) metrics; the virtual (simulated
time) metrics come from response timestamps and must repeat exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics from the
traced ones (see ``tracer.py``), plus the tracing overhead; the span
tables of the last traced iteration are written to ``perfbench/out/``.

Every iteration checks that each trace request resolved exactly once and
that the outcome digest matches the other iterations and, when this seed
has one, the digest recorded in ``digests.json``.  The last line of
standard output is the JSON result; a report with the host, the workload
record and every metric with its unit, direction and input size comes
before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ITERATIONS = 3

# name -> (unit, better); BENCHMARK.json carries the same and the bounds.
END_TO_END = {
    "replay_req_per_s": ("1/s", "higher"),
    "served_req_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "goodput": ("share", "higher"),
    "p50_latency_ms": ("ms", "lower"),
    "p99_latency_ms": ("ms", "lower"),
    "energy_j_per_served": ("J", "lower"),
}
VIRTUAL = ("goodput", "p50_latency_ms", "p99_latency_ms", "energy_j_per_served")


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program sources at {src}/repro")
    sys.path.insert(0, src)


def host_stamp(seed: int) -> dict:
    import numpy as np

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(workload, iterations) -> dict:
    """Host metrics as medians over iterations; virtual ones repeat exactly."""
    from metrics import virtual_metrics

    outcome = iterations[0].outcome
    served = int(outcome.served.sum())
    resolved = int((outcome.served | outcome.shed).sum())
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "replay_req_per_s": _median(resolved / it.replay_s for it in iterations),
        "served_req_per_s": _median(served / it.replay_s for it in iterations),
        "setup_s": _median(it.setup_s for it in iterations),
        "peak_rss_mb": peak_rss + max(it.worker_rss_mb for it in iterations),
    }
    virtual = virtual_metrics(outcome)
    values.update({name: virtual[name] for name in VIRTUAL})
    inputs = {
        "replay": f"median of {len(iterations)} replays of "
                  f"{workload.input_size}",
        "latency": f"{virtual['latency_samples']} served requests",
    }
    report = {}
    for name, value in values.items():
        unit, better = END_TO_END[name]
        size = inputs["latency"] if "latency" in name else inputs["replay"]
        report[name] = {"value": value, "unit": unit, "better": better,
                        "input": size}
    report["shed_share"] = {
        "value": virtual["shed_share"], "unit": "share", "better": "lower",
        "input": inputs["replay"],
        "note": "not gated: 0 on drift-varied; goodput counts a shed as a miss",
    }
    return report


def _layer_units(name: str):
    if name.endswith(".calls"):
        return "count", "lower"
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("_ms"):
        return "ms", "lower"
    return None


PER_LAYER_EXTRA = {
    "sched.online.refits": ("count", "lower"),
    "sched.online.drift_flags": ("count", "lower"),
    "sched.online.fallback_decisions": ("count", "lower"),
    "sched.backlog.cache_hit_rate": ("share", "higher"),
    "sched.backlog.cache_invalidations": ("count", "lower"),
    "cluster.rerouted": ("count", "lower"),
    "serving.batches": ("count", "lower"),
    "serving.batch_mean_samples": ("count", "higher"),
    "serving.admission.shed_share": ("share", "lower"),
    "sim.events": ("count", "lower"),
    "sim.us_per_event": ("us", "lower"),
    "sim.loop.replay_share": ("share", "lower"),
    "shard.windows": ("count", "lower"),
    "sched.share_cpu": ("share", "lower"),
    "sched.share_igpu": ("share", "higher"),
    "sched.share_dgpu": ("share", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer(workload, untraced, traced, layer_summaries) -> dict:
    """Per-layer metrics from the traced iterations (medians of times)."""
    from metrics import layer_virtual_metrics
    from tracer import SPAN_NAMES

    values: dict = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = layer_summaries[-1][name][0]
        values[f"{name}.self_s"] = _median(s[name][1] for s in layer_summaries)
    counters = traced[-1].counters
    lookups = counters["cache_hits"] + counters["cache_misses"]
    replay_s = _median(it.replay_s for it in traced)
    loop_s = values["sim.loop.self_s"]
    values.update({
        "sched.online.refits": counters["online_refits"],
        "sched.online.drift_flags": counters["online_drift_flags"],
        "sched.online.fallback_decisions": counters["online_fallback_decisions"],
        "sched.backlog.cache_hit_rate": (
            counters["cache_hits"] / lookups if lookups else 0.0
        ),
        "sched.backlog.cache_invalidations": counters["cache_invalidations"],
        "cluster.rerouted": counters["rerouted"],
        "serving.batches": counters["batches"],
        "serving.batch_mean_samples": (
            counters["batch_samples"] / counters["batches"]
            if counters["batches"] else 0.0
        ),
        "sim.events": counters["events"],
        "sim.us_per_event": (
            loop_s / counters["events"] * 1e6 if counters["events"] else 0.0
        ),
        # Shard workers run their loops side by side, so their summed
        # loop time is compared with the replay wall time per worker.
        "sim.loop.replay_share": loop_s / (replay_s * max(workload.workers, 1)),
        "trace.overhead_ratio": replay_s / _median(it.replay_s for it in untraced),
    })
    for key in ("startup_s", "replay_s", "merge_s", "windows"):
        values[f"shard.{key}"] = (
            _median(it.shard[key] for it in traced) if traced[0].shard else 0
        )
    values.update(layer_virtual_metrics(traced[-1].outcome))
    report = {}
    for name, value in values.items():
        unit, better = PER_LAYER_EXTRA.get(name) or _layer_units(name)
        report[name] = {"value": value, "unit": unit, "better": better}
    return report


def _summaries(tracer_batch: dict, iteration) -> dict:
    """One iteration's ``{span: (calls, self_s)}``, workers included."""
    total = {name: list(v) for name, v in tracer_batch["summary"].items()}
    for batch in iteration.worker_spans:
        for name, (calls, self_s) in batch["summary"].items():
            total[name][0] += calls
            total[name][1] += self_s
    return {name: tuple(v) for name, v in total.items()}


def checks(workload_name: str, seed: int, untraced, traced) -> dict:
    from metrics import unresolved, virtual_metrics

    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload_name, {}).get(str(seed))
    digests = [it.outcome.digest for it in untraced]
    traced_digests = [it.outcome.digest for it in traced]
    virtual = [virtual_metrics(it.outcome) for it in untraced + traced]
    result = {
        "digest": digests[0],
        "recorded_digest": recorded,
        "digest_matches_recorded": None if recorded is None else digests[0] == recorded,
        "digests_repeat": len(set(digests)) == 1,
        "traced_digest_matches": all(d == digests[0] for d in traced_digests),
        "virtual_metrics_repeat": all(v == virtual[0] for v in virtual),
        "unresolved_requests": sum(unresolved(it.outcome) for it in untraced + traced),
    }
    result["correct"] = bool(
        result["digests_repeat"]
        and result["traced_digest_matches"]
        and result["virtual_metrics_repeat"]
        and result["digest_matches_recorded"] is not False
        and result["unresolved_requests"] == 0
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from tracer import Tracer, write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    untraced, traced, layer_summaries = [], [], []
    started = time.perf_counter()
    while True:
        # Collect the previous iteration's garbage outside the timed
        # region, so no replay pays for another's clean-up.
        gc.collect()
        untraced.append(workload.run(args.seed))
        if tracer is not None:
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                iteration = workload.run(args.seed, detail=True, tracer=tracer)
            finally:
                tracer.uninstall()
            batch = tracer.drain()
            traced.append(iteration)
            layer_summaries.append(_summaries(batch, iteration))
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(untraced)
        if len(untraced) >= MIN_ITERATIONS and elapsed + per_round > args.seconds:
            break

    check = checks(workload.name, args.seed, untraced, traced)
    if tracer is not None:
        metrics = per_layer(workload, untraced, traced, layer_summaries)
        write_spans(
            os.path.join(HERE, "out", f"spans-{workload.name}-seed{args.seed}.npz"),
            [batch] + traced[-1].worker_spans,
        )
    else:
        metrics = end_to_end(workload, untraced)
    report = {
        "host": host_stamp(args.seed),
        "workload": {
            "name": workload.name, "why": workload.why, "loop": workload.loop,
            "input_size": workload.input_size, "loads": workload.loads,
            "idle": workload.idle,
        },
        "iterations": {
            "setup_s": [it.setup_s for it in untraced],
            "replay_s": [it.replay_s for it in untraced],
            "traced_replay_s": [it.replay_s for it in traced],
        },
        "checks": check,
        "metrics": metrics,
    }
    print(json.dumps(report, indent=1, default=str))
    attempted = sum(it.outcome.attempted for it in untraced + traced)
    print(json.dumps({
        "correct": check["correct"],
        "attempted": attempted,
        "failed": check["unresolved_requests"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
            if args.trace or name in END_TO_END
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
