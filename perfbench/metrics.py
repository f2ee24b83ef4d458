"""Outcome columns, the exactly-once ledger and the virtual-time metrics.

Every virtual metric is computed here from per-request timestamps with
exact numpy percentiles, never from the program's own telemetry
summaries, so a change to how the program summarises latency cannot move
an end-to-end figure.  Latency counts from each request's scheduled
arrival in the trace (open loop), so a stall delays every later request
and shows up here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEVICE_CLASSES = ("cpu", "igpu", "dgpu")


@dataclass
class Outcome:
    """How each trace request resolved, as columns in request-id order.

    ``dispatched_s``/``start_s``/``device`` are filled only for a traced
    iteration (the per-layer virtual metrics need them); ``energy_j`` is
    the modelled energy of every served request, summed.
    """

    attempted: int
    request_id: np.ndarray
    served: np.ndarray
    shed: np.ndarray
    arrival_s: np.ndarray
    deadline_s: np.ndarray
    end_s: np.ndarray
    energy_j: float
    digest: str
    dispatched_s: "np.ndarray | None" = None
    start_s: "np.ndarray | None" = None
    device: "np.ndarray | None" = None


def _trace_columns(trace, ids: np.ndarray):
    requests = trace.requests
    arrival = np.fromiter(
        (requests[i].arrival_s for i in ids.tolist()), np.float64, ids.size
    )
    deadline = np.fromiter(
        (
            np.inf if requests[i].deadline_s is None else requests[i].deadline_s
            for i in ids.tolist()
        ),
        np.float64,
        ids.size,
    )
    return arrival, deadline


def outcome_from_responses(trace, responses, digest: str, detail: bool) -> Outcome:
    """Columns from in-process ``ClusterResponse`` objects.

    Trace request ids are positional (``MixedTrace.build`` and
    ``make_trace`` number them 0..n-1), so an id indexes its request.
    """
    n = len(responses)
    ids = np.empty(n, np.int64)
    served = np.zeros(n, bool)
    shed = np.zeros(n, bool)
    end = np.full(n, np.nan)
    dispatched = np.full(n, np.nan) if detail else None
    start = np.full(n, np.nan) if detail else None
    device = np.full(n, "", dtype=object) if detail else None
    energy = 0.0
    for k, response in enumerate(responses):
        ids[k] = response.request.request_id
        status = response.status
        if status == "ok":
            inner = response.inner
            served[k] = True
            end[k] = inner.end_s
            energy += inner.energy_j
            if detail:
                dispatched[k] = inner.dispatched_s
                start[k] = inner.start_s
                device[k] = inner.device
        elif status == "shed":
            shed[k] = True
    ids_ok = (ids >= 0) & (ids < len(trace))
    arrival, deadline = _trace_columns(trace, np.where(ids_ok, ids, 0))
    return Outcome(
        attempted=len(trace), request_id=ids, served=served, shed=shed,
        arrival_s=arrival, deadline_s=deadline, end_s=end, energy_j=energy,
        digest=digest, dispatched_s=dispatched, start_s=start, device=device,
    )


def outcome_from_rows(trace, rows, digest: str, energy_j: float) -> Outcome:
    """Columns from a sharded replay's merged outcome tuples.

    A row is ``(request_id, status, node, device, end_s, shed_reason)``.
    """
    n = len(rows)
    ids = np.fromiter((row[0] for row in rows), np.int64, n)
    status = [row[1] for row in rows]
    served = np.fromiter((s == "ok" for s in status), bool, n)
    shed = np.fromiter((s == "shed" for s in status), bool, n)
    end = np.fromiter(
        (np.nan if row[4] is None else row[4] for row in rows), np.float64, n
    )
    ids_ok = (ids >= 0) & (ids < len(trace))
    arrival, deadline = _trace_columns(trace, np.where(ids_ok, ids, 0))
    return Outcome(
        attempted=len(trace), request_id=ids, served=served, shed=shed,
        arrival_s=arrival, deadline_s=deadline, end_s=end, energy_j=energy_j,
        digest=digest,
    )


def unresolved(outcome: Outcome) -> int:
    """Trace requests that did not resolve exactly once as served or shed.

    A request missing from the outcome, reported twice, or left in any
    other state counts once; zero means served + shed == attempted with
    every request id present exactly once.
    """
    ids = outcome.request_id
    in_range = (ids >= 0) & (ids < outcome.attempted)
    resolved = in_range & (outcome.served | outcome.shed)
    counts = np.bincount(ids[in_range], minlength=outcome.attempted)
    once = np.zeros(outcome.attempted, bool)
    once[ids[resolved]] = True
    once &= counts == 1
    return int(outcome.attempted - once.sum())


def virtual_metrics(outcome: Outcome) -> dict:
    """The simulated fleet's service quality, from response timestamps."""
    served = outcome.served
    n_served = int(served.sum())
    attempted = outcome.attempted
    latency_ms = (outcome.end_s[served] - outcome.arrival_s[served]) * 1e3
    on_time = served & (outcome.end_s <= outcome.deadline_s)
    if n_served:
        p50, p99 = np.percentile(latency_ms, [50.0, 99.0])
    else:
        p50 = p99 = float("nan")
    return {
        "goodput": float(on_time.sum()) / attempted,
        "shed_share": float(outcome.shed.sum()) / attempted,
        "p50_latency_ms": float(p50),
        "p99_latency_ms": float(p99),
        "energy_j_per_served": (
            outcome.energy_j / n_served if n_served else float("nan")
        ),
        "latency_samples": n_served,
    }


def layer_virtual_metrics(outcome: Outcome) -> dict:
    """Where served requests spent virtual time, and which device served."""
    served = outcome.served
    queue_wait = outcome.dispatched_s[served] - outcome.arrival_s[served]
    device_wait = outcome.start_s[served] - outcome.dispatched_s[served]
    service = outcome.end_s[served] - outcome.start_s[served]
    devices = outcome.device[served]
    n = max(int(served.sum()), 1)
    out = {
        "serving.queue_wait_p99_ms": float(np.percentile(queue_wait, 99.0)) * 1e3,
        "serving.device_wait_p99_ms": float(np.percentile(device_wait, 99.0)) * 1e3,
        "hw.service_p50_ms": float(np.percentile(service, 50.0)) * 1e3,
        "serving.admission.shed_share": float(outcome.shed.sum()) / outcome.attempted,
    }
    for cls in DEVICE_CLASSES:
        out[f"sched.share_{cls}"] = float(np.count_nonzero(devices == cls)) / n
    return out


def router_counters(router) -> dict:
    """Per-layer work counts read from one router's public surfaces."""
    cache = router.decision_cache_stats()
    online = router.telemetry.online_snapshot()
    batches = samples = 0
    for node in router.nodes:
        histogram = node.frontend.telemetry.batch_sizes
        if len(histogram):
            batches += len(histogram)
            samples += histogram.mean_samples * len(histogram)
    return {
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cache_invalidations": (
            cache["refit_clears"]
            + cache["feedback_invalidations"]
            + cache["drift_invalidations"]
        ),
        "online_refits": online.get("refits", 0),
        "online_drift_flags": online.get("drift_flags", 0),
        "online_fallback_decisions": online.get("fallback_decisions", 0),
        "rerouted": sum(1 for r in router.result().responses if r.rerouted),
        "batches": batches,
        "batch_samples": samples,
        "events": router.loop.utilization()["events_fired"],
    }


def merge_counters(parts) -> dict:
    """Sum per-group counters (a sharded replay has one router per group)."""
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total
