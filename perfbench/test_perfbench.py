"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from metrics import Outcome, unresolved, virtual_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402


def _outcome(ids, served, shed, arrival, deadline, end, energy=0.0):
    return Outcome(
        attempted=4,
        request_id=np.asarray(ids, np.int64),
        served=np.asarray(served, bool),
        shed=np.asarray(shed, bool),
        arrival_s=np.asarray(arrival, float),
        deadline_s=np.asarray(deadline, float),
        end_s=np.asarray(end, float),
        energy_j=energy,
        digest="",
    )


def test_ledger_accepts_exactly_once():
    outcome = _outcome(
        [0, 1, 2, 3], [1, 1, 0, 1], [0, 0, 1, 0],
        [0.0] * 4, [1.0] * 4, [0.5, 0.5, np.nan, 0.5],
    )
    assert unresolved(outcome) == 0


@pytest.mark.parametrize(
    "ids, served, shed, expected",
    [
        ([0, 1, 2], [1, 1, 1], [0, 0, 0], 1),          # request 3 missing
        ([0, 1, 1, 3], [1, 1, 1, 1], [0, 0, 0, 0], 2),  # 1 twice, 2 missing
        ([0, 1, 2, 3], [1, 1, 0, 1], [0, 0, 0, 0], 1),  # 2 still pending
        ([0, 1, 2, 9], [1, 1, 1, 1], [0, 0, 0, 0], 1),  # id outside the trace
    ],
)
def test_ledger_counts_unresolved_requests(ids, served, shed, expected):
    n = len(ids)
    outcome = _outcome(ids, served, shed, [0.0] * n, [1.0] * n, [0.5] * n)
    assert unresolved(outcome) == expected


def test_virtual_metrics_come_from_timestamps():
    outcome = _outcome(
        [0, 1, 2, 3], [1, 1, 1, 0], [0, 0, 0, 1],
        [0.0, 1.0, 2.0, 3.0], [0.1, 1.1, 2.1, 3.1],
        [0.05, 1.02, 2.5, np.nan], energy=6.0,
    )
    m = virtual_metrics(outcome)
    assert m["goodput"] == 0.5          # request 2 was late, request 3 shed
    assert m["shed_share"] == 0.25
    assert m["p50_latency_ms"] == pytest.approx(50.0)
    assert m["p99_latency_ms"] == pytest.approx(np.percentile([50, 20, 500], 99))
    assert m["energy_j_per_served"] == pytest.approx(2.0)
    assert m["latency_samples"] == 3


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_inner = tracer.wrap("hw.costmodel.timing", inner)
    tracer.wrap("sim.loop", outer)()
    summary = tracer.summary()
    assert summary["hw.costmodel.timing"][0] == 2
    assert summary["sim.loop"][0] == 1
    inner_self = summary["hw.costmodel.timing"][1]
    outer_self = summary["sim.loop"][1]
    assert inner_self >= 0.04
    assert 0.01 <= outer_self < 0.02
    spans = tracer.drain()
    names = [spans["names"][i] for i in spans["name"]]
    assert names == ["sim.loop", "hw.costmodel.timing", "hw.costmodel.timing"]
    assert list(spans["parent"]) == [-1, 0, 0]
    outer_span = spans["end"][0] - spans["start"][0]
    assert outer_self == pytest.approx(outer_span - inner_self, abs=1e-9)
    assert tracer.summary()["sim.loop"] == (0, 0.0)


def test_tracer_install_restores_every_function():
    import repro.cluster as cluster
    from repro.sim.engine import EventLoop

    run, make_fleet = EventLoop.run, cluster.make_fleet
    tracer = Tracer()
    tracer.install()
    try:
        assert EventLoop.run is not run
        assert cluster.make_fleet is not make_fleet
    finally:
        tracer.uninstall()
    assert EventLoop.run is run
    assert cluster.make_fleet is make_fleet


def test_sharded_flood_digest_matches_inline():
    from workloads import run_sharded_flood

    forked = run_sharded_flood(3)
    inline = run_sharded_flood(3, inline=True)
    assert forked.outcome.digest == inline.outcome.digest
    assert unresolved(forked.outcome) == 0
    assert virtual_metrics(forked.outcome) == virtual_metrics(inline.outcome)


def test_traced_replay_keeps_the_outcome():
    from workloads import run_drift_varied

    plain = run_drift_varied(3)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_drift_varied(3, detail=True, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.outcome.digest == plain.outcome.digest
    assert tracer.summary()["sched.online.observe"][0] > 0
