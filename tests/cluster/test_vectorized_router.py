"""Vectorized (run-batched) trace replay vs per-request submission.

``serve_trace`` — the only replay path — routes each run of
same-timestamp arrivals in one balancer pass (pure policies probe once
per (model, batch) cell) and delivers the routed entries in a single
follow-up event.  The reference is the interactive path: one
``submit_request`` per request, each routed by its own event.  Every
balancing policy — including the stateful ones that take no memo — must
produce digit-identical responses and fleet telemetry either way, and
the equivalence must survive a chaos campaign with resilience armed.
The least-ECT prices a run computes at routing time are handed to
admission only when the delivery is the next event; a flush timer
landing on the same instant must cancel that handoff.
"""

import pytest

from repro.cluster import ClusterRouter, NodeSpec
from repro.errors import SchedulerError
from repro.faults import FaultInjector, ResilienceConfig
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.shard import digest_responses
from repro.workloads import (
    FlashCrowdStream,
    InferenceRequest,
    MixedTrace,
    MMPPStream,
    RequestTrace,
    TraceComponent,
)
from tests.cluster.conftest import build_fleet

POLICIES = [
    "round-robin",
    "least-outstanding",
    "join-shortest-queue",
    "power-of-two",
    "least-ect",
]


def mixed_trace(horizon_s: float = 1.0, seed: int = 17) -> RequestTrace:
    return MixedTrace(components=(
        TraceComponent(
            process=MMPPStream(
                horizon_s=horizon_s, slo_s=0.3,
                rates_hz=(500.0, 3_000.0), mean_sojourn_s=(0.3, 0.1),
            ),
            models=(MNIST_SMALL.name, SIMPLE.name),
        ),
        TraceComponent(
            process=FlashCrowdStream(
                horizon_s=horizon_s, slo_s=0.2,
                base_rate_hz=200.0, peak_rate_hz=2_000.0,
                spike_at_s=horizon_s * 0.5, ramp_s=0.1, decay_tau_s=0.3,
            ),
            models=(SIMPLE.name,),
        ),
    )).build(seed)


def replay_per_request(router: ClusterRouter, trace):
    """Reference replay: one ``submit_request`` (routing event) per request."""
    responses = [router.submit_request(request) for request in trace]
    if router.resilience is not None and responses:
        router.schedule_health(
            trace.horizon_s + router.resilience.heartbeat_tail_s
        )
    router.run()
    return router.result()


def signature(result):
    rows = []
    for r in result.responses:
        inner = r.inner
        rows.append((
            r.request.request_id, r.status, r.node_name, r.n_routes,
            r.shed_reason,
            None if inner is None else inner.device,
            None if inner is None else inner.device_name,
            None if inner is None else inner.end_s,
            None if inner is None else inner.energy_j,
        ))
    return rows, result.telemetry.snapshot()


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("balancer", POLICIES)
    def test_every_policy_is_digit_identical(self, serving_predictors, balancer):
        trace = mixed_trace()
        outcomes = []
        for replay in (replay_per_request, ClusterRouter.serve_trace):
            router = ClusterRouter(
                build_fleet(serving_predictors), balancer=balancer, rng=123
            )
            result = replay(router, trace)
            assert router.n_pending == 0
            outcomes.append(signature(result))
        assert outcomes[0] == outcomes[1]

    def test_chaos_campaign_is_digit_identical(self, serving_predictors):
        resilience = ResilienceConfig(
            timeout_s=0.05,
            heartbeat_every_s=0.01,
            breaker_cooldown_s=0.05,
            breaker_max_cooldown_s=0.4,
            seed=11,
        )
        trace = mixed_trace(horizon_s=0.8, seed=29)
        outcomes = []
        for replay in (replay_per_request, ClusterRouter.serve_trace):
            router = ClusterRouter(
                build_fleet(serving_predictors),
                balancer="least-ect", rng=123, resilience=resilience,
            )
            injector = FaultInjector(router)
            injector.crash_node(0.1, "node-a")
            injector.recover_node(0.4, "node-a")
            injector.inject_errors(
                0.2, "node-b", rate=0.5, duration_s=0.2, seed=5
            )
            result = replay(router, trace)
            assert all(r.done for r in result.responses)
            outcomes.append(signature(result))
        assert outcomes[0] == outcomes[1]

    def test_empty_trace(self, serving_predictors):
        router = ClusterRouter(build_fleet(serving_predictors), rng=123)
        result = router.serve_trace(RequestTrace(requests=()))
        assert len(result.responses) == 0
        assert router.n_pending == 0


class TestArrivalOrder:
    """Out-of-order arrivals are refused whole, before anything is ledgered."""

    @staticmethod
    def requests(times):
        return [
            InferenceRequest(
                request_id=i, arrival_s=t, model=SIMPLE.name, batch=8
            )
            for i, t in enumerate(times)
        ]

    @pytest.mark.parametrize("ingest", ["serve_trace", "feed_requests"])
    def test_unsorted_list_raises_before_any_state_changes(
        self, serving_predictors, ingest
    ):
        router = ClusterRouter(build_fleet(serving_predictors), rng=123)
        with pytest.raises(
            SchedulerError, match=r"arrival_s .*request 2 .*0\.01 < 0\.02"
        ):
            getattr(router, ingest)(self.requests((0.0, 0.02, 0.01)))
        assert router.result().responses == []
        assert router.n_pending == 0
        assert router.loop.pending == 0
        # The router is untouched: a sorted replay afterwards works.
        result = router.serve_trace(self.requests((0.0, 0.01, 0.02)))
        assert [r.status for r in result.responses] == ["ok"] * 3


class TestPriceHandoffGuard:
    """A coalescer flush timer due at an arrival instant blocks the handoff.

    Two CPU-only nodes.  At t=0 a full batch keeps node-a's CPU busy; at
    t1 a small request waits on idle node-b, arming its flush timer for
    t2 = t1 + max_wait.  At t2 two more requests arrive with a 1 µs SLO.
    Routing prices node-b at zero delay (idle CPU), but the timer fires
    before their delivery and dispatches the waiting request, so the
    delay admission must see is that batch's service time: both shed.
    Reusing the routing-time price would have accepted them.
    """

    @staticmethod
    def trace() -> RequestTrace:
        t1 = 0.001
        t2 = t1 + 0.005          # CLUSTER_SLO.max_wait_s: the flush instant
        rows = [(0.0, 4096, None), (t1, 64, None), (t2, 64, 1e-6), (t2, 64, 1e-6)]
        return RequestTrace(requests=tuple(
            InferenceRequest(
                request_id=i, arrival_s=t, model=MNIST_SMALL.name, batch=batch,
                deadline_s=None if slo is None else t + slo,
            )
            for i, (t, batch, slo) in enumerate(rows)
        ))

    @staticmethod
    def router(serving_predictors) -> ClusterRouter:
        fleet = build_fleet(serving_predictors, node_specs=(
            NodeSpec("node-a", device_classes=("cpu",)),
            NodeSpec("node-b", device_classes=("cpu",)),
        ))
        return ClusterRouter(fleet, balancer="least-ect")

    def test_flush_on_arrival_instant_skips_the_handoff(self, serving_predictors):
        trace = self.trace()
        per_request = replay_per_request(self.router(serving_predictors), trace)

        router = self.router(serving_predictors)
        handoffs = []
        deliver = router._deliver_run

        def spy(deliveries, priced, _loop=None):
            handoffs.append((router.loop.now, priced is not None))
            return deliver(deliveries, priced, _loop)

        router._deliver_run = spy
        replayed = router.serve_trace(trace)

        assert digest_responses(replayed.responses) == digest_responses(
            per_request.responses
        )
        times = sorted({r.arrival_s for r in trace})
        assert handoffs == [(times[0], True), (times[1], True), (times[2], False)]
        assert [(r.node_name, r.status, r.shed_reason) for r in replayed.responses] == [
            ("node-a", "ok", None),
            ("node-b", "ok", None),
            ("node-b", "shed", "deadline_unmeetable"),
            ("node-b", "shed", "deadline_unmeetable"),
        ]
