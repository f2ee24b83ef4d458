"""Property tests: cluster invariants under random traces and drains.

* exactly-once — across node boundaries: a drain mid-trace re-routes
  queued work, yet every submitted request resolves exactly once (never
  lost, never double-counted by the fleet's telemetry);
* conservation — for every balancing policy, served + shed == submitted;
* the no-traffic-to-drains invariant — power-of-two-choices (the only
  randomized policy) can never return a non-routable node;
* run pricing ≡ per-request choice — for every ``stateless_choice``
  policy, ``choose_run`` over a run's cells picks, cell by cell, the node
  ``choose`` picks for one request of that cell, ties included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BALANCERS,
    ClusterRouter,
    NodeSpec,
    NodeState,
    PowerOfTwoBalancer,
    make_balancer,
)
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.workloads.requests import InferenceRequest
from tests.cluster.conftest import build_fleet
from tests.cluster.test_balancers import REQUEST, StubNode
from tests.serving.conftest import SERVING_SPECS

POLICIES = [
    "round-robin",
    "least-outstanding",
    "join-shortest-queue",
    "power-of-two",
    "least-ect",
]

arrival_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02),        # gap to next arrival
        st.integers(min_value=1, max_value=256),         # batch
        st.one_of(st.none(), st.floats(min_value=0.01, max_value=0.5)),  # SLO
    ),
    min_size=1,
    max_size=30,
)


def submit_steps(router, steps):
    t = 0.0
    for i, (gap, batch, slo) in enumerate(steps):
        t += gap
        router.submit_request(
            InferenceRequest(
                request_id=i,
                arrival_s=t,
                model="simple" if i % 2 else "mnist-small",
                batch=batch,
                deadline_s=None if slo is None else t + slo,
            )
        )
    return t


def assert_exactly_once(router, n):
    result = router.result()
    assert len(result.responses) == n
    assert all(r.done for r in result.responses)
    assert len(result.served) + len(result.shed) == n
    assert router.n_pending == 0
    served_ids = [r.request.request_id for r in result.served]
    assert len(served_ids) == len(set(served_ids))
    # Node telemetries agree: each served request was counted on exactly
    # one node (a duplicated execution would inflate the fleet total).
    assert router.telemetry.n_served == len(result.served)


@settings(max_examples=10, deadline=None)
@given(
    steps=arrival_steps,
    policy=st.sampled_from(POLICIES),
    drain_frac=st.floats(min_value=0.0, max_value=1.0),
    victim=st.integers(min_value=0, max_value=2),
)
def test_exactly_once_across_drain(
    serving_predictors, steps, policy, drain_frac, victim
):
    fleet = build_fleet(
        serving_predictors,
        node_specs=(
            NodeSpec("node-a"),
            NodeSpec("node-b"),
            NodeSpec("node-c", device_classes=("cpu",)),
        ),
    )
    router = ClusterRouter(fleet, balancer=policy, rng=11)
    horizon = submit_steps(router, steps)

    router.run(until=drain_frac * horizon)
    router.drain_node(fleet[victim].name)
    router.run()

    assert_exactly_once(router, len(steps))
    # The drained node finished cleanly and no re-route landed on it.
    assert fleet[victim].state is NodeState.STANDBY
    assert all(
        r.node_name != fleet[victim].name for r in router.result().rerouted
    )


@settings(max_examples=10, deadline=None)
@given(steps=arrival_steps, policy=st.sampled_from(POLICIES))
def test_every_policy_conserves(serving_predictors, steps, policy):
    fleet = build_fleet(
        serving_predictors,
        node_specs=(NodeSpec("node-a"), NodeSpec("node-b", device_classes=("cpu",))),
    )
    router = ClusterRouter(fleet, balancer=policy, rng=3)
    submit_steps(router, steps)
    router.run()
    assert_exactly_once(router, len(steps))


@settings(max_examples=100, deadline=None)
@given(
    states=st.lists(
        st.sampled_from([NodeState.ACTIVE, NodeState.DRAINING, NodeState.STANDBY]),
        min_size=2,
        max_size=6,
    ),
    loads=st.lists(st.integers(min_value=0, max_value=1000), min_size=6, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_power_of_two_never_picks_unroutable(states, loads, seed):
    if not any(s is NodeState.ACTIVE for s in states):
        states = states + [NodeState.ACTIVE]
    nodes = [
        StubNode(f"n{i}", state=state, samples=loads[i % len(loads)])
        for i, state in enumerate(states)
    ]
    p2c = PowerOfTwoBalancer(rng=seed)
    for _ in range(10):
        chosen = p2c.choose(nodes, REQUEST, SIMPLE, now=0.0)
        assert chosen.routable
        assert chosen.state is NodeState.ACTIVE


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_power_of_two_replays_identically(seed):
    def run(s):
        nodes = [StubNode(f"n{i}", samples=i * 7 % 5) for i in range(5)]
        p2c = PowerOfTwoBalancer(rng=s)
        return [p2c.choose(nodes, REQUEST, SIMPLE, now=0.0).name for _ in range(15)]

    assert run(seed) == run(seed)


def test_policies_list_matches_registry():
    from repro.cluster import BALANCERS

    assert set(POLICIES) == set(BALANCERS)


STATELESS = sorted(n for n, cls in BALANCERS.items() if cls.stateless_choice)

run_cells = st.lists(
    st.tuples(
        st.sampled_from(sorted(SERVING_SPECS)),
        st.sampled_from([1, 8, 64, 256, 1024]),
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


def assert_run_matches_choose(balancer, nodes, cells, now):
    picks = balancer.choose_run(nodes, cells, now)
    assert len(picks) == len(cells)
    for (spec, batch), (node, delay) in zip(cells, picks):
        request = InferenceRequest(
            request_id=0, arrival_s=now, model=spec.name, batch=batch
        )
        assert node is balancer.choose(nodes, request, spec, now)
        if delay is not None:
            _, alone = node.frontend.backlog.estimate_cells([(spec, batch)], now)[0]
            assert delay == alone


@settings(max_examples=15, deadline=None)
@given(
    full=st.lists(st.booleans(), min_size=2, max_size=4),
    draining=st.lists(st.booleans(), min_size=4, max_size=4),
    warmup=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.02),
            st.integers(min_value=1, max_value=256),
            st.none(),
        ),
        max_size=20,
    ),
    stop_frac=st.floats(min_value=0.0, max_value=1.0),
    cells=run_cells,
)
def test_run_pricing_matches_per_request_choice(
    serving_predictors, full, draining, warmup, stop_frac, cells
):
    """Real fleets mid-replay: CPU-only and full nodes, some draining.

    Without warm-up every node is idle and unmeasured, so identical nodes
    price every cell equally and the outstanding-samples / name tiebreak
    decides.
    """
    specs = [
        NodeSpec(f"node-{i}", device_classes=("cpu", "igpu", "dgpu") if f else ("cpu",))
        for i, f in enumerate(full)
    ]
    fleet = build_fleet(serving_predictors, node_specs=specs)
    router = ClusterRouter(fleet, balancer="least-ect", rng=5)
    horizon = submit_steps(router, warmup) if warmup else 0.0
    router.run(until=stop_frac * horizon)
    for node, drain in zip(fleet[1:], draining):  # node-0 stays active
        if drain:
            router.drain_node(node.name)
    now = router.loop.now
    run = [(SERVING_SPECS[model], batch) for model, batch in cells]
    for name in STATELESS:
        assert_run_matches_choose(make_balancer(name), fleet, run, now)


class PricedStubNode(StubNode):
    """A stub whose backlog prices each batch size from a table."""

    def __init__(self, name, delays, **kwargs):
        super().__init__(name, **kwargs)
        self.frontend.backlog.estimate_cells = lambda cells, now: [
            ("cpu", delays[batch - 1]) for _, batch in cells
        ]


@settings(max_examples=100, deadline=None)
@given(
    nodes=st.lists(
        st.tuples(
            st.sampled_from([NodeState.ACTIVE, NodeState.DRAINING]),
            st.integers(min_value=0, max_value=2),            # outstanding
            st.integers(min_value=0, max_value=2),            # samples
            st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=3, max_size=3),
        ),
        min_size=1,
        max_size=6,
    ),
    batches=st.lists(
        st.sampled_from([1, 2, 3]), min_size=1, max_size=3, unique=True
    ),
)
def test_run_pricing_breaks_ties_like_choose(nodes, batches):
    """Few distinct delays and loads, so equal-ECT ties are the norm:
    they break by outstanding samples, then by name, on both paths."""
    if not any(state is NodeState.ACTIVE for state, *_ in nodes):
        nodes = nodes + [(NodeState.ACTIVE, 0, 0, [0.0, 0.5, 1.0])]
    stubs = [
        PricedStubNode(
            f"n{len(nodes) - i}", delays, state=state,
            outstanding=outstanding, samples=samples,
        )
        for i, (state, outstanding, samples, delays) in enumerate(nodes)
    ]
    cells = [(SIMPLE if b % 2 else MNIST_SMALL, b) for b in batches]
    for name in STATELESS:
        assert_run_matches_choose(make_balancer(name), stubs, cells, now=0.0)
        if name == "least-ect":
            picks = make_balancer(name).choose_run(stubs, cells, 0.0)
            active = [n for n in stubs if n.routable]
            for cell, (node, _) in zip(cells, picks):
                expected = min(
                    active,
                    key=lambda n: (
                        n.frontend.backlog.estimate_cells([cell], 0.0)[0][1],
                        n.stats().outstanding_samples,
                        n.name,
                    ),
                )
                assert node is expected
