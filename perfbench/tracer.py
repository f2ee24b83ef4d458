"""Outside-in tracer: spans around the program's public functions.

The benchmark wraps the public functions listed in :data:`TRACED` for a
traced iteration only and restores them afterwards; nothing under
``src/`` knows it is being traced.  Each call becomes a span (name,
start, end, parent).  Spans stay in memory until the run ends.  A span's
self time is its duration minus the time its child spans cover, worked
out on the fly from the stack of open spans.

Forked shard workers inherit the wrappers.  At fork the child's copy of
the tracer is emptied, so a worker ships back only its own spans (see
:meth:`Tracer.drain`).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

#: (span name, module, qualified attribute) — the public functions a
#: traced iteration times.  A method is wrapped on its class and on every
#: subclass that overrides it; a module function is wrapped in every
#: ``repro`` module that binds it, re-exports included.
TRACED = (
    ("workloads.build", "repro.workloads.mixed", "MixedTrace.build"),
    ("workloads.build", "repro.workloads.requests", "make_trace"),
    ("sched.predictor.fit", "repro.sched.predictor", "DevicePredictor.fit"),
    ("sched.predictor.query", "repro.sched.predictor", "DevicePredictor.cell_proba"),
    ("sched.predictor.query", "repro.sched.predictor", "DevicePredictor.prime_cells"),
    ("sched.online.observe", "repro.sched.online", "OnlinePredictor.observe"),
    ("sched.backlog.estimate", "repro.sched.backlog",
     "BacklogAwareScheduler.estimate_completion"),
    ("sched.backlog.decide", "repro.sched.backlog", "BacklogAwareScheduler.decide"),
    ("sched.backlog.record", "repro.sched.backlog",
     "BacklogAwareScheduler.record_service"),
    ("cluster.build", "repro.cluster.node", "make_fleet"),
    ("cluster.router", "repro.cluster.router", "ClusterRouter.serve_trace"),
    ("cluster.router", "repro.cluster.router", "ClusterRouter.feed_requests"),
    ("cluster.balancer", "repro.cluster.balancers", "LoadBalancer.choose"),
    ("serving.admission", "repro.serving.admission", "AdmissionController.admit"),
    ("serving.coalescer", "repro.serving.coalescer", "BatchCoalescer.ready"),
    ("serving.coalescer", "repro.serving.coalescer", "BatchCoalescer.take"),
    ("serving.workers.execute", "repro.serving.workers", "DeviceWorker.execute"),
    ("hw.costmodel.timing", "repro.hw.costmodel", "CostModel.timing"),
    ("telemetry.record", "repro.telemetry.serving", "ServingTelemetry.record_latency"),
    ("telemetry.record", "repro.telemetry.serving", "ServingTelemetry.record_depth"),
    ("sim.loop", "repro.sim.engine", "EventLoop.run"),
    ("shard.front_tier", "repro.cluster.balancers", "FrontTier.begin_window"),
    ("shard.front_tier", "repro.cluster.balancers", "FrontTier.choose"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._stack: list = []
        self._patches: list = []
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        """Forget every span and count, keeping the wrappers in place."""
        for column in (self.span_name, self.span_parent,
                       self.span_start, self.span_end):
            del column[:]
        self.calls[:] = [0] * len(self.names)
        self.self_s[:] = [0.0] * len(self.names)
        self._stack.clear()

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        nid = self._ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                elapsed = t1 - t0
                calls[nid] += 1
                self_s[nid] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every function in :data:`TRACED`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                for cls in _subclasses(getattr(module, cls_name)):
                    if method in cls.__dict__:
                        self._patch(cls, method, name)
            else:
                original = getattr(module, attr)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("repro")
                            and getattr(mod, attr, None) is original):
                        self._patch(mod, attr, name)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """``{span name: (calls, self seconds)}`` since the last reset."""
        return {
            name: (self.calls[i], self.self_s[i])
            for i, name in enumerate(self.names)
        }

    def drain(self) -> dict:
        """Closed spans and their summary as plain arrays; then reset.

        Called with no span open, so every parent index refers to a span
        in the same drained batch.
        """
        out = {
            "names": list(self.names),
            "name": np.frombuffer(self.span_name, np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, np.int32).copy(),
            "start": np.frombuffer(self.span_start, np.float64).copy(),
            "end": np.frombuffer(self.span_end, np.float64).copy(),
            "summary": self.summary(),
        }
        self.reset()
        return out


def write_spans(path: str, batches) -> None:
    """Write span batches (one per process) to one ``.npz`` file.

    Columns: ``name`` (index into ``names``), ``parent`` (row within the
    same process, -1 for a root), ``start``/``end`` (``perf_counter``
    seconds in that process) and ``proc`` (0 is the benchmark process,
    1.. are shard workers).
    """
    arrays = {
        key: np.concatenate([batch[key] for batch in batches])
        for key in ("name", "parent", "start", "end")
    }
    arrays["proc"] = np.concatenate([
        np.full(batch["name"].size, proc, np.int32)
        for proc, batch in enumerate(batches)
    ])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, names=np.array(batches[0]["names"]), **arrays)
