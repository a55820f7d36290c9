"""Micro-batcher coalescing, made deterministic by a stub runtime whose
``predict_batch`` blocks on a gate: requests submitted while one batch
is inside the model are known to be queued when the next batch forms."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serving import batcher as batcher_mod
from repro.serving.batcher import MicroBatcher, _Pending
from repro.serving.breaker import CircuitBreaker
from repro.serving.protocol import Request
from repro.serving.tenancy import FairQueue


def answer(graph) -> dict:
    """The stub's prediction for ``graph`` (a verdict, like every real
    prediction, which the batcher counts)."""
    return {"graph": graph, "verdict": "trusted"}


class GatedRuntime:
    """Records each batch's graphs; every call waits for ``gate``."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.calls: list[list] = []

    def predict_batch(self, graphs, use_model):
        self.calls.append(list(graphs))
        self.entered.set()
        assert self.gate.wait(30.0), "test never opened the gate"
        return [answer(g) for g in graphs], 0, "model"


class SpyQueue(FairQueue):
    """A FairQueue that records the timeout of every blocking ``get``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.timeouts: list = []

    def get(self, timeout=None):
        self.timeouts.append(timeout)
        return super().get(timeout)


def pending(op: str, *graphs) -> _Pending:
    return _Pending(Request(op=op, id="/".join(graphs),
                            received=time.monotonic(),
                            deadline=time.monotonic() + 30.0),
                    list(graphs))


@pytest.fixture
def runtime():
    return GatedRuntime()


@pytest.fixture
def make_batcher(runtime):
    started = []

    def make(**kw) -> MicroBatcher:
        b = MicroBatcher(runtime, CircuitBreaker("predict"), **kw)
        b.start()
        started.append(b)
        return b

    yield make
    runtime.gate.set()
    for b in started:
        b.stop()
        assert not b._thread.is_alive()


def submit_while_first_is_in_model(runtime, batcher, first, later):
    """Submit ``first``, wait until its batch is inside the model, queue
    ``later`` behind it, then let every batch through."""
    assert batcher.submit(first)
    assert runtime.entered.wait(10.0)
    for p in later:
        assert batcher.submit(p)
    runtime.gate.set()
    for p in (first, *later):
        assert p.wait(10.0) is not None, "every request must be answered"


class TestCoalescing:
    def test_requests_queued_during_a_model_call_share_the_next_batch(
            self, runtime, make_batcher):
        batcher = make_batcher()
        first = pending("predict", "a")
        b = pending("predict", "b")
        many = pending("predict_many", "c1", "c2", "c3")
        d = pending("predict", "d")
        submit_while_first_is_in_model(runtime, batcher, first, [b, many, d])

        assert runtime.calls == [["a"], ["b", "c1", "c2", "c3", "d"]]
        assert (batcher.batches, batcher.coalesced) == (2, 4)
        assert first.response["result"] == answer("a")
        assert b.response["result"] == answer("b")
        assert many.response["result"] == {
            "predictions": [answer("c1"), answer("c2"), answer("c3")]}
        assert d.response["result"] == answer("d")
        for p in (first, b, many, d):
            assert p.response["ok"] and not p.response["degraded"]

    def test_a_batch_stops_at_max_batch_graphs(self, runtime,
                                               make_batcher):
        batcher = make_batcher(max_batch=3)
        first = pending("predict", "x")
        later = [pending("predict", f"p{i}") for i in range(5)]
        submit_while_first_is_in_model(runtime, batcher, first, later)

        assert runtime.calls == [["x"], ["p0", "p1", "p2"], ["p3", "p4"]]
        for i, p in enumerate(later):
            assert p.response["result"] == answer(f"p{i}")

    def test_collect_never_waits_for_stragglers(self, runtime, make_batcher,
                                                monkeypatch):
        monkeypatch.setattr(batcher_mod, "FairQueue", SpyQueue)
        batcher = make_batcher()
        first = pending("predict", "a")
        later = [pending("predict", "b"), pending("predict", "c")]
        submit_while_first_is_in_model(runtime, batcher, first, later)
        lone = pending("predict", "z")
        assert batcher.submit(lone)
        assert lone.wait(10.0) is not None

        assert runtime.calls == [["a"], ["b", "c"], ["z"]]
        # the only blocking get is the idle poll for a batch's first item;
        # the rest of a batch is taken with get_nowait
        assert batcher._queue.timeouts
        assert set(batcher._queue.timeouts) == {0.25}
