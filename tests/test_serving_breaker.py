"""Circuit breaker: state machine, journaling, and the deterministic
trust-degradation round trip through the live batcher (breaker opens →
analytical ``degraded: true`` answers → half-open probe → recovery)."""

from __future__ import annotations

import json
import time

from repro.experiments import manifest
from repro.serving.batcher import MicroBatcher, _Pending
from repro.serving.breaker import BreakerConfig, CircuitBreaker
from repro.serving.protocol import parse_request


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_breaker(tmp_path=None, **kw):
    clock = FakeClock()
    cfg = BreakerConfig(**{"failure_threshold": 3, "window": 6,
                           "cooldown_s": 5.0, **kw})
    return CircuitBreaker("predict", cfg, journal_root=tmp_path,
                          clock=clock), clock


class TestStateMachine:
    def test_starts_closed_and_allows_model(self):
        b, _ = make_breaker()
        assert b.state == "closed"
        assert b.allow_model()

    def test_trips_at_threshold_within_window(self):
        b, _ = make_breaker()
        b.record(False, "a")
        b.record(True)
        b.record(False, "b")
        assert b.state == "closed"
        b.record(False, "c")
        assert b.state == "open"
        assert not b.allow_model()

    def test_successes_age_failures_out_of_the_window(self):
        b, _ = make_breaker()
        b.record(False)
        b.record(False)
        for _ in range(6):
            b.record(True)
        b.record(False)
        assert b.state == "closed"  # old failures slid out

    def test_half_open_admits_exactly_one_probe(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record(False)
        assert not b.allow_model()
        clock.advance(5.1)
        assert b.state == "half_open"
        assert b.allow_model()       # the probe
        assert not b.allow_model()   # everyone else stays analytical

    def test_probe_success_closes_and_clears_history(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record(False)
        clock.advance(5.1)
        assert b.allow_model()
        b.record(True)
        assert b.state == "closed"
        assert b.snapshot()["failures_in_window"] == 0

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record(False)
        clock.advance(5.1)
        assert b.allow_model()
        b.record(False, "still broken")
        assert b.state == "open"
        assert not b.allow_model()
        clock.advance(5.1)
        assert b.allow_model()  # a fresh probe after the new cooldown

    def test_stale_outcomes_ignored_while_open(self):
        b, _ = make_breaker()
        for _ in range(3):
            b.record(False)
        b.record(True)  # a straggler from before the trip
        assert b.state == "open"

    def test_force_open(self):
        b, _ = make_breaker()
        b.force_open("queue saturated")
        assert b.state == "open"
        assert b.transitions[-1][2] == "queue saturated"

    def test_transitions_are_journaled(self, tmp_path):
        b, clock = make_breaker(tmp_path)
        for _ in range(3):
            b.record(False, "injected")
        clock.advance(5.1)
        assert b.allow_model()
        b.record(True)
        events = [e for e in manifest.read_events(tmp_path)
                  if e["event"] == "breaker"]
        assert [(e["from"], e["to"]) for e in events] == [
            ("closed", "open"), ("open", "half_open"),
            ("half_open", "closed")]
        assert all(e["route"] == "predict" for e in events)
        assert "injected" in events[0]["reason"]


class TestDegradationRoundTrip:
    """Satellite: the full trip through the live micro-batcher, made
    deterministic by ``REPRO_FAULTS`` (the first three model calls raise
    ``predictor_error``; call 3 is the clean half-open probe)."""

    def ask(self, runtime, batcher):
        # slice [0, 2] is a verdict-clean prediction for this runtime, so
        # breaker outcomes are driven purely by the injected faults
        req = parse_request(json.dumps(
            {"op": "predict", "params": {"slice": [0, 2]},
             "deadline_ms": 30_000}))
        pending = _Pending(req, runtime.resolve_graphs(req.params, False))
        assert batcher.submit(pending)
        resp = pending.wait(30.0)
        assert resp is not None, "every accepted request must be answered"
        return resp

    def test_breaker_round_trip_under_faults(self, serving_runtime,
                                             monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULTS",
                           "predictor_error:at=0|1|2,attempts=*")
        serving_runtime._model_calls = 0  # pin the fault indices
        breaker = CircuitBreaker(
            "predict",
            BreakerConfig(failure_threshold=3, window=6, cooldown_s=0.2),
            journal_root=tmp_path)
        batcher = MicroBatcher(serving_runtime, breaker,
                               max_batch=4, max_queue=16)
        batcher.start()
        try:
            # three poisoned model calls: each one is answered from the
            # analytical fallback (degraded) and counts as a failure
            for _ in range(3):
                resp = self.ask(serving_runtime, batcher)
                assert resp["ok"] and resp["degraded"]
                assert resp["served_by"] == "analytical"
            assert breaker.state == "open"

            # while open: analytical answers without touching the model
            calls_before = serving_runtime._model_calls
            resp = self.ask(serving_runtime, batcher)
            assert resp["ok"] and resp["degraded"]
            assert serving_runtime._model_calls == calls_before

            # after cooldown the next request is the half-open probe;
            # model-call index 3 is clean, so the probe recovers the route
            time.sleep(0.25)
            resp = self.ask(serving_runtime, batcher)
            assert resp["ok"] and not resp["degraded"]
            assert resp["served_by"] == "model"
            assert breaker.state == "closed"

            # and the route stays healthy
            resp = self.ask(serving_runtime, batcher)
            assert resp["ok"] and not resp["degraded"]
        finally:
            batcher.stop()

        events = [e for e in manifest.read_events(tmp_path)
                  if e["event"] == "breaker"]
        assert [(e["from"], e["to"]) for e in events] == [
            ("closed", "open"), ("open", "half_open"),
            ("half_open", "closed")]
