"""Tenancy layer: policies, token buckets, admission, fair queueing,
and deterministic retry jitter."""

from __future__ import annotations

import json
import threading

import pytest

from repro.serving.tenancy import (DEFAULT_OP_COSTS, DEFAULT_TENANT,
                                   AdmissionController, FairQueue,
                                   TenancyConfig, TenantPolicy, TokenBucket,
                                   jittered_retry_ms)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestTenantPolicy:
    def test_all_defaults_are_unlimited(self):
        p = TenantPolicy()
        assert p.rate == 0 and p.max_inflight == 0 and p.max_queued == 0
        assert p.weight == 1

    def test_op_costs_default_and_override(self):
        p = TenantPolicy()
        assert p.op_cost("search") == DEFAULT_OP_COSTS["search"]
        assert p.op_cost("health") == 0
        assert p.op_cost("unknown_op") == 1
        q = TenantPolicy(op_costs={"search": 20})
        assert q.op_cost("search") == 20
        assert q.op_cost("predict") == 1

    @pytest.mark.parametrize("kwargs", [
        {"rate": -1.0}, {"burst": -2.0}, {"max_inflight": -1},
        {"max_queued": -3}, {"weight": 0},
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantPolicy(**kwargs)


class TestTenancyConfig:
    def test_unknown_tenant_gets_default_policy(self):
        cfg = TenancyConfig(policies={"a": TenantPolicy(rate=1.0)})
        assert cfg.policy("a").rate == 1.0
        assert cfg.policy("stranger").rate == 0.0

    def test_load_tenants_json(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({
            "default": {"rate": 10, "weight": 2},
            "heavy": {"rate": 1, "burst": 8, "max_inflight": 1,
                      "op_costs": {"search": 8}},
        }))
        cfg = TenancyConfig.load(path)
        # the "default" entry re-bases the class unknown tenants get
        assert cfg.policy("anyone").rate == 10.0
        assert cfg.weight_of("anyone") == 2
        # named entries inherit omitted fields from the re-based default
        assert cfg.policy("heavy").rate == 1.0
        assert cfg.policy("heavy").weight == 2
        assert cfg.policy("heavy").op_cost("search") == 8

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('{"a": {"rrate": 3}}')
        with pytest.raises(ValueError, match="unknown policy key"):
            TenancyConfig.load(path)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            TenancyConfig.load(path)


class TestJitter:
    def test_deterministic_and_bounded(self):
        a = jittered_retry_ms(100.0, "shed", "t", "r1", 3)
        b = jittered_retry_ms(100.0, "shed", "t", "r1", 3)
        assert a == b
        assert 75.0 <= a < 125.0

    def test_distinct_keys_spread(self):
        hints = {jittered_retry_ms(100.0, "shed", "t", i, 0)
                 for i in range(50)}
        assert len(hints) > 25  # not in lockstep


class TestTokenBucket:
    def test_zero_rate_is_unlimited(self):
        b = TokenBucket(0.0)
        assert all(b.take(1000.0) == 0.0 for _ in range(100))

    def test_drain_and_refill(self):
        clock = FakeClock()
        b = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            assert b.take(1.0) == 0.0
        wait = b.take(1.0)
        assert wait == pytest.approx(0.5)
        clock.advance(0.5)
        assert b.take(1.0) == 0.0

    def test_cost_above_capacity_charges_a_full_bucket(self):
        clock = FakeClock()
        b = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert b.take(8.0) == 0.0  # charges the full bucket, not free
        assert b.tokens == 0.0
        assert b.take(8.0) == pytest.approx(2.0)  # refill to capacity


class TestAdmission:
    def test_unlimited_config_admits_everything(self):
        adm = AdmissionController(TenancyConfig())
        assert not adm.limited
        for i in range(100):
            assert adm.admit("anyone", "search", i) is None
        snap = adm.snapshot()
        assert snap["anyone"]["admitted"] == 100

    def test_rate_limit_returns_jittered_hint(self):
        clock = FakeClock()
        cfg = TenancyConfig(policies={"t": TenantPolicy(rate=1.0,
                                                        burst=2.0)})
        adm = AdmissionController(cfg, clock=clock)
        assert adm.limited
        assert adm.admit("t", "predict", 0) is None
        assert adm.admit("t", "predict", 1) is None
        retry = adm.admit("t", "predict", 2)
        assert retry is not None and retry >= 0.75 * 1000.0 * 1.0
        assert adm.snapshot()["t"]["rate_limited"] == 1

    def test_concurrency_budget_and_release(self):
        cfg = TenancyConfig(policies={"t": TenantPolicy(max_inflight=2)})
        adm = AdmissionController(cfg)
        assert adm.admit("t", "predict") is None
        assert adm.admit("t", "predict") is None
        assert adm.admit("t", "predict") is not None  # over budget
        adm.release("t")
        assert adm.admit("t", "predict") is None
        snap = adm.snapshot()
        assert snap["t"]["over_concurrency"] == 1
        assert snap["t"]["inflight"] == 2

    def test_first_rate_limit_is_journaled(self, tmp_path):
        from repro.experiments.manifest import read_events

        cfg = TenancyConfig(policies={"t": TenantPolicy(rate=0.001,
                                                        burst=1.0)})
        adm = AdmissionController(cfg, journal_root=tmp_path)
        adm.admit("t", "predict", 0)
        adm.admit("t", "predict", 1)
        adm.admit("t", "predict", 2)
        events = [e for e in read_events(tmp_path)
                  if e["event"] == "rate_limited"]
        assert len(events) == 1  # only the first, not a line per reject
        assert events[0]["tenant"] == "t"

    def test_journal_snapshot(self, tmp_path):
        from repro.experiments.manifest import read_events

        adm = AdmissionController(TenancyConfig(), journal_root=tmp_path)
        adm.admit("x", "predict")
        adm.journal_snapshot({"executor": {"x": 1}})
        events = [e for e in read_events(tmp_path)
                  if e["event"] == "tenancy"]
        assert len(events) == 1
        assert events[0]["tenants"]["x"]["admitted"] == 1
        assert events[0]["queues"]["executor"] == {"x": 1}


class TestFairQueue:
    def test_single_tenant_is_fifo(self):
        q = FairQueue(16)
        for i in range(6):
            assert q.put_nowait(DEFAULT_TENANT, i)
        assert [q.get_nowait() for _ in range(6)] == list(range(6))

    def test_round_robin_across_tenants(self):
        q = FairQueue(32)
        for i in range(4):
            q.put_nowait("a", f"a{i}")
        q.put_nowait("b", "b0")
        # b's single item must not wait behind a's whole backlog
        order = [q.get_nowait() for _ in range(5)]
        assert order.index("b0") <= 1

    def test_weights_grant_share_per_round(self):
        q = FairQueue(32, weight_of=lambda t: {"a": 2, "b": 1}[t])
        for i in range(4):
            q.put_nowait("a", f"a{i}")
            q.put_nowait("b", f"b{i}")
        order = [q.get_nowait() for _ in range(8)]
        # first round: two of a, then one of b
        assert order[:3] == ["a0", "a1", "b0"]

    def test_global_and_per_tenant_caps(self):
        q = FairQueue(3, max_queued_of=lambda t: 2 if t == "small" else 0)
        assert q.put_nowait("small", 1)
        assert q.put_nowait("small", 2)
        assert not q.put_nowait("small", 3)  # per-tenant cap
        assert q.put_nowait("big", 1)
        assert not q.put_nowait("big", 2)  # global cap
        assert q.qsize() == 3
        assert q.depths() == {"big": 1, "small": 2}

    def test_close_drains_then_returns_none(self):
        q = FairQueue(8)
        q.put_nowait("a", 1)
        q.close()
        assert not q.put_nowait("a", 2)  # closed to new work
        assert q.get(timeout=1.0) == 1  # queued work still drains
        assert q.get(timeout=1.0) is None

    def test_get_timeout_returns_none(self):
        q = FairQueue(8)
        assert q.get(timeout=0.05) is None

    def test_blocking_get_wakes_on_put(self):
        q = FairQueue(8)
        got = []
        t = threading.Thread(target=lambda: got.append(q.get(timeout=5.0)))
        t.start()
        q.put_nowait("a", "item")
        t.join(timeout=5.0)
        assert got == ["item"]
