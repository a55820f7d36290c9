"""Daemon end-to-end over real sockets: request routing, malformed and
hostile clients, backpressure, drain, and in-place checkpoint reload."""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time

import pytest

from repro.experiments import manifest
from repro.serving import (PROTOCOL_VERSION, ReproServer, ServerConfig,
                           TenancyConfig, TenantPolicy)


class Client:
    """A tiny line-oriented test client."""

    def __init__(self, address, timeout=30.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.buf = b""

    def send_raw(self, data: bytes):
        self.sock.sendall(data)

    def read(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def rpc(self, request: dict):
        self.send_raw((json.dumps(request) + "\n").encode())
        return self.read()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


@pytest.fixture(scope="module")
def server(serving_runtime):
    srv = ReproServer(serving_runtime, ServerConfig(
        port=0, workers=2, read_timeout_s=0.5, idle_timeout_s=30.0))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    c = Client(server.address)
    yield c
    c.close()


class TestRouting:
    def test_health(self, client):
        resp = client.rpc({"op": "health", "id": "h"})
        assert resp["ok"] and resp["id"] == "h"
        r = resp["result"]
        assert r["status"] == "ready" and r["ready"] and r["live"]
        assert set(r["breakers"]) == {"predict", "whatif", "search"}
        assert r["queue"]["batch_capacity"] > 0

    def test_health_reports_memo_tiers(self, client):
        from repro.memo import MEMO_BOUND, snapshot
        from repro.serving.server import SEARCH_CACHE_SIZE

        caches = client.rpc({"op": "health", "id": "c"})["result"]["caches"]
        assert set(snapshot()) < set(caches)
        for tier in caches.values():
            assert {"entries", "bound", "hits", "misses",
                    "evictions"} <= set(tier)
        assert caches["predictors.encodings"]["bound"] == MEMO_BOUND
        assert caches["runtime.stage_graphs"]["bound"] == MEMO_BOUND
        assert caches["serving.search"]["bound"] == SEARCH_CACHE_SIZE

    def test_health_reports_the_collector(self, client):
        """``health.gc``: per-generation pass counts from the collector
        itself, its allocation counts and the live pause depth (0 on an
        idle daemon, which profiles nothing)."""
        import gc

        before = client.rpc({"op": "health", "id": "g"})["result"]["gc"]
        gc.collect()  # the daemon shares this process: one full pass
        after = client.rpc({"op": "health", "id": "g"})["result"]["gc"]
        assert len(after["generations"]) == len(after["count"]) == 3
        for gen in after["generations"]:
            assert set(gen) == {"collections", "collected", "uncollectable"}
        assert (after["generations"][2]["collections"]
                > before["generations"][2]["collections"])
        assert after["paused"] == 0

    def test_predict(self, client):
        resp = client.rpc({"op": "predict", "id": 1,
                           "params": {"slice": [0, 2]}})
        assert resp["ok"]
        out = resp["result"]
        assert out["latency_s"] > 0
        assert out["bounds_s"][0] <= out["latency_s"] <= out["bounds_s"][1]

    def test_predict_many_preserves_order(self, client):
        resp = client.rpc({"op": "predict_many", "id": 2,
                           "params": {"slices": [[0, 1], [0, 3], [1, 2]]}})
        assert resp["ok"]
        preds = resp["result"]["predictions"]
        assert len(preds) == 3
        # the full 3-unit model must cost at least its first unit
        assert preds[1]["latency_s"] >= preds[0]["latency_s"]

    def test_whatif(self, client):
        resp = client.rpc({"op": "whatif", "id": 3,
                           "params": {"n_stages": 2, "n_microbatches": 4}})
        assert resp["ok"]
        out = resp["result"]
        assert out["n_stages"] == 2
        assert out["best_schedule"] in out["iteration_latency_s"]

    def test_search(self, client):
        resp = client.rpc({"op": "search", "id": 4, "deadline_ms": 120_000,
                           "params": {"stage_counts": [1, 2],
                                      "n_microbatches": 4}})
        assert resp["ok"]
        out = resp["result"]
        assert out["best"]["n_stages"] in (1, 2)
        assert len(out["candidates"]) == 2
        assert out["failed_candidates"] == 0 and not out["partial"]

    def test_pipelined_requests_on_one_connection(self, client):
        reqs = b"".join(
            (json.dumps({"op": "predict", "id": i,
                         "params": {"slice": [0, 1]}}) + "\n").encode()
            for i in range(5))
        client.send_raw(reqs)
        ids = sorted(client.read()["id"] for _ in range(5))
        assert ids == list(range(5))

    def test_replies_are_not_held_by_nagle(self, serving_runtime):
        srv =ReproServer(serving_runtime, ServerConfig(port=0, workers=1))
        srv.start()
        c = Client(srv.address)
        try:
            assert c.rpc({"op": "health", "id": "n"})["ok"]
            (conn,) = srv._conns
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            c.close()
            srv.stop()


class TestForkedSearchWorkers:
    def test_search_reaches_the_model_while_another_thread_holds_it(
            self, serving_runtime, tmp_path):
        """The pool forks search workers from the threaded daemon.  A
        worker forked while another thread holds ``model_lock`` must
        still predict, not block until the supervisor kills its cell."""
        from repro.experiments import pool

        pool._shutdown_global()  # the search below forks fresh workers
        srv = ReproServer(serving_runtime, ServerConfig(port=0, workers=1),
                          journal_root=tmp_path)
        srv.start()
        held, release = threading.Event(), threading.Event()

        def hold():
            with serving_runtime.model_lock:
                held.set()
                release.wait(60)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        c = Client(srv.address)
        try:
            assert held.wait(5)
            resp = c.rpc({"op": "search", "id": 1, "deadline_ms": 8000,
                          "params": {"stage_counts": [1, 2],
                                     "n_microbatches": 4}})
        finally:
            release.set()
            holder.join(5)
            c.close()
            srv.stop()
        assert not holder.is_alive()
        assert resp["ok"], resp
        assert resp["served_by"] == "model", resp
        assert resp["result"]["failed_candidates"] == 0
        events = [e["event"] for e in manifest.read_events(tmp_path)]
        assert "cell_retry" not in events

    def test_search_after_reload_answers_from_the_new_model(
            self, serving_runtime, tmp_path):
        """Pool workers keep the ensemble they forked with.  A search
        after a reload must answer from the reloaded model, not from
        workers forked before it."""
        from repro.predictors.serialize import load_predictor, save_predictor

        old = serving_runtime.ensemble
        member = load_predictor(save_predictor(old.members[0],
                                               tmp_path / "m.npz"))
        # same weights, predictions scaled 1.5x: a model that differs
        member.normalizer = dataclasses.replace(
            member.normalizer,
            target_scale=member.normalizer.target_scale * 1.5)
        path = save_predictor(member, tmp_path / "m.npz")
        srv = ReproServer(serving_runtime, ServerConfig(port=0, workers=1))
        srv.start()
        c = Client(srv.address)

        def search(rid, n_micro):
            resp = c.rpc({"op": "search", "id": rid, "deadline_ms": 60_000,
                          "params": {"stage_counts": [1, 2],
                                     "n_microbatches": n_micro}})
            assert resp["ok"] and resp["served_by"] == "model", resp
            return resp["result"]

        try:
            before = search(1, 4)
            serving_runtime.reload((str(path),))
            best = search(2, 5)["best"]
            now = c.rpc({"op": "predict_many", "id": 3,
                         "params": {"slices": best["stage_units"]}})
        finally:
            c.close()
            srv.stop()
            serving_runtime.ensemble = old
        assert now["ok"], now
        assert best["stage_latencies_s"] == \
            [p["latency_s"] for p in now["result"]["predictions"]]
        # and the reloaded model really answers differently
        assert best["stage_latencies_s"] != next(
            cand["stage_latencies_s"] for cand in before["candidates"]
            if cand["stage_units"] == best["stage_units"])


class TestHostileClients:
    def test_garbage_line_gets_error_and_connection_survives(self, client):
        client.send_raw(b"\x00\xffgarbage not json\n")
        resp = client.read()
        assert not resp["ok"]
        assert resp["error"]["code"] == "invalid_request"
        assert client.rpc({"op": "health"})["ok"]  # same connection

    def test_unknown_op_and_bad_params_are_answered(self, client):
        assert client.rpc({"op": "explode"})["error"]["code"] == "unknown_op"
        resp = client.rpc({"op": "predict", "params": {"slice": [7, 99]}})
        assert resp["error"]["code"] == "bad_params"
        resp = client.rpc({"op": "whatif", "params": {"n_stages": 0}})
        assert resp["error"]["code"] == "bad_params"

    def test_oversized_request_is_refused(self, server):
        c = Client(server.address)
        try:
            c.send_raw(b'{"op": "predict", "pad": "' + b"x" * (1 << 20))
            resp = c.read()
            assert resp is not None and not resp["ok"]
            assert resp["error"]["code"] == "invalid_request"
        finally:
            c.close()

    def test_slow_loris_is_reaped_with_an_answer(self, server):
        c = Client(server.address)
        try:
            c.send_raw(b'{"op": "predict", "par')  # dribble, then stall
            t0 = time.monotonic()
            resp = c.read()
            assert resp is not None and not resp["ok"]
            assert resp["error"]["code"] == "invalid_request"
            assert time.monotonic() - t0 < 10.0
        finally:
            c.close()

    def test_conn_drop_mid_request_does_not_kill_the_server(self, server):
        c = Client(server.address)
        c.send_raw((json.dumps({"op": "predict",
                                "params": {"slice": [0, 1]}}) + "\n").encode())
        c.close()  # vanish before the answer
        time.sleep(0.1)
        c2 = Client(server.address)
        try:
            assert c2.rpc({"op": "health"})["ok"]
        finally:
            c2.close()


class TestBackpressure:
    def test_overload_sheds_with_retry_hint_and_answers_everyone(
            self, serving_runtime):
        srv = ReproServer(serving_runtime, ServerConfig(
            port=0, workers=1, max_queue=1, max_batch_queue=2,
            max_batch=1, shed_trip=1000))
        srv.start()
        responses = []
        lock = threading.Lock()

        def one(i):
            c = Client(srv.address)
            try:
                resp = c.rpc({"op": "predict", "id": i,
                              "params": {"slice": [0, 1]}})
                with lock:
                    responses.append(resp)
            finally:
                c.close()

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(12)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(responses) == 12, "no request may go unanswered"
            shed = [r for r in responses if not r["ok"]]
            served = [r for r in responses if r["ok"]]
            assert served, "some requests must get through"
            for r in shed:
                assert r["error"]["code"] == "overloaded"
                assert r["retry_after_ms"] > 0
        finally:
            srv.stop()

    def test_sustained_saturation_force_opens_the_predict_breaker(
            self, serving_runtime):
        srv = ReproServer(serving_runtime, ServerConfig(
            port=0, workers=1, max_batch_queue=1, max_batch=1,
            shed_trip=2))
        srv.start()
        try:
            cs = [Client(srv.address) for _ in range(6)]
            # a stalled model keeps the one-slot queue full: at most two
            # predicts get in (one in the model, one queued), so the other
            # four are shed, at least two of them back to back
            with serving_runtime.model_lock:
                for i, c in enumerate(cs):
                    c.send_raw((json.dumps(
                        {"op": "predict", "id": i,
                         "params": {"slice": [0, 1]}}) + "\n").encode())
                deadline = time.monotonic() + 30.0
                while (srv.counters.get("shed") < 4
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
            for c in cs:
                assert c.read() is not None
                c.close()
            assert srv.counters.get("shed") >= 2
            assert srv.breakers["predict"].state in ("open", "half_open",
                                                     "closed")
            assert any(t[1] == "open" and "saturated" in t[2]
                       for t in srv.breakers["predict"].transitions)
        finally:
            srv.stop()


class TestTenancy:
    def test_tenant_accepted_on_every_op(self, client):
        for op, params in (("predict", {"slice": [0, 1]}),
                           ("predict_many", {"slices": [[0, 1]]}),
                           ("whatif", {"n_stages": 1, "n_microbatches": 2}),
                           ("health", {})):
            resp = client.rpc({"op": op, "id": f"t-{op}",
                               "tenant": "team-a", "params": params})
            assert resp["ok"], (op, resp)

    def test_health_reports_version_and_tenancy(self, client):
        # health itself is unmetered, so put real work on the books first
        assert client.rpc({"op": "predict", "tenant": "metered",
                           "params": {"slice": [0, 1]}})["ok"]
        r = client.rpc({"op": "health"})["result"]
        assert r["protocol_version"] == PROTOCOL_VERSION
        assert r["replica_ordinal"] == 0
        ten = r["tenancy"]
        assert ten["limited"] is False  # module server has no tenant config
        assert ten["tenants"]["metered"]["admitted"] == 1
        assert set(ten["queues"]) == {"executor", "batcher"}

    def test_over_budget_tenant_is_rate_limited_inline(
            self, serving_runtime, tmp_path):
        tenancy = TenancyConfig(policies={
            "greedy": TenantPolicy(rate=0.001, burst=1.0)})
        srv = ReproServer(serving_runtime,
                          ServerConfig(port=0, workers=1, tenancy=tenancy),
                          journal_root=tmp_path)
        srv.start()
        try:
            c = Client(srv.address)
            ok = c.rpc({"op": "predict", "id": 1, "tenant": "greedy",
                        "params": {"slice": [0, 1]}})
            assert ok["ok"]  # the burst token
            limited = c.rpc({"op": "predict", "id": 2, "tenant": "greedy",
                             "params": {"slice": [0, 1]}})
            assert not limited["ok"] and limited["id"] == 2
            assert limited["error"]["code"] == "rate_limited"
            assert limited["retry_after_ms"] > 0
            # budgets are per tenant: everyone else is untouched
            assert c.rpc({"op": "predict", "id": 3, "tenant": "frugal",
                          "params": {"slice": [0, 1]}})["ok"]
            assert c.rpc({"op": "predict", "id": 4,
                          "params": {"slice": [0, 1]}})["ok"]  # v1 client
            # health is free (op cost 0) even for the limited tenant
            health = c.rpc({"op": "health", "tenant": "greedy"})
            assert health["ok"]
            snap = health["result"]["tenancy"]
            assert snap["limited"] is True
            assert snap["tenants"]["greedy"]["rate_limited"] == 1
            assert srv.counters.get("rate_limited") == 1
            c.close()
        finally:
            srv.stop()
        events = manifest.read_events(tmp_path)
        assert any(e["event"] == "rate_limited"
                   and e["tenant"] == "greedy" for e in events)
        closing = [e for e in events if e["event"] == "tenancy"]
        assert closing, "drain must journal the tenancy snapshot"
        assert closing[-1]["tenants"]["greedy"]["rate_limited"] == 1

    def test_concurrency_budget_counts_inflight(self, serving_runtime):
        tenancy = TenancyConfig(policies={
            "narrow": TenantPolicy(max_inflight=1)})
        srv = ReproServer(serving_runtime,
                          ServerConfig(port=0, workers=1, max_batch=1,
                                       tenancy=tenancy))
        srv.start()
        try:
            cs = [Client(srv.address) for _ in range(4)]
            for i, c in enumerate(cs):
                c.send_raw((json.dumps(
                    {"op": "predict", "id": i, "tenant": "narrow",
                     "params": {"slice": [0, 1]}}) + "\n").encode())
            responses = [c.read() for c in cs]
            for c in cs:
                c.close()
            assert all(r is not None for r in responses)
            rejected = [r for r in responses
                        if not r["ok"]
                        and r["error"]["code"] == "rate_limited"]
            served = [r for r in responses if r["ok"]]
            assert served, "the budget admits one at a time"
            for r in rejected:
                assert r["retry_after_ms"] > 0
        finally:
            srv.stop()


class TestSearchCache:
    def test_identical_search_is_served_from_cache(self, client, server):
        req = {"op": "search", "deadline_ms": 120_000,
               "params": {"stage_counts": [1, 2], "n_microbatches": 8}}
        before = server.counters.get("search_cache_hits")
        first = client.rpc({**req, "id": "s1"})
        assert first["ok"] and "cached" not in first["result"]
        second = client.rpc({**req, "id": "s2"})
        assert second["ok"] and second["result"]["cached"] is True
        assert server.counters.get("search_cache_hits") == before + 1
        assert second["result"]["best"] == first["result"]["best"]

    def test_different_question_misses(self, client, server):
        before = server.counters.get("search_cache_hits")
        resp = client.rpc({"op": "search", "id": "s3",
                           "deadline_ms": 120_000,
                           "params": {"stage_counts": [1, 2],
                                      "n_microbatches": 16}})
        assert resp["ok"] and "cached" not in resp["result"]
        assert server.counters.get("search_cache_hits") == before

    def test_reload_invalidates_via_generation(self, serving_runtime,
                                               tmp_path):
        from repro.predictors.serialize import save_predictor

        key_before = serving_runtime.search_key([1, 2], 4, "1f1b")
        gen = serving_runtime.generation
        # reload an equivalent ensemble: same members, fresh generation
        paths = tuple(
            str(save_predictor(m, tmp_path / f"m{i}.npz"))
            for i, m in enumerate(serving_runtime.ensemble.members))
        serving_runtime.reload(paths)
        assert serving_runtime.generation == gen + 1
        assert serving_runtime.search_key([1, 2], 4, "1f1b") != key_before


class TestLifecycle:
    def test_drain_refuses_new_work_but_health_still_answers(
            self, serving_runtime):
        srv = ReproServer(serving_runtime, ServerConfig(port=0, workers=1))
        srv.start()
        try:
            srv.draining = True
            c = Client(srv.address)
            resp = c.rpc({"op": "predict", "params": {"slice": [0, 1]}})
            assert resp["error"]["code"] == "draining"
            assert resp["retry_after_ms"] > 0
            health = c.rpc({"op": "health"})
            assert health["ok"]
            assert health["result"]["status"] == "draining"
            c.close()
        finally:
            srv.stop()

    def test_serve_forever_drains_on_request_stop(self, serving_runtime,
                                                  tmp_path):
        srv = ReproServer(serving_runtime, ServerConfig(port=0, workers=1),
                          journal_root=tmp_path)
        rc = []
        t = threading.Thread(
            target=lambda: rc.append(
                srv.serve_forever(install_signals=False)))
        t.start()
        for _ in range(100):
            if srv._started.is_set():
                break
            time.sleep(0.02)
        c = Client(srv.address)
        assert c.rpc({"op": "predict", "params": {"slice": [0, 1]}})["ok"]
        c.close()
        srv.request_stop()
        t.join(timeout=30)
        assert rc == [0]
        events = [e["event"] for e in manifest.read_events(tmp_path)]
        assert "serve_start" in events and "serve_ready" in events
        assert "serve_drain" in events and "serve_stop" in events

    def test_checkpoint_reload_in_place(self, serving_runtime, tmp_path):
        from repro.predictors.serialize import save_predictor

        path = save_predictor(serving_runtime.ensemble.members[0],
                              tmp_path / "member.npz")
        old_cfg = serving_runtime.config
        serving_runtime.config = dataclasses.replace(
            old_cfg, checkpoints=(str(path),))
        srv = ReproServer(serving_runtime,
                          ServerConfig(port=0, workers=1,
                                       reload_poll_s=0.05),
                          journal_root=tmp_path)
        srv.start()
        try:
            before = serving_runtime.ensemble
            time.sleep(0.1)
            save_predictor(serving_runtime.ensemble.members[0], path)
            deadline = time.monotonic() + 10
            while (srv.counters.get("reloads") == 0
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert srv.counters.get("reloads") >= 1
            assert serving_runtime.ensemble is not before
            c = Client(srv.address)
            assert c.rpc({"op": "predict",
                          "params": {"slice": [0, 1]}})["ok"]
            c.close()
            events = [e["event"] for e in manifest.read_events(tmp_path)]
            assert "reload" in events
        finally:
            srv.stop()
            serving_runtime.config = old_cfg
