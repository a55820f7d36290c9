"""Replicated failover router: consistent hashing, health probing,
at-most-once failover, and replica rejoin — over real sockets."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.experiments import manifest
from repro.serving import (HashRing, ReproRouter, ReproServer, RouterConfig,
                           ServerConfig, request_hash)


class Client:
    """A tiny line-oriented test client."""

    def __init__(self, address, timeout=30.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.buf = b""

    def rpc(self, request: dict):
        self.sock.sendall((json.dumps(request) + "\n").encode())
        return self.read()

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

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class TestRequestHash:
    def test_structural_only(self):
        base = {"op": "predict", "params": {"slice": [0, 2]}}
        a = request_hash(json.dumps(base).encode())
        b = request_hash(json.dumps({**base, "id": "other",
                                     "tenant": "team-a",
                                     "deadline_ms": 5}).encode())
        assert a == b  # id/tenant/deadline do not move the request

    def test_params_change_the_hash(self):
        a = request_hash(b'{"op": "predict", "params": {"slice": [0, 1]}}')
        b = request_hash(b'{"op": "predict", "params": {"slice": [0, 2]}}')
        c = request_hash(b'{"op": "whatif", "params": {"slice": [0, 1]}}')
        assert len({a, b, c}) == 3

    def test_garbage_hashes_stably(self):
        assert request_hash(b"not json") == request_hash(b"not json")


class TestHashRing:
    REPLICAS = [("127.0.0.1", 7001), ("127.0.0.1", 7002),
                ("127.0.0.1", 7003)]

    def test_order_is_a_full_preference_list(self):
        ring = HashRing(self.REPLICAS)
        for key in range(20):
            order = ring.order(request_hash(str(key).encode()))
            assert sorted(order) == [0, 1, 2]

    def test_order_is_deterministic(self):
        a = HashRing(self.REPLICAS)
        b = HashRing(self.REPLICAS)
        keys = [request_hash(str(k).encode()) for k in range(50)]
        assert [a.order(k) for k in keys] == [b.order(k) for k in keys]

    def test_keys_spread_across_replicas(self):
        ring = HashRing(self.REPLICAS)
        owners = {ring.order(request_hash(str(k).encode()))[0]
                  for k in range(200)}
        assert owners == {0, 1, 2}

    def test_empty_ring(self):
        assert HashRing([]).order(123) == []


def _request_owned_by(router, idx):
    """A predict_many request whose structural hash routes to replica
    ``idx`` (distinct slices lists give distinct placement hashes)."""
    for n in range(1, 64):
        req = {"op": "predict_many", "id": f"owned-{idx}-{n}",
               "deadline_ms": 20_000,
               "params": {"slices": [[0, 1 + (k % 3)] for k in range(n)]}}
        line = (json.dumps(req) + "\n").encode()
        if router.ring.order(request_hash(line))[0] == idx:
            return req
    raise AssertionError(f"no probe request landed on replica {idx}")


@pytest.fixture(scope="module")
def fleet(serving_runtime, tmp_path_factory):
    root = tmp_path_factory.mktemp("router-journal")
    servers = []
    for i in range(2):
        srv = ReproServer(serving_runtime, ServerConfig(
            port=0, workers=2, read_timeout_s=0.5, idle_timeout_s=30.0,
            replica_ordinal=i))
        srv.start()
        servers.append(srv)
    router = ReproRouter([s.address for s in servers],
                         RouterConfig(health_poll_s=0.2,
                                      connect_timeout_s=0.5),
                         journal_root=root)
    router.start()
    state = {"servers": servers, "router": router, "root": root,
             "runtime": serving_runtime}
    yield state
    router.stop()
    for srv in state["servers"]:
        srv.stop()


@pytest.fixture
def client(fleet):
    c = Client(fleet["router"].address)
    yield c
    c.close()


class TestRouting:
    def test_predict_through_router(self, client):
        resp = client.rpc({"op": "predict", "id": "r1",
                           "params": {"slice": [0, 2]}})
        assert resp["ok"] and resp["id"] == "r1"
        assert resp["result"]["latency_s"] > 0

    def test_tenant_field_passes_through(self, client):
        resp = client.rpc({"op": "predict", "id": "r2", "tenant": "team-a",
                           "params": {"slice": [0, 1]}})
        assert resp["ok"]

    def test_health_is_answered_by_the_router(self, client):
        resp = client.rpc({"op": "health", "id": "h"})
        assert resp["ok"] and resp["served_by"] == "router"
        r = resp["result"]
        assert r["router"] and r["ready"]
        assert len(r["replicas"]) == 2
        assert r["healthy_replicas"] == 2

    def test_malformed_line_reaches_a_replica(self, client):
        client.send_raw(b"this is not json\n")
        resp = client.read()
        assert not resp["ok"]
        assert resp["error"]["code"] == "invalid_request"

    def test_identical_requests_route_identically(self, fleet):
        router = fleet["router"]
        line = b'{"op": "predict", "params": {"slice": [0, 3]}}'
        first = router.ring.order(request_hash(line))
        assert all(router.ring.order(request_hash(line)) == first
                   for _ in range(5))

    def test_replies_are_not_held_by_nagle(self, fleet):
        router = ReproRouter([s.address for s in fleet["servers"]],
                             RouterConfig(health_poll_s=5.0))
        router.start()
        c = Client(router.address)
        try:
            assert c.rpc({"op": "health", "id": "n"})["ok"]
            (conn,) = router._conns
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            c.close()
            router.stop()


class TestFailover:
    def test_kill_failover_and_rejoin(self, fleet):
        router, root = fleet["router"], fleet["root"]
        servers = fleet["servers"]
        victim_idx = 0
        victim = servers[victim_idx]
        host, port = victim.address
        req = _request_owned_by(router, victim_idx)

        victim.kill()
        # simulate the pre-probe race: the router still believes the
        # replica is healthy, so the request must fail over live
        router.replicas[victim_idx].healthy = True
        before = router.counters.get("failovers")
        c = Client(router.address)
        try:
            resp = c.rpc(req)
        finally:
            c.close()
        assert resp["ok"], resp  # answered by the surviving replica
        assert router.counters.get("failovers") == before + 1
        assert not router.replicas[victim_idx].healthy

        events = manifest.read_events(root)
        fails = [e for e in events if e["event"] == "failover"]
        assert fails and fails[-1]["from_replica"] == f"{host}:{port}"
        downs = [e for e in events if e["event"] == "replica_health"
                 and not e["healthy"]]
        assert downs

        # while the replica is down, its keys are served without it
        c = Client(router.address)
        try:
            resp = c.rpc(req)
        finally:
            c.close()
        assert resp["ok"]

        # restart on the same port: the prober readmits it on its own
        reborn = ReproServer(fleet["runtime"], ServerConfig(
            host=host, port=port, workers=2, read_timeout_s=0.5,
            idle_timeout_s=30.0, replica_ordinal=victim_idx))
        reborn.start()
        servers[victim_idx] = reborn
        deadline = time.monotonic() + 10.0
        while (not router.replicas[victim_idx].healthy
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert router.replicas[victim_idx].healthy
        ups = [e for e in manifest.read_events(root)
               if e["event"] == "replica_health" and e["healthy"]]
        assert ups  # the rejoin is journaled

    def test_total_failure_is_an_answer_not_a_hang(self, serving_runtime,
                                                   tmp_path):
        srv = ReproServer(serving_runtime, ServerConfig(
            port=0, workers=1, read_timeout_s=0.5))
        srv.start()
        router = ReproRouter([srv.address],
                             RouterConfig(health_poll_s=5.0,
                                          connect_timeout_s=0.5),
                             journal_root=tmp_path)
        router.start()
        try:
            srv.kill()
            router.replicas[0].healthy = True
            c = Client(router.address)
            try:
                resp = c.rpc({"op": "predict", "id": "doomed",
                              "deadline_ms": 2_000,
                              "params": {"slice": [0, 1]}})
            finally:
                c.close()
            assert not resp["ok"]
            assert resp["error"]["code"] == "overloaded"
            assert resp["retry_after_ms"] > 0
        finally:
            router.stop()
            srv.stop()

    def test_draining_router_refuses_politely(self, serving_runtime):
        srv = ReproServer(serving_runtime, ServerConfig(
            port=0, workers=1, read_timeout_s=0.5))
        srv.start()
        router = ReproRouter([srv.address],
                             RouterConfig(health_poll_s=5.0))
        router.start()
        try:
            router.draining = True
            c = Client(router.address)
            try:
                resp = c.rpc({"op": "predict", "id": "late",
                              "params": {"slice": [0, 1]}})
            finally:
                c.close()
            assert not resp["ok"]
            assert resp["error"]["code"] == "draining"
            assert resp["retry_after_ms"] > 0
        finally:
            router.stop()
            srv.stop()
