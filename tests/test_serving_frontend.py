"""The daemon and the router run on one connection core: the same line
framing and hostile-client defences, counted under the same ``health``
counters.  Every case runs over both front ends with real sockets."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.serving import (MAX_LINE_BYTES, ReproRouter, ReproServer,
                           RouterConfig, ServerConfig)


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


def _closed_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture(params=["daemon", "router"])
def front_end(request):
    """Factory: start the parametrized front end with config overrides.

    The router sits over a closed port: it answers ``health`` itself, and
    every other case here is settled before a request is forwarded."""
    runtime = (request.getfixturevalue("serving_runtime")
               if request.param == "daemon" else None)
    started = []

    def make(**overrides):
        if runtime is not None:
            fe = ReproServer(runtime, ServerConfig(port=0, workers=1,
                                                   **overrides))
        else:
            fe = ReproRouter([("127.0.0.1", _closed_port())],
                             RouterConfig(health_poll_s=5.0,
                                          connect_timeout_s=0.2,
                                          **overrides))
        fe.start()
        started.append(fe)
        return fe

    yield make
    for fe in started:
        fe.stop()


@pytest.fixture
def clients():
    opened = []

    def connect(address):
        c = Client(address)
        opened.append(c)
        return c

    yield connect
    for c in opened:
        c.close()


def test_line_at_the_cap_is_served_with_requests_behind_it(front_end,
                                                           clients):
    fe = front_end()
    head, tail = b'{"op": "health", "id": 1, "pad": "', b'"}'
    big = head + b"x" * (MAX_LINE_BYTES - len(head) - len(tail)) + tail
    c = clients(fe.address)
    c.send_raw(big + b"\n" + b'{"op": "health", "id": 2}\n')
    answers = [c.read(), c.read()]
    assert all(r is not None and r["ok"] for r in answers), answers
    assert sorted(r["id"] for r in answers) == [1, 2]
    assert fe.counters.get("oversized_requests") == 0


def test_oversized_request_is_refused_and_counted(front_end, clients):
    fe = front_end()
    c = clients(fe.address)
    c.send_raw(b'{"op": "predict", "pad": "' + b"x" * MAX_LINE_BYTES)
    resp = c.read()
    assert resp is not None and not resp["ok"]
    assert resp["error"]["code"] == "invalid_request"
    assert fe.counters.get("oversized_requests") == 1


def test_slow_loris_is_reaped_with_an_answer_and_counted(front_end, clients):
    fe = front_end(read_timeout_s=0.5)
    c = clients(fe.address)
    c.send_raw(b'{"op": "health", "par')  # dribble, then stall
    t0 = time.monotonic()
    resp = c.read()
    assert resp is not None and not resp["ok"]
    assert resp["error"]["code"] == "invalid_request"
    assert time.monotonic() - t0 < 10.0
    assert fe.counters.get("slowloris_reaped") == 1


def test_connection_over_the_cap_gets_one_overloaded_answer(front_end,
                                                            clients):
    fe = front_end(max_connections=1)
    first = clients(fe.address)
    assert first.rpc({"op": "health", "id": "held"})["ok"]
    second = clients(fe.address)
    resp = second.read()
    assert resp is not None and not resp["ok"]
    assert resp["error"]["code"] == "overloaded"
    assert resp["retry_after_ms"] > 0
    assert second.read() is None  # then the connection is closed
    assert fe.counters.get("connections_refused") == 1
    assert first.rpc({"op": "health", "id": "still"})["ok"]


def test_idle_connection_is_closed_without_an_answer(front_end, clients):
    fe = front_end(idle_timeout_s=0.5)
    c = clients(fe.address)
    t0 = time.monotonic()
    assert c.sock.recv(65536) == b""
    assert time.monotonic() - t0 < 10.0
