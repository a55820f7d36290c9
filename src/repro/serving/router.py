"""Replicated-failover front-end for the serving daemon fleet.

``repro serve --router PORT PORT ...`` boots a thin TCP router speaking
the same JSON-lines protocol as the daemon.  It owns no model — it owns
*placement and failover*:

* **consistent-hash routing** — each request is routed by a structural
  hash of ``(op, params)`` over a virtual-node hash ring
  (:class:`HashRing`), so identical questions land on the same replica
  and hit that replica's plan/search caches, while replicas joining or
  leaving only remap ``1/N`` of the key space;
* **health checking** — a background prober sends each replica a cheap
  ``health`` request every ``health_poll_s``; replicas failing the probe
  leave the ring (journaled ``replica_health``), and a restarted replica
  rejoins the moment its probe passes again — no operator action;
* **failover** — a connect, send, read, or deadline error on the chosen
  replica marks it suspect and retries the request **exactly once** on
  the next healthy replica in the ring (every op is a read-only,
  idempotent question, so at-most-once retry cannot double-apply
  anything); the failover is journaled and counted.  If the retry also
  fails the client gets an ``overloaded`` error *response* with a
  jittered ``retry_after_ms`` — never a dropped connection;
* **drain** — SIGTERM stops accepting, finishes in-flight requests, and
  answers late arrivals ``draining`` (same contract as the daemon).

The router forwards request lines verbatim (tenant field included — the
*replica's* admission controller enforces budgets) and relays exactly
one response line per request, so v1 and v2 clients work unchanged.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import signal
import socket
import threading
import time
from dataclasses import dataclass

from ..experiments.manifest import append_event
from .protocol import MAX_LINE_BYTES, encode_response, error_response
from .server import Counters
from .tenancy import jittered_retry_ms


def request_hash(line: bytes) -> int:
    """Structural placement hash of one request line.

    Hashes ``[op, params]`` (canonical JSON) so the same question —
    whatever its ``id``, ``tenant``, or ``deadline_ms`` — maps to the
    same replica and reuses that replica's caches.  Unparseable lines
    hash by their raw bytes (any replica answers the protocol error).
    """
    try:
        data = json.loads(line)
        token = json.dumps([data.get("op"), data.get("params", {})],
                           sort_keys=True).encode()
    except (ValueError, AttributeError):
        token = bytes(line)
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring with virtual nodes over the replica set."""

    VNODES = 64

    def __init__(self, replicas: list[tuple[str, int]]) -> None:
        self.replicas = list(replicas)
        points: list[tuple[int, int]] = []
        for idx, (host, port) in enumerate(self.replicas):
            for v in range(self.VNODES):
                digest = hashlib.sha256(
                    f"{host}:{port}/{v}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), idx))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [i for _, i in points]

    def order(self, key: int) -> list[int]:
        """Replica indices in preference order for ``key``: the owning
        vnode's replica first, then the next distinct replicas walking
        the ring clockwise (the failover order)."""
        if not self.replicas:
            return []
        start = bisect.bisect_right(self._points, key) % len(self._points)
        seen: list[int] = []
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in seen:
                seen.append(owner)
                if len(seen) == len(self.replicas):
                    break
        return seen


@dataclass(frozen=True)
class RouterConfig:
    """Router knobs (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    #: replica health probe period
    health_poll_s: float = 0.25
    #: per-probe and per-connect timeout
    connect_timeout_s: float = 1.0
    #: extra grace past the client deadline before a backend read fails
    deadline_grace_s: float = 2.0
    #: base of the retry_after_ms hint on total failure
    retry_after_ms: float = 50.0
    max_connections: int = 256
    drain_timeout_s: float = 10.0
    idle_timeout_s: float = 60.0
    read_timeout_s: float = 5.0


class _Replica:
    """One backend's address, liveness flag, and counters."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.healthy = True  # optimistic: first probe corrects it
        self.failures = 0
        self.lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"{self.host}:{self.port}"


class ReproRouter:
    """The fleet front-end: route, health-check, fail over, drain."""

    def __init__(self, replicas: list[tuple[str, int]],
                 config: RouterConfig | None = None,
                 journal_root=None) -> None:
        if not replicas:
            raise ValueError("a router needs at least one replica")
        self.config = config or RouterConfig()
        self.journal_root = journal_root
        self.replicas = [_Replica(h, p) for h, p in replicas]
        self.ring = HashRing(replicas)
        self.counters = Counters()
        self._listen: socket.socket | None = None
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._started = threading.Event()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self.draining = False
        self._t0 = time.monotonic()

    # ------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        assert self._listen is not None, "router not started"
        return self._listen.getsockname()[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> None:
        append_event(self.journal_root, "router_start",
                     replicas=[r.name for r in self.replicas])
        self._t0 = time.monotonic()
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((self.config.host, self.config.port))
        self._listen.listen(128)
        self._listen.settimeout(0.25)
        for target, name in ((self._accept_loop, "repro-router-accept"),
                             (self._health_loop, "repro-router-health")):
            t = threading.Thread(target=target, name=name, daemon=True)
            t.start()
            self._threads.append(t)
        self._started.set()

    def request_stop(self) -> None:
        self._stopping.set()

    def stop(self) -> None:
        if self._stopped.is_set():
            return
        self.request_stop()
        self.draining = True
        deadline = time.monotonic() + self.config.drain_timeout_s
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight == 0:
                    break
            time.sleep(0.05)
        self._stopped.set()
        if self._listen is not None:
            try:
                self._listen.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        append_event(self.journal_root, "router_stop",
                     uptime_s=round(time.monotonic() - self._t0, 3),
                     counters=self.counters.snapshot())

    def serve_forever(self, install_signals: bool = True) -> int:
        if not self._started.is_set():
            self.start()
        if (install_signals
                and threading.current_thread() is threading.main_thread()):
            for sig in (signal.SIGTERM, signal.SIGINT):
                signal.signal(sig, lambda *_: self.request_stop())
        while not self._stopping.is_set():
            time.sleep(0.1)
        self.stop()
        return 0

    # --------------------------------------------------------------- health
    def _probe(self, replica: _Replica) -> bool:
        try:
            with socket.create_connection(
                    (replica.host, replica.port),
                    timeout=self.config.connect_timeout_s) as sock:
                sock.sendall(b'{"op": "health", "deadline_ms": 500}\n')
                sock.settimeout(self.config.connect_timeout_s)
                line = _read_line(sock, time.monotonic()
                                  + self.config.connect_timeout_s)
                if line is None:
                    return False
                return bool(json.loads(line).get("ok"))
        except (OSError, ValueError):
            return False

    def _mark(self, replica: _Replica, healthy: bool, cause: str) -> None:
        with replica.lock:
            changed = replica.healthy != healthy
            replica.healthy = healthy
            if not healthy:
                replica.failures += 1
        if changed:
            self.counters.inc("replica_up" if healthy else "replica_down")
            append_event(self.journal_root, "replica_health",
                         replica=replica.name, healthy=healthy, cause=cause)

    def _health_loop(self) -> None:
        while not self._stopping.is_set():
            for replica in self.replicas:
                self._mark(replica, self._probe(replica), "probe")
            self._stopping.wait(self.config.health_poll_s)

    # ----------------------------------------------------------- connections
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listen.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conn_lock:
                too_many = len(self._conns) >= self.config.max_connections
                if not too_many:
                    self._conns.add(conn)
            if too_many:
                self.counters.inc("connections_refused")
                try:
                    conn.sendall(encode_response(error_response(
                        None, "overloaded", "connection limit reached",
                        retry_after_ms=self.config.retry_after_ms * 4)))
                    conn.close()
                except OSError:
                    pass
                continue
            self.counters.inc("connections")
            t = threading.Thread(target=self._connection_loop, args=(conn,),
                                 name="repro-router-conn", daemon=True)
            t.start()

    def _connection_loop(self, conn: socket.socket) -> None:
        # replies leave as soon as they are written (Nagle off; see
        # ReproServer._connection_loop)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(0.25)
        buf = b""
        last_byte = time.monotonic()
        try:
            while not self._stopped.is_set():
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    now = time.monotonic()
                    if buf and now - last_byte > self.config.read_timeout_s:
                        self._send(conn, error_response(
                            None, "invalid_request",
                            f"request incomplete after "
                            f"{self.config.read_timeout_s:.1f}s"))
                        return
                    if (not buf
                            and now - last_byte > self.config.idle_timeout_s):
                        return
                    continue
                except OSError:
                    return
                if not chunk:
                    return
                last_byte = time.monotonic()
                buf += chunk
                if len(buf) > MAX_LINE_BYTES:
                    self._send(conn, error_response(
                        None, "invalid_request",
                        f"request exceeds {MAX_LINE_BYTES} bytes"))
                    return
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if not line.strip():
                        continue
                    self._handle_line(conn, line)
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _send(self, conn: socket.socket, response: dict) -> bool:
        try:
            conn.sendall(encode_response(response))
            return True
        except OSError:
            self.counters.inc("client_gone")
            return False

    def _send_raw(self, conn: socket.socket, line: bytes) -> bool:
        try:
            conn.sendall(line if line.endswith(b"\n") else line + b"\n")
            return True
        except OSError:
            self.counters.inc("client_gone")
            return False

    # ---------------------------------------------------------------- routing
    @staticmethod
    def _peek(line: bytes) -> tuple:
        """Best-effort (id, op, deadline_ms) without full validation —
        a malformed line still gets routed (the replica answers the
        protocol error)."""
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                return None, None, 30_000.0
            deadline = data.get("deadline_ms", 30_000.0)
            if not isinstance(deadline, (int, float)) \
                    or isinstance(deadline, bool):
                deadline = 30_000.0
            return data.get("id"), data.get("op"), float(deadline)
        except ValueError:
            return None, None, 30_000.0

    def _handle_line(self, conn: socket.socket, line: bytes) -> None:
        req_id, op, deadline_ms = self._peek(line)
        self.counters.inc("accepted")
        if op == "health":
            self._send(conn, {
                "id": req_id, "ok": True, "op": "health", "degraded": False,
                "served_by": "router", "result": self._health()})
            self.counters.inc("answered")
            return
        if self.draining:
            self.counters.inc("refused_draining")
            self._send(conn, error_response(
                req_id, "draining", "router is draining for shutdown",
                retry_after_ms=jittered_retry_ms(
                    1000.0, "router-draining", req_id,
                    self.counters.get("refused_draining"))))
            return
        with self._inflight_lock:
            self._inflight += 1
        try:
            response_line = self._forward(line, req_id, op, deadline_ms)
            if response_line is None:
                self.counters.inc("errors_answered")
                self._send(conn, error_response(
                    req_id, "overloaded",
                    "no healthy replica answered",
                    retry_after_ms=jittered_retry_ms(
                        self.config.retry_after_ms * 4, "router-exhausted",
                        req_id, self.counters.get("accepted"))))
            else:
                self.counters.inc("answered")
                self._send_raw(conn, response_line)
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _forward(self, line: bytes, req_id, op,
                 deadline_ms: float) -> bytes | None:
        """Route ``line`` by its structural hash; one failover retry.

        Returns the replica's raw response line, or ``None`` when both
        the owner and its failover target failed (the caller answers).
        """
        order = self.ring.order(request_hash(line))
        # healthy replicas first, in ring order; suspects as a last resort
        targets = ([i for i in order if self.replicas[i].healthy]
                   or list(order))
        budget_s = deadline_ms / 1000.0 + self.config.deadline_grace_s
        attempts = 0
        first = None
        for idx in targets:
            if attempts >= 2:  # at-most-once retry
                break
            replica = self.replicas[idx]
            attempts += 1
            if first is None:
                first = replica
            elif replica is not first:
                self.counters.inc("failovers")
                append_event(self.journal_root, "failover",
                             op=op, request=req_id,
                             from_replica=first.name, to=replica.name)
            response = self._ask(replica, line, budget_s)
            if response is not None:
                self._mark(replica, True, "answered")
                return response
            self._mark(replica, False,
                       "connect/deadline failure routing a request")
        return None

    def _ask(self, replica: _Replica, line: bytes,
             budget_s: float) -> bytes | None:
        """One request/response round-trip to one replica."""
        try:
            with socket.create_connection(
                    (replica.host, replica.port),
                    timeout=self.config.connect_timeout_s) as sock:
                sock.sendall(line if line.endswith(b"\n") else line + b"\n")
                sock.settimeout(0.25)
                return _read_line(sock, time.monotonic() + budget_s)
        except OSError:
            return None

    # ---------------------------------------------------------------- health
    def _health(self) -> dict:
        status = ("draining" if self.draining
                  else "ready" if self._started.is_set() else "starting")
        healthy = [r.name for r in self.replicas if r.healthy]
        return {
            "status": status,
            "ready": status == "ready" and bool(healthy),
            "live": True,
            "router": True,
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "replicas": {
                r.name: {"healthy": r.healthy, "failures": r.failures}
                for r in self.replicas
            },
            "healthy_replicas": len(healthy),
            "counters": self.counters.snapshot(),
        }


def _read_line(sock: socket.socket, deadline: float) -> bytes | None:
    """Read one ``\\n``-terminated line, or ``None`` on EOF/timeout."""
    buf = b""
    while time.monotonic() < deadline:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            continue
        except OSError:
            return None
        if not chunk:
            return None
        buf += chunk
        if b"\n" in buf:
            return buf.split(b"\n", 1)[0] + b"\n"
        if len(buf) > MAX_LINE_BYTES:
            return None
    return None
