"""Serving load-test harness (``repro bench serve``).

Hammers one :class:`~repro.serving.server.ReproServer` — booted
in-process by default, or an external daemon via ``--port`` — with a
deterministic fleet of synthetic clients speaking the JSON-lines
protocol over real sockets.  Each client keeps a persistent connection
and draws its request mix (predict / predict_many / whatif / search /
health) from a per-client seeded RNG, so a rerun replays byte-identical
traffic.

Misbehaving clients come from the fault plan (``REPRO_FAULTS``), keyed
on the **global request index** so chaos runs are reproducible:

* ``request_garbage`` — the client sends one of several malformed
  payloads (binary junk, bare JSON arrays, unknown ops) and expects an
  *error response*, not a dropped connection;
* ``conn_drop`` — the client slams its connection shut right after
  writing the request; the daemon must absorb the broken pipe;
* ``slow_client`` — the client dribbles its request bytes slower than
  the server's read timeout (slow-loris) and expects to be reaped with
  an ``invalid_request`` answer.

Well-behaved clients honor backpressure: an ``overloaded`` /
``rate_limited`` / ``draining`` response is retried after the server's
(jittered) ``retry_after_ms`` hint (bounded retries), and only then
recorded as shed.  The robustness contract the bench asserts (and CI
gates on): **zero unanswered requests** — every fully sent request on a
surviving connection gets a response line.

Two scenario modes ride on the same client fleet:

* ``router_replicas=N`` boots N daemon replicas behind a
  :class:`~repro.serving.router.ReproRouter` and aims the fleet at the
  router; a ``replica_down`` fault rule arms the chaos controller,
  which hard-kills one replica once the fleet passes the rule's request
  index and restarts it on the same port — the run must still end with
  zero unanswered requests and the restarted replica back in the ring;
* :func:`run_noisy_neighbor_bench` measures a victim tenant's predict
  p99 solo, then while an "aggressor" tenant floods ``search`` — once
  with per-tenant isolation on (the victim must stay within 2x its solo
  p99) and once without (the contrast the numbers pin).

The result dict (written as ``BENCH_serve.json``) records p50/p99/mean
latency per op, throughput, shed/degraded/error rates, the client-side
fault tallies, the server's closing health snapshot, and every circuit
breaker transition observed.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import threading
import time

from .. import faults
from .timing import percentile

SCHEMA = "predtop.bench_serve/v2"

#: ops drawn by well-behaved clients, with mix weights
OP_WEIGHTS = (("predict", 55), ("predict_many", 15), ("whatif", 15),
              ("search", 5), ("health", 10))

#: malformed payloads cycled through by ``request_garbage`` clients
GARBAGE_LINES = (
    b"\x00\xff\xfe garbage not json\n",
    b"[1, 2, 3]\n",
    b'{"op": 17}\n',
    b'{"op": "explode"}\n',
    b'{"op": "predict", "params": "not an object"}\n',
    b'{"op": "predict", "deadline_ms": "soon"}\n',
    b'{truncated\n',
)

#: bounded retries a polite client spends on shed/rate-limited answers
MAX_RETRIES = 4

#: error codes a polite client retries after the server's hint
RETRY_CODES = ("overloaded", "rate_limited", "draining")


class _ClientStats:
    """One client's tally (merged single-threaded afterwards)."""

    def __init__(self) -> None:
        self.latencies_ms: dict[str, list[float]] = {}
        self.ok = 0
        #: prediction-shaped answers actually served by the model path
        self.ok_model = 0
        self.degraded = 0
        self.errors: dict[str, int] = {}
        self.shed_retries = 0
        self.shed_final = 0
        self.unanswered = 0
        self.conn_drops = 0
        self.slow_loris = 0
        self.garbage_sent = 0
        self.reconnects = 0


class _Client:
    """One synthetic client: persistent connection, seeded request mix."""

    def __init__(self, cid: int, address: tuple[str, int], n_requests: int,
                 seed: int, requests_per_client: int, quick: bool,
                 read_timeout_s: float, tenant: str | None = None,
                 op_weights: tuple = OP_WEIGHTS,
                 stop: threading.Event | None = None) -> None:
        import random

        self.cid = cid
        self.address = address
        self.n_requests = n_requests
        self.requests_per_client = requests_per_client
        self.quick = quick
        self.read_timeout_s = read_timeout_s
        self.tenant = tenant
        self.op_weights = op_weights
        self.stop = stop
        self.rng = random.Random((seed + 1) * 1_000_003 + cid * 8191)
        self.stats = _ClientStats()
        self.sock: socket.socket | None = None
        self._buf = b""

    # --------------------------------------------------------------- socket
    def _connect(self) -> None:
        self.sock = socket.create_connection(self.address, timeout=5.0)
        self.sock.settimeout(self.read_timeout_s)
        self._buf = b""

    def _close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None
        self._buf = b""

    def _read_line(self) -> bytes | None:
        """One response line, or ``None`` when the server went silent."""
        while b"\n" not in self._buf:
            try:
                chunk = self.sock.recv(65536)
            except (socket.timeout, OSError):
                return None
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    # ------------------------------------------------------------- requests
    def _draw_op(self) -> str:
        total = sum(w for _, w in self.op_weights)
        draw = self.rng.randrange(total)
        for op, w in self.op_weights:
            if draw < w:
                return op
            draw -= w
        return "predict"  # pragma: no cover

    def _build_request(self, op: str, rid: str) -> dict:
        params: dict = {}
        if op == "predict":
            params = {"slice": self.rng.choice([[0, 1], [0, 2], [1, 2]])}
        elif op == "predict_many":
            params = {"slices": [[0, 1], [1, 2], [0, 2]]
                      [: self.rng.randrange(1, 4)]}
        elif op == "whatif":
            params = {"n_stages": self.rng.randrange(1, 3),
                      "n_microbatches": self.rng.choice([2, 4, 8])}
        elif op == "search":
            params = {"stage_counts": [1, 2] if self.quick else [1, 2, 3],
                      "n_microbatches": 4}
        deadline_ms = 60_000.0 if op == "search" else 20_000.0
        request = {"op": op, "id": rid, "params": params,
                   "deadline_ms": deadline_ms}
        if self.tenant is not None:
            request["tenant"] = self.tenant
        return request

    # -------------------------------------------------------------- running
    def warm_up(self, n: int) -> None:
        """Connect and send ``n`` untimed predicts, so the timed requests
        find the daemon's handler thread for this connection running."""
        self._connect()
        for i in range(n):
            request = self._build_request("predict", f"c{self.cid}-warm{i}")
            self.sock.sendall((json.dumps(request) + "\n").encode())
            self._read_answer()

    def run(self) -> None:
        try:
            if self.sock is None:  # not already opened by warm_up
                self._connect()
        except OSError:
            self.stats.unanswered += self.n_requests
            return
        for i in range(self.n_requests):
            if self.stop is not None and self.stop.is_set():
                break
            gidx = self.cid * self.requests_per_client + i
            try:
                self._one_request(i, gidx)
            except OSError:
                self.stats.reconnects += 1
                try:
                    self._connect()
                except OSError:
                    self.stats.unanswered += 1
        self._close()

    def _one_request(self, i: int, gidx: int) -> None:
        st = self.stats
        # ---- misbehaving variants, decided by the fault plan ----
        if faults.check("request_garbage", gidx) is not None:
            st.garbage_sent += 1
            line = GARBAGE_LINES[gidx % len(GARBAGE_LINES)]
            self.sock.sendall(line)
            resp = self._read_answer()
            if resp is None:
                st.unanswered += 1
            else:
                code = (resp.get("error") or {}).get("code", "?")
                st.errors[code] = st.errors.get(code, 0) + 1
            return
        rid = f"c{self.cid}-{i}"
        wire = (json.dumps(self._build_request(self._draw_op(), rid))
                + "\n").encode()
        if faults.check("conn_drop", gidx) is not None:
            # fire-and-vanish: the daemon must absorb the broken pipe
            st.conn_drops += 1
            try:
                self.sock.sendall(wire)
            finally:
                self._close()
            self._connect()
            return
        if faults.check("slow_client", gidx) is not None:
            # slow-loris: dribble a partial line past the read timeout
            st.slow_loris += 1
            self.sock.sendall(wire[: max(1, len(wire) // 2)])
            resp = self._read_answer(extra_timeout=self.read_timeout_s * 3)
            if resp is None:
                st.unanswered += 1
            else:
                code = (resp.get("error") or {}).get("code", "?")
                st.errors[code] = st.errors.get(code, 0) + 1
            # the server closed this connection after reaping it
            self._close()
            self._connect()
            return
        # ---- the polite path, honoring retry_after backpressure ----
        request = json.loads(wire)
        for _attempt in range(MAX_RETRIES + 1):
            t0 = time.monotonic()
            self.sock.sendall(wire)
            resp = self._read_answer()
            if resp is None:
                st.unanswered += 1
                raise OSError("no response")
            dt_ms = (time.monotonic() - t0) * 1e3
            code = (resp.get("error") or {}).get("code")
            if code in RETRY_CODES:
                st.shed_retries += 1
                # the hint is jittered server-side; honoring it keeps
                # shed clients from stampeding back in lockstep
                time.sleep(min(1.0,
                               float(resp.get("retry_after_ms", 50)) / 1e3))
                continue
            if resp.get("ok"):
                st.ok += 1
                op = request["op"]
                if resp.get("degraded"):
                    st.degraded += 1
                elif op != "health":
                    st.ok_model += 1
                st.latencies_ms.setdefault(op, []).append(dt_ms)
            else:
                st.errors[code or "?"] = st.errors.get(code or "?", 0) + 1
            return
        st.shed_final += 1

    def _read_answer(self, extra_timeout: float = 0.0) -> dict | None:
        if extra_timeout:
            self.sock.settimeout(self.read_timeout_s + extra_timeout)
        try:
            line = self._read_line()
        finally:
            if extra_timeout:
                self.sock.settimeout(self.read_timeout_s)
        if line is None:
            return None
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            return None


# ---------------------------------------------------------------- the bench
def _summarize(per_op: dict[str, list[float]]) -> dict:
    out = {}
    for op, xs in sorted(per_op.items()):
        out[op] = {
            "n": len(xs),
            "p50_ms": round(percentile(xs, 50), 3),
            "p99_ms": round(percentile(xs, 99), 3),
            "mean_ms": round(statistics.fmean(xs), 3),
        }
    return out


def _health(address: tuple[str, int]) -> dict | None:
    from ..serving.server import read_line

    try:
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.sendall(b'{"op": "health", "id": "bench-final"}\n')
            line = read_line(sock, time.monotonic() + 5.0)
        return None if line is None else json.loads(line).get("result")
    except (OSError, json.JSONDecodeError):
        return None


def _build_runtime(quick: bool, seed: int):
    from ..serving.runtime import PredictorRuntime, RuntimeConfig

    return PredictorRuntime.build(RuntimeConfig(
        layers=2, units=3, sample_fraction=0.6,
        epochs=3 if quick else 6, seed=seed))


def _run_fleet(fleet: list[_Client]) -> float:
    """Run every client to completion; returns the wall seconds."""
    t0 = time.monotonic()
    threads = [threading.Thread(target=c.run, name=f"bench-client-{c.cid}",
                                daemon=True) for c in fleet]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.monotonic() - t0


class _ChaosController:
    """Arms ``replica_down``: kill one replica mid-run, restart it.

    The rule's ``at`` index is the global request count the fleet must
    pass before the kill; ``seed`` picks the victim replica (``seed %
    n_replicas``); ``secs`` (capped at 3 s; the parse default of an hour
    means "use 1 s") is the downtime before the restart.  The restarted
    replica binds the *same* port, so the router's health prober folds
    it back into the ring without any reconfiguration.
    """

    def __init__(self, fleet, servers, router, runtime,
                 journal_root=None) -> None:
        self.fleet = fleet
        self.servers = servers
        self.router = router
        self.runtime = runtime
        self.journal_root = journal_root
        self.events: list[dict] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="bench-chaos", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def finish(self) -> None:
        self._stop.set()
        self._thread.join(timeout=15.0)

    def _progress(self) -> int:
        return sum(c.stats.ok + sum(c.stats.errors.values())
                   + c.stats.shed_final for c in self.fleet)

    def _run(self) -> None:
        from ..serving.server import ReproServer, ServerConfig

        rules = [r for r in faults.active_plan()
                 if r.site == "replica_down"]
        if not rules:
            return
        rule = rules[0]
        trigger = min(rule.at) if rule.at else 0
        victim = rule.seed % len(self.servers)
        while not self._stop.is_set() and self._progress() < trigger:
            time.sleep(0.02)
        if self._stop.is_set():
            return
        old = self.servers[victim]
        host, port = old.address
        old.kill()
        self.events.append({"event": "replica_killed", "replica": victim,
                            "port": port, "after_requests": self._progress()})
        down_s = 1.0 if rule.secs >= 3600.0 else min(rule.secs, 3.0)
        time.sleep(down_s)
        fresh = ReproServer(self.runtime, ServerConfig(
            host=host, port=port, workers=2, read_timeout_s=1.0,
            idle_timeout_s=30.0, replica_ordinal=victim),
            journal_root=self.journal_root)
        try:
            fresh.start()
        except OSError as exc:  # port still in TIME_WAIT etc.
            self.events.append({"event": "restart_failed",
                                "detail": str(exc)})
            return
        self.servers[victim] = fresh
        rejoined = False
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if self.router.replicas[victim].healthy:
                rejoined = True
                break
            time.sleep(0.05)
        self.events.append({"event": "replica_restarted", "replica": victim,
                            "rejoined": rejoined})


def run_serve_bench(quick: bool = False, address: tuple[str, int] | None = None,
                    clients: int | None = None,
                    requests_per_client: int | None = None,
                    seed: int = 0, router_replicas: int = 0,
                    journal_root=None, runtime=None) -> dict:
    """Run the fleet against a daemon; returns the ``BENCH_serve`` dict.

    ``address=None`` boots a small server in-process (own runtime, quiet
    ephemeral port) and drains it afterwards; otherwise the fleet targets
    the external daemon at ``address`` and never touches its lifecycle.
    ``router_replicas=N`` (with ``address=None``) boots N replicas
    behind a :class:`~repro.serving.router.ReproRouter` instead, arms
    the ``replica_down`` chaos controller if the fault plan carries one,
    and reports a ``router`` section.
    """
    from ..serving.router import ReproRouter, RouterConfig
    from ..serving.server import ReproServer, ServerConfig

    clients = clients or (8 if quick else 24)
    requests_per_client = requests_per_client or (12 if quick else 25)

    server = None
    servers: list = []
    router = None
    controller = None
    if address is None:
        if runtime is None:
            runtime = _build_runtime(quick, seed)
        if router_replicas > 0:
            for i in range(router_replicas):
                srv = ReproServer(runtime, ServerConfig(
                    port=0, workers=2, read_timeout_s=1.0,
                    idle_timeout_s=30.0, replica_ordinal=i),
                    journal_root=journal_root)
                srv.start()
                servers.append(srv)
            router = ReproRouter([s.address for s in servers],
                                 RouterConfig(port=0),
                                 journal_root=journal_root)
            router.start()
            address = router.address
        else:
            server = ReproServer(runtime, ServerConfig(
                port=0, workers=2, read_timeout_s=1.0, idle_timeout_s=30.0),
                journal_root=journal_root)
            server.start()
            address = server.address
    read_timeout_s = 30.0

    fleet = [_Client(cid, address, requests_per_client, seed,
                     requests_per_client, quick, read_timeout_s)
             for cid in range(clients)]
    if router is not None:
        controller = _ChaosController(fleet, servers, router, runtime,
                                      journal_root)
        controller.start()
    wall_s = _run_fleet(fleet)

    health = _health(address)
    transitions = []
    router_section = None
    if controller is not None:
        controller.finish()
    if router is not None:
        router_section = {
            "replicas": router_replicas,
            "failovers": router.counters.get("failovers"),
            "counters": router.counters.snapshot(),
            "chaos": controller.events if controller else [],
            "health": health,
        }
        router.stop()
    for srv in ([server] if server is not None else servers):
        if srv is None:
            continue
        for route, breaker in sorted(srv.breakers.items()):
            transitions.extend(
                {"route": route, "from": a, "to": b, "reason": reason}
                for (a, b, reason) in breaker.transitions)
        srv.stop()

    # ---------------------------------------------------------- aggregation
    per_op: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    totals = {"ok": 0, "ok_model": 0, "degraded": 0,
              "shed_retries": 0, "shed_final": 0,
              "unanswered": 0, "conn_drops": 0, "slow_loris": 0,
              "garbage_sent": 0, "reconnects": 0}
    for c in fleet:
        st = c.stats
        for op, xs in st.latencies_ms.items():
            per_op.setdefault(op, []).extend(xs)
        for code, n in st.errors.items():
            errors[code] = errors.get(code, 0) + n
        totals["ok"] += st.ok
        totals["ok_model"] += st.ok_model
        totals["degraded"] += st.degraded
        totals["shed_retries"] += st.shed_retries
        totals["shed_final"] += st.shed_final
        totals["unanswered"] += st.unanswered
        totals["conn_drops"] += st.conn_drops
        totals["slow_loris"] += st.slow_loris
        totals["garbage_sent"] += st.garbage_sent
        totals["reconnects"] += st.reconnects
    sent = clients * requests_per_client
    answered = totals["ok"] + sum(errors.values())
    result = {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "in_process": server is not None or bool(servers),
        "faults": os.environ.get(faults.ENV_VAR, ""),
        "config": {"clients": clients,
                   "requests_per_client": requests_per_client,
                   "seed": seed},
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(answered / wall_s, 2) if wall_s else 0.0,
        "requests_sent": sent,
        "answered": answered,
        "totals": totals,
        "zero_unanswered": totals["unanswered"] == 0,
        "error_responses": dict(sorted(errors.items())),
        "latency": _summarize(per_op),
        "breaker_transitions": transitions,
        "server_health": health,
    }
    if router_section is not None:
        result["router"] = router_section
    return result


# --------------------------------------------------------- noisy neighbor
def run_noisy_neighbor_bench(quick: bool = True, seed: int = 0,
                             runtime=None, journal_root=None) -> dict:
    """Victim-tenant predict p99 solo vs. under an aggressor's search
    flood, with and without per-tenant isolation.

    Three phases on a fresh in-process daemon each time the config
    changes: (1) *solo* — victim predicts alone on the isolation-enabled
    daemon (the baseline p99); (2) *isolated* — the aggressor tenant
    floods ``search`` but its policy (tiny token bucket, one in-flight,
    one queue slot) answers nearly all of it ``rate_limited`` inline, so
    the victim's p99 must stay within 2x solo; (3) *unisolated* — same
    flood on a daemon without tenant budgets, pinning the contrast.  The
    ``isolation_holds`` bit is the acceptance gate CI asserts.  Each
    victim connection sends a few untimed predicts before its timed ones,
    and each phase times enough predicts that its p99 is a tail of at
    least ten samples, not the one slowest request.
    """
    from ..serving.server import ReproServer, ServerConfig
    from ..serving.tenancy import TenancyConfig, TenantPolicy

    runtime = runtime or _build_runtime(quick, seed)
    victim_clients = 2
    # timed predicts per victim and phase: each phase's p99 then has at
    # least ten samples beyond it (2 x 550 = 1,100 samples, 11 beyond),
    # so the gate compares tails, not one stalled request
    victim_requests = 550 if quick else 1500
    # untimed predicts first on each victim connection: a new
    # connection's first request waits for the daemon to start its
    # handler thread
    victim_warmup = 3
    aggressor_clients = 2

    isolation = TenancyConfig(policies={
        "aggressor": TenantPolicy(rate=0.5, burst=8.0, max_inflight=1,
                                  max_queued=1),
    })

    def phase(server: ReproServer, with_aggressor: bool) -> dict:
        stop = threading.Event()
        aggressors = [
            _Client(100 + k, server.address, 10_000, seed, 10_000, quick,
                    30.0, tenant="aggressor", op_weights=(("search", 1),),
                    stop=stop)
            for k in range(aggressor_clients)]
        agg_threads = [threading.Thread(target=c.run, daemon=True,
                                        name=f"bench-aggressor-{c.cid}")
                       for c in aggressors]
        if with_aggressor:
            for t in agg_threads:
                t.start()
            time.sleep(0.5)  # let the flood build before measuring
        victims = [
            _Client(k, server.address, victim_requests, seed,
                    victim_requests, quick, 30.0, tenant="victim",
                    op_weights=(("predict", 1),))
            for k in range(victim_clients)]
        for c in victims:
            c.warm_up(victim_warmup)
        _run_fleet(victims)
        stop.set()
        if with_aggressor:
            for t in agg_threads:
                t.join(timeout=90.0)
        lat = [x for c in victims
               for x in c.stats.latencies_ms.get("predict", ())]
        agg_errors: dict[str, int] = {}
        for c in aggressors:
            for code, n in c.stats.errors.items():
                agg_errors[code] = agg_errors.get(code, 0) + n
        return {
            "victim_n": len(lat),
            "victim_p50_ms": round(percentile(lat, 50), 3) if lat else None,
            "victim_p99_ms": round(percentile(lat, 99), 3) if lat else None,
            "victim_unanswered": sum(c.stats.unanswered for c in victims),
            "aggressor_ok": sum(c.stats.ok for c in aggressors),
            "aggressor_shed_retries": sum(c.stats.shed_retries
                                          for c in aggressors),
            "aggressor_shed_final": sum(c.stats.shed_final
                                        for c in aggressors),
            "aggressor_errors": dict(sorted(agg_errors.items())),
        }

    iso_server = ReproServer(runtime, ServerConfig(
        port=0, workers=2, read_timeout_s=1.0, idle_timeout_s=30.0,
        tenancy=isolation), journal_root=journal_root)
    iso_server.start()
    # warm the model path so the solo baseline is steady-state
    phase(iso_server, with_aggressor=False)
    solo = phase(iso_server, with_aggressor=False)
    isolated = phase(iso_server, with_aggressor=True)
    iso_server.stop()

    raw_server = ReproServer(runtime, ServerConfig(
        port=0, workers=2, read_timeout_s=1.0, idle_timeout_s=30.0,
        tenancy=TenancyConfig()), journal_root=journal_root)
    raw_server.start()
    unisolated = phase(raw_server, with_aggressor=True)
    raw_server.stop()

    def ratio(p99):
        if not p99 or not solo["victim_p99_ms"]:
            return None
        return round(p99 / solo["victim_p99_ms"], 3)

    return {
        "solo": solo,
        "isolated": isolated,
        "unisolated": unisolated,
        "isolated_p99_ratio": ratio(isolated["victim_p99_ms"]),
        "unisolated_p99_ratio": ratio(unisolated["victim_p99_ms"]),
        "isolation_holds": (ratio(isolated["victim_p99_ms"]) or 99.0) <= 2.0,
        "config": {"victim_clients": victim_clients,
                   "victim_requests": victim_requests,
                   "victim_warmup": victim_warmup,
                   "aggressor_clients": aggressor_clients,
                   "aggressor_policy": {"rate": 0.5, "burst": 8.0,
                                        "max_inflight": 1, "max_queued": 1},
                   "seed": seed},
    }
