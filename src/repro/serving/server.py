"""The resilient PredTOP serving daemon (``repro serve``).

A threaded JSON-lines TCP server wrapping one
:class:`~repro.serving.runtime.PredictorRuntime`.  The robustness core:

* **admission control + backpressure** — predictions enter the bounded
  micro-batcher queue, what-if/search jobs a bounded executor queue; a
  full queue answers ``overloaded`` with ``retry_after_ms`` (load shed,
  never a silent drop), and sustained saturation force-opens the predict
  breaker so the cheap analytical path drains the backlog;
* **per-request deadlines** — every request carries ``deadline_ms``;
  expired work is answered ``deadline_exceeded`` instead of running, and
  searches fan their candidates through :func:`supervised_map` with
  per-candidate timeouts so a hung or crashed candidate costs a retry /
  a partial answer, never a hung connection;
* **circuit breakers** (:mod:`repro.serving.breaker`) per route —
  suspect-verdict bursts, throwing predictors, crashed search workers,
  and queue saturation flip the route to the analytical estimator
  (answers flagged ``degraded``), with half-open probing for recovery;
  every transition is journaled to the run manifest;
* **lifecycle** — startup runs ``reap_stale()`` and reports quarantined
  cache shards; ``health`` serves readiness/liveness inline (never
  queued, so it works under overload); SIGTERM drains gracefully
  (in-flight requests finish, new ones get ``draining``); an optional
  watcher reloads ``--checkpoint`` files in place when they change,
  keeping the old ensemble on a torn load.

The socket front end is :class:`ConnectionCore`, the one connection core
the daemon and the replica router (:mod:`repro.serving.router`) both run
on: the listener, the accept loop with its ``max_connections`` refusal,
one thread per connection with Nagle off, newline framing, drain, and
``serve_forever``.  Its hostile-client defences are the same for both:
a connection that dribbles a partial request slower than
``read_timeout_s`` is reaped (``slowloris_reaped``), an idle one after
``idle_timeout_s``, and a request line longer than ``MAX_LINE_BYTES`` is
refused (``oversized_requests``).  The cap applies per line, so
requests pipelined behind a large one are still served.  Malformed
payloads get an error *response* — the connection survives.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field

from .. import faults
from ..experiments.manifest import append_event
from ..memo import Memo, gc_snapshot, snapshot
from .batcher import MicroBatcher, _Pending
from .breaker import BreakerConfig, CircuitBreaker
from .protocol import (MAX_LINE_BYTES, PROTOCOL_VERSION, ProtocolError,
                       Request, encode_response, error_response, ok_response,
                       parse_request)
from .runtime import PredictorRuntime
from .tenancy import (AdmissionController, FairQueue, TenancyConfig,
                      jittered_retry_ms)

#: cached search answers kept per daemon (small: one entry per distinct
#: (model, mesh, schedule, candidate-set) a client keeps re-asking about)
SEARCH_CACHE_SIZE = 128


@dataclass(frozen=True)
class ServerConfig:
    """Daemon knobs (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    #: executor threads for whatif/search
    workers: int = 2
    #: bounded executor queue (admission control)
    max_queue: int = 32
    #: bounded batcher queue
    max_batch_queue: int = 256
    max_batch: int = 32
    default_deadline_ms: float = 30_000.0
    #: base of the shed responses' retry_after_ms hint
    retry_after_ms: float = 25.0
    #: consecutive sheds that force-open the predict breaker
    shed_trip: int = 32
    #: partial-request (slow-loris) read deadline
    read_timeout_s: float = 5.0
    #: idle-connection reap
    idle_timeout_s: float = 60.0
    max_connections: int = 256
    drain_timeout_s: float = 15.0
    #: poll checkpoints for in-place reload (0 = off)
    reload_poll_s: float = 0.0
    #: supervised retries per search candidate
    search_retries: int = 1
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: per-tenant budgets (None = ``TenancyConfig()``, unlimited — the
    #: v1 single-tenant daemon's behavior)
    tenancy: TenancyConfig | None = None
    #: this daemon's position in a router fleet (fault site
    #: ``replica_slow`` keys on it; 0 for a standalone daemon)
    replica_ordinal: int = 0


class Counters:
    """Thread-safe monotonic counters for the health endpoint."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + n

    def get(self, name: str) -> int:
        with self._lock:
            return self._values.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._values.items()))


class ConnectionCore:
    """The JSON-lines socket front end of the daemon and the router.

    It owns the listener, the accept loop, one thread per connection,
    the in-flight gauge, drain, and ``serve_forever``.  A subclass
    supplies :meth:`_handle_line` (answer one request line), its
    drain-idle condition (:meth:`_idle`), the threads it runs beside the
    accept loop (:meth:`_start_workers`), and what its ``start`` and
    ``stop`` do besides (``stop`` is :meth:`_drain`, then
    :meth:`_close`).  ``config`` needs ``host``, ``port``,
    ``max_connections``, ``retry_after_ms``, ``read_timeout_s``,
    ``idle_timeout_s`` and ``drain_timeout_s``.
    """

    #: thread names are ``<prefix>-accept``, ``<prefix>-conn``, ...
    THREAD_PREFIX = "repro-serve"

    def __init__(self, config) -> None:
        self.config = config
        self.counters = Counters()
        self._listen: socket.socket | None = None
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._started = threading.Event()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self.draining = False
        self._t0 = time.monotonic()

    # ------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        assert self._listen is not None, "not started"
        return self._listen.getsockname()[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> None:
        """Bind, start the subclass's workers, then accept."""
        self._t0 = time.monotonic()
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((self.config.host, self.config.port))
        self._listen.listen(128)
        self._listen.settimeout(0.25)
        self._start_workers()
        self._spawn(self._accept_loop, "accept")
        self._started.set()

    def _start_workers(self) -> None:
        """Start the threads that run beside the accept loop."""

    def _spawn(self, target, name: str, *args) -> None:
        threading.Thread(target=target, args=args, daemon=True,
                         name=f"{self.THREAD_PREFIX}-{name}").start()

    def request_stop(self) -> None:
        """Begin a graceful drain (idempotent, signal-safe)."""
        self._stopping.set()

    def serve_forever(self, install_signals: bool = True) -> int:
        """Run until SIGTERM/SIGINT (or :meth:`request_stop`), drain,
        exit 0."""
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

    def stop(self) -> None:
        """Drain, then close every socket."""
        if self._stopped.is_set():
            return
        self._drain()
        self._close()

    def _drain(self) -> None:
        """Stop accepting, answer new work ``draining``, and wait up to
        ``drain_timeout_s`` for :meth:`_idle`."""
        self.request_stop()
        self.draining = True
        deadline = time.monotonic() + self.config.drain_timeout_s
        while time.monotonic() < deadline and not self._idle():
            time.sleep(0.05)

    def _idle(self) -> bool:
        """Whether nothing is left to drain."""
        with self._inflight_lock:
            return self._inflight == 0

    def _close(self) -> None:
        """Close the listener and every live connection, mid-flight or
        not (the socket teardown a drained stop and a hard kill share)."""
        self._stopping.set()
        self._stopped.set()
        if self._listen is not None:
            try:
                self._listen.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    def _status(self) -> str:
        return ("draining" if self.draining
                else "ready" if self._started.is_set() else "starting")

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
            self._spawn(self._connection_loop, "conn", conn)

    def _connection_loop(self, conn: socket.socket) -> None:
        buf = b""
        last_byte = time.monotonic()
        try:
            # replies leave as soon as they are written.  Under Nagle, a
            # reply written while the previous one is unacknowledged waits
            # for that ACK, which a delayed-ACK client sends only with its
            # next request: one late reply locks an open-loop client into
            # every reply coming a full request interval late.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(0.25)
            while not self._stopped.is_set():
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    now = time.monotonic()
                    if buf and now - last_byte > self.config.read_timeout_s:
                        # slow-loris: a partial request dribbling in
                        self.counters.inc("slowloris_reaped")
                        self._send(conn, error_response(
                            None, "invalid_request",
                            f"request incomplete after "
                            f"{self.config.read_timeout_s:.1f}s"))
                        return
                    if (not buf
                            and now - last_byte > self.config.idle_timeout_s):
                        return
                    continue
                if not chunk:
                    return  # peer closed (conn_drop lands here)
                last_byte = time.monotonic()
                # complete lines are answered before the next read, so
                # only the pending partial line (bounded by the cap) and
                # one read are ever buffered
                *lines, buf = (buf + chunk).split(b"\n")
                for line in lines:
                    if len(line) > MAX_LINE_BYTES:
                        return self._refuse_oversized(conn)
                    if line.strip():
                        self._handle_line(conn, line)
                if len(buf) > MAX_LINE_BYTES:
                    return self._refuse_oversized(conn)
        except OSError:
            pass  # reset by the peer, or closed by a stop or kill
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _refuse_oversized(self, conn: socket.socket) -> None:
        self.counters.inc("oversized_requests")
        self._send(conn, error_response(
            None, "invalid_request",
            f"request exceeds {MAX_LINE_BYTES} bytes"))

    def _handle_line(self, conn: socket.socket, line: bytes) -> None:
        """Answer one request line on ``conn``."""
        raise NotImplementedError

    def _send(self, conn: socket.socket, reply: dict | bytes) -> bool:
        """Write one response (a dict, or an already encoded line)."""
        try:
            conn.sendall(reply if isinstance(reply, bytes)
                         else encode_response(reply))
            return True
        except OSError:
            # the client vanished mid-reply; the answer was produced, so
            # this is the client's fault, not an unanswered request
            self.counters.inc("client_gone")
            return False

    def _enter(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def _exit(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1


def read_line(sock: socket.socket, deadline: float) -> bytes | None:
    """Read one ``\\n``-terminated line from ``sock`` by the monotonic
    ``deadline``, or ``None`` on EOF, error, timeout or an over-cap line.
    ``sock`` should carry a short timeout so the deadline is checked."""
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


class _Job:
    """One queued executor request plus its reply slot."""

    __slots__ = ("request", "done", "response")

    def __init__(self, request: Request) -> None:
        self.request = request
        self.done = threading.Event()
        self.response: dict | None = None

    def resolve(self, response: dict) -> None:
        self.response = response
        self.done.set()


class ReproServer(ConnectionCore):
    """The daemon: one runtime, many connections, bounded work."""

    def __init__(self, runtime: PredictorRuntime,
                 config: ServerConfig | None = None,
                 journal_root=None) -> None:
        super().__init__(config or ServerConfig())
        self.runtime = runtime
        self.journal_root = journal_root
        self.breakers = {
            route: CircuitBreaker(route, self.config.breaker,
                                  journal_root=journal_root)
            for route in ("predict", "whatif", "search")
        }
        tenancy = self.config.tenancy or TenancyConfig()
        self.admission = AdmissionController(tenancy,
                                             journal_root=journal_root)
        self.batcher = MicroBatcher(
            runtime, self.breakers["predict"],
            max_batch=self.config.max_batch,
            max_queue=self.config.max_batch_queue,
            weight_of=tenancy.weight_of,
            max_queued_of=tenancy.max_queued_of)
        self._exec_queue: FairQueue = FairQueue(
            max(1, self.config.max_queue),
            weight_of=tenancy.weight_of,
            max_queued_of=tenancy.max_queued_of)
        self.searches = Memo("serving.search",
                             "(model hash, mesh, schedule, candidates, "
                             "n_micro, generation)",
                             bound=SEARCH_CACHE_SIZE)
        self._consecutive_sheds = 0
        #: stable callable identity for the engine's persistent pool,
        #: rebound per model generation (see :meth:`_handle_search`)
        self._search_task = runtime.evaluate_candidate
        self._search_generation = runtime.generation
        self._search_lock = threading.Lock()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Bind, spawn the worker threads, and become ready."""
        from ..experiments.cache import global_cache

        append_event(self.journal_root, "serve_start", pid=os.getpid(),
                     runtime=self.runtime.describe())
        # startup hygiene: reap orphaned temp/lock files, surface any
        # quarantined shards (corrupted results must be visible, not
        # silently rebuilt behind the daemon's back)
        cache = global_cache()
        if cache.root is not None:
            reaped = cache.reap_stale()
            quarantined = [str(p) for p in cache.quarantined()]
            if reaped or quarantined:
                append_event(self.journal_root, "serve_hygiene",
                             reaped=reaped, quarantined=quarantined)
        super().start()
        append_event(self.journal_root, "serve_ready",
                     host=self.address[0], port=self.port)

    def _start_workers(self) -> None:
        self.batcher.start()
        for i in range(max(1, self.config.workers)):
            self._spawn(self._executor_loop, f"exec-{i}")
        if (self.config.reload_poll_s > 0
                and self.runtime.config.checkpoints):
            self._spawn(self._reload_loop, "reload")

    def stop(self) -> None:
        """Drain and shut down: refuse new work, finish in-flight."""
        if self._stopped.is_set():
            return
        append_event(self.journal_root, "serve_drain",
                     inflight=self._inflight,
                     exec_depth=self._exec_queue.qsize(),
                     batch_depth=self.batcher.depth)
        self._drain()
        self.batcher.stop()
        self._exec_queue.close()
        self._close()
        self.admission.journal_snapshot(self._queue_depths())
        append_event(self.journal_root, "serve_stop",
                     uptime_s=round(time.monotonic() - self._t0, 3),
                     counters=self.counters.snapshot())

    def _idle(self) -> bool:
        return (super()._idle() and self._exec_queue.empty()
                and self.batcher.depth == 0)

    def kill(self) -> None:
        """Hard stop *without* drain — the in-process stand-in for a
        replica crash (``replica_down`` chaos): the listener and every
        live connection drop mid-flight, exactly what the router's
        failover path must absorb."""
        self._close()
        self._exec_queue.close()
        self.batcher.stop(drain_timeout=1.0)

    # -------------------------------------------------------------- requests
    def _handle_line(self, conn: socket.socket, line: bytes) -> None:
        try:
            req = parse_request(line, self.config.default_deadline_ms)
        except ProtocolError as exc:
            self.counters.inc("bad_requests")
            self._send(conn, error_response(exc.req_id, exc.code,
                                            exc.message))
            return
        self.counters.inc("accepted")
        self.counters.inc(f"op_{req.op}")
        if req.op == "health":
            # liveness must work under overload and drain: inline, unqueued
            self._send(conn, ok_response(req, self._health(),
                                         served_by="server"))
            self.counters.inc("answered")
            return
        if self.draining:
            self.counters.inc("refused_draining")
            self._send(conn, error_response(
                req.id, "draining", "server is draining for shutdown",
                retry_after_ms=jittered_retry_ms(
                    1000.0, "draining", req.tenant, req.id,
                    self.counters.get("refused_draining"))))
            return
        retry = self.admission.admit(req.tenant, req.op, req.id)
        if retry is not None:
            self.counters.inc("rate_limited")
            self._send(conn, error_response(
                req.id, "rate_limited",
                f"tenant {req.tenant!r} is over budget",
                retry_after_ms=retry))
            return
        # gray-failure chaos: this replica answers health fast but
        # serves real work slowly (the router must fail over on the
        # request deadline, not the health check)
        slow = faults.check("replica_slow", self.config.replica_ordinal)
        if slow is not None:
            time.sleep(min(slow.secs, max(0.0, req.remaining()) + 0.1))
        self._enter()
        try:
            response = self._dispatch(req)
        except ProtocolError as exc:
            self.counters.inc("errors")
            response = error_response(req.id, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 - answer, never drop
            self.counters.inc("internal_errors")
            response = error_response(req.id, "internal",
                                      f"{type(exc).__name__}: {exc}")
        finally:
            self._exit()
            self.admission.release(req.tenant)
        self.counters.inc("answered")
        if not response.get("ok"):
            self.counters.inc("errors_answered")
        elif response.get("degraded"):
            self.counters.inc("degraded_answers")
        self._send(conn, response)

    # --------------------------------------------------------------- routing
    def _retry_after(self, depth: int, capacity: int) -> float:
        return self.config.retry_after_ms * (1.0 + depth / max(1, capacity))

    def _shed(self, req: Request, where: str, depth: int,
              capacity: int) -> dict:
        self.counters.inc("shed")
        self.admission.record_shed(req.tenant)
        self._consecutive_sheds += 1
        if (self._consecutive_sheds >= self.config.shed_trip
                and self.breakers["predict"].state == "closed"):
            # sustained saturation: flip predictions to the cheap
            # analytical path so the backlog can actually drain
            self.breakers["predict"].force_open(
                f"queue saturated ({self._consecutive_sheds} consecutive "
                f"sheds)")
        return error_response(
            req.id, "overloaded", f"{where} queue full",
            retry_after_ms=jittered_retry_ms(
                self._retry_after(depth, capacity), "shed", where,
                req.tenant, req.id, self.counters.get("shed")))

    def _dispatch(self, req: Request) -> dict:
        if req.expired:
            self.counters.inc("deadline_exceeded")
            return error_response(req.id, "deadline_exceeded",
                                  "deadline expired before execution")
        if req.op in ("predict", "predict_many"):
            graphs = self.runtime.resolve_graphs(req.params,
                                                 many=req.op == "predict_many")
            pending = _Pending(req, graphs)
            if not self.batcher.submit(pending):
                return self._shed(req, "prediction", self.batcher.depth,
                                  self.config.max_batch_queue)
            self._consecutive_sheds = 0
            response = pending.wait(max(0.0, req.remaining()) + 30.0)
            if response is None:  # pragma: no cover - batcher wedged
                return error_response(req.id, "internal",
                                      "prediction batch never completed")
            if not response.get("ok"):
                self.counters.inc("deadline_exceeded")
            return response
        # whatif / search go through the bounded fair executor queue
        job = _Job(req)
        if not self._exec_queue.put_nowait(req.tenant, job):
            return self._shed(req, "executor", self._exec_queue.qsize(),
                              self.config.max_queue)
        self._consecutive_sheds = 0
        response = job.done.wait(max(0.0, req.remaining()) + 60.0)
        if not response:  # pragma: no cover - executor wedged
            return error_response(req.id, "internal",
                                  "executor never completed the request")
        return job.response

    # -------------------------------------------------------------- executor
    def _executor_loop(self) -> None:
        while True:
            job = self._exec_queue.get(timeout=0.25)
            if job is None:
                if self._stopped.is_set():
                    return
                continue
            req = job.request
            try:
                if req.expired:
                    self.counters.inc("deadline_exceeded")
                    job.resolve(error_response(
                        req.id, "deadline_exceeded",
                        f"request expired after {req.deadline_ms:.0f} ms "
                        f"in queue"))
                elif req.op == "whatif":
                    job.resolve(self._handle_whatif(req))
                else:
                    job.resolve(self._handle_search(req))
            except ProtocolError as exc:
                job.resolve(error_response(req.id, exc.code, exc.message))
            except Exception as exc:  # noqa: BLE001 - answer, never drop
                self.counters.inc("internal_errors")
                job.resolve(error_response(
                    req.id, "internal", f"{type(exc).__name__}: {exc}"))

    def _handle_whatif(self, req: Request) -> dict:
        breaker = self.breakers["whatif"]
        use_model = breaker.allow_model()
        try:
            result, suspect, served_by = self.runtime.whatif(req.params,
                                                             use_model)
        except ProtocolError:
            raise
        except Exception as exc:  # noqa: BLE001 - degrade to analytical
            if use_model:
                breaker.record(False, f"{type(exc).__name__}: {exc}")
            result, _, served_by = self.runtime.whatif(req.params, False)
        else:
            if served_by == "model":
                breaker.record(suspect == 0,
                               f"{suspect} suspect verdict(s)"
                               if suspect else "")
        return ok_response(req, result, degraded=served_by != "model",
                           served_by=served_by)

    def _handle_search(self, req: Request) -> dict:
        from ..experiments.engine import supervised_map

        candidates = self.runtime.search_candidates(req.params)
        schedule = self.runtime.search_schedule(req.params)
        n_micro = self.runtime._int_param(req.params, "n_microbatches", 8, 1)
        # repeated what-if searches are common (dashboards, sweeps
        # re-asking the same question); the structural key makes them
        # O(1) instead of a supervised fan-out
        key = self.runtime.search_key(candidates, n_micro, schedule)
        cached = self.searches.lookup(key)
        if cached is not None:
            self.counters.inc("search_cache_hits")
            return ok_response(req, dict(cached["result"], cached=True),
                               degraded=cached["degraded"],
                               served_by=cached["served_by"])
        breaker = self.breakers["search"]
        use_model = breaker.allow_model()

        def _analytical_plan(partial: bool, note: str) -> dict:
            evals = [self.runtime.evaluate_candidate(
                (k, n_micro, schedule, False)) for k in candidates]
            best = min(evals, key=lambda d: d["iteration_latency_s"])
            return ok_response(req, {
                "best": best, "candidates": evals, "schedule": schedule,
                "n_microbatches": n_micro, "partial": partial,
                "failed_candidates": 0, "note": note,
            }, degraded=True, served_by="analytical")

        if not use_model:
            return _analytical_plan(False, "circuit breaker open")

        specs = [(k, n_micro, schedule, True) for k in candidates]
        remaining = req.remaining()
        if remaining <= 0:
            self.counters.inc("deadline_exceeded")
            return error_response(req.id, "deadline_exceeded",
                                  "deadline expired before the search ran")
        # candidates fan out under the supervisor: a hung or crashed
        # candidate is killed at its share of the deadline, retried, and
        # at worst dropped from the plan (partial answer, not a hang)
        per_cell = max(0.2, remaining * 0.8 / len(specs))
        with self._search_lock:
            if self._search_generation != self.runtime.generation:
                # workers keep the ensemble they forked with; a fresh
                # callable restarts the pool on the reloaded model
                self._search_task = self.runtime.evaluate_candidate
                self._search_generation = self.runtime.generation
            outcome = supervised_map(
                self._search_task, specs,
                jobs=min(2, len(specs)),
                timeout=per_cell,
                retries=self.config.search_retries,
                backoff=0.01,
                labels=[f"serve/search/k{k}" for k in candidates],
                manifest_root=self.journal_root,
                run_id=f"serve-{os.getpid()}")
        completed = [r for r in outcome.results if r is not None]
        failed = len(outcome.failures)
        breaker.record(
            failed == 0,
            "; ".join(f"{f.label}: {f.failure_class}"
                      for f in outcome.failures[:3]))
        if not completed:
            return _analytical_plan(True,
                                    "every candidate failed under the "
                                    "deadline; analytical fallback")
        best = min(completed, key=lambda d: d["iteration_latency_s"])
        degraded = any(r["served_by"] != "model" for r in completed)
        result = {
            "best": best, "candidates": completed, "schedule": schedule,
            "n_microbatches": n_micro, "partial": failed > 0,
            "failed_candidates": failed,
        }
        served_by = "model" if not degraded else "analytical"
        if failed == 0 and not degraded:
            # only complete, undegraded answers are worth replaying; a
            # reload bumps the runtime generation and thus the key
            self.searches.put(key, {"result": result, "degraded": degraded,
                                    "served_by": served_by})
        return ok_response(req, result, degraded=degraded,
                           served_by=served_by)

    # ---------------------------------------------------------------- health
    def _queue_depths(self) -> dict[str, dict[str, int]]:
        return {"executor": self._exec_queue.depths(),
                "batcher": self.batcher.depths()}

    def _health(self) -> dict:
        status = self._status()
        return {
            "status": status,
            "ready": status == "ready",
            "live": True,
            "pid": os.getpid(),
            "protocol_version": PROTOCOL_VERSION,
            "replica_ordinal": self.config.replica_ordinal,
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "queue": {
                "executor_depth": self._exec_queue.qsize(),
                "executor_capacity": self.config.max_queue,
                "batch_depth": self.batcher.depth,
                "batch_capacity": self.config.max_batch_queue,
            },
            "tenancy": {
                "limited": self.admission.limited,
                "tenants": self.admission.snapshot(),
                "queues": self._queue_depths(),
            },
            "batcher": {"batches": self.batcher.batches,
                        "coalesced": self.batcher.coalesced},
            "breakers": {route: b.snapshot()
                         for route, b in self.breakers.items()},
            "counters": self.counters.snapshot(),
            "caches": {**snapshot(),
                       **{m.name: m.describe() for m in (
                           self.searches, self.runtime.profiler.graphs)}},
            "gc": gc_snapshot(),
            "runtime": self.runtime.describe(),
        }

    # --------------------------------------------------------------- reload
    def _checkpoint_stamp(self) -> tuple:
        stamps = []
        for path in self.runtime.config.checkpoints:
            try:
                st = os.stat(path)
                stamps.append((path, st.st_mtime_ns, st.st_size))
            except OSError:
                stamps.append((path, None, None))
        return tuple(stamps)

    def _reload_loop(self) -> None:
        last = self._checkpoint_stamp()
        while not self._stopping.is_set():
            time.sleep(self.config.reload_poll_s)
            current = self._checkpoint_stamp()
            if current == last:
                continue
            try:
                self.runtime.reload(self.runtime.config.checkpoints)
            except Exception as exc:  # noqa: BLE001 - keep the old model
                self.counters.inc("reload_failed")
                append_event(self.journal_root, "reload_failed",
                             detail=f"{type(exc).__name__}: {exc}")
            else:
                self.counters.inc("reloads")
                append_event(self.journal_root, "reload",
                             checkpoints=list(
                                 self.runtime.config.checkpoints))
            last = current
