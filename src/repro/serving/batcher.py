"""Micro-batcher: coalesce in-flight predictions into one model call.

Single-graph ``predict`` requests dominate serving traffic, and the
ensemble's :meth:`predict_many` amortizes batch construction across
graphs.  The batcher exploits that: connection threads enqueue pending
predictions into a bounded queue, and one batcher thread answers them
from guarded model calls.  It is **work-conserving**: it never holds a
request back to wait for company.  A lone request goes straight to the
model; requests that queue while a model call runs share the next
batch, up to ``max_batch`` graphs.

Robustness contract:

* the queue is **bounded and fair** — a full queue (globally, or one
  tenant's ``max_queued`` lane cap) rejects the submit and the server
  sheds the request with ``retry_after`` (never a silent drop); across
  tenants the queue serves deficit-weighted round-robin
  (:class:`~repro.serving.tenancy.FairQueue`), so one tenant's backlog
  cannot delay another tenant's single request past one round;
* every dequeued request is **always answered** — expired ones with
  ``deadline_exceeded``, the rest from the model path, the analytical
  path (breaker open), or the analytical path again when the model call
  itself throws mid-batch (the throw is also reported to the breaker);
* model-path outcomes feed the route's circuit breaker, so a poisoned
  predictor degrades the route instead of failing every batch forever.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from .breaker import CircuitBreaker
from .protocol import Request, error_response, ok_response
from .runtime import PredictorRuntime
from .tenancy import FairQueue


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


@dataclass
class _Pending:
    """One enqueued prediction awaiting its batch."""

    request: Request
    graphs: list
    done: threading.Event = field(default_factory=threading.Event)
    response: dict | None = None

    def resolve(self, response: dict[str, Any]) -> None:
        self.response = response
        self.done.set()

    def wait(self, timeout: float) -> dict[str, Any] | None:
        if self.done.wait(timeout):
            return self.response
        return None


class MicroBatcher:
    """The coalescing thread plus its bounded admission queue."""

    def __init__(
        self,
        runtime: PredictorRuntime,
        breaker: CircuitBreaker,
        *,
        max_batch: int = 32,
        max_queue: int = 256,
        weight_of: Callable[[str], int] | None = None,
        max_queued_of: Callable[[str], int] | None = None,
    ) -> None:
        self.runtime = runtime
        self.breaker = breaker
        self.max_batch = max(1, max_batch)
        self._queue: FairQueue = FairQueue(
            max(1, max_queue), weight_of=weight_of,
            max_queued_of=max_queued_of)
        self.batches = 0
        self.coalesced = 0
        #: answers by ``served_by``, and the trust verdict of each
        #: prediction in them (``analytical`` on the degraded path)
        self.served = Counters()
        self.verdicts = Counters()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-batcher",
                                        daemon=True)
        self._stopped = threading.Event()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        self._thread.start()

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Stop after answering everything already queued."""
        self._stopped.set()
        self._queue.close()
        self._thread.join(timeout=drain_timeout)

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    def depths(self) -> dict[str, int]:
        """Per-tenant queue depths (health endpoint / journal)."""
        return self._queue.depths()

    # ------------------------------------------------------------ admission
    def submit(self, pending: _Pending) -> bool:
        """Enqueue one prediction; ``False`` = full, caller must shed."""
        if self._stopped.is_set():
            return False
        return self._queue.put_nowait(pending.request.tenant, pending)

    # ------------------------------------------------------------- the loop
    def _collect(self) -> list[_Pending]:
        """Block for one item, then take only what is already queued."""
        first = self._queue.get(timeout=0.25)
        if first is None:
            return []
        batch = [first]
        total_graphs = len(first.graphs)
        while total_graphs < self.max_batch:
            item = self._queue.get_nowait()
            if item is None:
                break
            batch.append(item)
            total_graphs += len(item.graphs)
        return batch

    def _loop(self) -> None:
        while not (self._stopped.is_set() and self._queue.empty()):
            batch = self._collect()
            if not batch:
                continue
            self._execute(batch)
        # answer anything that raced the close
        leftovers = []
        while True:
            item = self._queue.get_nowait()
            if item is None:
                break
            leftovers.append(item)
        if leftovers:
            self._execute(leftovers)

    def _execute(self, batch: list[_Pending]) -> None:
        live: list[_Pending] = []
        for item in batch:
            if item.request.expired:
                item.resolve(error_response(
                    item.request.id, "deadline_exceeded",
                    f"request expired after "
                    f"{item.request.deadline_ms:.0f} ms in queue"))
            else:
                live.append(item)
        if not live:
            return
        self.batches += 1
        self.coalesced += len(live)
        graphs = [g for item in live for g in item.graphs]
        use_model = self.breaker.allow_model()
        try:
            results, suspect, served_by = self.runtime.predict_batch(
                graphs, use_model)
        except Exception as exc:  # noqa: BLE001 - degrade, never drop
            self.breaker.record(False,
                                f"{type(exc).__name__}: {exc}")
            results, _, served_by = self.runtime.predict_batch(
                graphs, use_model=False)
            suspect = 0
        else:
            if served_by == "model":
                self.breaker.record(suspect == 0,
                                    f"{suspect} suspect verdict(s)"
                                    if suspect else "")
        degraded = served_by != "model"
        self.served.inc(served_by, len(live))
        for result in results:
            self.verdicts.inc(result["verdict"])
        cursor = 0
        for item in live:
            chunk = results[cursor:cursor + len(item.graphs)]
            cursor += len(item.graphs)
            payload = ({"predictions": chunk}
                       if item.request.op == "predict_many"
                       else chunk[0])
            item.resolve(ok_response(item.request, payload,
                                     degraded=degraded, served_by=served_by))
