"""Multi-tenant admission control and fair queueing (protocol v2).

One daemon serves many callers, and callers are not equal: an Alpa-style
``search`` sweep is orders of magnitude heavier than a single
``predict``, so one tenant's search storm can starve every other
caller's cheap traffic.  This module gives the daemon the three tools it
needs to stop that:

* **tenant policies** (:class:`TenantPolicy`) — per-tenant token-bucket
  rate limits (with per-op token costs, so a ``search`` can drain a
  bucket a ``predict`` barely dents), concurrent-work budgets, queue
  caps, and a fair-queueing weight; loaded from a ``tenants.json``
  (``repro serve --tenants``), whose ``"default"`` entry sets the
  class every other entry and every unknown tenant starts from;
* **admission control** (:class:`AdmissionController`) — over-budget
  requests are answered ``rate_limited`` with a jittered
  ``retry_after_ms`` hint *before* they touch any queue, so a flooding
  tenant costs one inline bucket check, not queue slots or model time;
* **fair queueing** (:class:`FairQueue`) — deficit-weighted round-robin
  across tenants replaces the global FIFO in front of the micro-batcher
  and the whatif/search executor: a tenant with a deep backlog is served
  its fair share per round, and a one-request tenant is served within
  one round instead of behind the whole backlog.

Requests that carry no ``tenant`` field (protocol v1 clients) land in
the :data:`DEFAULT_TENANT` class, and with no configured policies every
budget is unlimited and the fair queue degenerates to the old global
FIFO — so a daemon booted without ``--tenants`` behaves exactly like the
single-tenant daemon it replaces.

Retry hints are *deterministically jittered* (:func:`jittered_retry_ms`:
a pure hash of the responding site and request identity spreads hints
across [0.75, 1.25)x the base), so a fleet of shed clients does not
retry in lockstep and re-saturate the queue it was just shed from.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

#: tenant class of requests that carry no ``tenant`` field (v1 clients)
DEFAULT_TENANT = "default"

#: hard cap on a tenant name (hostile input must get a typed error)
TENANT_NAME_MAX = 64

#: default per-op token costs (a search is ~an order heavier than a
#: predict; whatif fans one prediction batch per stage partition)
DEFAULT_OP_COSTS = {"predict": 1, "predict_many": 2, "whatif": 2,
                    "search": 8, "health": 0}

_POLICY_KEYS = ("rate", "burst", "max_inflight", "max_queued", "weight",
                "op_costs")


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's budgets.  Zero means *unlimited* everywhere, so the
    all-defaults policy admits everything (the v1 daemon's behavior)."""

    #: token-bucket refill in tokens/second (0 = unlimited)
    rate: float = 0.0
    #: bucket capacity in tokens (0 = max(1, ceil(rate)))
    burst: float = 0.0
    #: admitted-but-unanswered requests allowed at once (0 = unlimited)
    max_inflight: int = 0
    #: requests one tenant may hold in any single queue (0 = unlimited)
    max_queued: int = 0
    #: deficit-round-robin weight (items served per fair-queue round)
    weight: int = 1
    #: per-op token costs overriding :data:`DEFAULT_OP_COSTS`
    op_costs: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rate < 0 or self.burst < 0:
            raise ValueError("rate/burst must be >= 0")
        if self.max_inflight < 0 or self.max_queued < 0:
            raise ValueError("max_inflight/max_queued must be >= 0")
        if self.weight < 1:
            raise ValueError("weight must be >= 1")

    def op_cost(self, op: str) -> int:
        cost = self.op_costs.get(op)
        if cost is None:
            cost = DEFAULT_OP_COSTS.get(op, 1)
        return max(0, int(cost))


def _parse_policy(name: str, data: Mapping[str, Any],
                  base: TenantPolicy) -> TenantPolicy:
    if not isinstance(data, Mapping):
        raise ValueError(f"tenant {name!r}: policy must be an object")
    unknown = sorted(set(data) - set(_POLICY_KEYS))
    if unknown:
        raise ValueError(f"tenant {name!r}: unknown policy key(s) "
                         f"{', '.join(unknown)}; known: "
                         f"{', '.join(_POLICY_KEYS)}")
    op_costs = data.get("op_costs", base.op_costs)
    if not isinstance(op_costs, Mapping):
        raise ValueError(f"tenant {name!r}: op_costs must be an object")
    try:
        return TenantPolicy(
            rate=float(data.get("rate", base.rate)),
            burst=float(data.get("burst", base.burst)),
            max_inflight=int(data.get("max_inflight", base.max_inflight)),
            max_queued=int(data.get("max_queued", base.max_queued)),
            weight=int(data.get("weight", base.weight)),
            op_costs=dict(op_costs))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"tenant {name!r}: {exc}") from None


@dataclass(frozen=True)
class TenancyConfig:
    """The daemon's tenant table: named policies plus the default class
    (which also covers *unknown* tenants — an unrecognized name is a
    budget decision, not a protocol error)."""

    policies: Mapping[str, TenantPolicy] = field(default_factory=dict)
    default: TenantPolicy = field(default_factory=TenantPolicy)

    def policy(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default)

    def weight_of(self, tenant: str) -> int:
        return self.policy(tenant).weight

    def max_queued_of(self, tenant: str) -> int:
        return self.policy(tenant).max_queued

    @classmethod
    def load(cls, path: str | os.PathLike) -> "TenancyConfig":
        """Parse a ``tenants.json``: ``{"<tenant>": {"rate": ...,
        "burst": ..., "max_inflight": ..., "max_queued": ...,
        "weight": ..., "op_costs": {"search": 8}}, ...}``.  A
        ``"default"`` entry re-bases the class unknown tenants fall
        into; every omitted field inherits that class's value (without
        one, the unlimited :class:`TenantPolicy` defaults)."""
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: top level must be an object mapping "
                             f"tenant names to policies")
        default = TenantPolicy()
        if DEFAULT_TENANT in data:
            default = _parse_policy(DEFAULT_TENANT, data[DEFAULT_TENANT],
                                    default)
        policies = {}
        for name, policy in data.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"{path}: tenant names must be non-empty "
                                 f"strings")
            if len(name) > TENANT_NAME_MAX:
                raise ValueError(f"{path}: tenant name {name[:16]!r}... "
                                 f"exceeds {TENANT_NAME_MAX} chars")
            policies[name] = _parse_policy(name, policy, default)
        return cls(policies=policies, default=default)


# ------------------------------------------------------------------ jitter
def _unit_hash(token: str) -> float:
    """Stable hash of ``token`` into [0, 1)."""
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def jittered_retry_ms(base_ms: float, *key: Any) -> float:
    """``base_ms`` spread deterministically across [0.75, 1.25)x.

    The jitter is a pure function of ``key`` (site + tenant + request
    identity), so a rerun reproduces it exactly while distinct shed
    requests land at distinct instants instead of stampeding back in
    lockstep at exactly ``retry_after_ms``.
    """
    frac = _unit_hash("/".join(str(part) for part in key))
    return round(max(1.0, float(base_ms)) * (0.75 + 0.5 * frac), 1)


# ------------------------------------------------------------ token bucket
class TokenBucket:
    """Thread-safe token bucket on a monotonic clock.

    ``take(cost)`` returns ``0.0`` on success or the seconds until
    enough tokens will have refilled (the caller turns that into a
    ``retry_after_ms`` hint).  ``rate == 0`` means unlimited.
    """

    def __init__(self, rate: float, burst: float = 0.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.rate = float(rate)
        self.capacity = (float(burst) if burst > 0
                         else max(1.0, math.ceil(self.rate)))
        self._clock = clock
        self._tokens = self.capacity
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)

    def take(self, cost: float = 1.0) -> float:
        if self.rate <= 0 or cost <= 0:
            return 0.0
        with self._lock:
            now = self._clock()
            self._refill(now)
            # a cost above capacity charges a full bucket (it could
            # never accumulate more, so it must not pass for free)
            eff = min(cost, self.capacity)
            if self._tokens >= eff:
                self._tokens -= eff
                return 0.0
            return (eff - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


# --------------------------------------------------------------- admission
class TenantState:
    """One tenant's live accounting (bucket, in-flight gauge, counters)."""

    __slots__ = ("name", "policy", "bucket", "inflight", "counters", "lock")

    def __init__(self, name: str, policy: TenantPolicy,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.name = name
        self.policy = policy
        self.bucket = TokenBucket(policy.rate, policy.burst, clock)
        self.inflight = 0
        self.counters = {"admitted": 0, "answered": 0, "rate_limited": 0,
                         "over_concurrency": 0, "shed": 0}
        self.lock = threading.Lock()


class AdmissionController:
    """Per-tenant budgets enforced *before* any queue is touched.

    ``admit`` answers with a jittered ``retry_after_ms`` for an
    over-budget request (token bucket empty or concurrent-work budget
    full) and ``None`` for an admitted one; every admitted request must
    be paired with exactly one ``release``.  The first rate-limit per
    tenant is journaled (event ``rate_limited``); full per-tenant
    counters travel in the ``tenancy`` snapshot the server journals at
    drain time and serves under ``health``.
    """

    def __init__(self, config: TenancyConfig | None = None,
                 journal_root=None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or TenancyConfig()
        self.journal_root = journal_root
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantState] = {}

    def state(self, tenant: str) -> TenantState:
        with self._lock:
            st = self._tenants.get(tenant)
            if st is None:
                st = self._tenants[tenant] = TenantState(
                    tenant, self.config.policy(tenant), self._clock)
            return st

    def admit(self, tenant: str, op: str,
              req_id: Any = None) -> float | None:
        """``None`` = admitted (in-flight incremented); else the
        ``retry_after_ms`` the rejection must carry."""
        from ..experiments.manifest import append_event

        st = self.state(tenant)
        policy = st.policy
        with st.lock:
            if (policy.max_inflight > 0
                    and st.inflight >= policy.max_inflight):
                st.counters["over_concurrency"] += 1
                first = st.counters["over_concurrency"] == 1
                retry = jittered_retry_ms(50.0, "concurrency", tenant,
                                          req_id, st.counters["over_concurrency"])
                if first:
                    append_event(self.journal_root, "rate_limited",
                                 tenant=tenant, cause="concurrency", op=op)
                return retry
            wait_s = st.bucket.take(policy.op_cost(op))
            if wait_s > 0.0:
                st.counters["rate_limited"] += 1
                first = st.counters["rate_limited"] == 1
                retry = jittered_retry_ms(max(1.0, wait_s * 1e3), "rate",
                                          tenant, req_id,
                                          st.counters["rate_limited"])
                if first:
                    append_event(self.journal_root, "rate_limited",
                                 tenant=tenant, cause="rate", op=op)
                return retry
            st.inflight += 1
            st.counters["admitted"] += 1
            return None

    def release(self, tenant: str) -> None:
        st = self.state(tenant)
        with st.lock:
            st.inflight = max(0, st.inflight - 1)
            st.counters["answered"] += 1

    def record_shed(self, tenant: str) -> None:
        st = self.state(tenant)
        with st.lock:
            st.counters["shed"] += 1

    @property
    def limited(self) -> bool:
        """Does any known tenant carry a finite budget?"""
        pols = [self.config.default, *self.config.policies.values()]
        return any(p.rate > 0 or p.max_inflight > 0 or p.max_queued > 0
                   for p in pols)

    def snapshot(self) -> dict[str, dict]:
        """Per-tenant gauges + counters (health endpoint / journal)."""
        with self._lock:
            tenants = list(self._tenants.values())
        out = {}
        for st in sorted(tenants, key=lambda s: s.name):
            with st.lock:
                out[st.name] = {"inflight": st.inflight, **st.counters}
        return out

    def journal_snapshot(self, queues: Mapping[str, Mapping[str, int]]
                         | None = None) -> None:
        """One ``tenancy`` journal line: counters + live queue depths."""
        from ..experiments.manifest import append_event

        snap = self.snapshot()
        if not snap and not queues:
            return
        append_event(self.journal_root, "tenancy", tenants=snap,
                     queues={k: dict(v) for k, v in (queues or {}).items()})


# ------------------------------------------------------------- fair queue
class FairQueue:
    """Bounded deficit-weighted round-robin queue across tenants.

    Each tenant owns a FIFO lane; ``get`` serves lanes round-robin,
    ``weight_of(tenant)`` items per visit (deficit round robin with unit
    cost), so a tenant with 500 queued requests cannot delay another
    tenant's single request past one round.  With a single active tenant
    the queue degenerates to the plain bounded FIFO it replaced —
    byte-identical service order for v1 traffic.

    ``put_nowait`` refuses (returns ``False``) when the *global*
    capacity is reached or the tenant's own ``max_queued_of`` cap is —
    the caller sheds exactly as it did with ``queue.Queue.Full``.
    ``close()`` stops admissions; pending items drain, then ``get``
    returns ``None``.
    """

    def __init__(self, maxsize: int,
                 weight_of: Callable[[str], int] | None = None,
                 max_queued_of: Callable[[str], int] | None = None) -> None:
        self.maxsize = max(1, maxsize)
        self._weight_of = weight_of or (lambda tenant: 1)
        self._max_queued_of = max_queued_of or (lambda tenant: 0)
        self._lanes: dict[str, deque] = {}
        #: tenants with queued items, in service rotation order
        self._active: deque[str] = deque()
        self._deficit: dict[str, int] = {}
        self._size = 0
        self._closed = False
        self._cond = threading.Condition()

    # ------------------------------------------------------------- admission
    def put_nowait(self, tenant: str, item: Any) -> bool:
        with self._cond:
            if self._closed or self._size >= self.maxsize:
                return False
            lane = self._lanes.get(tenant)
            cap = self._max_queued_of(tenant)
            if cap > 0 and lane is not None and len(lane) >= cap:
                return False
            if lane is None:
                lane = self._lanes[tenant] = deque()
            if not lane:
                self._active.append(tenant)
                self._deficit[tenant] = 0
            lane.append(item)
            self._size += 1
            self._cond.notify()
            return True

    # --------------------------------------------------------------- service
    def _pop_next(self) -> Any:
        """DWRR: serve the head-of-rotation tenant until its per-round
        deficit is spent, then rotate.  Caller holds the lock and has
        checked ``self._size > 0``."""
        while True:
            tenant = self._active[0]
            lane = self._lanes[tenant]
            if not lane:  # pragma: no cover - drained lanes leave _active
                self._active.popleft()
                self._deficit[tenant] = 0
                continue
            if self._deficit[tenant] <= 0:
                self._deficit[tenant] = max(1, self._weight_of(tenant))
            item = lane.popleft()
            self._size -= 1
            self._deficit[tenant] -= 1
            if not lane:
                self._active.popleft()
                self._deficit[tenant] = 0
            elif self._deficit[tenant] <= 0:
                self._active.rotate(-1)
            return item

    def get(self, timeout: float | None = None) -> Any:
        """Next item under DWRR; ``None`` on timeout or closed-and-empty."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            while self._size == 0:
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if self._size == 0:
                            return None
            return self._pop_next()

    def get_nowait(self) -> Any:
        with self._cond:
            if self._size == 0:
                return None
            return self._pop_next()

    def close(self) -> None:
        """Refuse new items; queued ones drain, then ``get`` → ``None``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ----------------------------------------------------------- inspection
    def qsize(self) -> int:
        with self._cond:
            return self._size

    def empty(self) -> bool:
        return self.qsize() == 0

    def depths(self) -> dict[str, int]:
        """Live per-tenant queue depths (health / journal)."""
        with self._cond:
            return {tenant: len(lane)
                    for tenant, lane in sorted(self._lanes.items()) if lane}
