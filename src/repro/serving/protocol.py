"""JSON-lines wire protocol of the PredTOP serving daemon (v2).

One request per line, one response per line, UTF-8 JSON.  Requests::

    {"id": "c3-17", "op": "predict", "deadline_ms": 500,
     "tenant": "team-a", "params": {"slice": [0, 2]}}

``op`` is required; ``id`` (echoed back verbatim), ``deadline_ms``, and
``tenant`` are optional.  ``tenant`` is v2's only addition: the client
identity admission control budgets against.  An absent (or empty)
tenant means the ``"default"`` class, so v1 clients keep working
unchanged; an *unknown* tenant name is not an error — it is budgeted
under the default policy.  Responses are correlated by ``id`` — the
daemon may answer pipelined requests out of order.  Success::

    {"id": "c3-17", "ok": true, "op": "predict", "degraded": false,
     "served_by": "model", "t_ms": 3.1, "result": {...}}

Failure (always a *response*, never a dropped connection)::

    {"id": "c3-17", "ok": false,
     "error": {"code": "overloaded", "message": "..."},
     "retry_after_ms": 50}

``degraded: true`` marks an answer produced by the analytical fallback
path (circuit breaker open, model unusable, or search timeout) — still a
correct physically-bounded estimate, just not a learned one.

Error codes (:data:`ERROR_CODES`): ``invalid_request`` (not JSON / not
an object / bad field types), ``unknown_op``, ``bad_params``,
``overloaded`` (load shed — carries ``retry_after_ms``),
``rate_limited`` (the tenant is over its token-bucket or
concurrent-work budget — carries ``retry_after_ms``),
``deadline_exceeded``, ``draining`` (graceful shutdown in progress —
carries ``retry_after_ms``), and ``internal``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

from .tenancy import DEFAULT_TENANT, TENANT_NAME_MAX

#: wire-protocol revision (v2 added ``tenant``); served under ``health``
PROTOCOL_VERSION = 2

#: operations the daemon answers
OPS = ("predict", "predict_many", "whatif", "search", "health")

#: one-line description per op (``repro info`` lists these)
OP_SUMMARIES = {
    "predict": "guarded latency prediction for one stage slice or graph",
    "predict_many": "batched predictions for many slices/graphs at once",
    "whatif": "predicted iteration latency across pipeline schedules",
    "search": "pipeline-depth plan search under the request deadline",
    "health": "readiness/liveness, queue depth, breaker states, counters, "
              "memo tiers",
}

ERROR_CODES = ("invalid_request", "unknown_op", "bad_params", "overloaded",
               "rate_limited", "deadline_exceeded", "draining", "internal")

#: hard cap on one request line (a 1 MiB graph is already enormous)
MAX_LINE_BYTES = 1 << 20

#: ceiling on client-supplied deadlines
MAX_DEADLINE_MS = 300_000.0


class ProtocolError(ValueError):
    """A request the daemon must answer with an error response.

    ``req_id`` carries the request's ``id`` when the line parsed far
    enough to extract one, so even rejections stay correlatable on a
    pipelined connection.
    """

    def __init__(self, code: str, message: str, req_id: Any = None) -> None:
        assert code in ERROR_CODES
        super().__init__(message)
        self.code = code
        self.message = message
        self.req_id = req_id


@dataclass
class Request:
    """One parsed, validated request."""

    op: str
    id: Any = None
    params: dict[str, Any] = field(default_factory=dict)
    deadline_ms: float = 0.0
    #: admission-control identity (v2; absent on the wire ⇒ "default")
    tenant: str = DEFAULT_TENANT
    #: monotonic admission / expiry instants, stamped by the parser
    received: float = 0.0
    deadline: float = float("inf")

    def remaining(self, now: float | None = None) -> float:
        """Seconds of budget left (negative once expired)."""
        return self.deadline - (time.monotonic() if now is None else now)

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


def parse_request(line: str | bytes,
                  default_deadline_ms: float = 30_000.0) -> Request:
    """Parse one wire line into a :class:`Request` (raises
    :class:`ProtocolError` on anything malformed)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("invalid_request",
                                "request is not valid UTF-8") from None
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("invalid_request",
                            f"request is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("invalid_request",
                            "request must be a JSON object")
    req_id = data.get("id")
    op = data.get("op")
    if not isinstance(op, str):
        raise ProtocolError("invalid_request",
                            "request needs a string 'op' field", req_id)
    if op not in OPS:
        raise ProtocolError("unknown_op",
                            f"unknown op {op!r}; known: {', '.join(OPS)}",
                            req_id)
    params = data.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ProtocolError("bad_params", "'params' must be an object",
                            req_id)
    deadline_ms = data.get("deadline_ms", default_deadline_ms)
    if not isinstance(deadline_ms, (int, float)) or isinstance(deadline_ms,
                                                              bool):
        raise ProtocolError("invalid_request",
                            "'deadline_ms' must be a number", req_id)
    deadline_ms = min(max(1.0, float(deadline_ms)), MAX_DEADLINE_MS)
    tenant = data.get("tenant", DEFAULT_TENANT)
    if tenant is None:
        tenant = DEFAULT_TENANT
    if not isinstance(tenant, str):
        raise ProtocolError("invalid_request",
                            "'tenant' must be a string", req_id)
    tenant = tenant.strip() or DEFAULT_TENANT
    if len(tenant) > TENANT_NAME_MAX:
        raise ProtocolError("invalid_request",
                            f"'tenant' exceeds {TENANT_NAME_MAX} chars",
                            req_id)
    now = time.monotonic()
    return Request(op=op, id=req_id, params=params,
                   deadline_ms=deadline_ms, tenant=tenant, received=now,
                   deadline=now + deadline_ms / 1000.0)


# ------------------------------------------------------------- responses
def ok_response(req: Request, result: dict[str, Any], *,
                degraded: bool = False, served_by: str = "model",
                ) -> dict[str, Any]:
    return {
        "id": req.id, "ok": True, "op": req.op,
        "degraded": bool(degraded), "served_by": served_by,
        "t_ms": round((time.monotonic() - req.received) * 1e3, 3),
        "result": result,
    }


def error_response(req_id: Any, code: str, message: str, *,
                   retry_after_ms: float | None = None) -> dict[str, Any]:
    assert code in ERROR_CODES
    out: dict[str, Any] = {
        "id": req_id, "ok": False,
        "error": {"code": code, "message": message},
    }
    if retry_after_ms is not None:
        out["retry_after_ms"] = round(float(retry_after_ms), 1)
    return out


def encode_response(response: dict[str, Any]) -> bytes:
    """One response object → one wire line."""
    return (json.dumps(response, sort_keys=True,
                       default=_json_default) + "\n").encode("utf-8")


def _json_default(obj: Any):
    # numpy scalars and other number-likes leak into results easily;
    # render them instead of crashing the response writer
    for attr in ("item",):
        fn = getattr(obj, attr, None)
        if callable(fn):
            return fn()
    return str(obj)
