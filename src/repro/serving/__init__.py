"""Resilient PredTOP serving daemon (``repro serve``).

The package layers, bottom up:

* :mod:`.protocol` — the JSON-lines wire format and its validation;
* :mod:`.breaker` — per-route circuit breakers over the trust layer;
* :mod:`.tenancy` — per-tenant admission budgets and fair queueing;
* :mod:`.runtime` — the loaded-once predictor state every thread shares;
* :mod:`.batcher` — the micro-batcher coalescing predictions;
* :mod:`.server` — the one connection core (listener, accept loop,
  framing, slow-loris/idle/size defences, drain), and the daemon on it:
  admission control, deadlines, lifecycle;
* :mod:`.router` — the consistent-hash failover front-end over replicas,
  on the same connection core, so its hostile-client defences are the
  daemon's.
"""

from .breaker import BreakerConfig, CircuitBreaker
from .protocol import (ERROR_CODES, MAX_LINE_BYTES, OP_SUMMARIES, OPS,
                       PROTOCOL_VERSION, ProtocolError, Request,
                       encode_response, error_response, ok_response,
                       parse_request)
from .router import HashRing, ReproRouter, RouterConfig, request_hash
from .runtime import PredictorRuntime, RuntimeConfig
from .server import ReproServer, ServerConfig
from .tenancy import (DEFAULT_TENANT, AdmissionController, FairQueue,
                      TenancyConfig, TenantPolicy, TokenBucket,
                      jittered_retry_ms)

__all__ = [
    "BreakerConfig", "CircuitBreaker",
    "ERROR_CODES", "MAX_LINE_BYTES", "OP_SUMMARIES", "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError", "Request", "encode_response", "error_response",
    "ok_response", "parse_request",
    "HashRing", "ReproRouter", "RouterConfig", "request_hash",
    "PredictorRuntime", "RuntimeConfig",
    "ReproServer", "ServerConfig",
    "DEFAULT_TENANT", "AdmissionController", "FairQueue",
    "TenancyConfig", "TenantPolicy", "TokenBucket", "jittered_retry_ms",
]
