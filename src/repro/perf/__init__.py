"""Performance instrumentation and the serving load test.

``repro.perf.timing`` provides scoped wall-clock timers and counters with
percentile summaries; ``repro.perf.servebench`` drives a deterministic
synthetic-client fleet against the serving daemon (chaos-aware via
``REPRO_FAULTS``) and emits ``BENCH_serve.json`` (``repro bench serve``).
Offline search and serving are timed end to end and per layer by the
repository benchmark, ``perfbench/``.
"""

from .timing import PerfRecorder, TimingStats, percentile
from .servebench import run_noisy_neighbor_bench, run_serve_bench

__all__ = ["PerfRecorder", "TimingStats", "percentile",
           "run_noisy_neighbor_bench", "run_serve_bench"]
