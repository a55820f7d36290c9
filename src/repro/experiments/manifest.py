"""Run-manifest journal: append-only observability for chaos runs.

Every supervised grid run journals its cell attempts, failures, retries,
cache-shard quarantines, and final accounting to
``<cache root>/manifest.jsonl`` — one JSON object per line, appended
with a single ``O_APPEND`` write so concurrent workers never interleave
partial lines (events are far below ``PIPE_BUF``).  The journal is the
flight recorder the acceptance criteria read back: which cells faulted,
with what failure class, and how many attempts each took.

A long-lived daemon journals continuously, so the file rotates by size:
once ``manifest.jsonl`` passes ``REPRO_MANIFEST_MAX_BYTES`` (default
2 MiB) it is renamed to ``manifest.jsonl.1`` (older generations shift to
``.2`` … up to ``REPRO_MANIFEST_KEEP``, default 3, then fall off) and a
fresh journal starts.  Readers walk the generations oldest-first, so
``repro bench report`` sees one continuous history.

Surfaced via ``python -m repro bench report``.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path
from typing import Any

from ..env import env_setting

MANIFEST_NAME = "manifest.jsonl"

#: rotation threshold / retained generations (env-overridable)
DEFAULT_MAX_BYTES = 2 * 1024 * 1024
DEFAULT_KEEP = 3


def manifest_path(root: str | os.PathLike) -> Path:
    return Path(root) / MANIFEST_NAME


def rotated_paths(root: str | os.PathLike) -> list[Path]:
    """Existing journal generations under ``root``, oldest first
    (``manifest.jsonl.N`` … ``manifest.jsonl.1``, then the live file)."""
    base = manifest_path(root)
    keep = max(1, env_setting("REPRO_MANIFEST_KEEP", DEFAULT_KEEP, int))
    paths = [base.with_name(f"{base.name}.{i}")
             for i in range(keep, 0, -1)]
    paths.append(base)
    return [p for p in paths if p.exists()]


def _rotate(path: Path, keep: int) -> None:
    """Shift ``manifest.jsonl`` → ``.1`` → ``.2`` …, dropping the oldest.

    Renames are atomic, so a concurrent appender that already holds an
    open fd keeps appending to the renamed generation — lines are never
    lost, only land one generation earlier.  Racing rotators are benign:
    the loser's ``rename`` fails (source gone) and is swallowed.
    """
    oldest = path.with_name(f"{path.name}.{keep}")
    try:
        oldest.unlink()
    except OSError:
        pass
    for i in range(keep - 1, 0, -1):
        src = path.with_name(f"{path.name}.{i}")
        if src.exists():
            try:
                os.replace(src, path.with_name(f"{path.name}.{i + 1}"))
            except OSError:
                pass
    try:
        os.replace(path, path.with_name(f"{path.name}.1"))
    except OSError:
        pass


def append_event(root: str | os.PathLike | None, event: str,
                 **fields: Any) -> None:
    """Append one journal line under ``root`` (no-op when root is None).

    Journaling must never take down the run it is observing, so IO
    errors are swallowed and a malformed rotation setting reads as its
    default.  Rotation is checked before the append, so a single event
    can exceed the threshold by at most one line.
    """
    if root is None:
        return
    try:
        max_bytes = env_setting("REPRO_MANIFEST_MAX_BYTES",
                                DEFAULT_MAX_BYTES, int)
        keep = env_setting("REPRO_MANIFEST_KEEP", DEFAULT_KEEP, int)
    except ValueError:
        max_bytes, keep = DEFAULT_MAX_BYTES, DEFAULT_KEEP
    record = {"ts": round(time.time(), 3), "pid": os.getpid(),
              "event": event, **fields}
    line = json.dumps(record, sort_keys=True) + "\n"
    try:
        path = manifest_path(root)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            if path.stat().st_size >= max(4096, max_bytes):
                _rotate(path, max(1, keep))
        except OSError:
            pass
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
    except OSError:
        pass


def read_events(root: str | os.PathLike) -> list[dict]:
    """All parseable journal lines under ``root``, oldest first, across
    every retained rotation generation."""
    events: list[dict] = []
    for path in rotated_paths(root):
        try:
            text = path.read_text()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn trailing line from a killed writer
            if isinstance(record, dict):
                events.append(record)
    return events


def summarize(events: list[dict]) -> str:
    """Human-readable report of a journal (for ``repro bench report``)."""
    if not events:
        return "manifest: no events recorded"
    by_event = Counter(e.get("event", "?") for e in events)
    classes = Counter(e.get("class", "?") for e in events
                      if e.get("event") == "cell_failed")
    retries = sum(1 for e in events
                  if e.get("event") == "cell_attempt"
                  and int(e.get("attempt", 0)) > 0)
    runs = {e.get("run") for e in events if e.get("run")}
    lines = [f"manifest: {len(events)} events across {len(runs)} run(s)"]
    for name in sorted(by_event):
        lines.append(f"  {name:<18s} {by_event[name]}")
    if retries:
        lines.append(f"  (retried attempts: {retries})")
    if classes:
        lines.append("failure classes:")
        for name in sorted(classes):
            lines.append(f"  {name:<18s} {classes[name]}")
    failed = [e for e in events if e.get("event") == "cell_failed"]
    if failed:
        lines.append("failed cells (exhausted retries):")
        for e in failed[-20:]:
            lines.append(f"  {e.get('label', e.get('index', '?'))}: "
                         f"{e.get('class', '?')} — {e.get('detail', '')}")
    guards = [e for e in events if e.get("event") == "trust_guard"]
    if guards:
        actions = Counter(e.get("action", "?") for e in guards)
        lines.append("trust guards (divergence retraining / escalations):")
        for name in sorted(actions):
            lines.append(f"  {name:<18s} {actions[name]}")
        for e in guards[-10:]:
            lines.append(f"  {e.get('key', e.get('label', '?'))}: "
                         f"{e.get('site', '?')} → {e.get('action', '?')}")
    breakers = [e for e in events if e.get("event") == "breaker"]
    if breakers:
        lines.append("serving circuit-breaker transitions:")
        for e in breakers[-20:]:
            lines.append(f"  {e.get('route', '?'):<12s} "
                         f"{e.get('from', '?')} → {e.get('to', '?')}"
                         f" ({e.get('reason', '')})")
    # ------------------------------------------------ tenancy & routing
    limited = [e for e in events if e.get("event") == "rate_limited"]
    snapshots = [e for e in events if e.get("event") == "tenancy"]
    failovers = [e for e in events if e.get("event") == "failover"]
    rep_health = [e for e in events if e.get("event") == "replica_health"]
    if limited or snapshots or failovers or rep_health:
        lines.append("serving tenancy / routing:")
        if limited:
            causes = Counter((e.get("tenant", "?"), e.get("cause", "?"))
                             for e in limited)
            for (tenant, cause) in sorted(causes):
                lines.append(f"  rate-limited      {tenant} ({cause}, "
                             f"first of run x{causes[(tenant, cause)]})")
        if snapshots:
            # the last snapshot per pid carries the closing counters
            closing: dict[int, dict] = {}
            for e in snapshots:
                closing[e.get("pid", 0)] = e
            merged = Counter()
            for e in closing.values():
                for tenant, stats in (e.get("tenants") or {}).items():
                    for key in ("admitted", "rate_limited",
                                "over_concurrency", "shed"):
                        merged[(tenant, key)] += int(stats.get(key, 0))
            for tenant in sorted({t for (t, _) in merged}):
                lines.append(
                    f"  tenant {tenant:<12s} "
                    f"admitted {merged[(tenant, 'admitted')]}, "
                    f"rate-limited {merged[(tenant, 'rate_limited')]}, "
                    f"over-concurrency "
                    f"{merged[(tenant, 'over_concurrency')]}, "
                    f"shed {merged[(tenant, 'shed')]}")
        if failovers:
            lines.append(f"  failovers         {len(failovers)}")
            for e in failovers[-10:]:
                lines.append(f"    {e.get('op', '?')} "
                             f"{e.get('from_replica', '?')} → "
                             f"{e.get('to', '?')}")
        if rep_health:
            flips = Counter((e.get("replica", "?"), e.get("healthy"))
                            for e in rep_health)
            for (replica, healthy) in sorted(flips, key=lambda k: str(k)):
                state = "up" if healthy else "down"
                lines.append(f"  replica {replica:<14s} {state} "
                             f"x{flips[(replica, healthy)]}")
    return "\n".join(lines)
