"""On-disk results cache for the benchmark harness.

Predictor training dominates experiment wall time, so every (profile,
experiment, cell) result is memoized on disk.  Figures 8/9 are pure
aggregations of the Table V/VI grids and read the same cache, so running
the table benches once makes the figure benches free.

The store is *sharded, concurrency-safe, and crash-safe* so the
fault-tolerant experiment engine (``repro.experiments.engine``) can
hammer it from many worker processes and survive killed writers:

* each key lives in one of 256 shard files ``shards/<hh>.json`` under the
  cache root, chosen by the first hex byte of the key's SHA-256;
* writers take an ``fcntl`` advisory lock on the shard's ``.lock`` file,
  re-read the shard, merge their entry, and publish via tmp-file +
  ``fsync`` + atomic ``os.replace`` — concurrent writers to one shard
  serialize, writers to different shards don't contend at all, readers
  (which never lock) only ever see complete files, and a crash mid-write
  can never publish a truncated shard;
* every shard carries a SHA-256 checksum over its entries; a shard that
  fails validation (bitrot, torn write from a pre-fsync era, injected
  corruption) is *quarantined* — renamed to ``<shard>.corrupt`` with a
  warning and a manifest event — and treated as missing, so the engine
  simply recomputes its cells instead of silently trusting garbage;
* ``reap_stale()`` clears orphaned ``*.tmp<pid>`` files left by killed
  writers and ancient uncontended ``.lock`` files;
* transient ``OSError`` on a shard write is retried a bounded number of
  times before surfacing;
* a legacy single-file ``results.json`` store, if present at the cache
  root, is read through transparently; plain-dict (pre-checksum) shard
  files remain readable; new writes always use the checksummed format.

Set ``REPRO_CACHE=off`` to disable, or point ``REPRO_CACHE`` at an
alternate cache directory (or at a legacy ``*.json`` store, whose parent
directory then becomes the root).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .. import faults
from .manifest import append_event

try:  # POSIX only; on other platforms writes fall back to atomic rename
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

_DEFAULT_ROOT = Path(__file__).resolve().parents[3] / ".repro_cache"
_LEGACY_NAME = "results.json"
N_SHARDS = 256
SHARD_VERSION = 2
#: bounded retries for transient IO errors on a shard write
WRITE_RETRIES = 3
#: reap_stale(): tmp/lock files older than this are fair game (seconds)
STALE_AGE = 3600.0


def _shard_of(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:2]


def _shard_index(key: str) -> int:
    return int(_shard_of(key), 16)


@contextmanager
def _locked(lock_path: Path) -> Iterator[None]:
    """Advisory exclusive lock held for the duration of the block."""
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    with lock_path.open("a") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _read_json(path: Path) -> dict[str, Any]:
    """Lenient reader for the *legacy* single-file store only."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except (json.JSONDecodeError, OSError) as exc:
        warnings.warn(f"unreadable legacy results store {path}: {exc}",
                      stacklevel=2)
        return {}


def _entries_checksum(entries: dict[str, Any]) -> str:
    canonical = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _quarantine(path: Path, reason: str) -> None:
    """Move a failed-validation shard aside as ``<name>.corrupt``."""
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        return  # lost a race with another reader's quarantine — fine
    warnings.warn(f"quarantined corrupt cache shard {path.name} -> "
                  f"{target.name}: {reason}", stacklevel=3)
    append_event(path.parent.parent, "shard_quarantined",
                 shard=path.name, reason=reason)


def _read_shard(path: Path) -> dict[str, Any]:
    """Shard entries, validating the checksum; corrupt shards quarantine.

    Accepts both the checksummed v2 envelope and bare v1 dicts (which
    predate checksums and get no validation beyond JSON framing).
    """
    try:
        raw = path.read_text()
    except FileNotFoundError:
        return {}
    except OSError as exc:  # pragma: no cover - exotic IO failure
        warnings.warn(f"unreadable cache shard {path}: {exc}", stacklevel=2)
        return {}
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        _quarantine(path, f"invalid JSON: {exc}")
        return {}
    if not isinstance(doc, dict):
        _quarantine(path, f"unexpected top-level {type(doc).__name__}")
        return {}
    if "__shard_version__" not in doc:
        return doc  # v1: a bare entries dict
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        _quarantine(path, "missing entries")
        return {}
    if _entries_checksum(entries) != doc.get("checksum"):
        _quarantine(path, "checksum mismatch")
        return {}
    return entries


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _write_atomic(path: Path, entries: dict[str, Any]) -> None:
    """Publish ``entries`` as a checksummed shard: tmp + fsync + rename.

    The fsync *before* ``os.replace`` is load-bearing: without it a
    crash between the rename and the data reaching disk can publish a
    truncated shard under the final name.
    """
    doc = {"__shard_version__": SHARD_VERSION,
           "checksum": _entries_checksum(entries),
           "entries": entries}
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with tmp.open("w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True))
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    _fsync_dir(path.parent)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    return True


class ResultsCache:
    """A flat string-keyed JSON store, sharded for concurrent writers."""

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        if path is None:
            env = os.environ.get("REPRO_CACHE", "")
            if env.lower() == "off":
                self.root: Path | None = None
                self._memory: dict[str, Any] = {}
                self._legacy: dict[str, Any] = {}
                return
            path = Path(env) if env else _DEFAULT_ROOT
        path = Path(path)
        # a *.json path selects legacy-store compatibility mode: the file
        # is the read-through tier and its directory holds the shards
        if path.suffix == ".json":
            self.root = path.parent
            legacy_path = path
        else:
            self.root = path
            legacy_path = path / _LEGACY_NAME
        self._memory = {}
        self._legacy = _read_json(legacy_path)

    # ----------------------------------------------------------------- paths
    @property
    def shards_dir(self) -> Path:
        assert self.root is not None
        return self.root / "shards"

    def _shard_path(self, key: str) -> Path:
        return self.shards_dir / f"{_shard_of(key)}.json"

    # ------------------------------------------------------------------- API
    def get(self, key: str) -> Any | None:
        if key in self._memory:
            return self._memory[key]
        if self.root is not None:
            shard = _read_shard(self._shard_path(key))
            if key in shard:
                self._memory[key] = shard[key]
                return shard[key]
        if key in self._legacy:
            return self._legacy[key]
        return None

    def set(self, key: str, value: Any) -> None:
        self._memory[key] = value
        if self.root is None:
            return
        path = self._shard_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        shard_no = _shard_index(key)
        last_error: OSError | None = None
        for attempt in range(WRITE_RETRIES + 1):
            try:
                faults.fire("io_error", shard_no, attempt)
                with _locked(path.with_suffix(".lock")):
                    shard = _read_shard(path)
                    shard[key] = value
                    _write_atomic(path, shard)
                break
            except OSError as exc:
                last_error = exc
                if attempt >= WRITE_RETRIES:
                    raise
                time.sleep(0.01 * (2 ** attempt))
        if last_error is not None:
            append_event(self.root, "write_retried", shard=path.name,
                         detail=str(last_error))
        if faults.check("shard_corrupt", shard_no) is not None:
            faults.corrupt_file(path)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> list[str]:
        """All keys visible to this process (memory ∪ shards ∪ legacy)."""
        out = set(self._memory) | set(self._legacy)
        if self.root is not None and self.shards_dir.is_dir():
            for shard_file in sorted(self.shards_dir.glob("*.json")):
                out.update(_read_shard(shard_file))
        return sorted(out)

    def migrate_legacy(self) -> int:
        """Copy every legacy entry into its shard; returns the count.

        The legacy file itself is left untouched so older checkouts can
        still read it.
        """
        n = 0
        for key, value in self._legacy.items():
            if self.root is not None and key not in _read_shard(self._shard_path(key)):
                self.set(key, value)
                n += 1
        return n

    # ------------------------------------------------------------ janitorial
    def reap_stale(self, max_age: float = STALE_AGE) -> int:
        """Remove debris left by killed writers; returns files removed.

        * ``*.tmp<pid>`` files whose writer pid is dead (or that are
          older than ``max_age``) are unpublished partial writes — the
          atomic-rename protocol means deleting them loses nothing;
        * ``.lock`` files older than ``max_age`` are unlinked, but only
          while holding their lock, so an active writer is never raced.
        """
        if self.root is None or not self.shards_dir.is_dir():
            return 0
        removed = 0
        now = time.time()
        for tmp in self.shards_dir.glob("*.tmp*"):
            suffix = tmp.suffix[len(".tmp"):]
            pid = int(suffix) if suffix.isdigit() else None
            try:
                age = now - tmp.stat().st_mtime
            except OSError:
                continue
            if (pid is not None and not _pid_alive(pid)) or age > max_age:
                try:
                    tmp.unlink()
                    removed += 1
                except OSError:
                    pass
        if fcntl is not None:
            for lock in self.shards_dir.glob("*.lock"):
                try:
                    if now - lock.stat().st_mtime <= max_age:
                        continue
                    with lock.open("a") as fh:
                        fcntl.flock(fh.fileno(),
                                    fcntl.LOCK_EX | fcntl.LOCK_NB)
                        lock.unlink()
                        removed += 1
                        fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
                except OSError:
                    continue  # held, vanished, or unreadable — leave it
        if removed:
            append_event(self.root, "stale_reaped", count=removed)
        return removed

    def quarantined(self) -> list[Path]:
        """The ``*.corrupt`` files currently parked next to the shards."""
        if self.root is None or not self.shards_dir.is_dir():
            return []
        return sorted(self.shards_dir.glob("*.corrupt"))


_GLOBAL: ResultsCache | None = None


def global_cache() -> ResultsCache:
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = ResultsCache()
    return _GLOBAL
