"""SPMD sharding specs over a 2-D logical mesh.

A :class:`ShardingSpec` maps tensor dimensions to logical mesh axes
(``"dp"`` / ``"mp"``); unmapped dimensions are replicated.  The vocabulary
is deliberately small — replicate, shard dim 0, shard the last dim, or
shard both on different axes — which covers every strategy the Megatron /
Alpa intra-op space uses for transformer workloads while keeping the
per-node optimization tractable.

Specs are *interned*: the factory functions and
:func:`intern_assignments` return one canonical instance per distinct
assignments tuple, validated exactly once and carrying a stable integer
id (:func:`spec_id`).  The intra-op DP and the cost-table caches key
on those ids, so the hot loops never rebuild or re-validate specs.  Ids
are process-local: lookups go through the assignments tuple (never a
pickled attribute), so specs that cross process boundaries re-resolve
safely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..cluster.mesh import LogicalMesh
from ..ir.graph import TensorSpec
from ..memo import fork_safe_lock, tier

AXES = ("dp", "mp")


@dataclass(frozen=True)
class ShardingSpec:
    """Mapping ``tensor dim -> mesh axis``; empty mapping = replicated."""

    assignments: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        dims = [d for d, _ in self.assignments]
        axes = [a for _, a in self.assignments]
        if len(set(dims)) != len(dims):
            raise ValueError(f"dimension mapped twice: {self.assignments}")
        if len(set(axes)) != len(axes):
            raise ValueError(f"mesh axis used twice: {self.assignments}")
        for _, a in self.assignments:
            if a not in AXES:
                raise ValueError(f"unknown mesh axis {a!r}")

    # ------------------------------------------------------------- factories
    @staticmethod
    def replicated() -> "ShardingSpec":
        return intern_assignments(())

    @staticmethod
    def shard(dim: int, axis: str) -> "ShardingSpec":
        return intern_assignments(((dim, axis),))

    @staticmethod
    def shard2(dim0: int, axis0: str, dim1: int, axis1: str) -> "ShardingSpec":
        return intern_assignments(((dim0, axis0), (dim1, axis1)))

    # --------------------------------------------------------------- queries
    @property
    def is_replicated(self) -> bool:
        return not self.assignments

    def axis_of(self, dim: int) -> str | None:
        for d, a in self.assignments:
            if d == dim:
                return a
        return None

    def dim_of(self, axis: str) -> int | None:
        for d, a in self.assignments:
            if a == axis:
                return d
        return None

    def axes_used(self) -> tuple[str, ...]:
        return tuple(a for _, a in self.assignments)

    def shard_factor(self, mesh: LogicalMesh) -> int:
        """Number of shards the tensor is split into on ``mesh``."""
        f = 1
        for _, a in self.assignments:
            f *= mesh.axis_size(a)
        return f

    def valid_for(self, spec: TensorSpec, mesh: LogicalMesh) -> bool:
        """True when every mapped dim exists and divides by its axis size."""
        for d, a in self.assignments:
            if d >= spec.rank:
                return False
            size = mesh.axis_size(a)
            if size > 1 and spec.shape[d] % size != 0:
                return False
        return True

    def normalized(self, mesh: LogicalMesh) -> "ShardingSpec":
        """Drop assignments to size-1 axes (they shard nothing)."""
        kept = tuple((d, a) for d, a in self.assignments if mesh.axis_size(a) > 1)
        return ShardingSpec(kept)

    def local_bytes(self, spec: TensorSpec, mesh: LogicalMesh) -> float:
        """Per-device bytes of a tensor stored under this sharding."""
        return spec.nbytes / self.shard_factor(mesh)

    def __str__(self) -> str:  # pragma: no cover - trivial
        if not self.assignments:
            return "R"
        return "+".join(f"S{d}@{a}" for d, a in self.assignments)


# --------------------------------------------------------------- interning

_INTERN_LOCK = fork_safe_lock()
#: assignments tuple -> the canonical (validated-once) instance; pinned,
#: because ids and canonical instances must live as long as the process
_INTERN = tier("parallel.specs", "sharding assignments",
               pinned=True).entries
#: assignments tuple -> stable integer id (index into _SPECS_BY_ID)
_SPEC_IDS: dict[tuple, int] = {}
_SPECS_BY_ID: list[ShardingSpec] = []
_NORMALIZED = tier("parallel.normalized_specs",
                   "(spec id, dp > 1, mp > 1)").entries


def intern_assignments(assignments: tuple[tuple[int, str], ...]) -> ShardingSpec:
    """Canonical :class:`ShardingSpec` for ``assignments``.

    Validation runs once per distinct tuple; repeated calls return the
    same instance.  Invalid assignments raise :class:`ValueError` (and are
    never cached).  Safe to call from multiple threads.
    """
    spec = _INTERN.get(assignments)
    if spec is None:
        with _INTERN_LOCK:
            spec = _INTERN.get(assignments)
            if spec is None:
                spec = ShardingSpec(assignments)
                _SPEC_IDS[assignments] = len(_SPECS_BY_ID)
                _SPECS_BY_ID.append(spec)
                _INTERN[assignments] = spec
    return spec


def intern_spec(spec: ShardingSpec) -> ShardingSpec:
    """The canonical instance equal to ``spec``."""
    return intern_assignments(spec.assignments)


def spec_id(spec: ShardingSpec) -> int:
    """Stable process-local integer id of ``spec`` (interning on demand)."""
    sid = _SPEC_IDS.get(spec.assignments)
    if sid is None:
        intern_assignments(spec.assignments)
        sid = _SPEC_IDS[spec.assignments]
    return sid


def spec_by_id(sid: int) -> ShardingSpec:
    """Inverse of :func:`spec_id`."""
    return _SPECS_BY_ID[sid]


def normalized_spec(spec: ShardingSpec, mesh: LogicalMesh) -> ShardingSpec:
    """Interned ``spec.normalized(mesh)``, cached per (spec, axis-sizes).

    Normalization only depends on which mesh axes have size > 1, so the
    cache key is ``(spec_id, dp > 1, mp > 1)`` and the result is shared
    across every mesh with the same degenerate-axis pattern.
    """
    key = (spec_id(spec), mesh.dp > 1, mesh.mp > 1)
    norm = _NORMALIZED.get(key)
    if norm is None:
        norm = intern_spec(spec.normalized(mesh))
        _NORMALIZED[key] = norm
    return norm


REPLICATED = ShardingSpec.replicated()

#: candidate validity/normalization reads only the shape and the axis
#: sizes, so twins share one enumeration
_CANDIDATES = tier("parallel.candidate_specs",
                   "(tensor shape, dp, mp)").entries


def candidate_specs(spec: TensorSpec, mesh: LogicalMesh) -> list[ShardingSpec]:
    """The sharding vocabulary applicable to one tensor on one mesh.

    Candidates: replicated; dim 0 or the last dim on either axis; and both
    dims on the two different axes.  Invalid (non-dividing) candidates are
    filtered; duplicates collapse when the tensor is rank-1.
    """
    ckey = (spec.shape, mesh.dp, mesh.mp)
    cached = _CANDIDATES.get(ckey)
    if cached is not None:
        return list(cached)
    cands: list[ShardingSpec] = [REPLICATED]
    if spec.rank >= 1:
        last = spec.rank - 1
        for a in AXES:
            if mesh.axis_size(a) > 1:
                cands.append(ShardingSpec.shard(0, a))
                if last != 0:
                    cands.append(ShardingSpec.shard(last, a))
        if spec.rank >= 2 and mesh.dp > 1 and mesh.mp > 1:
            cands.append(ShardingSpec.shard2(0, "dp", last, "mp"))
            cands.append(ShardingSpec.shard2(0, "mp", last, "dp"))
    seen: set[tuple] = set()
    out = []
    for c in cands:
        c = normalized_spec(c, mesh)
        if c.assignments in seen:
            continue
        if not c.valid_for(spec, mesh):
            continue
        seen.add(c.assignments)
        out.append(c)
    _CANDIDATES[ckey] = tuple(out)
    return out


def iter_axes(mesh: LogicalMesh) -> Iterator[str]:
    """Mesh axes with more than one device."""
    for a in AXES:
        if mesh.axis_size(a) > 1:
            yield a
