"""Resharding (layout-conversion) cost between sharding specs.

When a consumer requires a different sharding than its producer emitted,
the SPMD runtime inserts collective ops on that edge.  The cost model:

* identical (normalized) specs — free;
* replicated producer — free (consumers slice locally);
* producer axes that the consumer keeps — free for those axes;
* producer axes the consumer drops — an all-gather per axis, each sized
  on the *progressively reassembled* tensor: the first gather operates
  on the tensor still sharded by the remaining axes, and every later
  gather on a tensor that has already grown by the preceding gathers'
  axis sizes (charging every gather on one fixed size misprices
  multi-axis conversions);
* axes that move to a different dimension — modeled as an all-gather of
  the source axis too (an all-to-all would be slightly cheaper; the
  difference does not change any plan ordering at these sizes).
"""

from __future__ import annotations

import numpy as np

from ..cluster.collectives import allgather_time
from ..cluster.mesh import LogicalMesh
from ..ir.graph import TensorSpec
from ..memo import tier
from .sharding import ShardingSpec, normalized_spec, spec_by_id, spec_id


def reshard_time(
    src: ShardingSpec,
    dst: ShardingSpec,
    tensor: TensorSpec,
    mesh: LogicalMesh,
) -> float:
    """Seconds to convert ``tensor`` from ``src`` to ``dst`` sharding."""
    return _reshard_nbytes(src, dst, tensor.nbytes, mesh)


def _reshard_nbytes(
    src: ShardingSpec,
    dst: ShardingSpec,
    tensor_nbytes: float,
    mesh: LogicalMesh,
) -> float:
    """Cost-model core: the tensor enters only through its byte size."""
    src = normalized_spec(src, mesh)
    dst = normalized_spec(dst, mesh)
    if src.assignments == dst.assignments or src.is_replicated:
        return 0.0
    dst_map = dict(dst.assignments)
    total = 0.0
    kept_factor = 1
    gather_axes = []
    for d, a in src.assignments:
        if dst_map.get(d) == a:
            kept_factor *= mesh.axis_size(a)
        else:
            gather_axes.append(a)
    # Sequential all-gathers over the gathered axes: each gather's result
    # is the tensor reassembled over the axes gathered *so far* (still
    # sharded by the kept axes and by the gather axes yet to run).  The
    # size therefore grows gather by gather — the second all-gather moves
    # a tensor already grown by the first gather's axis size, and must be
    # charged on that grown size, not on one fixed per-gather size.
    remaining = 1
    for a in gather_axes:
        remaining *= mesh.axis_size(a)
    nbytes = tensor_nbytes / kept_factor
    for a in gather_axes:
        p = mesh.axis_size(a)
        remaining //= p
        total += allgather_time(mesh.axis_link(a), nbytes / remaining, p)
    return total


class ReshardCache:
    """Memoized reshard costs for one logical mesh, addressed by spec ids.

    Scalar lookups memoize per ``(src id, dst id, nbytes)``; the vectorized
    DP fetches whole min-plus cost *matrices* (rows = producer out-spec
    ids, columns = consumer required-spec ids), which are themselves
    cached because structurally identical nodes across a grid request the
    same (id-tuple, id-tuple, nbytes) table over and over.
    """

    __slots__ = ("mesh", "_cells", "_columns", "_matrices")

    def __init__(self, mesh: LogicalMesh) -> None:
        self.mesh = mesh
        self._cells: dict[tuple[int, int, float], float] = {}
        self._columns: dict[tuple, np.ndarray] = {}
        self._matrices: dict[tuple, np.ndarray] = {}

    def time(self, src_id: int, dst_id: int, nbytes: float) -> float:
        key = (src_id, dst_id, nbytes)
        t = self._cells.get(key)
        if t is None:
            t = _reshard_nbytes(spec_by_id(src_id), spec_by_id(dst_id),
                                nbytes, self.mesh)
            self._cells[key] = t
        return t

    def column(self, src_ids: tuple[int, ...], dst_id: int,
               nbytes: float) -> np.ndarray:
        """``(len(src_ids),)`` vector of reshard costs into ``dst_id``."""
        key = (src_ids, dst_id, nbytes)
        col = self._columns.get(key)
        if col is None:
            col = np.array([self.time(s, dst_id, nbytes) for s in src_ids],
                           dtype=np.float64)
            col.flags.writeable = False
            self._columns[key] = col
        return col

    def matrix(self, src_ids: tuple[int, ...], dst_ids: tuple[int, ...],
               nbytes: float) -> np.ndarray:
        """``(len(src_ids), len(dst_ids))`` reshard-cost table."""
        key = (src_ids, dst_ids, nbytes)
        mat = self._matrices.get(key)
        if mat is None:
            mat = np.empty((len(src_ids), len(dst_ids)), dtype=np.float64)
            for j, d in enumerate(dst_ids):
                mat[:, j] = self.column(src_ids, d, nbytes)
            mat.flags.writeable = False
            self._matrices[key] = mat
        return mat


_RESHARD = tier("parallel.reshard", "logical mesh")


def reshard_cache(mesh: LogicalMesh) -> ReshardCache:
    """The process-wide :class:`ReshardCache` for ``mesh``."""
    return _RESHARD.get(mesh, lambda: ReshardCache(mesh))


__all__ = ["reshard_time", "ReshardCache", "reshard_cache", "spec_id"]
