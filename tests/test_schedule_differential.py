"""Differential tests: the schedule registry's 1F1B path is bit-identical
to the seed white-box layer.

The registry generalizes the 1F1B-only code, so its default must not
move a single bit:

* ``OneFOneBSchedule.closed_form`` **is** :func:`whitebox_latency`;
* the generic event engine reproduces ``PipelineSimulator``'s combined
  mode exactly (``==``, no tolerance) — both perform the same
  ``max(ready, free) + t`` float operations;
* the inter-op DP, which minimizes the schedule's ``dp_objective``,
  reports exactly Eqn 4 of the plan it commits.

Stage vectors come from synthetic seeded draws *and* from the profiled
fast-profile GPT grid (every platform-2 scenario × B ∈ {1, 2, 4, 8}),
so the pin covers the vectors the experiments actually use.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import PLATFORM2, enumerate_submeshes
from repro.experiments import FAST
from repro.experiments.scenarios import scenario_grid
from repro.parallel import LatencyTable, slice_stages
from repro.runtime import PipelineSimulator, whitebox_latency
from repro.runtime.schedules import get_schedule

SPEC = get_schedule("1f1b")
MICROBATCHES = (1, 2, 4, 8)


def _random_vectors(n_cases: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        stages = rng.uniform(1e-4, 5.0,
                             size=int(rng.integers(1, 9))).tolist()
        yield stages, int(rng.integers(1, 17))


@pytest.fixture(scope="module")
def profiled_vectors(tiny_gpt, tiny_gpt_profiler, tiny_gpt_clustering):
    """Per-unit stage-latency vectors of the fast-profile GPT on every
    platform-2 runtime configuration."""
    vectors = []
    for sc in scenario_grid("platform2"):
        mesh = sc.mesh()
        times = []
        for u in range(tiny_gpt_clustering.n_units):
            s, e = tiny_gpt_clustering.slice_range(u, u + 1)
            times.append(tiny_gpt_profiler.profile_stage(
                s, e, mesh, sc.dp, sc.mp).latency)
        vectors.append((sc.key, times))
    return vectors


class TestClosedFormBitIdentical:
    def test_synthetic(self):
        for stages, B in _random_vectors(500):
            assert SPEC.closed_form(stages, B) == \
                whitebox_latency(stages, B)

    def test_profiled_grid(self, profiled_vectors):
        for key, times in profiled_vectors:
            for B in MICROBATCHES:
                assert SPEC.closed_form(times, B) == \
                    whitebox_latency(times, B), (key, B)


class TestEngineBitIdentical:
    def test_synthetic(self):
        for stages, B in _random_vectors(500, seed=1):
            seed_sim = PipelineSimulator(stages, B).run().makespan
            assert SPEC.simulated_latency(stages, B) == seed_sim

    def test_profiled_grid(self, profiled_vectors):
        for key, times in profiled_vectors:
            for B in MICROBATCHES:
                seed_sim = PipelineSimulator(times, B).run().makespan
                assert SPEC.simulated_latency(times, B) == seed_sim, \
                    (key, B)


class TestDPBitIdentical:
    """The DP's objective for the plan it commits is Eqn 4 of that
    plan's stages, bit for bit (the optimum itself is pinned against
    brute force in ``tests/test_inter_op.py``)."""

    def _random_table(self, n_units, n_meshes, seed):
        rng = np.random.default_rng(seed)
        t = LatencyTable()
        for i in range(n_units):
            for j in range(i + 1, n_units + 1):
                for mi in range(n_meshes):
                    t.set(i, j, mi, float(rng.uniform(1e-3, 2.0) * (j - i)))
        return t

    def test_plan_latency_is_eqn4_of_its_stages(self, tiny_gpt_clustering):
        cluster = PLATFORM2.cluster()
        submeshes = enumerate_submeshes(cluster)
        for seed in range(20):
            table = self._random_table(tiny_gpt_clustering.n_units,
                                       len(submeshes), seed)
            for B in MICROBATCHES:
                plan = slice_stages(tiny_gpt_clustering, submeshes, table,
                                    B, total_devices=cluster.num_devices)
                assert plan.feasible
                assert plan.iteration_latency == \
                    whitebox_latency(plan.stage_latencies(), B), (seed, B)

    def test_profiled_table(self, tiny_gpt_clustering, tiny_gpt_profiler):
        cluster = PLATFORM2.cluster()
        submeshes = enumerate_submeshes(cluster)
        table = LatencyTable()
        for i in range(tiny_gpt_clustering.n_units):
            for j in range(i + 1, tiny_gpt_clustering.n_units + 1):
                s, e = tiny_gpt_clustering.slice_range(i, j)
                for mi, mesh in enumerate(submeshes):
                    p = tiny_gpt_profiler.profile_stage(
                        s, e, mesh, mesh.num_devices, 1)
                    table.set(i, j, mi, p.latency)
        B = FAST.n_microbatches
        plan = slice_stages(tiny_gpt_clustering, submeshes, table, B,
                            total_devices=cluster.num_devices)
        assert plan.feasible
        assert plan.iteration_latency == \
            whitebox_latency(plan.stage_latencies(), B)
