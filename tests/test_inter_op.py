"""Alpa inter-op DP: stage slicing + submesh assignment."""

import pytest

from repro.cluster import PLATFORM2, enumerate_submeshes
from repro.models import cluster_layers
from repro.parallel import LatencyTable, ParallelPlan, slice_stages
from repro.parallel.inter_op import INFEASIBLE
from repro.runtime import whitebox_latency


def _uniform_table(n_units, submeshes, unit_time=1.0, scaling=None):
    """Stage latency = covered units' work / devices (perfect scaling)."""
    t = LatencyTable()
    for i in range(n_units):
        for j in range(i + 1, n_units + 1):
            for mi, m in enumerate(submeshes):
                s = (scaling or (lambda d: d))(m.num_devices)
                t.set(i, j, mi, (j - i) * unit_time / s)
    return t


@pytest.fixture(scope="module")
def cluster():
    return PLATFORM2.cluster()


@pytest.fixture(scope="module")
def submeshes(cluster):
    return enumerate_submeshes(cluster)


@pytest.fixture(scope="module")
def clustering(tiny_gpt):
    return cluster_layers(tiny_gpt, 4)


class TestDP:
    def test_covers_all_units_and_devices(self, clustering, submeshes, cluster):
        table = _uniform_table(clustering.n_units, submeshes)
        plan = slice_stages(clustering, submeshes, table, 8,
                            total_devices=cluster.num_devices)
        assert plan.feasible
        assert plan.total_devices() == cluster.num_devices
        covered = []
        for st in plan.stages:
            covered.extend(range(*st.unit_range))
        assert covered == list(range(clustering.n_units))

    def test_stages_contiguous_and_ordered(self, clustering, submeshes, cluster):
        table = _uniform_table(clustering.n_units, submeshes)
        plan = slice_stages(clustering, submeshes, table, 8,
                            total_devices=cluster.num_devices)
        for a, b in zip(plan.stages, plan.stages[1:]):
            assert a.unit_range[1] == b.unit_range[0]

    def test_iteration_latency_matches_eqn4(self, clustering, submeshes, cluster):
        table = _uniform_table(clustering.n_units, submeshes)
        plan = slice_stages(clustering, submeshes, table, 8,
                            total_devices=cluster.num_devices)
        assert plan.iteration_latency == pytest.approx(
            whitebox_latency(plan.stage_latencies(), 8))

    def test_optimal_vs_exhaustive_small(self, clustering, submeshes, cluster):
        """DP result equals brute force over all partitions/assignments."""
        import itertools

        table = _uniform_table(clustering.n_units, submeshes,
                               scaling=lambda d: d ** 0.7)
        B = 4
        U = clustering.n_units
        D = cluster.num_devices
        best = INFEASIBLE
        sizes = [m.num_devices for m in submeshes]
        for k in range(1, U + 1):
            for cuts in itertools.combinations(range(1, U), k - 1):
                bounds = [0, *cuts, U]
                for assign in itertools.product(range(len(submeshes)), repeat=k):
                    if sum(sizes[a] for a in assign) != D:
                        continue
                    times = [table.latency(bounds[i], bounds[i + 1], assign[i])
                             for i in range(k)]
                    best = min(best, whitebox_latency(times, B))
        plan = slice_stages(clustering, submeshes, table, B, total_devices=D)
        assert plan.iteration_latency == pytest.approx(best)

    def test_large_B_prefers_more_stages(self, clustering, submeshes, cluster):
        """With many microbatches, deep pipelines amortize better when
        scaling is sublinear."""
        table = _uniform_table(clustering.n_units, submeshes,
                               scaling=lambda d: d ** 0.3)
        shallow = slice_stages(clustering, submeshes, table, 1,
                               total_devices=cluster.num_devices)
        deep = slice_stages(clustering, submeshes, table, 64,
                            total_devices=cluster.num_devices)
        assert deep.n_stages >= shallow.n_stages

    def test_infeasible_when_table_empty(self, clustering, submeshes, cluster):
        plan = slice_stages(clustering, submeshes, LatencyTable(), 8,
                            total_devices=cluster.num_devices)
        assert not plan.feasible

    def test_partial_table_respected(self, clustering, submeshes, cluster):
        """Entries missing from the table are infeasible for the DP."""
        table = _uniform_table(clustering.n_units, submeshes)
        # forbid the whole-model single stage on the 4-GPU submesh
        full_idx = max(range(len(submeshes)),
                       key=lambda i: submeshes[i].num_devices)
        table.values.pop((0, clustering.n_units, full_idx))
        plan = slice_stages(clustering, submeshes, table, 8,
                            total_devices=cluster.num_devices)
        assert plan.feasible
        assert not (plan.n_stages == 1
                    and plan.stages[0].submesh_index == full_idx)

    def test_max_stages_cap(self, clustering, submeshes, cluster):
        table = _uniform_table(clustering.n_units, submeshes,
                               scaling=lambda d: d ** 0.1)
        plan = slice_stages(clustering, submeshes, table, 64,
                            total_devices=cluster.num_devices, max_stages=2)
        assert plan.n_stages <= 2 or not plan.feasible


class TestPlanContainer:
    def test_describe_includes_stages(self, clustering, submeshes, cluster):
        table = _uniform_table(clustering.n_units, submeshes)
        plan = slice_stages(clustering, submeshes, table, 8,
                            total_devices=cluster.num_devices)
        text = plan.describe()
        assert "stage 0" in text

    def test_infeasible_describe(self):
        assert "infeasible" in ParallelPlan([], float("inf"), 4).describe()
