"""Runtime: op cost model, executor, noise, profiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import A40, PLATFORM2
from repro.ir import GraphBuilder, build_training_graph
from repro.parallel import optimize_stage
from repro.runtime import (
    NOISE_SIGMA,
    StageProfiler,
    execute_plan,
    graph_bytes,
    graph_flops,
    measurement_factor,
    op_time,
    profiling_cost,
    stable_seed,
)


def _matmul_graph(m, k, n):
    b = GraphBuilder("g")
    x = b.input("x", (m, k))
    w = b.param("w", (k, n))
    b.output(b.matmul(x, w))
    return b.build()


class TestOpCost:
    def test_launch_overhead_floor(self):
        g = _matmul_graph(2, 2, 2)
        node = next(n for n in g.operators())
        ins = [g.nodes[i].out for i in node.inputs]
        t = op_time(node, ins, A40)
        assert t >= A40.launch_overhead

    def test_large_matmul_compute_bound(self):
        g = _matmul_graph(4096, 4096, 4096)
        node = next(n for n in g.operators())
        ins = [g.nodes[i].out for i in node.inputs]
        t = op_time(node, ins, A40)
        ideal = 2 * 4096**3 / A40.peak_flops
        assert ideal < t < 5 * ideal

    def test_sharding_divides_work(self):
        g = _matmul_graph(4096, 4096, 4096)
        node = next(n for n in g.operators())
        ins = [g.nodes[i].out for i in node.inputs]
        t1 = op_time(node, ins, A40, 1.0)
        t4 = op_time(node, ins, A40, 4.0)
        assert t4 < t1
        assert t4 > t1 / 4  # overheads do not shard

    def test_invalid_shard_factor(self):
        g = _matmul_graph(8, 8, 8)
        node = next(n for n in g.operators())
        with pytest.raises(ValueError):
            op_time(node, [g.nodes[i].out for i in node.inputs], A40, 0.5)

    def test_graph_flops_scale_with_batch(self, tiny_gpt):
        f1 = graph_flops(tiny_gpt.stage_graph(1, 2, microbatch=2))
        f2 = graph_flops(tiny_gpt.stage_graph(1, 2, microbatch=4))
        assert f2 == pytest.approx(2 * f1, rel=0.05)

    def test_graph_bytes_positive(self, toy_graph):
        assert graph_bytes(toy_graph) > 0


class TestNoise:
    def test_deterministic(self):
        assert measurement_factor("a", "b") == measurement_factor("a", "b")

    def test_identity_sensitivity(self):
        assert measurement_factor("a", "b") != measurement_factor("a", "c")

    def test_magnitude_bounded(self):
        vals = [measurement_factor("stage", i) for i in range(500)]
        arr = np.array(vals)
        assert 0.9 < arr.mean() < 1.1
        assert abs(np.log(arr).std() - NOISE_SIGMA) < 0.005

    def test_stable_seed_is_64bit(self):
        s = stable_seed("x", 1, 2.5)
        assert 0 <= s < 2**64


class TestExecutor:
    def _profile(self, mesh, dp, mp, noise=True):
        g = build_training_graph(_matmul_graph(256, 512, 256))
        plan = optimize_stage(g, mesh.logical(dp, mp))
        return execute_plan(plan, noise=noise)

    def test_components_sum_consistent(self, mesh2):
        p = self._profile(mesh2, 2, 1, noise=False)
        assert p.latency == pytest.approx(
            p.compute_time + p.comm_time + p.reshard_time)

    def test_noise_multiplies_total(self, mesh2):
        clean = self._profile(mesh2, 2, 1, noise=False)
        noisy = self._profile(mesh2, 2, 1, noise=True)
        ratio = noisy.latency / clean.latency
        assert 0.9 < ratio < 1.1 and ratio != 1.0

    def test_memory_accounts_train_state(self, mesh1):
        p = self._profile(mesh1, 1, 1)
        # 512*256 params * 16 bytes of train state
        assert p.memory_bytes >= 512 * 256 * 16

    def test_comm_fraction_bounded(self, mesh2):
        p = self._profile(mesh2, 1, 2)
        assert 0.0 <= p.comm_fraction < 1.0


class TestProfiler:
    def test_cache_hit_returns_same_object(self, tiny_gpt_profiler, mesh2):
        a = tiny_gpt_profiler.profile_stage(1, 2, mesh2, 2, 1)
        b = tiny_gpt_profiler.profile_stage(1, 2, mesh2, 2, 1)
        assert a is b

    def test_latency_positive_and_noisy_deterministic(
            self, tiny_gpt, mesh2):
        p1 = StageProfiler(tiny_gpt).profile_stage(1, 2, mesh2, 2, 1)
        p2 = StageProfiler(tiny_gpt).profile_stage(1, 2, mesh2, 2, 1)
        assert p1.latency == p2.latency > 0

    def test_profiling_cost_grows_with_graph_and_latency(self):
        assert profiling_cost(1000, 1.0) > profiling_cost(100, 1.0)
        assert profiling_cost(100, 2.0) > profiling_cost(100, 1.0)

    def test_predictor_graph_is_pruned(self, tiny_gpt_profiler):
        g = tiny_gpt_profiler.predictor_graph(1, 2)
        ops = {n.op for n in g.operators()}
        assert "reshape" not in ops
        assert "convert_element_type" not in ops

    def test_traced_graphs_memoized_per_slice(self, tiny_gpt):
        prof = StageProfiler(tiny_gpt)
        assert prof.predictor_graph(1, 2) is prof.predictor_graph(1, 2)
        assert prof.training_graph(1, 2) is prof.training_graph(1, 2)
        # distinct slices / kinds / microbatches get distinct entries
        assert prof.predictor_graph(1, 2) is not prof.predictor_graph(0, 2)
        assert prof.predictor_graph(1, 2) is not prof.training_graph(1, 2)
        assert prof.training_graph(1, 2, microbatch=2) is not \
            prof.training_graph(1, 2)

    def test_optimal_latency_at_least_as_good_as_any_view(
            self, tiny_gpt_profiler, mesh2):
        best = tiny_gpt_profiler.best_profile(1, 3, mesh2).latency
        for dp, mp in [(2, 1), (1, 2), (1, 1)]:
            if dp * mp != mesh2.num_devices and (dp, mp) != (1, 1):
                continue
        dp2 = tiny_gpt_profiler.profile_stage(1, 3, mesh2, 2, 1)
        mp2 = tiny_gpt_profiler.profile_stage(1, 3, mesh2, 1, 2)
        assert best <= min(dp2.latency, mp2.latency)

    def test_bigger_stage_higher_latency(self, tiny_gpt_profiler, mesh1):
        small = tiny_gpt_profiler.profile_stage(1, 2, mesh1, 1, 1)
        large = tiny_gpt_profiler.profile_stage(1, 3, mesh1, 1, 1)
        assert large.latency > small.latency

    def test_latency_scales_with_microbatch(self, tiny_gpt_profiler, mesh1):
        mb2 = tiny_gpt_profiler.profile_stage(1, 2, mesh1, 1, 1, microbatch=2)
        mb8 = tiny_gpt_profiler.profile_stage(1, 2, mesh1, 1, 1, microbatch=8)
        assert 2.0 < mb8.latency / mb2.latency < 6.0
