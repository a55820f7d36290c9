"""Cluster substrate: GPUs, links, meshes, collectives, platforms."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    A40,
    MESH_CONFIGS,
    NVLINK,
    PARALLEL_CONFIGS,
    PLATFORM1,
    PLATFORM2,
    RTX_A5500,
    TEN_GBE,
    DeviceMesh,
    allgather_time,
    allreduce_time,
    alltoall_time,
    broadcast_time,
    enumerate_submeshes,
    get_platform,
    logical_views,
    p2p_time,
)


class TestGPU:
    def test_a40_spec(self):
        assert A40.mem_capacity == 48 * 1024**3
        assert A40.peak_flops > 3e13

    def test_matmul_efficiency_bounded(self):
        for m, n, k in [(1, 1, 1), (128, 128, 128), (4096, 4096, 4096),
                        (1, 4096, 4096), (1024, 1024, 64)]:
            e = A40.matmul_efficiency(m, n, k)
            assert 0.0 < e <= 1.0

    def test_big_gemm_more_efficient_than_small(self):
        assert (A40.matmul_efficiency(4096, 4096, 4096)
                > A40.matmul_efficiency(64, 64, 64))

    def test_tile_quantization_penalty(self):
        aligned = A40.matmul_efficiency(2048, 2048, 2048)
        ragged = A40.matmul_efficiency(2048 + 1, 2048, 2048)
        assert ragged < aligned

    def test_elementwise_bandwidth_saturates(self):
        small = A40.elementwise_bandwidth(1e3)
        large = A40.elementwise_bandwidth(1e9)
        assert small < large <= A40.mem_bandwidth


class TestLinks:
    def test_transfer_time_affine(self):
        t1 = NVLINK.transfer_time(1e6)
        t2 = NVLINK.transfer_time(2e6)
        assert t2 > t1
        assert t2 - t1 == pytest.approx(1e6 / NVLINK.beta)

    def test_zero_bytes_free(self):
        assert NVLINK.transfer_time(0) == 0.0

    def test_nvlink_much_faster_than_ethernet(self):
        assert NVLINK.transfer_time(1e8) < TEN_GBE.transfer_time(1e8) / 10


class TestCollectives:
    def test_allreduce_single_rank_free(self):
        assert allreduce_time(NVLINK, 1e6, 1) == 0.0

    def test_allreduce_is_2x_allgather_bandwidth(self):
        n, p = 1e8, 4
        ar = allreduce_time(NVLINK, n, p)
        ag = allgather_time(NVLINK, n, p)
        assert ar == pytest.approx(2 * ag, rel=1e-9)

    def test_bandwidth_term_scales_with_bytes(self):
        t1 = allreduce_time(NVLINK, 1e8, 4)
        t2 = allreduce_time(NVLINK, 2e8, 4)
        assert t2 > t1

    @given(p=st.integers(2, 64), nbytes=st.floats(1e3, 1e9))
    @settings(max_examples=30, deadline=None)
    def test_allreduce_monotone_in_bytes_and_positive(self, p, nbytes):
        t = allreduce_time(NVLINK, nbytes, p)
        assert t > 0
        assert allreduce_time(NVLINK, nbytes * 2, p) > t

    def test_ring_bandwidth_asymptote(self):
        """For large n the ring all-reduce approaches 2n/β regardless of p."""
        n = 1e10
        t8 = allreduce_time(NVLINK, n, 8)
        t64 = allreduce_time(NVLINK, n, 64)
        assert abs(t8 - t64) / t8 < 0.2

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            allreduce_time(NVLINK, -1, 2)
        with pytest.raises(ValueError):
            allgather_time(NVLINK, 1e6, 0)

    def test_alltoall_and_broadcast_positive(self):
        assert alltoall_time(TEN_GBE, 1e6, 4) > 0
        assert broadcast_time(TEN_GBE, 1e6, 4) > 0
        assert p2p_time(TEN_GBE, 1e6) > 0


class TestMesh:
    def test_num_devices(self):
        m = DeviceMesh(2, 2, A40, NVLINK, TEN_GBE)
        assert m.num_devices == 4

    def test_logical_shape_must_factorize(self, mesh3):
        with pytest.raises(ValueError):
            mesh3.logical(3, 1)

    def test_mp_within_node_uses_nvlink(self, mesh3):
        lv = mesh3.logical(2, 2)
        assert lv.mp_link is mesh3.intra_link
        assert lv.dp_link is mesh3.inter_link

    def test_mp_across_nodes_uses_ethernet(self, mesh3):
        lv = mesh3.logical(1, 4)
        assert lv.mp_link is mesh3.inter_link

    def test_single_node_all_nvlink(self, mesh2):
        for lv in logical_views(mesh2):
            assert lv.mp_link is mesh2.intra_link
            assert lv.dp_link is mesh2.intra_link

    def test_logical_views_cover_power_of_two(self, mesh3):
        shapes = {(lv.dp, lv.mp) for lv in logical_views(mesh3)}
        assert shapes == {(4, 1), (2, 2), (1, 4)}

    def test_submesh_enumeration(self):
        cluster = PLATFORM2.cluster()
        subs = enumerate_submeshes(cluster)
        sizes = [m.num_devices for m in subs]
        assert sizes == [1, 2, 4]

    def test_empty_mesh_rejected(self):
        with pytest.raises(ValueError):
            DeviceMesh(0, 2, A40, NVLINK, TEN_GBE)

    def test_key_stable_and_distinct(self, mesh2, mesh3):
        assert mesh2.key() != mesh3.key()
        assert mesh2.key() == mesh2.key()
        # meshes come back pickled from pool workers: same key after the trip
        assert pickle.loads(pickle.dumps(mesh3)).key() == mesh3.key()


class TestPlatforms:
    def test_table_ii_meshes(self):
        assert MESH_CONFIGS == {1: (1, 1), 2: (1, 2), 3: (2, 2)}

    def test_table_iii_configs(self):
        assert PARALLEL_CONFIGS[2] == {1: (2, 1), 2: (1, 2)}
        assert PARALLEL_CONFIGS[3] == {1: (4, 1), 2: (2, 2), 3: (1, 4)}

    def test_platform1_supports_meshes_1_2(self):
        assert PLATFORM1.mesh_indices() == [1, 2]
        with pytest.raises(ValueError):
            PLATFORM1.mesh(3)

    def test_platform2_supports_all_meshes(self):
        assert PLATFORM2.mesh_indices() == [1, 2, 3]

    def test_platform_gpus(self):
        assert PLATFORM1.gpu is A40
        assert PLATFORM2.gpu is RTX_A5500

    def test_get_platform(self):
        assert get_platform("platform1") is PLATFORM1
        with pytest.raises(ValueError):
            get_platform("platform9")
