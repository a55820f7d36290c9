"""Dataset encoding, normalization, splitting, batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import (
    Normalizer,
    StageSample,
    global_encoding_cache,
    make_batches,
    split_dataset,
)


class TestEncoding:
    def test_encode_idempotent(self, tiny_corpus):
        s = tiny_corpus[0]
        s.encode()
        f1 = s.features
        s.encode()
        assert s.features is f1

    def test_shapes_consistent(self, tiny_corpus):
        for s in tiny_corpus[:5]:
            s.encode()
            n = s.n_nodes
            assert s.features.shape[0] == n
            assert s.reach.shape == (n, n)
            assert s.adj.shape == (n, n)
            assert s.depths.shape == (n,)


class TestNormalizer:
    def test_fit_standardizes_features(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus)
        stacked = np.concatenate(
            [norm.features(s) for s in tiny_corpus], axis=0)
        # non-constant columns are ~standardized
        stds = stacked.std(axis=0)
        assert stds.max() < 5.0

    def test_scaled_target_roundtrip(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus, "scaled")
        y = np.array([0.01, 0.5, 2.0])
        assert np.allclose(norm.inverse(norm.target(y)), y, rtol=1e-5)

    def test_log_target_roundtrip(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus, "log")
        y = np.array([0.01, 0.5, 2.0], np.float32)
        assert np.allclose(norm.inverse(norm.target(y)), y, rtol=1e-4)

    def test_standard_target_roundtrip(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus, "standard")
        y = np.array([0.01, 0.5, 2.0], np.float32)
        assert np.allclose(norm.inverse(norm.target(y)), y, rtol=1e-4)

    def test_scaled_mean_is_one(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus, "scaled")
        lats = np.array([s.latency for s in tiny_corpus])
        assert norm.target(lats).mean() == pytest.approx(1.0, rel=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Normalizer.fit([])


class TestSplit:
    def test_fractions_respected(self, tiny_corpus):
        sp = split_dataset(tiny_corpus, 0.5, 0.1, seed=0)
        n = len(tiny_corpus)
        assert len(sp.train) == round(0.5 * n)
        assert len(sp.val) >= 1
        assert len(sp.train) + len(sp.val) + len(sp.test) == n

    def test_splits_disjoint(self, tiny_corpus):
        sp = split_dataset(tiny_corpus, 0.6, 0.1, seed=1)
        ids = lambda xs: {id(x) for x in xs}
        assert not (ids(sp.train) & ids(sp.val))
        assert not (ids(sp.train) & ids(sp.test))

    def test_seed_determinism(self, tiny_corpus):
        a = split_dataset(tiny_corpus, 0.5, 0.1, seed=3)
        b = split_dataset(tiny_corpus, 0.5, 0.1, seed=3)
        assert [s.stage_id for s in a.train] == [s.stage_id for s in b.train]

    def test_invalid_fractions(self, tiny_corpus):
        with pytest.raises(ValueError):
            split_dataset(tiny_corpus, 0.0)
        with pytest.raises(ValueError):
            split_dataset(tiny_corpus, 0.95, 0.1)


class TestBatching:
    def test_all_samples_covered(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus)
        batches = make_batches(tiny_corpus, norm, 4)
        assert sum(b.size for b in batches) == len(tiny_corpus)

    def test_bucketing_limits_padding(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus)
        bucketed = make_batches(tiny_corpus, norm, 4, bucket=True)
        plain = make_batches(tiny_corpus, norm, 4, bucket=False)
        pad = lambda bs: sum(b.features.shape[1] * b.size for b in bs)
        assert pad(bucketed) <= pad(plain)

    def test_padding_masked(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus)
        for b in make_batches(tiny_corpus, norm, 4):
            counts = b.node_mask.sum(axis=1).astype(int)
            for j, s_nodes in enumerate(counts):
                assert np.all(b.features[j, s_nodes:] == 0)

    def test_padding_rows_attend_to_self(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus)
        for b in make_batches(tiny_corpus, norm, 4):
            assert b.reach[:, np.arange(b.reach.shape[1]),
                           np.arange(b.reach.shape[1])].all()

    def test_sparse_adjacency_matches_dense(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus)
        b = make_batches(tiny_corpus, norm, 4)[0]
        B, N, _ = b.features.shape
        dense = np.zeros((B * N, B * N), np.float32)
        for j in range(B):
            dense[j * N:(j + 1) * N, j * N:(j + 1) * N] = b.adj[j]
        assert np.allclose(b.adj_sparse.toarray(), dense)

    def test_sparse_adjacency_equals_scipy_block_diag(self, tiny_corpus):
        """The O(nnz) direct CSR assembly is exactly scipy's block_diag of
        the dense padded blocks — same values, structure, and dtype."""
        import scipy.sparse as sp

        norm = Normalizer.fit(tiny_corpus)
        for b in make_batches(tiny_corpus, norm, 4):
            B = b.size
            expect = sp.block_diag(
                [sp.csr_matrix(b.adj[j]) for j in range(B)], format="csr")
            assert b.adj_sparse.shape == expect.shape
            assert b.adj_sparse.dtype == expect.dtype
            assert (b.adj_sparse != expect).nnz == 0

    def test_sample_csr_cached(self, tiny_corpus):
        s = tiny_corpus[0]
        c1 = s.sparse_adj()
        assert s.sparse_adj() is c1
        assert np.allclose(c1.toarray(), s.encode().adj)

    def test_invalid_batch_size(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus)
        with pytest.raises(ValueError):
            make_batches(tiny_corpus, norm, 0)


class TestBatchInvariants:
    def test_bucket_false_preserves_order(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus)
        batches = make_batches(tiny_corpus, norm, 3, bucket=False)
        flat = np.concatenate([b.latencies for b in batches])
        assert np.array_equal(
            flat, np.array([s.latency for s in tiny_corpus], np.float32))

    def test_attn_bias_matches_where_exactly(self, tiny_corpus):
        """The precomputed additive mask must be *bit-identical* to the
        np.where the attention layers used to build per forward."""
        norm = Normalizer.fit(tiny_corpus)
        for b in make_batches(tiny_corpus, norm, 4):
            expect = np.where(b.reach[:, None, :, :], np.float32(0.0),
                              np.float32(-1e9))
            assert b.attn_bias.dtype == np.float32
            assert b.attn_bias.shape == (b.size, 1) + b.reach.shape[1:]
            assert np.array_equal(b.attn_bias, expect)

    def test_attn_bias_covers_padding_self_loops(self, tiny_corpus):
        """Padding rows attend to themselves (bias 0 on the diagonal), so
        their softmax rows stay finite."""
        norm = Normalizer.fit(tiny_corpus)
        for b in make_batches(tiny_corpus, norm, 4):
            n = b.reach.shape[1]
            diag = b.attn_bias[:, 0, np.arange(n), np.arange(n)]
            assert np.all(diag == 0.0)

    def test_ablation_bias_lazy_and_exact(self, tiny_corpus):
        norm = Normalizer.fit(tiny_corpus)
        b = make_batches(tiny_corpus, norm, 4)[0]
        assert b._ablation_bias is None  # built on demand only
        bias = b.ablation_bias()
        assert b.ablation_bias() is bias  # cached per batch
        n = b.node_mask.shape[1]
        full = (b.node_mask[:, None, :] > 0) | np.eye(n, dtype=bool)[None]
        expect = np.where(full[:, None, :, :], np.float32(0.0),
                          np.float32(-1e9))
        assert np.array_equal(bias, expect)

    def test_cached_and_fresh_batches_identical(self, tiny_corpus,
                                                monkeypatch):
        """Batches built through the shared encoding cache must equal the
        construction from fresh encodings bit-for-bit, array by array."""
        def build():
            samples = [StageSample(s.graph, s.latency, s.stage_id)
                       for s in tiny_corpus]
            norm = Normalizer.fit(samples)
            return make_batches(samples, norm, 4)

        cached = build()
        monkeypatch.setattr(global_encoding_cache(), "get",
                            lambda key, compute: compute())
        fresh = build()
        assert len(cached) == len(fresh)
        for bc, bf in zip(cached, fresh):
            for name in ("features", "node_mask", "reach", "adj", "depths",
                         "targets", "latencies", "attn_bias"):
                assert np.array_equal(getattr(bc, name), getattr(bf, name)), name
            assert np.array_equal(bc.adj_sparse.toarray(),
                                  bf.adj_sparse.toarray())
