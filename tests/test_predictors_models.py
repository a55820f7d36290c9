"""Predictor architectures: DAG Transformer, GCN, GAT."""

import numpy as np
import pytest

from repro.ir.features import FEATURE_DIM
from repro.predictors import (
    DAGTransformerModel,
    GATModel,
    GCNModel,
    Normalizer,
    build_model,
    make_batches,
)
from repro.predictors.dag_transformer import sinusoidal_table


@pytest.fixture(scope="module")
def batch(tiny_corpus):
    norm = Normalizer.fit(tiny_corpus)
    return make_batches(tiny_corpus[:6], norm, 6)[0]


class TestDAGTransformer:
    def test_paper_hyperparameters(self):
        m = DAGTransformerModel(FEATURE_DIM)
        assert len(m.layers) == 4  # 4 DAG Transformer layers (§IV-B6)
        assert m.embed.w.shape == (FEATURE_DIM, 64)  # embedding dim 64

    def test_output_shape(self, batch):
        m = DAGTransformerModel(FEATURE_DIM, seed=0)
        out = m(batch)
        assert out.shape == (batch.size,)
        assert np.isfinite(out.data).all()

    def test_deterministic_per_seed(self, batch):
        a = DAGTransformerModel(FEATURE_DIM, seed=1)(batch).data
        b = DAGTransformerModel(FEATURE_DIM, seed=1)(batch).data
        c = DAGTransformerModel(FEATURE_DIM, seed=2)(batch).data
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_dagra_mask_matters(self, batch):
        m1 = DAGTransformerModel(FEATURE_DIM, seed=0, use_dagra=True)
        m2 = DAGTransformerModel(FEATURE_DIM, seed=0, use_dagra=False)
        assert not np.allclose(m1(batch).data, m2(batch).data)

    def test_dagpe_matters(self, batch):
        m1 = DAGTransformerModel(FEATURE_DIM, seed=0, use_dagpe=True)
        m2 = DAGTransformerModel(FEATURE_DIM, seed=0, use_dagpe=False)
        assert not np.allclose(m1(batch).data, m2(batch).data)

    def test_sinusoidal_table(self):
        t = sinusoidal_table(128, 64)
        assert t.shape == (128, 64)
        assert np.abs(t).max() <= 1.0 + 1e-6
        # distinct depths get distinct encodings
        assert not np.allclose(t[0], t[1])

    def test_models_share_one_read_only_table(self, batch):
        m1 = DAGTransformerModel(FEATURE_DIM, seed=0)
        m2 = DAGTransformerModel(FEATURE_DIM, seed=1)
        assert m1._pe is m2._pe
        assert not m1._pe.flags.writeable
        before = m1._pe.copy()
        m1(batch)
        m2(batch)
        np.testing.assert_array_equal(m1._pe, before)

    def test_padding_invariance(self, tiny_corpus):
        """Predictions must not depend on batch padding width."""
        norm = Normalizer.fit(tiny_corpus)
        m = DAGTransformerModel(FEATURE_DIM, seed=0)
        small = sorted(tiny_corpus, key=lambda s: s.encode().n_nodes)[0]
        alone = make_batches([small], norm, 1)[0]
        big = sorted(tiny_corpus, key=lambda s: s.encode().n_nodes)[-1]
        padded = make_batches([small, big], norm, 2)[0]
        # identify the small sample's row in the padded batch
        row = int(np.argmin(padded.node_mask.sum(axis=1)))
        assert m(alone).data[0] == pytest.approx(
            float(m(padded).data[row]), rel=1e-4)


class TestBaselines:
    def test_gcn_paper_hyperparameters(self):
        m = GCNModel(FEATURE_DIM)
        assert len(m.lins) == 6  # 6 GCN layers of width 256 (§VII-D)
        assert m.lins[1].w.shape == (256, 256)

    def test_gat_paper_hyperparameters(self):
        m = GATModel(FEATURE_DIM)
        assert len(m.convs) == 6  # 6 GAT layers, hidden dim 32 (§VII-D)
        assert m.convs[1].lin.w.shape == (32, 32)

    def test_gcn_output(self, batch):
        out = GCNModel(FEATURE_DIM, seed=0)(batch)
        assert out.shape == (batch.size,)
        assert np.isfinite(out.data).all()

    def test_gat_output(self, batch):
        out = GATModel(FEATURE_DIM, seed=0)(batch)
        assert out.shape == (batch.size,)
        assert np.isfinite(out.data).all()

    def test_build_model_dispatch(self):
        assert isinstance(build_model("dag_transformer"), DAGTransformerModel)
        assert isinstance(build_model("gcn"), GCNModel)
        assert isinstance(build_model("gat"), GATModel)
        with pytest.raises(ValueError):
            build_model("mlp")

    def test_gradients_flow_through_all_models(self, batch):
        from repro.nn.functional import mae

        for kind in ("dag_transformer", "gcn", "gat"):
            m = build_model(kind, seed=0)
            loss = mae(m(batch), batch.targets)
            m.zero_grad()
            loss.backward()
            grads = [p.grad for p in m.parameters()]
            n_with_grad = sum(g is not None and np.abs(g).sum() > 0
                              for g in grads)
            assert n_with_grad > len(grads) * 0.8, kind
