"""High-level predictor facade: fit on profiled stages, predict seconds.

:class:`LatencyPredictor` bundles a graph-regression model, its feature /
target normalizer, and the training protocol, keyed by the predictor kind
(``"dag_transformer"`` — PredTOP's choice — or the ``"gcn"`` / ``"gat"``
baselines of §VII-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir.features import FEATURE_DIM
from ..ir.graph import Graph
from ..nn.tensor import no_grad
from .dag_transformer import DAGTransformerModel
from .dataset import Normalizer, StageSample, make_batches
from .gat import GATModel
from .gcn import GCNModel
from .metrics import mre
from .trainer import TrainConfig, TrainResult, train_model

PREDICTOR_KINDS = ("dag_transformer", "gcn", "gat")


def build_model(kind: str, feature_dim: int = FEATURE_DIM, seed: int = 0,
                **overrides):
    """Instantiate a predictor model with the paper's hyperparameters."""
    if kind == "dag_transformer":
        return DAGTransformerModel(feature_dim, seed=seed, **overrides)
    if kind == "gcn":
        return GCNModel(feature_dim, seed=seed, **overrides)
    if kind == "gat":
        return GATModel(feature_dim, seed=seed, **overrides)
    raise ValueError(f"unknown predictor kind {kind!r}; "
                     f"known: {PREDICTOR_KINDS}")


@dataclass
class LatencyPredictor:
    """Trainable stage-latency predictor for one (mesh, configuration)."""

    kind: str = "dag_transformer"
    seed: int = 0
    target_transform: str = "scaled"
    model_overrides: dict = field(default_factory=dict)
    model: object = None
    normalizer: Normalizer | None = None
    train_result: TrainResult | None = None

    def fit(
        self,
        train: list[StageSample],
        val: list[StageSample],
        cfg: TrainConfig | None = None,
        *,
        checkpoint_path=None,
        resume: bool = False,
        fault_attempt: int = 0,
    ) -> TrainResult:
        """Train from scratch on the given splits.

        ``checkpoint_path`` / ``resume`` pass through to
        :func:`repro.predictors.trainer.train_model`: an interrupted fit
        resumed from its checkpoint reproduces the uninterrupted one
        bit-for-bit (model construction and normalizer fitting are
        deterministic in the seed).  ``fault_attempt`` is the attempt
        coordinate for the ``train_diverge`` chaos site (1 on a
        retraining pass after a detected divergence).
        """
        self.normalizer = Normalizer.fit(train, self.target_transform)
        self.model = build_model(self.kind, seed=self.seed,
                                 **self.model_overrides)
        cfg = cfg or TrainConfig(seed=self.seed)
        self.train_result = train_model(self.model, train, val,
                                        self.normalizer, cfg,
                                        checkpoint_path=checkpoint_path,
                                        resume=resume,
                                        fault_attempt=fault_attempt)
        return self.train_result

    def _ordered_batches(self, samples: list[StageSample], batch_size: int
                         ) -> tuple[list[int], list]:
        """Samples sorted by node count and padded into dense batches."""
        order = sorted(range(len(samples)),
                       key=lambda i: samples[i].encode().n_nodes)
        ordered = [samples[i] for i in order]
        return order, make_batches(ordered, self.normalizer, batch_size)

    def _forward_batches(self, batches: list) -> np.ndarray:
        """Inverse-transformed model outputs over prepared batches."""
        preds: list[np.ndarray] = []
        with no_grad():
            for b in batches:
                preds.append(self.normalizer.inverse(self.model(b).data))
        return np.concatenate(preds)

    def predict_samples(self, samples: list[StageSample],
                        batch_size: int = 32) -> np.ndarray:
        """Predicted latencies (seconds) for encoded samples."""
        if self.model is None or self.normalizer is None:
            raise RuntimeError("predictor is not fitted")
        if not samples:
            return np.empty(0, np.float32)
        order, batches = self._ordered_batches(samples, batch_size)
        flat = self._forward_batches(batches)
        out = np.empty(len(samples), np.float32)
        out[np.asarray(order)] = flat
        # latencies are positive by definition; clamp stray negatives an
        # undertrained linear head can emit
        return np.maximum(out, 1e-6)

    def predict_graphs(self, graphs: list[Graph],
                       batch_size: int = 32) -> np.ndarray:
        """Predicted latencies for bare graphs (latency unknown)."""
        samples = [StageSample(g, latency=1.0) for g in graphs]
        return self.predict_samples(samples, batch_size)

    def evaluate_mre(self, samples: list[StageSample]) -> float:
        """MRE (Eqn 5, %) against the samples' recorded latencies."""
        pred = self.predict_samples(samples)
        true = np.array([s.latency for s in samples], np.float64)
        return mre(pred, true)
