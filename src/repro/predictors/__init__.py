"""Black-box stage-latency predictors: DAG Transformer, GCN, GAT."""

from .analytical import AnalyticalPredictor, analytical_estimate
from .base import PREDICTOR_KINDS, LatencyPredictor, build_model
from .dag_transformer import DAGTransformerLayer, DAGTransformerModel
from .dataset import (
    Batch,
    DatasetSplit,
    Normalizer,
    StageSample,
    make_batches,
    split_dataset,
)
from .encoding_cache import (
    GraphEncoding,
    cached_encoding,
    global_encoding_cache,
)
from .gat import GATModel
from .gcn import GCNModel
from .metrics import mean_absolute_error, mre, rmse
from .serialize import load_predictor, save_predictor
from .trainer import TrainConfig, TrainResult, evaluate_loss, train_model
from .trust import (
    DEFAULT_ALPHA,
    EnsembleFitResult,
    EnsemblePredictor,
    FeatureStats,
    GuardedPrediction,
    TrustConfig,
    TrustStats,
    assess,
)

__all__ = [
    "StageSample", "Normalizer", "DatasetSplit", "split_dataset",
    "Batch", "make_batches",
    "GraphEncoding", "cached_encoding",
    "global_encoding_cache",
    "DAGTransformerModel", "DAGTransformerLayer", "GCNModel", "GATModel",
    "TrainConfig", "TrainResult", "train_model", "evaluate_loss",
    "LatencyPredictor", "build_model", "PREDICTOR_KINDS",
    "mre", "mean_absolute_error", "rmse",
    "AnalyticalPredictor", "analytical_estimate",
    "save_predictor", "load_predictor",
    "TrustConfig", "TrustStats", "FeatureStats", "GuardedPrediction",
    "EnsemblePredictor", "EnsembleFitResult", "assess", "DEFAULT_ALPHA",
]
