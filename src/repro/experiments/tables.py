"""Table V/VI harness: MRE grids over scenarios × train fractions × models.

One *cell* = train one predictor kind on one fraction of one scenario's
corpus and measure test MRE (Eqn 5), following §VIII-A: ``f`` of the
samples train, a separate 10 % validate, the remainder test.  Cells are
memoized in the results cache keyed by (profile, benchmark, scenario,
fraction, kind, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..predictors.base import PREDICTOR_KINDS, LatencyPredictor
from ..predictors.dataset import split_dataset
from ..predictors.trust import RETRY_SEED_OFFSET
from .cache import global_cache
from .corpus import stage_corpus
from .manifest import append_event
from .profiles import ExperimentProfile
from .scenarios import Scenario


@dataclass(frozen=True)
class CellResult:
    scenario_key: str
    fraction: float
    kind: str
    mre: float
    epochs_run: int
    train_seconds: float
    #: the (final) fit ended in a detected divergence
    diverged: bool = False
    #: the first fit diverged and the cell was retrained with a fresh seed
    retrained: bool = False


def cell_key(profile: ExperimentProfile, family: str, scenario: Scenario,
             fraction: float, kind: str, seed: int) -> str:
    return (f"mre/{profile.name}/{family}/{scenario.key}/"
            f"f{fraction:.2f}/{kind}/s{seed}")


def run_cell(
    family: str,
    scenario: Scenario,
    fraction: float,
    kind: str,
    profile: ExperimentProfile,
    seed: int | None = None,
    use_cache: bool = True,
) -> CellResult:
    """Train + evaluate one grid cell (or return its cached result)."""
    seed = profile.seed if seed is None else seed
    cache = global_cache()
    key = cell_key(profile, family, scenario, fraction, kind, seed)
    if use_cache and key in cache:
        v = cache.get(key)
        return CellResult(scenario.key, fraction, kind,
                          v["mre"], v["epochs"], v["seconds"],
                          v.get("diverged", False), v.get("retrained", False))

    samples = stage_corpus(family, scenario, profile)
    split = split_dataset(samples, fraction, 0.1, seed)
    predictor = LatencyPredictor(kind, seed=seed)
    result = predictor.fit(split.train, split.val, profile.train_config(seed))
    retrained = False
    if result.diverged:
        # fresh-seed retraining pass (attempt 1, so a transient
        # ``train_diverge`` chaos rule does not refire); if this fit
        # diverges too the best-so-far state still evaluates, and the
        # result is flagged so reports can surface it
        retrained = True
        append_event(cache.root, "trust_guard", site="train_diverge",
                     action="retrain", key=key)
        wall = result.wall_seconds
        predictor = LatencyPredictor(kind, seed=seed + RETRY_SEED_OFFSET)
        result = predictor.fit(split.train, split.val,
                               profile.train_config(seed + RETRY_SEED_OFFSET),
                               fault_attempt=1)
        result.wall_seconds += wall
        if result.diverged:
            append_event(cache.root, "trust_guard", site="train_diverge",
                         action="degraded", key=key)
    mre = predictor.evaluate_mre(split.test)
    cache.set(key, {"mre": mre, "epochs": result.epochs_run,
                    "seconds": result.wall_seconds,
                    "diverged": result.diverged, "retrained": retrained})
    return CellResult(scenario.key, fraction, kind, mre,
                      result.epochs_run, result.wall_seconds,
                      result.diverged, retrained)


def mre_grid(
    platform_name: str,
    family: str,
    profile: ExperimentProfile,
    kinds: tuple[str, ...] = PREDICTOR_KINDS,
    fractions: tuple[float, ...] | None = None,
    jobs: int | None = None,
) -> dict[tuple[str, float, str], float]:
    """One full Table V/VI half: {(scenario, fraction, kind): MRE%}.

    Cells run through the experiment engine: serial when ``jobs`` (or
    ``REPRO_JOBS``) resolves to 1, fanned across a process pool
    otherwise, with identical results either way.
    """
    from .engine import run_grid

    return run_grid(platform_name, family, profile, kinds,
                    fractions or profile.fractions, jobs)


def grid_statistics(
    grid: dict[tuple[str, float, str], float],
    kinds: tuple[str, ...] = PREDICTOR_KINDS,
) -> dict[str, dict[str, float]]:
    """Fig 8/9 aggregation: mean and std of MREs per predictor kind."""
    stats: dict[str, dict[str, float]] = {}
    for kind in kinds:
        vals = np.array([v for (s, f, k), v in grid.items() if k == kind])
        if len(vals) == 0:
            continue
        stats[kind] = {"mean": float(vals.mean()), "std": float(vals.std()),
                       "n": int(len(vals))}
    return stats


def best_kind_share(
    grid: dict[tuple[str, float, str], float],
    kinds: tuple[str, ...] = PREDICTOR_KINDS,
) -> dict[str, float]:
    """Fraction of (scenario, fraction) cells each kind wins (lowest MRE)."""
    cells: dict[tuple[str, float], dict[str, float]] = {}
    for (s, f, k), v in grid.items():
        cells.setdefault((s, f), {})[k] = v
    wins = {k: 0 for k in kinds}
    for cell in cells.values():
        wins[min(cell, key=cell.get)] += 1
    total = max(1, len(cells))
    return {k: w / total for k, w in wins.items()}
