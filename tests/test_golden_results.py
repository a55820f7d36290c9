"""Golden regression tests pinning ``results/fast/*.csv``.

The checked-in fast-profile artifacts are the reproduction's reference
numbers; engine or cache refactors must not silently change them.  Two
tiers:

* always-on — structural validation of every pinned CSV against the
  current scenario grid / approach list, plus a full value-exact recompute
  of Fig 2 (cheap: profiling only, no predictor training);
* ``REPRO_GOLDEN=1`` — value-exact recompute of Table 5 and Fig 10 with
  the results cache disabled (minutes of predictor training; run in CI's
  golden job or before cutting a release).

All recomputes run with ``REPRO_CACHE=off`` so they cannot be satisfied
by — or polluted with — cached cells.  The Table 5 values depend on the
BLAS thread count, so run the ``REPRO_GOLDEN=1`` tier with
``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1`` (as CI's
golden job does).
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

import pytest

import repro.experiments.cache as cache_mod
from repro.core.search import APPROACHES
from repro.experiments import FAST
from repro.experiments.scenarios import scenario_grid
from repro.predictors.base import PREDICTOR_KINDS

RESULTS = Path(__file__).resolve().parents[1] / "results" / "fast"

run_golden = pytest.mark.skipif(
    os.environ.get("REPRO_GOLDEN") != "1",
    reason="full golden recompute is minutes of training; set REPRO_GOLDEN=1")


def _read(name: str) -> list[dict[str, str]]:
    path = RESULTS / name
    assert path.is_file(), f"pinned artifact {name} missing"
    with path.open() as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def cache_off(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setattr(cache_mod, "_GLOBAL", None)


class TestPinnedStructure:
    def test_table5_covers_the_full_grid(self):
        for family in ("gpt", "moe"):
            rows = _read(f"table5_{family}.csv")
            keys = {(r["scenario"], r["fraction"], r["predictor"])
                    for r in rows}
            expected = {(sc.key, f"{f:.2f}", k)
                        for sc in scenario_grid("platform1")
                        for f in FAST.fractions for k in PREDICTOR_KINDS}
            assert keys == expected
            assert all(float(r["mre_pct"]) > 0 for r in rows)

    def test_fig10_covers_all_approaches(self):
        for family in ("gpt", "moe"):
            rows = _read(f"fig10_{family}.csv")
            assert {r["approach"] for r in rows} == set(APPROACHES)
            assert all(float(r["opt_cost_s"]) > 0 for r in rows)
            assert all(float(r["plan_latency_s"]) > 0 for r in rows)

    def test_fig2_has_the_profiles_plan_count(self):
        for family in ("gpt", "moe"):
            rows = _read(f"fig2_{family}.csv")
            assert len(rows) == FAST.fig2_plans
            lats = [float(r["iteration_latency_s"]) for r in rows]
            assert min(lats) > 0 and max(lats) > min(lats)


class TestFig2Golden:
    def test_fig2_values_exact(self, cache_off):
        """Fig 2 recomputes in ~1 s; keep it value-exact in every run."""
        from repro.experiments import random_plan_latencies

        for family in ("gpt", "moe"):
            golden = [r["iteration_latency_s"]
                      for r in _read(f"fig2_{family}.csv")]
            lats = random_plan_latencies(family, FAST,
                                         n_plans=FAST.fig2_plans,
                                         seed=FAST.seed)
            assert [f"{v:.6g}" for v in lats] == golden, family


class TestScheduleGridGolden:
    def test_schedule_grid_values_exact(self, cache_off):
        """Schedule cells recompute in seconds (profiling + closed forms,
        no predictor training); keep all four families value-exact in
        every run.  Each recompute re-runs ``ScheduleSpec.validate``, so
        this also re-asserts simulator == closed form on the pinned
        stage vectors."""
        from repro.experiments.schedule_grid import run_schedule_cell
        from repro.runtime.schedules import schedule_names

        for family in ("gpt", "moe", "bert", "vit"):
            rows = {r["schedule"]: r
                    for r in _read(f"schedule_grid_{family}.csv")}
            assert set(rows) == set(schedule_names()), family
            for name, r in rows.items():
                cell = run_schedule_cell(family, name, FAST)
                assert f"{cell.closed_form:.9g}" == r["closed_form_s"], \
                    (family, name)
                assert f"{cell.simulated:.9g}" == r["simulated_s"], \
                    (family, name)
                assert f"{cell.lower_bound:.9g}" == r["lower_bound_s"], \
                    (family, name)
                assert str(cell.n_events) == r["n_events"], (family, name)
                assert str(cell.n_stages) == r["n_stages"], (family, name)
                assert str(cell.n_microbatches) == r["n_microbatches"], \
                    (family, name)
                assert " ".join(f"{t:.9g}" for t in cell.stage_times) == \
                    r["stage_times_s"], (family, name)


@run_golden
class TestTable5Golden:
    def test_table5_values_exact(self, cache_off):
        from repro.experiments.tables import mre_grid

        for family in ("gpt", "moe"):
            golden = {(r["scenario"], r["fraction"], r["predictor"]):
                      r["mre_pct"] for r in _read(f"table5_{family}.csv")}
            grid = mre_grid("platform1", family, FAST, jobs=1)
            got = {(sc, f"{frac:.2f}", kind): f"{v:.4f}"
                   for (sc, frac, kind), v in grid.items()}
            assert got == golden, family


@run_golden
class TestFig10Golden:
    def test_fig10_plans_exact_costs_close(self, cache_off):
        """Plan choice and ground-truth latency are deterministic and pin
        exactly; optimization cost includes *real* predictor-training wall
        seconds, so it only pins within a factor."""
        from repro.experiments import run_use_case

        for family in ("gpt", "moe"):
            golden = {r["approach"]: r for r in _read(f"fig10_{family}.csv")}
            result = run_use_case(family, FAST, jobs=1)
            assert set(result.results) == set(golden)
            for a, r in result.results.items():
                assert f"{r.true_iteration_latency:.6f}" == \
                    golden[a]["plan_latency_s"], (family, a)
                assert str(r.plan.n_stages) == golden[a]["n_stages"], \
                    (family, a)
                pinned = float(golden[a]["opt_cost_s"])
                assert pinned / 2 <= r.optimization_cost <= pinned * 2, \
                    (family, a)
