"""The benchmark's own tests, at toy size.

    python -m pytest perfbench/tests -q

Each workload runs end to end on a model small enough to take seconds,
every output check is shown to reject a wrong plan or answer, and the
metric catalog is held to ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import offline  # noqa: E402
import serve  # noqa: E402

TOY_SWEEP = offline.OfflineConfig("moe", 2, 2, "full",
                                  aggressive_fusion=True, mesh=2)
TOY_PREDTOP = offline.OfflineConfig("gpt", 2, 3, "predtop-dag_transformer",
                                    aggressive_fusion=True, mesh=2,
                                    sample_fraction=0.5, ensemble=2, epochs=2)
TOY_DAEMON = serve.DaemonConfig(units=2, epochs=1)

#: answers of the toy configurations at seed 0 (8 microbatches)
TOY_PINS = {
    "profile-sweep": {"plan": [[0, 2, "1x1-RTX_A5500-nvlink-10gbe"],
                               [2, 4, "1x1-RTX_A5500-nvlink-10gbe"]],
                      "plan_latency_s": 0.8466403491379926,
                      "ref_latency_s": 0.8466403491379926},
    "predtop-search": {"plan": [[0, 3, "1x1-RTX_A5500-nvlink-10gbe"],
                                [3, 4, "1x1-RTX_A5500-nvlink-10gbe"]],
                       "plan_latency_s": 1.5181156486168463,
                       "ref_latency_s": 1.4174473988983414},
}
TOY_PROBE = [0.4428985100525186, 1.4071200111960072, 0.8833724856376648]


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _assert_result(result: dict, units: dict) -> None:
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)


# ------------------------------------------------------------ end to end
@pytest.mark.parametrize("workload,cfg", [("profile-sweep", TOY_SWEEP),
                                          ("predtop-search", TOY_PREDTOP)])
@pytest.mark.parametrize("trace", [False, True])
def test_offline_workload_runs_end_to_end(workload, cfg, trace):
    result = offline.run(ROOT, workload, seed=0, seconds=0, trace=trace,
                         cfg=cfg, expected=TOY_PINS[workload])
    _assert_result(result, common.LAYER_UNITS if trace
                   else common.E2E_UNITS)
    metrics = result["metrics"]
    if trace:
        assert metrics["runtime.execute_s"] > 0
        assert metrics["parallel.inter_op_s"] > 0
    else:
        assert metrics["search_s"] > 0 and metrics["setup_s"] > 0
        assert metrics["ok_share"] == 1.0


@pytest.mark.parametrize("trace", [False, True])
def test_serve_workload_runs_end_to_end(trace):
    result = serve.run(ROOT, seed=0, seconds=2.0, trace=trace,
                       cfg=TOY_DAEMON, expected_probe=TOY_PROBE)
    _assert_result(result, common.LAYER_UNITS if trace
                   else common.E2E_UNITS)
    metrics = result["metrics"]
    if trace:
        assert metrics["serving.predict_batch_ms"] > 0
        assert metrics["experiments.supervised_map_ms_p50"] > 0
    else:
        assert metrics["predict_p50_ms"] > 0 and metrics["search_p50_ms"] > 0
        assert 0 < metrics["plan_vs_full_pct"]


# ---------------------------------------------------------------- checks
def _search(plan, latency):
    return {"plan": plan, "plan_latency_s": latency}


PIN = {"plan": [[0, 2, "1x2"], [2, 4, "1x2"]], "plan_latency_s": 1.5,
       "ref_latency_s": 1.25}


def test_offline_check_accepts_the_pinned_plan():
    assert offline.check_search(_search(PIN["plan"], 1.5), 1.25, PIN) == []


@pytest.mark.parametrize("plan,latency,ref", [
    ([[0, 2, "1x2"], [2, 4, "2x2"]], 1.5, 1.25),   # wrong submesh
    ([[0, 3, "1x2"], [3, 4, "1x2"]], 1.5, 1.25),   # wrong layer ranges
    (PIN["plan"], 1.5000000001, 1.25),              # wrong plan latency
    (PIN["plan"], 1.5, 1.3),                        # wrong exhaustive plan
])
def test_offline_check_rejects_a_wrong_plan(plan, latency, ref):
    assert offline.check_search(_search(plan, latency), ref, PIN)


def test_offline_check_rejects_an_unpinned_seed():
    assert offline.check_search(_search(PIN["plan"], 1.5), 1.25, None)


def test_offline_timings_are_the_fastest_search():
    def search(wall):
        return {"wall_s": wall, "entries": 10, "plan_latency_s": 1.5,
                "opt_cost_s": 100.0 + wall, "analytical": 0}

    valid = [("cold", search(3.0)), ("warm", search(2.5)),
             ("cold", search(2.0)), ("warm", search(1.0))]
    metrics = offline.e2e_metrics(valid, 4, 1.25, [0.3, 0.5, 0.4])
    assert metrics["search_s"] == 2.0
    assert metrics["search_warm_s"] == 1.0
    assert metrics["opt_cost_s"] == 102.0
    assert metrics["search_p90_ms"] == 2000.0
    assert metrics["predict_p50_ms"] == 200.0
    assert metrics["setup_s"] == 0.4
    assert metrics["plan_vs_full_pct"] == 120.0


def test_forked_samples_leave_the_caller_untouched():
    state = {"n": 0}

    def bump():
        state["n"] += 1
        return state["n"]

    assert offline.forked(bump) == 1
    assert offline.forked(bump) == 1
    assert state["n"] == 0


def _answer(best, *others):
    return {"best": {"iteration_latency_s": best},
            "candidates": [{"iteration_latency_s": v}
                           for v in (best, *others)]}


def test_search_check_rejects_a_best_that_is_not_the_minimum():
    assert serve.check_search_answer(_answer(1.0, 2.0, 3.0)) == []
    assert serve.check_search_answer(_answer(2.0, 1.0, 3.0))


def test_traffic_check_rejects_unanswered_requests_and_bad_searches():
    answered = serve.Call("a0", "predict", {}, done=1.0,
                          response={"ok": True})
    good = serve.Call("b1", "search", {}, done=1.0,
                      response={"ok": True, "result": _answer(1.0, 2.0)})
    assert serve.check_traffic(serve.Traffic([answered], [good])) == []
    lost = serve.Call("a1", "predict", {})
    assert serve.check_traffic(serve.Traffic([answered, lost], [good]))
    bad = serve.Call("b2", "search", {}, done=1.0,
                     response={"ok": True, "result": _answer(2.0, 1.0)})
    assert serve.check_traffic(serve.Traffic([answered], [good, bad]))


def test_only_calls_that_fail_a_check_count_as_failed():
    shed = serve.Call("a0", "predict", {}, done=1.0,
                      response={"ok": False, "error": {"code": "overloaded"}})
    assert not serve.fails_check(shed)
    assert serve.fails_check(serve.Call("a1", "predict", {}))
    bad = serve.Call("b1", "search", {}, done=1.0,
                     response={"ok": True, "result": _answer(2.0, 1.0)})
    assert serve.fails_check(bad)


def test_probe_check_demands_bit_equal_predictions():
    values = [0.125, 0.25]
    assert serve.check_probe([values, list(values)], values) == []
    assert serve.check_probe([values, [0.125, 0.25000000000000006]], values)
    assert serve.check_probe([values], [0.125, 0.3])
    assert serve.check_probe([values], None)


# --------------------------------------------------------------- catalog
def test_metric_catalog_matches_benchmark_json():
    bench = _benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == common.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == common.LAYER_UNITS
    names = [w["name"] for w in bench["workloads"]]
    assert sorted(names) == sorted(offline.CONFIGS) + ["serve-mixed"]


def test_every_pinned_seed_class_is_pinned():
    pins = json.loads((HERE / "pinned.json").read_text())
    for workload in offline.CONFIGS:
        for seed in (0, 1):
            assert offline.pinned(workload, seed) is not None
    assert len(pins["serve-mixed"]["probe_latency_s"]) \
        == len(serve.slices(serve.DEFAULTS.units))


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
