"""The serving runtime's prediction memos: each distinct graph costs one
model forward and one analytical estimate per model generation, every
route answers a slice with the same bits, and the fault hooks poison
the same calls as without the memo."""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import sys
import threading

import pytest

from repro.faults import InjectedFault
from repro.ir.serialize import canonical_hash
from repro.memo import MEMO_BOUND, Memo
from repro.predictors.trust import assess
from repro.serving import BreakerConfig, ReproServer, ServerConfig

SLICES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def rpc(sock: socket.socket, reader, request: dict) -> dict:
    sock.sendall((json.dumps(request) + "\n").encode())
    return json.loads(reader.readline())


def graphs_of(runtime, slices) -> list:
    return [runtime._slice_graph(pair) for pair in slices]


def fresh_generation(runtime) -> None:
    """Swap the ensemble for itself: a new generation, an empty memo."""
    runtime.ensemble = runtime.ensemble
    assert len(runtime.predictions) == 0


def expected(runtime, graphs) -> list[dict]:
    """What ``predict_batch`` answers when nothing is memoized: one
    ``predict_many`` over ``graphs``, each answer through ``assess``."""
    mean, std, ood = runtime.ensemble.predict_many(graphs)
    ana = runtime.analytical.predict_graphs(graphs)
    out = []
    for k in range(len(graphs)):
        g = assess(float(mean[k]), float(std[k]), float(ood[k]),
                   float(ana[k]), runtime.trust)
        out.append({"latency_s": g.value, "raw": g.raw, "std": g.std,
                    "ood": g.ood, "verdict": g.verdict,
                    "bounds_s": [g.lower, g.upper]})
    return out


def test_every_route_answers_a_slice_with_the_same_bits(serving_runtime):
    """After one ``predict_many`` over every slice, ``predict``,
    ``whatif`` and a fresh ``search`` (in forked pool workers) return
    the same ``latency_s`` per slice.  Without the memo each route
    predicts its slices in its own padded batch, and the last bits
    differ."""
    fresh_generation(serving_runtime)
    # suspect verdicts on the edge slices must not trip a route to the
    # analytical path: this test compares model answers
    trip_never = BreakerConfig(failure_threshold=1000, window=1000)
    srv = ReproServer(serving_runtime, ServerConfig(port=0, workers=1,
                                                    breaker=trip_never))
    srv.start()
    sock = socket.create_connection(srv.address, timeout=120)
    reader = sock.makefile("r")
    try:
        many = rpc(sock, reader, {"op": "predict_many", "id": 0,
                                  "params": {"slices": SLICES}})
        assert many["ok"] and many["served_by"] == "model", many
        first = {tuple(pair): p["latency_s"] for pair, p in
                 zip(SLICES, many["result"]["predictions"])}
        seen = {}
        for i, pair in enumerate(SLICES, 1):
            one = rpc(sock, reader, {"op": "predict", "id": i,
                                     "params": {"slice": pair}})
            assert one["ok"] and one["served_by"] == "model", one
            seen[("predict", tuple(pair))] = one["result"]["latency_s"]
        partitions = {1: [(0, 3)], 2: [(0, 2), (2, 3)],
                      3: [(0, 1), (1, 2), (2, 3)]}
        for n_stages, units in partitions.items():
            what = rpc(sock, reader, {"op": "whatif", "id": f"w{n_stages}",
                                      "params": {"n_stages": n_stages}})
            assert what["ok"] and what["served_by"] == "model", what
            for pair, lat in zip(units,
                                 what["result"]["stage_latencies_s"]):
                seen[("whatif", pair)] = lat
        search = rpc(sock, reader, {"op": "search", "id": "s",
                                    "deadline_ms": 120_000,
                                    "params": {"stage_counts": [1, 2, 3],
                                               "n_microbatches": 7}})
        assert search["ok"] and search["served_by"] == "model", search
        assert "cached" not in search["result"]
        for cand in search["result"]["candidates"]:
            assert cand["served_by"] == "model"
            for pair, lat in zip(cand["stage_units"],
                                 cand["stage_latencies_s"]):
                seen[("search", tuple(pair))] = lat
    finally:
        sock.close()
        srv.stop()
    assert {route for route, _ in seen} == {"predict", "whatif", "search"}
    mismatched = {key: (lat, first[key[1]]) for key, lat in seen.items()
                  if lat != first[key[1]]}
    assert not mismatched


class TestPredictBatchContract:
    def test_a_call_with_no_hits_is_one_ensemble_pass(self, serving_runtime):
        fresh_generation(serving_runtime)
        graphs = graphs_of(serving_runtime, [[0, 3], [0, 1], [1, 2], [0, 1]])
        results, suspect, served_by = serving_runtime.predict_batch(graphs,
                                                                    True)
        assert served_by == "model"
        assert results == expected(serving_runtime, graphs)
        assert suspect == sum(r["verdict"] != "trusted" for r in results)

    def test_a_mixed_call_computes_its_misses_in_one_pass(
            self, serving_runtime, monkeypatch):
        fresh_generation(serving_runtime)
        warm = graphs_of(serving_runtime, [[0, 1], [0, 3]])
        warmed, _, _ = serving_runtime.predict_batch(warm, True)
        ask = graphs_of(serving_runtime,
                        [[2, 3], [0, 1], [1, 3], [0, 3], [2, 3]])
        known = {canonical_hash(g): r for g, r in zip(warm, warmed)}
        misses = [g for g in ask if canonical_hash(g) not in known]
        assert misses and len(misses) < len(ask)

        ensemble = serving_runtime.ensemble
        calls = []

        def spy(graphs):
            calls.append(list(graphs))
            return type(ensemble).predict_many(ensemble, graphs)

        monkeypatch.setattr(ensemble, "predict_many", spy)
        results, _, _ = serving_runtime.predict_batch(ask, True)
        assert len(calls) == 1
        assert [id(g) for g in calls[0]] == [id(g) for g in misses]
        monkeypatch.undo()

        fresh = iter(expected(serving_runtime, misses))
        for g, got in zip(ask, results):
            key = canonical_hash(g)
            assert got == (known[key] if key in known else next(fresh))

    def test_estimates_match_the_analytical_predictor(self, serving_runtime,
                                                      monkeypatch):
        estimates = Memo("serving.estimates", "canonical graph hash",
                         bound=MEMO_BOUND)
        monkeypatch.setattr(serving_runtime, "estimates", estimates)
        graphs = graphs_of(serving_runtime, SLICES)
        want = [float(v)
                for v in serving_runtime.analytical.predict_graphs(graphs)]
        for _ in range(2):  # a cold pass, then a warm one
            got = serving_runtime.predict_batch(graphs, False)[0]
            assert [r["latency_s"] for r in got] == want
        distinct = len({canonical_hash(g) for g in graphs})
        assert len(estimates) == estimates.stats.misses == distinct


class TestFaultHooks:
    def test_predictor_error_fires_on_a_call_that_hits(
            self, serving_runtime, monkeypatch):
        graphs = graphs_of(serving_runtime, [[0, 2], [1, 3]])
        monkeypatch.setenv("REPRO_FAULTS", "predictor_error:at=1,attempts=*")
        serving_runtime._model_calls = 0
        before, _, _ = serving_runtime.predict_batch(graphs, True)
        hits = serving_runtime.predictions.stats.hits
        with pytest.raises(InjectedFault):
            serving_runtime.predict_batch(graphs, True)
        # it fired before any lookup
        assert serving_runtime.predictions.stats.hits == hits
        after, _, _ = serving_runtime.predict_batch(graphs, True)
        assert after == before
        assert serving_runtime._model_calls == 3

    def test_predict_garbage_corrupts_only_its_own_call(
            self, serving_runtime, monkeypatch):
        fresh_generation(serving_runtime)
        graphs = graphs_of(serving_runtime, [[0, 2], [1, 3]])
        clean = expected(serving_runtime, graphs)
        monkeypatch.setenv("REPRO_FAULTS", "predict_garbage:at=0|2")
        serving_runtime._model_calls = 0
        # call 0 misses: the garbage is answered but never memoized
        garbage, suspect, _ = serving_runtime.predict_batch(graphs, True)
        assert suspect == len(graphs)
        assert [r["raw"] for r in garbage] != [r["raw"] for r in clean]
        assert serving_runtime.predict_batch(graphs, True)[0] == clean
        # call 2 hits: the memo's values are corrupted for this call only
        assert serving_runtime.predict_batch(graphs, True)[0] != clean
        assert serving_runtime.predict_batch(graphs, True)[0] == clean


class TestEnsembleSwap:
    def test_reload_and_assignment_start_a_new_generation(
            self, serving_runtime, tmp_path):
        from repro.predictors.serialize import load_predictor, save_predictor

        old = serving_runtime.ensemble
        graphs = graphs_of(serving_runtime, SLICES)
        fresh_generation(serving_runtime)
        old_answers, _, _ = serving_runtime.predict_batch(graphs, True)
        member = load_predictor(save_predictor(old.members[0],
                                               tmp_path / "m.npz"))
        # same weights, predictions scaled 1.5x: a model that differs
        member.normalizer = dataclasses.replace(
            member.normalizer,
            target_scale=member.normalizer.target_scale * 1.5)
        path = save_predictor(member, tmp_path / "m.npz")
        gen = serving_runtime.generation
        try:
            serving_runtime.reload((str(path),))
            assert serving_runtime.generation == gen + 1
            assert len(serving_runtime.predictions) == 0
            new_answers, _, _ = serving_runtime.predict_batch(graphs, True)
            assert new_answers == expected(serving_runtime, graphs)
            assert ([r["raw"] for r in new_answers]
                    != [r["raw"] for r in old_answers])
        finally:
            serving_runtime.ensemble = old
        assert serving_runtime.generation == gen + 2
        assert len(serving_runtime.predictions) == 0
        assert serving_runtime.predict_batch(graphs, True)[0] == old_answers

    def test_a_swap_restarts_the_search_pool(self, serving_runtime):
        """Pool workers keep the memo they forked with; a new generation
        rebinds the search callable, so the pool forks afresh."""
        srv = ReproServer(serving_runtime, ServerConfig(port=0, workers=1))
        task = srv._search_task
        srv.start()
        sock = socket.create_connection(srv.address, timeout=120)
        reader = sock.makefile("r")
        try:
            serving_runtime.ensemble = serving_runtime.ensemble
            resp = rpc(sock, reader, {"op": "search", "id": 1,
                                      "deadline_ms": 120_000,
                                      "params": {"stage_counts": [1, 2],
                                                 "n_microbatches": 9}})
        finally:
            sock.close()
            srv.stop()
        assert resp["ok"], resp
        assert srv._search_task is not task
        assert srv._search_generation == serving_runtime.generation


def test_health_reports_both_tiers(serving_runtime):
    srv = ReproServer(serving_runtime, ServerConfig(port=0, workers=1))
    srv.start()
    sock = socket.create_connection(srv.address, timeout=60)
    reader = sock.makefile("r")
    try:
        assert rpc(sock, reader, {"op": "predict", "id": 1,
                                  "params": {"slice": [0, 1]}})["ok"]
        caches = rpc(sock, reader, {"op": "health", "id": 2})["result"][
            "caches"]
    finally:
        sock.close()
        srv.stop()
    for name in ("serving.predictions", "serving.estimates"):
        assert caches[name]["bound"] == MEMO_BOUND
        assert caches[name]["key"] == "canonical graph hash"
        assert caches[name]["entries"] >= 1


def test_threads_racing_on_the_memos_agree_and_lose_no_count(
        serving_runtime):
    """The batcher and the executor threads share the memos.  Model-path
    calls serialize on ``model_lock``, so each distinct graph misses the
    prediction memo once; estimates are computed outside it, and racing
    threads publish one value.  Every lookup is counted."""
    fresh_generation(serving_runtime)
    # one graph per structure, so no call asks the same key twice
    graphs = list({canonical_hash(g): g for g in
                   graphs_of(serving_runtime, SLICES)}.values())
    estimates0 = serving_runtime.estimates.stats
    calls = 40
    seen: list[list] = []

    def ask(seed: int, out: list) -> None:
        rng = random.Random(seed)
        for _ in range(calls):
            picked = rng.sample(range(len(graphs)), rng.randint(1, 3))
            use_model = rng.random() < 0.8
            results, _, served_by = serving_runtime.predict_batch(
                [graphs[i] for i in picked], use_model)
            out.extend((i, served_by, r["latency_s"])
                       for i, r in zip(picked, results))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = []
        for seed in range(6):  # more threads than cores
            seen.append([])
            threads.append(threading.Thread(target=ask,
                                            args=(seed, seen[-1])))
            threads[-1].start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    answers = [a for out in seen for a in out]
    values: dict = {}
    for i, served_by, latency in answers:
        values.setdefault((canonical_hash(graphs[i]), served_by),
                          set()).add(latency)
    assert all(len(v) == 1 for v in values.values())
    model = sum(served_by == "model" for _, served_by, _ in answers)
    stats = serving_runtime.predictions.stats
    assert (stats.hits, stats.misses) == (model - len(graphs), len(graphs))
    estimates = serving_runtime.estimates.stats
    assert (estimates.hits + estimates.misses
            - estimates0.hits - estimates0.misses) == len(answers)

