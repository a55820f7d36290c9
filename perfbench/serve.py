"""``serve-mixed``: the serving daemon under mixed predict and search load.

The daemon runs with its default flags (GPT, mesh 2, a one-member
ensemble fitted at startup).  One load-generator thread drives two
connections:

* connection A sends ``predict`` / ``predict_many`` open-loop, on a
  seeded fixed-rate schedule, and each request is timed from when it was
  due, so a stall also charges the requests queued behind it;
* connection B sends ``whatif`` / ``search`` closed-loop; 40 % of its
  searches repeat an earlier question, so both the daemon's search
  cache and its supervised fan-out serve traffic.

Both connections draw their operations in the proportions of ``repro
bench serve`` (``repro.perf.servebench.OP_WEIGHTS``), with its parameter
choices where the daemon's larger default model allows them.

The untraced run boots the daemon as a child process (several times:
``setup_s`` is the median boot-to-ready time).  The traced run hosts the
daemon in this process so the spans can see the batcher, the search
fan-out and the pool.
"""

from __future__ import annotations

import json
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
import spans

SETUP_BOOTS = 3
#: connection A's schedule: predictions sent per second
PREDICT_RATE = 50.0
PREDICT_DEADLINE_MS = 5_000.0
#: ``predict_slo_share`` counts ok predictions answered within this
PREDICT_LIMIT_MS = 100.0
#: share of searches that repeat one of the last ``REPEAT_WINDOW``
#: questions; the window fits the daemon's 128-entry search cache, so
#: the hit ratio does not depend on how many questions a run gets through.
#: Below one half, so the search p50 sits inside the uncached mode rather
#: than on the edge between cache hits and fan-outs.
REPEAT_SHARE = 0.4
REPEAT_WINDOW = 64
#: fresh searches take microbatch counts from a seeded shuffle of
#: 1..FRESH_MICROBATCHES, more than a run asks
FRESH_MICROBATCHES = 4096
#: how long unanswered requests may take after the window closes
DRAIN_S = 45.0
BOOT_TIMEOUT_S = 90.0
#: specs ``serving.candidate_ms`` re-evaluates inline
CANDIDATE_SAMPLES = 100


@dataclass(frozen=True)
class DaemonConfig:
    """The daemon's model: the ``repro serve`` defaults."""

    units: int = 4
    epochs: int = 8

    def flags(self) -> list[str]:
        return ["--units", str(self.units), "--epochs", str(self.epochs)]


DEFAULTS = DaemonConfig()


def runtime_config(cfg: DaemonConfig):
    """The ``RuntimeConfig`` ``repro serve`` builds from ``cfg``'s flags."""
    import dataclasses

    from repro.predictors.trust import TrustConfig
    from repro.serving import RuntimeConfig

    trust = dataclasses.replace(TrustConfig.from_env(), enabled=True,
                                ensemble_size=1)
    return RuntimeConfig(units=cfg.units, epochs=cfg.epochs, trust=trust)


# ------------------------------------------------------------------ traffic
@dataclass
class Call:
    """One request and what became of it (monotonic seconds)."""

    id: str
    op: str
    params: dict
    due: float = 0.0
    sent: float = 0.0
    done: float | None = None
    response: dict | None = None

    def line(self) -> bytes:
        request = {"id": self.id, "op": self.op, "params": self.params}
        if self.op.startswith("predict"):
            request["deadline_ms"] = PREDICT_DEADLINE_MS
        return (json.dumps(request) + "\n").encode()

    @property
    def ok(self) -> bool:
        return bool(self.response and self.response.get("ok"))

    @property
    def latency(self) -> float:
        return self.done - self.due


def slices(units: int) -> list[list[int]]:
    return [[a, b] for a in range(units) for b in range(a + 1, units + 1)]


def op_mix(*ops: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """``repro bench serve``'s weights of ``ops`` → (ops, weights)."""
    from repro.perf.servebench import OP_WEIGHTS

    weights = dict(OP_WEIGHTS)
    return ops, tuple(weights[op] for op in ops)


def predict_schedule(seed: int, seconds: float, units: int) -> list[Call]:
    """Connection A: seeded predictions due at a fixed rate.

    Like ``repro bench serve``, ``predict_many`` asks for one to three
    slices; the slices come from every stage slice of the daemon's model.
    """
    rng = random.Random(f"predict-{seed}")
    pool = slices(units)
    ops, weights = op_mix("predict", "predict_many")
    calls = []
    for i in range(int(seconds * PREDICT_RATE)):
        if rng.choices(ops, weights)[0] == "predict":
            call = Call(f"a{i}", "predict", {"slice": rng.choice(pool)})
        else:
            call = Call(f"a{i}", "predict_many",
                        {"slices": rng.sample(pool, rng.randint(1, 3))})
        call.due = i / PREDICT_RATE
        calls.append(call)
    return calls


class QuestionStream:
    """Connection B: seeded whatif/search questions, asked closed-loop.

    A whatif asks ``repro bench serve``'s questions: one or two stages at
    2, 4 or 8 microbatches.  Its searches all ask stage counts 1-3 at 4
    microbatches, so they would all be one question.  Here a fresh search
    keeps those stage counts and takes a microbatch count not asked
    before.  Under the daemon's 1F1B default that count only enters a
    closed form, so every fresh search costs the same fan-out.
    """

    def __init__(self, seed: int, units: int) -> None:
        self.rng = random.Random(f"search-{seed}")
        self.mix = op_mix("whatif", "search")
        self.stage_counts = [k for k in (1, 2, 3) if k <= units]
        self.fresh = self.rng.sample(range(1, FRESH_MICROBATCHES + 1),
                                     FRESH_MICROBATCHES)
        self.asked: list[dict] = []
        self.n = 0

    def next(self) -> Call:
        rng, self.n = self.rng, self.n + 1
        if rng.choices(*self.mix)[0] == "whatif":
            return Call(f"b{self.n}", "whatif", {
                "n_stages": rng.randint(1, 2),
                "n_microbatches": rng.choice([2, 4, 8])})
        if self.asked and rng.random() < REPEAT_SHARE:
            params = rng.choice(self.asked[-REPEAT_WINDOW:])
        else:
            params = {"stage_counts": self.stage_counts,
                      "n_microbatches": self.fresh[len(self.asked)
                                                   % FRESH_MICROBATCHES]}
            self.asked.append(params)
        return Call(f"b{self.n}", "search", params)


class Connection:
    """A JSON-lines client connection whose answers are matched by id."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=BOOT_TIMEOUT_S)
        # requests are small writes; without this, Nagle's algorithm holds
        # each one back until the previous one is acknowledged
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.pending: dict[str, Call] = {}

    def send(self, call: Call) -> None:
        call.sent = time.monotonic()
        call.due = call.due or call.sent  # closed-loop calls are due now
        self.pending[call.id] = call
        self.sock.sendall(call.line())

    def receive(self) -> None:
        """Read what is available and file the answers it holds."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        now = time.monotonic()
        self.buf += chunk
        while b"\n" in self.buf:
            line, self.buf = self.buf.split(b"\n", 1)
            response = json.loads(line)
            call = self.pending.pop(str(response.get("id")), None)
            if call is not None:
                call.done, call.response = now, response

    def ask(self, call: Call) -> Call:
        """Send one request and block for its answer."""
        self.send(call)
        while call.done is None:
            self.receive()
        return call

    def close(self) -> None:
        self.sock.close()


@dataclass
class Traffic:
    predicts: list[Call]
    questions: list[Call] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)

    @property
    def unanswered(self) -> list[Call]:
        return [c for c in self.predicts + self.questions if c.done is None]


def drive(a: Connection, b: Connection, predicts: list[Call],
          stream: QuestionStream, seconds: float) -> Traffic:
    """Run both connections for ``seconds``, then wait for the answers."""
    traffic = Traffic(predicts)
    sel = selectors.DefaultSelector()
    sel.register(a.sock, selectors.EVENT_READ, a)
    sel.register(b.sock, selectors.EVENT_READ, b)
    t0 = time.monotonic()
    for call in predicts:
        call.due += t0
    end, give_up = t0 + seconds, t0 + seconds + DRAIN_S
    nxt, b_call = 0, None
    try:
        while True:
            now = time.monotonic()
            while nxt < len(predicts) and predicts[nxt].due <= now:
                a.send(predicts[nxt])
                nxt += 1
            if (b_call is None or b_call.done is not None) and now < end:
                b_call = stream.next()
                traffic.questions.append(b_call)
                b.send(b_call)
            waiting = a.pending or b.pending
            if now >= end and nxt == len(predicts) and not waiting:
                break
            if now >= give_up:
                break
            timeout = (predicts[nxt].due - now if nxt < len(predicts)
                       else give_up - now)
            for key, _ in sel.select(max(0.0, min(timeout, 0.05))):
                key.data.receive()
    finally:
        sel.close()
    traffic.window = (t0, time.monotonic())
    return traffic


# ------------------------------------------------------------------- checks
def check_traffic(traffic: Traffic) -> list[str]:
    """Every request answered; every search's best is its minimum."""
    problems = []
    if traffic.unanswered:
        problems.append(f"{len(traffic.unanswered)} requests unanswered")
    for call in traffic.questions:
        if call.op == "search" and call.ok:
            problems += check_search_answer(call.response["result"])
    return problems


def check_search_answer(result: dict) -> list[str]:
    best = result["best"]["iteration_latency_s"]
    low = min(c["iteration_latency_s"] for c in result["candidates"])
    if best != low:
        return [f"search best {best!r} is not the candidates' minimum {low!r}"]
    return []


def fails_check(call: Call) -> bool:
    """Unanswered, or a search answer whose best is not its minimum.

    Refused and degraded answers pass: ``ok_share`` and
    ``undegraded_share`` count those.
    """
    if call.done is None:
        return True
    return (call.op == "search" and call.ok
            and bool(check_search_answer(call.response["result"])))


def check_probe(values: list[list[float]], expected: list[float] | None
                ) -> list[str]:
    """The probe prediction is bit-equal across boots and to the pin."""
    problems = []
    if any(v != values[0] for v in values[1:]):
        problems.append(f"probe prediction differs across boots: {values}")
    if expected is None:
        problems.append(f"no pinned probe prediction; observed {values[0]}")
    elif values[0] != expected:
        problems.append(f"probe prediction {values[0]} != pinned {expected}")
    return problems


# ------------------------------------------------------------------ daemons
class ChildDaemon:
    """``repro serve`` in a child process, booted and ready."""

    def __init__(self, root: Path, env: dict, scratch: Path,
                 cfg: DaemonConfig) -> None:
        self.log = open(scratch / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             *cfg.flags()],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True)
        # a daemon that never gets ready is killed, which ends the read
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("serving on"):
                    host, port = line.split()[2].rsplit(":", 1)
                    self.address = (host, int(port))
                    return
        finally:
            watchdog.cancel()
        self.stop()
        log = (scratch / "daemon.log").read_text(errors="replace")
        raise RuntimeError(f"daemon did not become ready:\n{log[-2000:]}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class InProcessDaemon:
    """The daemon hosted in this process (traced runs)."""

    def __init__(self, cfg: DaemonConfig) -> None:
        from repro.experiments.cache import global_cache
        from repro.serving import PredictorRuntime, ReproServer, ServerConfig

        self.runtime = PredictorRuntime.build(runtime_config(cfg))
        self.journal = global_cache().root
        self.server = ReproServer(self.runtime, ServerConfig(port=0),
                                  journal_root=self.journal)
        self.server.start()
        self.address = self.server.address

    def stop(self) -> None:
        from repro.experiments import pool

        self.server.stop()
        pool._shutdown_global()


def boot(root: Path, env: dict, scratch: Path, cfg: DaemonConfig,
         traced: bool):
    """Boot a daemon, then warm it with the probe prediction and one
    search → (daemon, B-side connection, probe values, set-up seconds)."""
    t0 = time.monotonic()
    daemon = (InProcessDaemon(cfg) if traced
              else ChildDaemon(root, env, scratch, cfg))
    try:
        conn = Connection(daemon.address)
        probe = conn.ask(Call("probe", "predict_many",
                              {"slices": slices(cfg.units)}))
        if not probe.ok:
            raise RuntimeError(f"probe prediction failed: {probe.response}")
        warm = conn.ask(Call("warm", "search", {"n_microbatches": 8}))
        if not warm.ok:
            raise RuntimeError(f"warm-up search failed: {warm.response}")
    except BaseException:
        daemon.stop()
        raise
    values = [p["latency_s"] for p in probe.response["result"]["predictions"]]
    return daemon, conn, values, time.monotonic() - t0


# -------------------------------------------------------------------- run
def run(root: Path, seed: int, seconds: float, trace: bool,
        cfg: DaemonConfig = DEFAULTS,
        expected_probe: list[float] | None = None) -> dict:
    if expected_probe is None and cfg == DEFAULTS:
        pins = json.loads((Path(__file__).parent / "pinned.json").read_text())
        expected_probe = pins.get("serve-mixed", {}).get("probe_latency_s")
    scratch = common.run_dir(root, f"serve-mixed-{seed}")
    env = common.program_env(root, scratch)
    # this process runs program code too (ground truth; the traced daemon)
    common.apply_env(env)
    common.use_program(root)

    tracer = spans.Tracer()
    if trace:
        for owner, attr, name in common.LAYER_ENTRY_POINTS:
            tracer.wrap(owner, attr, name)
    daemons, setups, probes = [], [], []
    try:
        boots = 1 if trace else SETUP_BOOTS
        for i in range(boots):
            daemon, b, probe, setup = boot(root, env, scratch, cfg, trace)
            daemons.append(daemon)
            probes.append(probe)
            setups.append(setup)
            if i < boots - 1:
                b.close()
                daemon.stop()
        a = Connection(daemon.address)
        stream = QuestionStream(seed, cfg.units)
        before = Snapshot.take(b, daemon if trace else None)
        traffic = drive(a, b, predict_schedule(seed, seconds, cfg.units),
                        stream, seconds)
        after = Snapshot.take(b, daemon if trace else None)
        probe_search = b.ask(Call("probe-search", "search",
                                  {"n_microbatches":
                                   common.n_microbatches(seed),
                                   "schedule": "1f1b"}))
        a.close()
        b.close()
        layers = (layer_metrics(tracer, daemon, traffic, before, after)
                  if trace else None)
    finally:
        for d in daemons:
            d.stop()
        if trace:
            tracer.write(root / ".perfbench" /
                         f"spans-serve-mixed-seed{seed}.json")
            tracer.close()
        shutil.rmtree(scratch, ignore_errors=True)

    checked = Traffic(traffic.predicts, traffic.questions + [probe_search])
    probe_problems = check_probe(probes, expected_probe)
    problems = check_traffic(checked) + probe_problems
    if not probe_search.ok:  # it is the answer the run scores
        problems.append(f"probe search failed: {probe_search.response}")
    for p in problems:
        print(f"perfbench: serve-mixed: {p}", file=sys.stderr)
    calls = checked.predicts + checked.questions
    failed = (bool(probe_problems) + (not probe_search.ok)
              + sum(fails_check(c) for c in calls))
    result = {"correct": not problems, "attempted": len(calls),
              "failed": failed}
    if trace:
        result["metrics"] = layers
    elif problems:  # a run that fails a check is not timed
        result["metrics"] = dict.fromkeys(common.E2E_UNITS, 0.0)
    else:
        result["metrics"] = e2e_metrics(traffic, probe_search, setups, cfg)
    return result


@dataclass
class Snapshot:
    """Counters read from the daemon around the measured window."""

    counters: dict
    #: :func:`common.process_counters` (in-process daemon only)
    process: tuple = ()

    @staticmethod
    def take(conn: Connection, daemon) -> "Snapshot":
        health = conn.ask(Call(f"health-{time.monotonic()}", "health",
                               {})).response["result"]
        counters = dict(health["counters"], **{
            f"batcher_{k}": v for k, v in health["batcher"].items()})
        counters["breaker_transitions"] = sum(
            b["transitions"] for b in health["breakers"].values())
        if daemon is None:
            return Snapshot(counters)
        from repro.experiments.manifest import read_events

        counters["cell_retries"] = sum(
            e.get("event") in ("cell_retry", "cell_failed")
            for e in read_events(daemon.journal))
        return Snapshot(counters, common.process_counters())

    def delta(self, later: "Snapshot", name: str) -> int:
        return later.counters.get(name, 0) - self.counters.get(name, 0)


# ------------------------------------------------------------------ metrics
def e2e_metrics(traffic: Traffic, probe_search: Call, setups: list[float],
                cfg: DaemonConfig) -> dict:
    predicts = traffic.predicts
    lat_ms = [1e3 * c.latency for c in predicts if c.ok]
    searches = [c for c in traffic.questions if c.op == "search" and c.ok]
    cold = [c.latency for c in searches if not c.response["result"].get(
        "cached")]
    warm = [c.latency for c in searches if c.response["result"].get("cached")]
    answers = [c for c in predicts + traffic.questions if c.ok]
    plan_s, best_s, corpus_cost = ground_truth(probe_search, cfg)
    sent = len(predicts) + len(traffic.questions)
    return {
        "setup_s": statistics.median(setups),
        "search_s": common.pct(cold, 50),
        "search_warm_s": common.pct(warm, 50),
        "plan_latency_s": plan_s,
        "plan_vs_full_pct": 100.0 * plan_s / best_s,
        "opt_cost_s": corpus_cost + runtime_build_s(cfg),
        "predict_p50_ms": common.pct(lat_ms, 50),
        "predict_p95_ms": common.pct(lat_ms, 95),
        "predict_slo_share": common.ratio(
            sum(ms <= PREDICT_LIMIT_MS for ms in lat_ms), len(predicts)),
        "search_p50_ms": 1e3 * common.pct([c.latency for c in searches], 50),
        "search_p90_ms": 1e3 * common.pct([c.latency for c in searches], 90),
        "ok_share": common.ratio(len(answers), sent),
        "undegraded_share": common.ratio(
            sum(not c.response.get("degraded") for c in answers),
            len(answers)),
    }


def ground_truth(probe_search: Call, cfg: DaemonConfig
                 ) -> tuple[float, float, float]:
    """Score the probe search's candidates with simulated stage latencies.

    → (latency of the daemon's best plan, latency of the truly best
    candidate, simulated profiling seconds of the daemon's start-up
    corpus), profiling exactly as the daemon's runtime does.
    """
    from repro.cluster.mesh import logical_views
    from repro.cluster.platforms import get_platform
    from repro.core.sampling import stratified_sample
    from repro.models.clustering import cluster_layers
    from repro.models.configs import benchmark_config
    from repro.models.model import build_model
    from repro.runtime.profiler import StageProfiler
    from repro.runtime.schedules import get_schedule

    rc = runtime_config(cfg)
    model = build_model(benchmark_config(rc.family, rc.layers))
    clustering = cluster_layers(model, rc.units)
    profiler = StageProfiler(model, aggressive_fusion=True)
    mesh = get_platform(rc.platform).mesh(rc.mesh)

    def profiled(s: int, e: int):
        return [profiler.profile_stage(s, e, mesh, lv.dp, lv.mp)
                for lv in logical_views(mesh)]

    def truth(candidate: dict) -> float:
        times = [min(p.latency for p in profiled(
            *clustering.slice_range(u0, u1)))
            for u0, u1 in candidate["stage_units"]]
        return get_schedule(result["schedule"]).closed_form(
            times, result["n_microbatches"])

    result = probe_search.response["result"]
    corpus = stratified_sample(clustering.all_slices(), rc.sample_fraction,
                               rc.seed)
    cost = sum(p.profiling_cost for s, e in corpus for p in profiled(s, e))
    return (truth(result["best"]),
            min(truth(c) for c in result["candidates"]), cost)


def runtime_build_s(cfg: DaemonConfig) -> float:
    """Wall seconds of building the daemon's runtime (model, corpus,
    ensemble fit), rebuilt in this process: the measured part of the
    daemon's optimization cost."""
    from repro.serving import PredictorRuntime

    t = time.monotonic()
    PredictorRuntime.build(runtime_config(cfg))
    return time.monotonic() - t


def layer_metrics(tracer: spans.Tracer, daemon: InProcessDaemon,
                  traffic: Traffic, before: Snapshot, after: Snapshot) -> dict:
    t0, t1 = traffic.window
    window = tracer.within(t0, t1)
    metrics = common.layer_metrics(window, t1 - t0, before.process,
                                   after.process)
    batches = [s for s in window if s.name == "serving.predict_batch"
               and s.thread == "repro-serve-batcher"]
    waits = [1e3 * (c.latency - _batch_of(c, batches))
             for c in traffic.predicts if c.ok]
    verdicts = [p.get("verdict") for c in traffic.predicts if c.ok
                for p in (c.response["result"].get("predictions")
                          or [c.response["result"]])]
    assessed = [v for v in verdicts if v != "analytical"]
    specs = sorted({(k, c.params["n_microbatches"],
                     daemon.runtime.search_schedule(c.params), True)
                    for c in traffic.questions if c.op == "search"
                    for k in c.params["stage_counts"]})
    specs = random.Random(0).sample(specs, min(len(specs), CANDIDATE_SAMPLES))
    candidate_ms = []
    for spec in specs:
        t = time.monotonic()
        daemon.runtime.evaluate_candidate(spec)
        candidate_ms.append(1e3 * (time.monotonic() - t))
    fan_out_ms = [1e3 * d for d in spans.durations(
        window, "experiments.supervised_map")]
    delta = before.delta
    metrics.update({
        "predictors.suspect_share": common.ratio(
            sum(v != "trusted" for v in assessed), len(assessed)),
        "predictors.escalations": delta(after, "degraded_answers"),
        "serving.predict_batch_ms": 1e3 * common.pct(
            [s.duration for s in batches], 50),
        "serving.wait_ms_p50": common.pct(waits, 50),
        "serving.wait_ms_p99": common.pct(waits, 99),
        # the batcher's own totals: the ``coalesced_requests`` counter
        # skips single-request batches, so it cannot give a mean size
        "serving.batch_size_mean": common.ratio(
            delta(after, "batcher_coalesced"), delta(after, "batcher_batches")),
        "serving.search_cache_hit_ratio": common.ratio(
            delta(after, "search_cache_hits"), delta(after, "op_search")),
        "serving.candidate_ms": common.pct(candidate_ms, 50),
        "serving.deadline_exceeded": delta(after, "deadline_exceeded"),
        "serving.shed": delta(after, "shed"),
        "serving.breaker_transitions": delta(after, "breaker_transitions"),
        "experiments.supervised_map_ms_p50": common.pct(fan_out_ms, 50),
        "experiments.supervised_map_ms_p90": common.pct(fan_out_ms, 90),
        "experiments.cell_retries": delta(after, "cell_retries"),
        "gen.late_ms_p99": common.pct(
            [1e3 * (c.sent - c.due) for c in traffic.predicts], 99),
    })
    return metrics


def _batch_of(call: Call, batches: list[spans.Span]) -> float:
    """Duration of the last batch that ran between sending and answering
    ``call`` (0 when none did)."""
    inside = [s for s in batches if s.start >= call.sent and s.end <= call.done]
    return max(inside, key=lambda s: s.end).duration if inside else 0.0
