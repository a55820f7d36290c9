"""``repro.memo.gc_paused``: the cyclic-collector pause around stage
profiling.

The collector is process-wide, so the pause counts live blocks per
thread and only the last block to leave restores the state the first
one found.  A forked child keeps the forking thread's blocks and drops
the others', so a pool worker forked while another thread profiles runs
with the collector on.
"""

from __future__ import annotations

import gc
import os
import threading

import pytest

from repro.memo import gc_pause_depth, gc_paused, gc_snapshot


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled() and gc_pause_depth() == 0
    yield
    gc.enable()


def test_nested_pause_reenables_once():
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled() and gc_pause_depth() == 2
        assert not gc.isenabled() and gc_pause_depth() == 1
    assert gc.isenabled() and gc_pause_depth() == 0


def test_caller_disabled_collector_stays_disabled():
    gc.disable()
    with gc_paused():
        with gc_paused():
            pass
    assert not gc.isenabled()


def test_exception_inside_restores_the_collector():
    with pytest.raises(RuntimeError):
        with gc_paused():
            with gc_paused():
                raise RuntimeError("boom")
    assert gc.isenabled() and gc_pause_depth() == 0


@pytest.mark.parametrize("first_out", ["first_in", "second_in"])
def test_interleaved_threads_leave_it_enabled(first_out):
    """Thread A enters, thread B enters, then one of them leaves: the
    collector stays off until the other leaves too."""
    steps = {name: threading.Event()
             for name in ("a_in", "b_in", "a_go", "b_go")}
    seen = {}

    def worker(name, entered, go):
        with gc_paused():
            entered.set()
            go.wait(10)
        seen[name] = gc.isenabled()

    a = threading.Thread(target=worker, args=("a", steps["a_in"],
                                              steps["a_go"]))
    b = threading.Thread(target=worker, args=("b", steps["b_in"],
                                              steps["b_go"]))
    a.start()
    assert steps["a_in"].wait(10)
    b.start()
    assert steps["b_in"].wait(10)
    assert not gc.isenabled() and gc_pause_depth() == 2
    first, second = ((a, b) if first_out == "first_in" else (b, a))
    steps["a_go" if first is a else "b_go"].set()
    first.join(10)
    assert not gc.isenabled() and gc_pause_depth() == 1
    steps["b_go" if first is a else "a_go"].set()
    second.join(10)
    assert gc.isenabled() and gc_pause_depth() == 0
    assert seen == {"a": first is b, "b": first is a}


def test_many_threads_never_see_the_collector_on_inside_a_pause():
    """More threads than cores, switching every microsecond, nest pauses:
    a lost depth update would switch the collector on inside a live
    block, or leave it off at the end."""
    import sys

    errors = []

    def worker():
        for _ in range(300):
            with gc_paused():
                with gc_paused():
                    if gc.isenabled():
                        errors.append("on inside a pause")
                if gc.isenabled():
                    errors.append("on inside a pause")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert gc.isenabled() and gc_pause_depth() == 0


def _fork_report(child) -> bytes:
    """Fork; the child writes ``child()``'s bytes to a pipe and exits."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            os.write(w, child())
        finally:
            os._exit(0)
    os.close(w)
    try:
        data = os.read(r, 16)
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    return data


def test_child_forked_beside_a_paused_thread_collects():
    """Another thread is inside a pause when this one forks: only the
    forking thread lives on in the child, so its collector is on."""
    entered, release = threading.Event(), threading.Event()

    def profile():
        with gc_paused():
            entered.set()
            release.wait(10)

    t = threading.Thread(target=profile)
    t.start()
    try:
        assert entered.wait(10) and not gc.isenabled()
        report = _fork_report(lambda: bytes([gc.isenabled(),
                                             gc_pause_depth()]))
    finally:
        release.set()
        t.join(10)
    assert report == bytes([True, 0])
    assert gc.isenabled()


def test_child_forked_inside_the_pause_collects_after_the_block():
    """This thread forks inside a pause: the child inherits the block,
    runs without the collector until the block exits, then with it."""
    with gc_paused():
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            inside = [gc.isenabled(), gc_pause_depth()]
    if pid == 0:  # pragma: no cover - the child has left the block
        try:
            os.write(w, bytes([*inside, gc.isenabled(), gc_pause_depth()]))
        finally:
            os._exit(0)
    os.close(w)
    try:
        data = os.read(r, 16)
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    assert data == bytes([False, 1, True, 0])
    assert gc.isenabled()


def test_snapshot_reports_the_collector():
    snap = gc_snapshot()
    assert [set(g) for g in snap["generations"]] == \
        [{"collections", "collected", "uncollectable"}] * 3
    assert len(snap["count"]) == 3
    with gc_paused():
        assert gc_snapshot()["paused"] == 1
    assert gc_snapshot()["paused"] == 0
