"""Chaos suite: damage along the way must never change the answers.

The infrastructure analogue of the paper's ablation studies: perturb
the system — corrupted and torn store entries, raising store calls,
slow requests, a dying pool worker — and assert that study payloads
stay **byte-identical** and selections **index-identical** to the
undamaged run.

All damage is injected from the test side (monkeypatched store
primitives, a wrapped batcher, a worker body that exits), so the
production code carries no injection seam.  Every plan is
deterministic: the same seed against the same workload damages the
same calls the same way, so a failure replays exactly.
"""

import asyncio
import json
import multiprocessing
import os
import random
import time

import pytest

from repro.figures.cache import StudyKey, StudyStore
from repro.runner.runner import StudyRunner, run_study
from repro.service import SelectionEngine, SelectionService

KEY = StudyKey(scale="quick", seed=0, expression="aatb", box="paper_box")
MATRIX = (
    StudyKey("quick", 0, "aatb"),
    StudyKey("quick", 1, "aatb"),
)
DIMS = [[100, 200, 300], [50, 60, 70], [1200, 1200, 1200]]


class StorePlan:
    """A seeded damage schedule for the store's text primitives.

    Specs read ``seed=N;delay=S;store.<op>=<kind>[:<times>]``: ``op``
    is ``load`` or ``save``, ``kind`` one of ``corrupt`` (a NUL byte
    at a seeded position, which no JSON parser accepts), ``torn``
    (the first half of the text), ``delay`` (sleep ``S`` seconds) or
    ``error`` (raise ``OSError``), and ``times`` a count or ``*`` for
    every call.  Calls past the count pass through untouched.
    """

    def __init__(self, spec):
        self.rng = random.Random(0)
        self.delay = 0.0
        self.rules = {}
        for clause in spec.split(";"):
            name, _, value = clause.partition("=")
            if name == "seed":
                self.rng = random.Random(int(value))
            elif name == "delay":
                self.delay = float(value)
            else:
                kind, _, times = value.partition(":")
                count = None if times == "*" else int(times or 1)
                self.rules[name.removeprefix("store.")] = [kind, count]

    def next_kind(self, op):
        rule = self.rules.get(op)
        if rule is None or rule[1] == 0:
            return None
        if rule[1] is not None:
            rule[1] -= 1
        return rule[0]

    def damage(self, kind, text):
        if kind == "delay":
            time.sleep(self.delay)
        elif kind == "error":
            raise OSError(f"chaos: store {kind}")
        elif text is not None and kind == "corrupt":
            at = self.rng.randrange(len(text) + 1)
            return text[:at] + "\x00" + text[at:]
        elif text is not None and kind == "torn":
            return text[: len(text) // 2]
        return text

    def install(self, monkeypatch):
        real_load, real_save = StudyStore.load_text, StudyStore.save_text

        def load_text(store, key):
            kind = self.next_kind("load")
            if kind == "error":
                self.damage(kind, None)
            return self.damage(kind, real_load(store, key))

        def save_text(store, key, text):
            real_save(store, key, self.damage(self.next_kind("save"), text))

        monkeypatch.setattr(StudyStore, "load_text", load_text)
        monkeypatch.setattr(StudyStore, "save_text", save_text)


def _raw_entry(root, key):
    return StudyStore(root).load_text(key)


@pytest.fixture(scope="module")
def baseline_bytes(tmp_path_factory):
    """The undamaged canonical payload bytes for KEY."""
    root = tmp_path_factory.mktemp("baseline")
    assert run_study(KEY, "json", str(root)).status == "computed"
    return StudyStore(root).path_for(KEY).read_bytes()


async def _http(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass
    head_text, _, body_text = raw.partition(b"\r\n\r\n")
    return int(head_text.split()[1]), json.loads(body_text)


# ----------------------------------------------------------------------
# Store chaos: payloads heal byte-identically
# ----------------------------------------------------------------------

#: Three distinct seeded plans; each damages loads and/or saves
#: differently, and the store must end up byte-identical to the
#: undamaged baseline every time.
STORE_PLANS = (
    "seed=1;store.load=corrupt:2",
    "seed=2;store.save=corrupt:1;store.load=torn:1",
    "seed=3;delay=0.001;store.load=delay:2;store.save=torn:1",
)


def _heal_under(monkeypatch, tmp_path, spec):
    StorePlan(spec).install(monkeypatch)
    outcomes = [run_study(KEY, "json", str(tmp_path)) for _ in range(4)]
    monkeypatch.undo()
    # No study failed, whatever the plan broke along the way: the
    # damaged entry cost exactly one recompute...
    assert [o.status for o in outcomes] == [
        "computed",
        "computed",
        "cached",
        "cached",
    ]
    # ...and once the plan is exhausted the stored payload is exactly
    # the undamaged one: damaged entries became misses, recomputes
    # overwrote them with canonical bytes.
    assert run_study(KEY, "json", str(tmp_path)).status == "cached"
    return _raw_entry(tmp_path, KEY)


@pytest.mark.parametrize("spec", STORE_PLANS)
def test_store_chaos_heals_byte_identically(
    tmp_path, monkeypatch, spec, baseline_bytes
):
    healed = _heal_under(monkeypatch, tmp_path, spec)
    assert healed.encode() == baseline_bytes
    path = StudyStore(tmp_path).path_for(KEY)
    assert path.read_bytes() == baseline_bytes


def test_corrupt_load_is_a_miss_not_a_failure(
    tmp_path, monkeypatch, baseline_bytes
):
    assert run_study(KEY, "json", str(tmp_path)).status == "computed"
    StorePlan("seed=4;store.load=corrupt:1").install(monkeypatch)
    outcome = run_study(KEY, "json", str(tmp_path))
    monkeypatch.undo()
    # The entry on disk was fine; the corrupted read made the load a
    # miss, so the study recomputed instead of failing.
    assert outcome.status == "computed"
    assert outcome.error == ""
    path = StudyStore(tmp_path).path_for(KEY)
    assert path.read_bytes() == baseline_bytes


def test_raising_store_load_surfaces_a_note(tmp_path, monkeypatch):
    assert run_study(KEY, "json", str(tmp_path)).status == "computed"
    StorePlan("seed=5;store.load=error:1").install(monkeypatch)
    outcome = run_study(KEY, "json", str(tmp_path))
    monkeypatch.undo()
    assert outcome.status == "computed"
    assert "store load failed, recomputed" in outcome.error


def test_raising_store_save_surfaces_a_note(
    tmp_path, monkeypatch, baseline_bytes
):
    StorePlan("seed=6;store.save=error:1").install(monkeypatch)
    outcome = run_study(KEY, "json", str(tmp_path))
    # The study is computed and usable; it just was not persisted.
    assert outcome.status == "computed"
    assert "store save failed (OSError" in outcome.error
    assert _raw_entry(tmp_path, KEY) is None
    # The plan is spent: the next run persists the canonical bytes.
    assert run_study(KEY, "json", str(tmp_path)).error == ""
    monkeypatch.undo()
    path = StudyStore(tmp_path).path_for(KEY)
    assert path.read_bytes() == baseline_bytes
    assert run_study(KEY, "json", str(tmp_path)).status == "cached"


# ----------------------------------------------------------------------
# Runner chaos: worker crashes
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched worker body reaches pool children only via fork",
)
def test_worker_crash_chaos_salvages_byte_identically(
    tmp_path, monkeypatch, baseline_bytes
):
    # One pool child dies outright (the stand-in for an OOM kill or a
    # segfault), which breaks the whole pool.  The salvage path must
    # rerun the missing keys in-process and leave undamaged bytes.
    from repro.runner import runner as runner_module

    real_run_study = runner_module.run_study
    doomed = MATRIX[1]

    def dying_run_study(key, store_kind, cache_dir):
        if key == doomed and multiprocessing.parent_process() is not None:
            os._exit(3)
        return real_run_study(key, store_kind, cache_dir)

    monkeypatch.setattr(runner_module, "run_study", dying_run_study)
    report = StudyRunner(cache_dir=tmp_path / "crashed", jobs=2).run(MATRIX)
    monkeypatch.undo()
    assert report.ok
    salvaged = {o.key for o in report.outcomes if "pool broke" in o.error}
    assert doomed in salvaged
    StudyRunner(cache_dir=tmp_path / "plain", jobs=1).run(MATRIX)
    crashed = StudyStore(tmp_path / "crashed")
    plain = StudyStore(tmp_path / "plain")
    for key in MATRIX:
        assert (
            crashed.path_for(key).read_bytes()
            == plain.path_for(key).read_bytes()
        )
    assert crashed.path_for(MATRIX[0]).read_bytes() == baseline_bytes


# ----------------------------------------------------------------------
# Selection chaos: answers stay index-identical
# ----------------------------------------------------------------------


def test_selections_stay_index_identical_under_store_corruption(
    tmp_path, monkeypatch
):
    store = StudyStore(tmp_path)
    clean = SelectionEngine(scale="quick", seed=0, store=store)
    expected = [
        s.algorithm_index for s in clean.select_many("aatb", DIMS)
    ]
    # Every store load is corrupted: the engine sees only misses and
    # must compute locally — and pick identically.
    StorePlan("seed=31;store.load=corrupt:*").install(monkeypatch)
    chaotic = SelectionEngine(scale="quick", seed=0, store=store)
    got = chaotic.select_many("aatb", DIMS)
    monkeypatch.undo()
    assert {s.study_source for s in got} == {"computed"}
    assert [s.algorithm_index for s in got] == expected


def test_service_answers_identically_under_request_delays():
    engine = SelectionEngine(scale="quick", seed=0)
    expected = [s.algorithm_index for s in engine.select_many("aatb", DIMS)]

    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        # The first two requests stall before reaching the batcher.
        real_select = service.batcher.select
        stalls = [0.02, 0.02]

        async def delayed(*args, **kwargs):
            if stalls:
                await asyncio.sleep(stalls.pop())
            return await real_select(*args, **kwargs)

        service.batcher.select = delayed
        results = await asyncio.gather(
            *(
                _http(
                    service.port,
                    "POST",
                    "/select",
                    {"expression": "aatb", "dims": dims},
                )
                for dims in DIMS
            )
        )
        await service.stop()
        return results, stalls

    results, stalls = asyncio.run(run())
    assert stalls == []  # both stalls were taken
    assert [status for status, _payload in results] == [200] * len(DIMS)
    assert [
        payload["algorithm"]["index"] for _status, payload in results
    ] == expected


# ----------------------------------------------------------------------
# Graceful drain: zero dropped responses
# ----------------------------------------------------------------------


def test_drain_finishes_inflight_requests_with_zero_drops():
    engine = SelectionEngine(scale="quick", seed=0)
    engine.warm(["aatb"])
    expected = engine.select("aatb", [100, 200, 300]).algorithm_index

    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        port = service.port

        # An in-flight request held open by a slow batcher...
        async def slow(*args, **kwargs):
            await asyncio.sleep(0.3)
            return engine.select("aatb", [100, 200, 300])

        service.batcher.select = slow
        inflight = asyncio.create_task(
            _http(
                port,
                "POST",
                "/select",
                {"expression": "aatb", "dims": [100, 200, 300]},
            )
        )
        await asyncio.sleep(0.1)
        assert service.stats()["resilience"]["inflight"] == 1
        # ...must still get its full answer through the drain.
        final = await service.drain()
        status, payload = await inflight
        refused = False
        try:
            await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            refused = True
        return status, payload, final, refused

    status, payload, final, refused = asyncio.run(run())
    assert status == 200
    assert payload["algorithm"]["index"] == expected  # a complete response
    assert final["resilience"]["draining"] is True
    assert final["resilience"]["inflight"] == 0
    assert final["requests"]["select"] == 1
    assert refused  # the listener closed before the wait, not after
