"""Selection service: LRU, engine, micro-batching, HTTP front end.

The load-bearing promises: batched selection is index-identical to
per-request selection, the LRU is capacity-bounded with honest
counters, and the service keeps answering when its study store is
cold, corrupt, or unreadable.
"""

import asyncio
import json

import pytest

from repro.figures.cache import StudyKey, StudyStore
from repro.service import (
    LruCache,
    SelectionBatcher,
    SelectionEngine,
    SelectionError,
    SelectionService,
)

DIMS = [
    [100, 200, 300],
    [50, 60, 70],
    [800, 100, 900],
    [1200, 1200, 1200],
    [24, 1400, 24],
]


@pytest.fixture(scope="module")
def engine():
    # Store-less: studies compute locally on first use, then sit in
    # the LRU for the rest of the module.
    return SelectionEngine(scale="quick", seed=0)


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------


def test_lru_evicts_least_recently_used_and_counts():
    lru = LruCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # touch: "b" is now the coldest
    lru.put("c", 3)  # evicts "b"
    assert "b" not in lru and "a" in lru and "c" in lru
    assert lru.get("b") is None
    assert lru.keys() == ("a", "c")
    assert lru.stats() == {
        "capacity": 2,
        "size": 2,
        "hits": 1,
        "misses": 1,
        "evictions": 1,
    }
    lru.clear()
    assert len(lru) == 0


def test_lru_refresh_does_not_evict():
    lru = LruCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("a", 10)  # refresh, not insert
    assert lru.stats()["evictions"] == 0
    assert lru.get("a") == 10 and lru.get("b") == 2


def test_lru_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        LruCache(0)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


def test_engine_selects_and_annotates(engine):
    selection = engine.select("aatb", [100, 200, 300])
    assert selection.expression == "aatb"
    assert 0 <= selection.algorithm_index < selection.n_algorithms
    assert selection.discriminant == "hybrid"
    assert selection.study_source in ("computed", "lru")
    assert selection.in_known_anomaly_region in (True, False)
    payload = selection.to_payload()
    assert payload["algorithm"]["name"] == selection.algorithm_name
    assert payload["dims"] == [100, 200, 300]


def test_engine_batch_is_index_identical_to_per_request(engine):
    for discriminant in ("min-flops", "profiled-time", "hybrid"):
        batched = engine.select_many("aatb", DIMS, discriminant=discriminant)
        singles = [
            engine.select("aatb", dims, discriminant=discriminant)
            for dims in DIMS
        ]
        assert [s.algorithm_index for s in batched] == [
            s.algorithm_index for s in singles
        ]


def test_engine_second_study_access_is_an_lru_hit(engine):
    engine.select("aatb", [100, 200, 300])
    assert engine.select("aatb", [90, 80, 70]).study_source == "lru"
    assert engine.stats()["lru"]["hits"] >= 1


def test_engine_annotate_false_skips_study_lookup(engine):
    selection = engine.select("aatb", [100, 200, 300], annotate=False)
    assert selection.study_source == "skipped"
    assert selection.in_known_anomaly_region is None


@pytest.mark.parametrize(
    "expression,dims,fragment",
    [
        ("not-an-expression", [1, 2, 3], "unknown expression"),
        ("aatb", [100, 200], "takes 3 dims"),
        ("aatb", [100, 200, "many"], "dims must be integers"),
        ("aatb", [100, 200, -1], "dims must be positive"),
        ("aatb", "100x200x300", "list of integers"),
        ("", [1, 2, 3], "needs an 'expression'"),
    ],
)
def test_engine_rejects_bad_requests(engine, expression, dims, fragment):
    with pytest.raises(SelectionError) as excinfo:
        engine.select(expression, dims)
    assert fragment in str(excinfo.value)


def test_engine_rejects_unknown_discriminant(engine):
    with pytest.raises(SelectionError) as excinfo:
        engine.select("aatb", [1, 2, 3], discriminant="oracle")
    assert "unknown discriminant" in str(excinfo.value)


def test_engine_reads_through_store_then_lru(tmp_path):
    store = StudyStore(tmp_path)
    first = SelectionEngine(scale="quick", seed=0, store=store)
    selection = first.select("aatb", [100, 200, 300])
    assert selection.study_source == "computed"
    # The computed study was written back...
    assert store.load(StudyKey("quick", 0, "aatb")) is not None
    # ...so a fresh engine over the same store reads it instead of
    # recomputing, and picks identically.
    fresh = SelectionEngine(scale="quick", seed=0, store=store)
    again = fresh.select("aatb", [100, 200, 300])
    assert again.study_source == "store"
    assert again.algorithm_index == selection.algorithm_index
    assert fresh.select("aatb", [1, 2, 3]).study_source == "lru"


def test_engine_survives_a_broken_store():
    class BrokenStore:
        kind = "broken"

        def load(self, key):
            raise OSError("store down")

        def save(self, key, *results):
            raise OSError("store down")

    engine = SelectionEngine(scale="quick", seed=0, store=BrokenStore())
    selection = engine.select("aatb", [100, 200, 300])
    assert selection.study_source == "computed"
    assert selection.in_known_anomaly_region in (True, False)
    stats = engine.stats()
    assert stats["store"]["errors"] >= 2  # the load and the write-back
    # Selection itself never degrades with the store.
    assert engine.select("aatb", [1, 2, 3]).study_source == "lru"


def test_engine_over_a_corrupted_store_computes_and_picks_identically(
    tmp_path, engine
):
    store = StudyStore(tmp_path)
    key = StudyKey("quick", 0, "aatb")
    store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
    store.path_for(key).write_text("{corrupted")
    damaged = SelectionEngine(scale="quick", seed=0, store=store)
    got = damaged.select_many("aatb", DIMS[:3])
    assert {s.study_source for s in got} == {"computed"}
    assert damaged.stats()["store"]["misses"] == 1
    assert [s.algorithm_index for s in got] == [
        s.algorithm_index for s in engine.select_many("aatb", DIMS[:3])
    ]
    # The write-back healed the entry.
    assert store.load(key) is not None


def test_engine_warm_preloads_the_lru(tmp_path):
    engine = SelectionEngine(
        scale="quick", seed=0, store=StudyStore(tmp_path)
    )
    assert engine.warm(["aatb"]) == ["computed"]
    assert engine.warm(["aatb"]) == ["lru"]


def test_engine_validates_configuration():
    with pytest.raises(ValueError):
        SelectionEngine(scale="warm")
    with pytest.raises(ValueError):
        SelectionEngine(box="narrow_box")
    with pytest.raises(ValueError):
        SelectionEngine(default_discriminant="oracle")


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------


def test_batcher_coalesces_concurrent_requests(engine):
    batcher = SelectionBatcher(engine)

    async def run():
        return await asyncio.gather(
            *(batcher.select("aatb", dims) for dims in DIMS)
        )

    results = asyncio.run(run())
    singles = [engine.select("aatb", dims) for dims in DIMS]
    assert [r.algorithm_index for r in results] == [
        s.algorithm_index for s in singles
    ]
    # All five awaited concurrently → one select_batch call.
    assert batcher.batches == 1
    assert batcher.max_batch_seen == len(DIMS)
    assert batcher.stats()["coalesced"] == len(DIMS) - 1


def test_batcher_sequential_requests_run_alone(engine):
    batcher = SelectionBatcher(engine)

    async def run():
        out = []
        for dims in DIMS[:2]:
            out.append(await batcher.select("aatb", dims))
        return out

    results = asyncio.run(run())
    assert len(results) == 2
    assert batcher.batches == 2
    assert batcher.max_batch_seen == 1


def test_batcher_max_batch_drains_eagerly(engine):
    batcher = SelectionBatcher(engine, max_batch=2)

    async def run():
        return await asyncio.gather(
            *(batcher.select("aatb", dims) for dims in DIMS[:4])
        )

    results = asyncio.run(run())
    assert len(results) == 4
    assert batcher.batches >= 2
    assert batcher.max_batch_seen <= 2


def test_batcher_propagates_request_errors(engine):
    batcher = SelectionBatcher(engine)

    async def run():
        return await asyncio.gather(
            batcher.select("aatb", [100, 200, 300]),
            batcher.select("not-an-expression", [1, 2, 3]),
            return_exceptions=True,
        )

    good, bad = asyncio.run(run())
    assert good.algorithm_index >= 0
    assert isinstance(bad, SelectionError)


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------


async def _request(port, method, path, body=None):
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


def test_http_service_end_to_end(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        port = service.port
        out = {
            "health": await _request(port, "GET", "/healthz"),
            "select": await _request(
                port,
                "POST",
                "/select",
                {"expression": "aatb", "dims": [100, 200, 300]},
            ),
            "batch": await _request(
                port,
                "POST",
                "/select_batch",
                {"expression": "aatb", "dims": DIMS},
            ),
            "unknown_expr": await _request(
                port,
                "POST",
                "/select",
                {"expression": "not-an-expression", "dims": [1, 2, 3]},
            ),
            "bad_json": await _request(port, "POST", "/select", "not a dict"),
            "not_found": await _request(port, "GET", "/nope"),
            "wrong_method": await _request(port, "GET", "/select"),
            "stats": await _request(port, "GET", "/stats"),
        }
        await service.stop()
        return out

    out = asyncio.run(run())
    assert out["health"] == (200, {"ok": True})

    status, payload = out["select"]
    assert status == 200
    expected = engine.select("aatb", [100, 200, 300])
    assert payload["algorithm"]["index"] == expected.algorithm_index
    assert payload["algorithm"]["name"] == expected.algorithm_name

    status, payload = out["batch"]
    assert status == 200
    singles = [engine.select("aatb", dims) for dims in DIMS]
    assert [s["algorithm"]["index"] for s in payload["selections"]] == [
        s.algorithm_index for s in singles
    ]

    assert out["unknown_expr"][0] == 400
    assert "unknown expression" in out["unknown_expr"][1]["error"]
    assert out["bad_json"][0] == 400
    assert out["not_found"][0] == 404
    assert out["wrong_method"][0] == 405

    status, stats = out["stats"]
    assert status == 200
    assert stats["requests"]["select"] == 1
    assert stats["requests"]["select_batch"] == 1
    assert stats["requests"]["health"] == 1
    assert stats["requests"]["errors"] == 4
    assert stats["batch"]["requests"] >= 1
    assert stats["lru"]["capacity"] >= 1
    assert "selections_served" in stats


def test_http_concurrent_selects_coalesce_into_one_batch(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        results = await asyncio.gather(
            *(
                _request(
                    service.port,
                    "POST",
                    "/select",
                    {"expression": "aatb", "dims": dims},
                )
                for dims in DIMS
            )
        )
        seen = service.batcher.max_batch_seen
        await service.stop()
        return results, seen

    results, max_batch_seen = asyncio.run(run())
    singles = [engine.select("aatb", dims) for dims in DIMS]
    assert [payload["algorithm"]["index"] for _status, payload in results] == [
        s.algorithm_index for s in singles
    ]
    # The concurrent requests actually shared select_batch calls.
    assert max_batch_seen > 1


def test_http_keep_alive_serves_multiple_requests(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        statuses = []
        for _ in range(2):
            body = json.dumps(
                {"expression": "aatb", "dims": [100, 200, 300]}
            ).encode()
            writer.write(
                (
                    "POST /select HTTP/1.1\r\nHost: test\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            status_line = await reader.readline()
            statuses.append(int(status_line.split()[1]))
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            await reader.readexactly(length)
        writer.close()
        await service.stop()
        return statuses

    assert asyncio.run(run()) == [200, 200]


def test_http_overflowing_dims_are_a_400_naming_the_cap(engine):
    # Algorithm 0's 1.8e19 FLOPs at these dims used to wrap past 2**63
    # in the int64 batch and win the min-FLOP pick over the true
    # argmin (index 2).
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        result = await _request(
            service.port,
            "POST",
            "/select",
            {
                "expression": "chain4",
                "dims": [3000000, 1000000, 2, 1000000, 3000000],
                "discriminant": "min-flops",
            },
        )
        await service.stop()
        return result

    status, payload = asyncio.run(run())
    assert status == 400
    assert f"at most {engine.dim_cap_for('chain4')}" in payload["error"]


def test_http_stats_carries_a_resilience_section(engine):
    async def run():
        service = SelectionService(
            engine, port=0, deadline=2.5, max_inflight=8
        )
        await service.start()
        status, stats = await _request(service.port, "GET", "/stats")
        await service.stop()
        return status, stats

    status, stats = asyncio.run(run())
    assert status == 200
    resilience = stats["resilience"]
    assert resilience["deadline_seconds"] == 2.5
    assert resilience["max_inflight"] == 8
    assert resilience["draining"] is False
    assert resilience["shed"] == 0
    assert resilience["deadline_exceeded"] == 0
    assert set(resilience) == {
        "deadline_seconds",
        "max_inflight",
        "inflight",
        "draining",
        "shed",
        "deadline_exceeded",
    }


def test_http_stats_schema_end_to_end(engine):
    """GET /stats exposes every subsystem's counters, typed.

    The response is the service's observability contract: the
    codegen, scheduler, resilience and ablation sections must all be
    present with the right shapes — a dashboard reading one of these
    keys must never KeyError after a refactor.
    """

    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        status, stats = await _request(service.port, "GET", "/stats")
        await service.stop()
        return status, stats

    status, stats = asyncio.run(run())
    assert status == 200

    assert isinstance(stats["selections_served"], int)
    engine_section = stats["engine"]
    assert engine_section["scale"] in ("quick", "full")
    assert isinstance(engine_section["seed"], int)
    assert isinstance(engine_section["box"], str)
    assert isinstance(engine_section["discriminants"], list)

    codegen = stats["codegen"]
    for counter in ("plans_compiled", "plan_cache_hits"):
        assert isinstance(codegen[counter], int)

    scheduler = stats["scheduler"]
    for counter in ("plans_reordered", "reorder_wins", "schedule_cache_hits"):
        assert isinstance(scheduler[counter], int)

    ablation = stats["ablation"]
    assert isinstance(ablation["components"], int)
    assert ablation["components"] == len(ablation["component_names"])
    assert all(isinstance(n, str) for n in ablation["component_names"])
    assert isinstance(ablation["study_variants"], list)
    assert "default" in ablation["study_variants"]
    assert isinstance(ablation["detectors"], list)

    resilience = stats["resilience"]
    assert isinstance(resilience["draining"], bool)
    assert isinstance(resilience["shed"], int)

    assert isinstance(stats["lru"]["capacity"], int)
    assert "kind" in stats["store"]
    assert isinstance(stats["requests"]["errors"], int)


def test_http_deadline_overrun_answers_503(engine):
    async def run():
        service = SelectionService(engine, port=0, deadline=0.05)
        await service.start()

        async def slow(*args, **kwargs):
            await asyncio.sleep(1.0)

        service.batcher.select = slow
        status, payload = await _request(
            service.port,
            "POST",
            "/select",
            {"expression": "aatb", "dims": [100, 200, 300]},
        )
        stats = service.stats()
        await service.stop()
        return status, payload, stats

    status, payload, stats = asyncio.run(run())
    assert status == 503
    assert "deadline exceeded" in payload["error"]
    assert "50 ms" in payload["error"]
    assert stats["requests"]["deadline_exceeded"] == 1
    assert stats["resilience"]["deadline_exceeded"] == 1


def test_http_deadline_spares_stats_and_healthz(engine):
    # Observability routes are exempt from the overload policy: they
    # must answer exactly when the service is struggling.
    async def run():
        service = SelectionService(
            engine, port=0, deadline=0.05, max_inflight=1
        )
        await service.start()
        health = await _request(service.port, "GET", "/healthz")
        stats = await _request(service.port, "GET", "/stats")
        await service.stop()
        return health, stats

    health, stats = asyncio.run(run())
    assert health == (200, {"ok": True})
    assert stats[0] == 200


def test_http_max_inflight_sheds_excess_load(engine):
    async def run():
        service = SelectionService(engine, port=0, max_inflight=1)
        await service.start()

        async def slow(*args, **kwargs):
            await asyncio.sleep(0.3)
            return engine.select("aatb", [100, 200, 300])

        service.batcher.select = slow
        results = await asyncio.gather(
            *(
                _request(
                    service.port,
                    "POST",
                    "/select",
                    {"expression": "aatb", "dims": [100, 200, 300]},
                )
                for _ in range(3)
            )
        )
        stats = service.stats()
        await service.stop()
        return results, stats

    results, stats = asyncio.run(run())
    statuses = sorted(status for status, _payload in results)
    # One slow request holds the slot; the others shed with 503.
    assert statuses == [200, 503, 503]
    shed_payloads = [p for s, p in results if s == 503]
    assert all("overloaded" in p["error"] for p in shed_payloads)
    assert stats["requests"]["shed"] == 2
    assert stats["resilience"]["shed"] == 2


def test_http_drain_stops_accepting_and_reports_final_stats(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        port = service.port
        status, _payload = await _request(
            port,
            "POST",
            "/select",
            {"expression": "aatb", "dims": [100, 200, 300]},
        )
        final = await service.drain()
        refused = False
        try:
            await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            refused = True
        return status, final, refused

    status, final, refused = asyncio.run(run())
    assert status == 200
    assert final["resilience"]["draining"] is True
    assert final["resilience"]["inflight"] == 0
    assert final["requests"]["select"] == 1
    assert refused


def test_cli_store_remote_is_a_usage_error(tmp_path, capsys):
    from repro.service.__main__ import main as service_main

    with pytest.raises(SystemExit) as excinfo:
        service_main(["--store", "remote", "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "invalid choice: 'remote'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["JSON", "postgres"])
def test_cli_store_has_the_single_choice_json(tmp_path, capsys, kind):
    from repro.service.__main__ import main as service_main

    with pytest.raises(SystemExit) as excinfo:
        service_main(["--store", kind, "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid choice: '{kind}'" in err
    assert err.rstrip().endswith("json')") or err.rstrip().endswith("json)")


def test_cli_store_json_needs_a_cache_dir(monkeypatch):
    from repro.service.__main__ import build_parser, _build_store

    parser = build_parser()
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert _build_store(parser.parse_args([])) is None
    with pytest.raises(SystemExit, match="--store json needs --cache-dir"):
        _build_store(parser.parse_args(["--store", "json"]))
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/studies")
    store = _build_store(parser.parse_args(["--store", "json"]))
    assert isinstance(store, StudyStore)
    assert str(store.root) == "/tmp/studies"


def test_service_validates_overload_configuration(engine):
    with pytest.raises(ValueError):
        SelectionService(engine, deadline=0.0)
    with pytest.raises(ValueError):
        SelectionService(engine, max_inflight=0)


def test_http_malformed_request_line_is_a_400(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        writer.write(b"GARBAGE\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await service.stop()
        return raw

    raw = asyncio.run(run())
    assert raw.startswith(b"HTTP/1.1 400 ")
