"""The repository's benchmark: cold studies and served selections.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload study-cold --seed 1 --seconds 20 \
        --trace 0

Workloads (see ``spec.py`` for why each exists):

* ``study-cold`` — rounds of the 7 benchmark families, each round a
  fresh interpreter computing every study one after another through
  ``repro.runner.run_study`` into a fresh json store.
* ``select-model`` / ``select-minflops`` — a ``python -m repro.service``
  process over a store prepared before timing, driven by this process
  alone: a closed loop of 2 keep-alive connections sending
  ``POST /select`` from a seeded request stream.

With ``--trace 0`` the last line of output is a JSON object carrying
every end-to-end metric; with ``--trace 1`` the same run is repeated
with layer tracing (:mod:`tracing`) and the object carries every
per-layer metric, including tracing overhead.  Outputs are checked
after the timed work; an operation that fails or fails a check is
counted in ``failed`` and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"
sys.pycache_prefix = str(PYCACHE)

import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
from spec import DISCRIMINANTS, END_TO_END, FAMILIES, PAPER_BOX  # noqa: E402
from spec import PER_LAYER, UNBOUNDED, WORKLOADS  # noqa: E402

#: Each silently changes the program being measured: codegen or the
#: scheduler switched off, faults injected, or a warm study cache.
GUARDED_ENV = (
    "REPRO_NO_CODEGEN",
    "REPRO_NO_SCHEDULER",
    "REPRO_FAULTS",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_STORE",
)

#: Keep-alive connections of the closed loop; with 2 cores, one core
#: serves and the other generates load.
CONNECTIONS = 2

#: Server spawns per service run whose set-up times give setup_s.
SETUP_SPAWNS = 3

#: Study seeds a study-cold run cycles through, from ``--seed``: the
#: slowest study (sum3) costs up to 1.5x more on some seeds than on
#: others, so each family's median spans several.
ROUND_SEEDS = 3

#: Slices of a service window, with a host-speed probe between slices.
SLICES = 8

#: The paper's anomaly-abundance bounds the fig6 and fig9 benchmarks
#: assert at full scale.
ABUNDANCE_BELOW = {"chain4": 0.02}
ABUNDANCE_ABOVE = {"aatb": 0.04}

HOST = "127.0.0.1"
CHILD_TIMEOUT_S = 120
_now = time.monotonic_ns


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> Dict[str, str]:
    """The explicit environment of every process the benchmark starts."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(PYCACHE),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def quantile(values: Sequence[float], q: int) -> float:
    """The q-th percentile, interpolated within the data.

    The inclusive method never extrapolates past the largest value,
    which matters for the 7 per-family times of ``study-cold``.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------
# study-cold
# ----------------------------------------------------------------------


class StudyRounds:
    """Cold rounds of every benchmark family, each in a fresh process."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.rounds: List[dict] = []
        self.failures: List[str] = []

    def run_round(
        self, seed: int, trace: bool = False, keep_store: Optional[Path] = None
    ) -> dict:
        """One round in a fresh process; its store moves to ``keep_store``."""
        index = len(self.rounds)
        store = self.workdir / f"store-{index}"
        out = self.workdir / f"round-{index}.json"
        log = self.workdir / f"round-{index}.log"
        cmd = [
            sys.executable, str(HERE / "study_round.py"),
            "--seed", str(seed), "--store", str(store), "--out", str(out),
        ]
        spans = self.workdir / f"round-{index}-spans.json"
        if trace:
            cmd += ["--trace", str(spans)]
        with open(log, "wb") as handle:
            probe = hostspeed.probe()
            spawned = _now()
            proc = subprocess.run(
                cmd, env=child_env(), cwd=ROOT, stdout=handle,
                stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
            )
        if proc.returncode != 0:
            raise BenchError(
                f"study round exited {proc.returncode}:\n{log.read_text()}"
            )
        result = json.loads(out.read_text())
        result["seed"] = seed
        result["traced"] = trace
        probes = result["probes"]
        result["setup_s"] = (result["started_ns"] - spawned) / 1e9
        result["setup_factor"] = hostspeed.factor(probe, probes[0])
        for i, study in enumerate(result["studies"]):
            study["factor"] = hostspeed.factor(probes[i], probes[i + 1])
        if trace:
            result["spans"] = tracing.load_spans(str(spans))
        if keep_store is None:
            shutil.rmtree(store, ignore_errors=True)
        else:
            store.rename(keep_store)
        self.rounds.append(result)
        return result

    def run_for(self, seed: int, seconds: float, trace: bool = False) -> None:
        """Rounds until ``seconds`` have passed, cycling the study seeds.

        Every seed runs at least twice, so the payload-hash check always
        has a repeat.  With ``trace``, each seed's rounds come in pairs,
        untraced then traced, so tracing overhead compares the same work.
        """
        seeds = [seed * ROUND_SEEDS + k for k in range(ROUND_SEEDS)]
        start = time.monotonic()
        while (
            len(self.rounds) <= ROUND_SEEDS
            or time.monotonic() - start < seconds
        ):
            n = len(self.rounds)
            if trace:
                self.run_round(seeds[n // 2 % ROUND_SEEDS], trace=n % 2 == 1)
            else:
                self.run_round(seeds[n % ROUND_SEEDS])

    def check(self) -> int:
        """Failed studies over every round; reasons go to ``failures``."""
        failed = 0
        first_sha: Dict[tuple, str] = {}
        for number, result in enumerate(self.rounds):
            for study in result["studies"]:
                family = study["family"]
                problems = []
                if study["status"] != "computed":
                    problems.append(f"{study['status']} {study['error']}")
                if not study.get("loaded"):
                    problems.append("payload did not load back")
                elif not study.get("roundtrip"):
                    problems.append("payload did not re-encode identically")
                sha = study.get("sha256")
                if first_sha.setdefault((result["seed"], family), sha) != sha:
                    problems.append("payload sha256 differs between rounds")
                abundance = study.get("abundance")
                if abundance is not None:
                    bound = ABUNDANCE_BELOW.get(family)
                    if bound is not None and not abundance < bound:
                        problems.append(f"abundance {abundance} >= {bound}")
                    bound = ABUNDANCE_ABOVE.get(family)
                    if bound is not None and not abundance > bound:
                        problems.append(f"abundance {abundance} <= {bound}")
                if problems:
                    failed += 1
                    self.failures.append(
                        f"round {number} seed {result['seed']} {family}: "
                        f"{'; '.join(problems)}"
                    )
        return failed

    @staticmethod
    def study_s(result: dict, scaled: bool = True) -> float:
        """Wall time of a round's 7 studies, store saves included."""
        return sum(
            s["seconds"] * (s["factor"] if scaled else 1.0)
            for s in result["studies"]
        )

    @staticmethod
    def family_ms(rounds: Sequence[dict], scaled: bool = True) -> List[float]:
        """Each family's median time over the rounds (and seeds), in ms."""
        return [
            statistics.median(
                r["studies"][i]["seconds"]
                * (r["studies"][i]["factor"] if scaled else 1.0)
                for r in rounds
            ) * 1e3
            for i in range(len(rounds[0]["studies"]))
        ]

    def end_to_end(self, scaled: bool = True) -> Dict[str, float]:
        """End-to-end metrics; at reference host speed when ``scaled``."""
        studies = self.family_ms(self.rounds, scaled)
        return {
            "setup_s": statistics.median(
                r["setup_s"] * (r["setup_factor"] if scaled else 1.0)
                for r in self.rounds
            ),
            "ops_per_s": len(studies) / statistics.median(
                self.study_s(r, scaled) for r in self.rounds
            ),
            "op_p50_ms": statistics.median(studies),
            "op_p90_ms": quantile(studies, 90),
            "op_p99_ms": quantile(studies, 99),
        }

    def per_layer(self) -> Dict[str, float]:
        traced = [r for r in self.rounds if r["traced"]]
        untraced = [r for r in self.rounds if not r["traced"]]
        metrics = zero_layer_metrics()
        ops = sum(len(r["studies"]) for r in traced)
        merged = tracing.LayerTotals()
        for r in traced:
            merged.add(r["spans"], range(len(r["spans"])))
            error = tracing.self_sum_error_ns(r["spans"])
            if error:
                self.failures.append(
                    f"traced round: layer self times miss the root span "
                    f"by {error} ns"
                )
        fill_common_layers(metrics, merged, ops)
        hits = sum(r["codegen"]["plan_cache_hits"] for r in traced)
        compiled = sum(r["codegen"]["plans_compiled"] for r in traced)
        lookups = hits + compiled
        metrics["expressions.codegen.plan_lookups"] = lookups / len(traced)
        metrics["expressions.codegen.plan_cache_hit_ratio"] = (
            hits / lookups if lookups else 0.0
        )
        metrics["figures.cache.payload_bytes"] = payload_bytes(traced)
        metrics["figures.cache.load_s"] = (
            merged.seconds("figures.cache/load") / len(traced)
        )
        metrics["runner.self_s"] = merged.seconds("runner") / ops
        metrics["trace.spans"] = merged.span_count / ops
        fill_overhead(
            metrics,
            statistics.median(self.family_ms(untraced)),
            statistics.median(self.family_ms(traced)),
        )
        return metrics


# ----------------------------------------------------------------------
# Per-layer helpers shared by both kinds of workload
# ----------------------------------------------------------------------


def zero_layer_metrics() -> Dict[str, float]:
    """Every per-layer metric at 0: the value of a layer not exercised."""
    return {name: 0.0 for name, _unit, _better, _moves in PER_LAYER}


_SELF_TIME_LAYERS = {
    "experiments.search.self_s": "experiments.search",
    "experiments.regions.self_s": "experiments.regions",
    "experiments.prediction.self_s": "experiments.prediction",
    "core.classify.self_s": "core.classify",
    "expressions.self_s": "expressions",
    "backends.simulated.self_s": "backends.simulated",
    "machine.self_s": "machine",
    "machine.noise.self_s": "machine.noise",
    "figures.cache.save_s": "figures.cache/save",
    "profiles.predict.self_s": "profiles.predict",
    "service.engine.self_s": "service.engine",
    "service.annotate.self_s": "service.annotate",
}


def fill_common_layers(
    metrics: Dict[str, float], merged: tracing.LayerTotals, ops: int
) -> None:
    """The per-operation self times and counts every workload shares."""
    for metric, layer in _SELF_TIME_LAYERS.items():
        metrics[metric] = merged.seconds(layer) / ops
    metrics["experiments.instances"] = sum(
        merged.rows.get(layer, 0)
        for layer in (
            "experiments.search",
            "experiments.regions",
            "experiments.prediction",
        )
    ) / ops
    metrics["core.classify.instances"] = (
        merged.rows.get("core.classify/evaluate", 0) / ops
    )
    backend_rows = merged.rows.get("backends.simulated", 0)
    metrics["backends.simulated.rows"] = backend_rows / ops
    # Rows the backend passed on to the machine are its memo misses.
    misses = merged.rows_under.get(("backends.simulated", "machine"), 0)
    metrics["backends.simulated.memo_hit_ratio"] = (
        1.0 - misses / backend_rows if backend_rows else 0.0
    )
    batches = merged.calls.get("machine", 0)
    metrics["machine.batches"] = batches / ops
    metrics["machine.rows_per_batch"] = (
        merged.rows.get("machine", 0) / batches if batches else 0.0
    )
    metrics["machine.base_cache_hits"] = merged.extra.get("machine", 0) / ops
    metrics["machine.noise.values"] = merged.rows.get("machine.noise", 0) / ops
    metrics["profiles.predict.calls_per_selection"] = (
        merged.calls.get("profiles.predict", 0) / ops
    )
    for name in ("min-flops", "profiled-time", "hybrid", "benchmark-sum"):
        layer = f"core.discriminants.{name}"
        metrics[f"{layer}.self_s"] = merged.seconds(layer) / ops
        metrics[f"{layer}.rows"] = merged.rows.get(layer, 0) / ops


def payload_bytes(rounds: Sequence[dict]) -> float:
    """Mean size of the study payloads the rounds saved."""
    return statistics.mean(
        s.get("payload_bytes", 0) for r in rounds for s in r["studies"]
    )


def fill_overhead(
    metrics: Dict[str, float], untraced_ms: float, traced_ms: float
) -> None:
    metrics["trace.untraced.op_p50_ms"] = untraced_ms
    metrics["trace.traced.op_p50_ms"] = traced_ms
    metrics["trace.overhead.op_p50_ms"] = traced_ms - untraced_ms


# ----------------------------------------------------------------------
# select-*
# ----------------------------------------------------------------------


class Server:
    """One ``python -m repro.service`` process (or its traced launcher)."""

    def __init__(
        self, seed: int, store: Path, log: Path, spans: Optional[Path] = None
    ) -> None:
        self.log = log
        self.spans = spans
        argv = [
            "--scale", "full", "--seed", str(seed), "--store", "json",
            "--cache-dir", str(store), "--port", "0", "--warm", *FAMILIES,
        ]
        if spans is None:
            self.cmd = [sys.executable, "-m", "repro.service", *argv]
        else:
            self.cmd = [sys.executable, str(HERE / "serve.py"), str(spans),
                        *argv]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self.setup_factor = 1.0

    def start(self) -> "Server":
        """Spawn, wait for the listening line, then for ``/healthz``."""
        probe = hostspeed.probe()
        with open(self.log, "wb") as handle:
            spawned = _now()
            self.proc = subprocess.Popen(
                self.cmd, env=child_env(), cwd=ROOT, stdout=handle,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        pattern = re.compile(rb"listening on http://[^:]+:(\d+)")
        while True:
            match = pattern.search(self.log.read_bytes())
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(
                    f"server did not start:\n{self.log.read_text()}"
                )
            time.sleep(0.001)
        status, _body = self.request("GET", "/healthz")
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
        self.setup_s = (_now() - spawned) / 1e9
        self.setup_factor = hostspeed.factor(probe, hostspeed.probe())
        return self

    def request(self, method: str, path: str, body: bytes = b""):
        return asyncio.run(
            loadgen.one_request(HOST, self.port, method, path, body)
        )

    def stats(self) -> dict:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait for the exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("server did not drain within 30 s")


def make_request(
    rng: random.Random, family: str, discriminant: Optional[str], n_dims: int
) -> dict:
    """One ``/select`` body: dims uniform over the paper box, annotated."""
    request = {
        "expression": family,
        "dims": [rng.randint(*PAPER_BOX) for _ in range(n_dims)],
        "annotate": True,
    }
    if discriminant is not None:
        request["discriminant"] = discriminant
    return request


@dataclass
class Slice:
    """Part of a timed window and the host-speed factor around it."""

    exchanges: List[loadgen.Exchange]
    start: int
    end: int
    factor: float


def window_metrics(
    slices: Sequence[Slice], scaled: bool = True
) -> Dict[str, float]:
    """Window metrics; at reference host speed when ``scaled``.

    A failed request counts as infinitely late.
    """
    elapsed = 0.0
    completed = 0
    latencies: List[float] = []
    for part in slices:
        factor = part.factor if scaled else 1.0
        elapsed += (part.end - part.start) / 1e9 * factor
        completed += sum(e.status == 200 for e in part.exchanges)
        latencies.extend(
            (e.latency_ms if e.status == 200 else float("inf")) * factor
            for e in part.exchanges
        )
    return {
        "ops_per_s": completed / elapsed,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": quantile(latencies, 90),
        "op_p99_ms": quantile(latencies, 99),
    }


def request_stream(
    workload: str, seed: int, n_dims: Dict[str, int]
) -> Iterator[dict]:
    """The seeded ``/select`` request stream of a service workload."""
    rng = random.Random(seed)
    mix = DISCRIMINANTS[workload]
    while True:
        family = rng.choice(FAMILIES)
        discriminant = rng.choice(mix)
        yield make_request(rng, family, discriminant, n_dims[family])


class SelectRuns:
    """Service windows of one workload, and their output checks."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        from repro.expressions.registry import get_expression

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.store = workdir / "store"
        self.prep = StudyRounds(workdir)
        self.n_dims = {f: get_expression(f).n_dims for f in FAMILIES}
        self.stream = request_stream(workload, seed, self.n_dims)
        self.servers: List[Server] = []
        self.exchanges: List[loadgen.Exchange] = []
        self.failures: List[str] = []

    def prepare_store(self) -> None:
        """The 7 studies the server answers from, computed before timing."""
        self.prep.run_round(self.seed, keep_store=self.store)
        if self.prep.check():
            raise BenchError(f"store preparation failed: {self.prep.failures}")

    def spawn(self, traced: bool = False) -> Server:
        n = len(self.servers)
        server = Server(
            self.seed, self.store, self.workdir / f"server-{n}.log",
            self.workdir / f"server-{n}-spans.json" if traced else None,
        )
        self.servers.append(server)
        return server.start()

    def warm_up(self, server: Server) -> None:
        """One untimed request per (family, discriminant)."""
        rng = random.Random(f"warm-up {self.seed}")
        for family in FAMILIES:
            for discriminant in DISCRIMINANTS[self.workload]:
                request = make_request(
                    rng, family, discriminant, self.n_dims[family]
                )
                status, _body = server.request(
                    "POST", "/select", loadgen.encode(request)
                )
                if status != 200:
                    raise BenchError(f"warm-up {request} answered {status}")

    def window(self, server: Server, seconds: float) -> List["Slice"]:
        """A timed closed-loop window in slices, probing the host between."""
        slices = []
        probe = hostspeed.probe()
        for _ in range(SLICES):
            exchanges, start, end = asyncio.run(
                loadgen.closed_loop(
                    HOST, server.port, self.stream, CONNECTIONS,
                    seconds / SLICES,
                )
            )
            after = hostspeed.probe()
            slices.append(
                Slice(exchanges, start, end, hostspeed.factor(probe, after))
            )
            probe = after
            self.exchanges.extend(exchanges)
        return slices

    def check(self) -> int:
        """Failed selections over every window; reasons go to ``failures``.

        Served picks must equal an in-process ``select_many`` over the
        same requests, and every ``min-flops`` pick must equal the
        exact Python-int argmin of ``Algorithm.flops``, ties to the
        lowest index.
        """
        from repro.figures.cache import make_store
        from repro.service.engine import SelectionEngine

        engine = SelectionEngine(
            scale="full", seed=self.seed,
            store=make_store("json", self.store),
        )
        bad = set()
        served = {}
        groups = defaultdict(list)
        for i, exchange in enumerate(self.exchanges):
            if exchange.status != 200:
                bad.add(i)
                self.failures.append(
                    f"{exchange.request} answered {exchange.status}: "
                    f"{exchange.body[:200]!r}"
                )
                continue
            try:
                served[i] = json.loads(exchange.body)
            except ValueError:
                bad.add(i)
                self.failures.append(f"{exchange.request}: body not JSON")
                continue
            request = exchange.request
            key = (request["expression"], request.get("discriminant"))
            groups[key].append(i)
        for (family, discriminant), indices in groups.items():
            expected = engine.select_many(
                family,
                [self.exchanges[i].request["dims"] for i in indices],
                discriminant=discriminant,
                annotate=True,
            )
            algorithms = engine.algorithms_for(family)
            for i, selection in zip(indices, expected):
                answer = served[i]
                got = (answer["algorithm"]["index"],
                       answer["in_known_anomaly_region"])
                want = (selection.algorithm_index,
                        selection.in_known_anomaly_region)
                if got != want:
                    bad.add(i)
                    self.failures.append(
                        f"{self.exchanges[i].request}: served {got}, "
                        f"in-process {want}"
                    )
                if discriminant == "min-flops":
                    dims = tuple(self.exchanges[i].request["dims"])
                    flops = [int(a.flops(dims)) for a in algorithms]
                    exact = flops.index(min(flops))
                    if got[0] != exact:
                        bad.add(i)
                        self.failures.append(
                            f"{self.exchanges[i].request}: served {got[0]}, "
                            f"exact min-FLOPs argmin {exact}"
                        )
        return len(bad)

    def kill_all(self) -> None:
        for server in self.servers:
            if server.proc is not None and server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()


def select_windows(runs: SelectRuns, seconds: float):
    """Set-up samples (seconds, host factor) and the timed window's slices."""
    setups = []
    for i in range(SETUP_SPAWNS):
        server = runs.spawn()
        setups.append((server.setup_s, server.setup_factor))
        if i < SETUP_SPAWNS - 1:
            server.stop()
    runs.warm_up(server)
    slices = runs.window(server, seconds)
    server.stop()
    return setups, slices


def select_end_to_end(setups, slices, scaled: bool = True) -> Dict[str, float]:
    metrics = window_metrics(slices, scaled)
    metrics["setup_s"] = statistics.median(
        seconds * (factor if scaled else 1.0) for seconds, factor in setups
    )
    return metrics


def select_per_layer(runs: SelectRuns, seconds: float) -> Dict[str, float]:
    server = runs.spawn()
    runs.warm_up(server)
    untraced = window_metrics(runs.window(server, seconds))
    server.stop()

    server = runs.spawn(traced=True)
    warm_start = _now()
    runs.warm_up(server)
    before = server.stats()
    slices = runs.window(server, seconds)
    after = server.stats()
    server.stop()
    traced = window_metrics(slices)
    exchanges = [e for part in slices for e in part.exchanges]
    start, end = slices[0].start, slices[-1].end

    spans = tracing.load_spans(str(server.spans))
    ok = [e for e in exchanges if e.status == 200]
    ops = len(ok)
    in_window = [
        i for i, s in enumerate(spans)
        if start <= s[tracing.START] and s[tracing.END] <= end
    ]
    in_setup = [
        i for i, s in enumerate(spans) if s[tracing.END] <= warm_start
    ]
    merged = tracing.LayerTotals().add(spans, in_window)
    setup = tracing.LayerTotals().add(spans, in_setup)

    metrics = zero_layer_metrics()
    fill_common_layers(metrics, merged, ops)
    metrics["profiles.build_s"] = setup.inclusive_ns["profiles/build"] / 1e9
    metrics["figures.cache.load_s"] = setup.seconds("figures.cache/load")
    metrics["figures.cache.payload_bytes"] = payload_bytes(runs.prep.rounds)

    calls = merged.calls.get("service.engine/select_many", 0)
    metrics["service.engine.rows_per_call"] = (
        merged.rows.get("service.engine/select_many", 0) / calls
        if calls else 0.0
    )
    # Each request in a coalesced batch waits for the whole batch.
    engine_ns = sum(
        (span[tracing.END] - span[tracing.START]) * span[tracing.ROWS]
        for span in map(spans.__getitem__, in_window)
        if span[tracing.LAYER] == "service.engine/select_many"
    )
    client_ns = sum(e.done_ns - e.sent_ns for e in ok)
    metrics["service.http.self_s"] = (client_ns - engine_ns) / 1e9 / ops

    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    hits, misses = delta("lru", "hits"), delta("lru", "misses")
    metrics["service.lru.lookups"] = hits + misses
    metrics["service.lru.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    requests = delta("batch", "requests")
    metrics["service.batcher.requests"] = requests
    metrics["service.batcher.coalesced_ratio"] = (
        delta("batch", "coalesced") / requests if requests else 0.0
    )
    plan_hits = delta("codegen", "plan_cache_hits")
    lookups = plan_hits + delta("codegen", "plans_compiled")
    metrics["expressions.codegen.plan_lookups"] = lookups
    metrics["expressions.codegen.plan_cache_hit_ratio"] = (
        plan_hits / lookups if lookups else 0.0
    )
    scheduler = {
        key: delta("scheduler", key)
        for key, value in after["scheduler"].items()
        if isinstance(value, int) and not isinstance(value, bool)
    }
    print(f"scheduler counters over the traced window: {scheduler}")
    metrics["trace.spans"] = len(in_window) / ops
    fill_overhead(metrics, untraced["op_p50_ms"], traced["op_p50_ms"])
    return metrics


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", required=True, choices=[n for n, _why in WORKLOADS]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def environment_line() -> str:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity"
    ) else os.cpu_count()
    return (
        f"environment: python {platform.python_version()}, "
        f"numpy {numpy.__version__}, nproc {nproc}"
    )


def run(args: argparse.Namespace, workdir: Path) -> dict:
    """Measure one workload; the result object of the last output line."""
    if args.workload == "study-cold":
        rounds = StudyRounds(workdir)
        rounds.run_for(args.seed, args.seconds, trace=bool(args.trace))
        failed = rounds.check()
        if args.trace:
            metrics, raw = rounds.per_layer(), {}
        else:
            metrics, raw = rounds.end_to_end(), rounds.end_to_end(False)
            for r in rounds.rounds:
                print(f"round: study_s = {rounds.study_s(r)} s "
                      f"(raw {rounds.study_s(r, False)} s)")
        attempted = sum(len(r["studies"]) for r in rounds.rounds)
        failures = rounds.failures
    else:
        runs = SelectRuns(args.workload, args.seed, workdir)
        runs.prepare_store()
        try:
            if args.trace:
                metrics, raw = select_per_layer(runs, args.seconds), {}
            else:
                setups, slices = select_windows(runs, args.seconds)
                metrics = select_end_to_end(setups, slices)
                raw = select_end_to_end(setups, slices, scaled=False)
        finally:
            runs.kill_all()
        failed = runs.check()
        attempted = len(runs.exchanges)
        failures = runs.failures
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    return {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    guarded = [name for name in GUARDED_ENV if name in os.environ]
    if guarded:
        parser.error(
            f"unset {', '.join(guarded)}: each changes the program measured"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    workdir = BUILD / "perfbench" / f"run-{os.getpid()}-{_now()}"
    workdir.mkdir(parents=True)
    print(environment_line())
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    try:
        result = run(args, workdir)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reported = PER_LAYER if args.trace else END_TO_END
    units = {n: u for n, u, *_rest in (*reported, *UNBOUNDED)}
    for name, value in result.pop("raw").items():
        print(f"raw {name} = {value} {units[name]} (not scaled to host speed)")
    for name, value in result["metrics"].items():
        print(f"{name} = {value} {units[name]}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit, *_rest in reported
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
