"""What the benchmark measures: workloads, metrics and what each should move.

This module is the single source of ``BENCHMARK.json`` at the repository
root.  Regenerate that file after editing the tables here::

    python3 perfbench/spec.py

``BENCHMARK.json`` has a fixed schema, so the per-workload meaning of
each end-to-end metric and the end-to-end metric each layer metric
should move live only here (and in ``perfbench/README.md``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The registered families a study or a request draws from.  Pinned
#: here rather than read from the registry, so a family added to the
#: registry does not silently change the benchmark.  ``sum4`` is left
#: out: 5.8 s over 25 algorithms would swamp the other six studies.
FAMILIES = ("aatb", "addchain3", "chain4", "gram3", "solve3", "sum3", "tri4")

#: The paper's search box, [20, 1200] in every dimension.
PAPER_BOX = (20, 1200)

#: Discriminant mix of each service workload; None omits the field so
#: the server applies its default (``hybrid``).
DISCRIMINANTS = {
    "select-model": (None, "profiled-time", "benchmark-sum"),
    "select-minflops": ("min-flops",),
}

WORKLOADS = (
    (
        "study-cold",
        "the researcher's path: 7 cold full-scale studies per fresh process "
        "and json store; experiments, classify, backend memo, machine, "
        "noise and store writes do the work",
    ),
    (
        "select-model",
        "POST /select over 2 connections, mixed hybrid/profiled-time/"
        "benchmark-sum: Profile.predict_batch and the simulated backend "
        "dominate, HTTP is a small share",
    ),
    (
        "select-minflops",
        "POST /select with min-flops only: a pick costs 30-50 us, so HTTP, "
        "the micro-batcher and region annotation dominate; per-request "
        "overhead shows here",
    ),
)

#: (name, unit, better, bound, meaning per workload)
#:
#: Every workload reports every metric, so the names are neutral; an
#: operation is one study on study-cold and one request on select-*.
#: Times are scaled to a reference host speed (see hostspeed.py).
END_TO_END = (
    (
        "setup_s", "s", "lower", 0.25,
        "study-cold: process start until the first study begins (median "
        "of the run's rounds); select-*: server spawn until /healthz "
        "answers after warm-up (median of 3 spawns)",
    ),
    (
        "ops_per_s", "1/s", "higher", 0.25,
        "study-cold: studies per second, 7 / study_s, the median over the "
        "run's rounds of the 7 studies' wall time; select-*: selections "
        "completed per second of the timed window (select_per_s)",
    ),
    (
        "op_p50_ms", "ms", "lower", 0.25,
        "study-cold: median over families of each one's median study time "
        "over the rounds and seeds, store save included; select-*: median "
        "client-observed request latency (select_p50_ms)",
    ),
    (
        "op_p90_ms", "ms", "lower", 0.25,
        "study-cold: 90th percentile of the families' median times (near "
        "the slowest family); select-*: 90th percentile client-observed "
        "request latency",
    ),
)

#: Printed with the end-to-end metrics but not bounded: on a shared
#: 2-vCPU VM the p99 of select-minflops moved by 35-100% of its
#: median between back-to-back 20 s windows (scheduling stalls of one
#: of the two busy processes), far past any bound a gate could use.
UNBOUNDED = (
    ("op_p99_ms", "ms", "99th percentile, defined like op_p90_ms "
     "(select_p99_ms on select-*)"),
)

_STUDY = "study-cold: ops_per_s"
_SETUP = "select-*: setup_s"
_MODEL = "select-model: op_p50_ms, ops_per_s"
_MINFLOPS = "select-minflops: op_p50_ms"
_HTTP = "select-minflops: ops_per_s, op_p90_ms"

#: (name, unit, better, the end-to-end metric and workload it should move)
#:
#: Time and count units "/op" are per operation: per study on
#: study-cold, per selection of the timed window on select-*.
PER_LAYER = (
    ("experiments.search.self_s", "s/op", "lower", _STUDY),
    ("experiments.regions.self_s", "s/op", "lower", _STUDY),
    ("experiments.prediction.self_s", "s/op", "lower", _STUDY),
    ("experiments.instances", "count/op", "lower", _STUDY),
    ("core.classify.self_s", "s/op", "lower", _STUDY),
    ("core.classify.instances", "count/op", "lower", _STUDY),
    ("expressions.self_s", "s/op", "lower", f"{_STUDY}; {_MINFLOPS}"),
    ("expressions.codegen.plan_cache_hit_ratio", "ratio", "higher", _STUDY),
    ("expressions.codegen.plan_lookups", "count", "lower", _STUDY),
    ("backends.simulated.self_s", "s/op", "lower",
     f"{_STUDY}; select-model: op_p50_ms"),
    ("backends.simulated.rows", "count/op", "lower", _STUDY),
    ("backends.simulated.memo_hit_ratio", "ratio", "higher", _STUDY),
    ("machine.self_s", "s/op", "lower", _STUDY),
    ("machine.batches", "count/op", "lower", _STUDY),
    ("machine.rows_per_batch", "rows/batch", "higher", _STUDY),
    ("machine.base_cache_hits", "count/op", "higher", _STUDY),
    ("machine.noise.self_s", "s/op", "lower", _STUDY),
    ("machine.noise.values", "count/op", "lower", _STUDY),
    ("figures.cache.save_s", "s/op", "lower", _STUDY),
    ("figures.cache.load_s", "s", "lower", _SETUP),
    ("figures.cache.payload_bytes", "B/op", "lower", f"{_STUDY}; {_SETUP}"),
    ("profiles.predict.self_s", "s/op", "lower", _MODEL),
    ("profiles.predict.calls_per_selection", "count/op", "lower", _MODEL),
    ("profiles.build_s", "s", "lower", _SETUP),
    ("core.discriminants.min-flops.self_s", "s/op", "lower", _MINFLOPS),
    ("core.discriminants.min-flops.rows", "count/op", "higher", _MINFLOPS),
    ("core.discriminants.profiled-time.self_s", "s/op", "lower", _MODEL),
    ("core.discriminants.profiled-time.rows", "count/op", "higher", _MODEL),
    ("core.discriminants.hybrid.self_s", "s/op", "lower", _MODEL),
    ("core.discriminants.hybrid.rows", "count/op", "higher", _MODEL),
    ("core.discriminants.benchmark-sum.self_s", "s/op", "lower", _MODEL),
    ("core.discriminants.benchmark-sum.rows", "count/op", "higher", _MODEL),
    ("service.engine.self_s", "s/op", "lower", _MINFLOPS),
    ("service.engine.rows_per_call", "rows/call", "higher", _MINFLOPS),
    ("service.annotate.self_s", "s/op", "lower", _MINFLOPS),
    ("service.lru.hit_ratio", "ratio", "higher", _MINFLOPS),
    ("service.lru.lookups", "count", "lower", _MINFLOPS),
    ("service.http.self_s", "s/op", "lower", _HTTP),
    ("service.batcher.coalesced_ratio", "ratio", "higher", _HTTP),
    ("service.batcher.requests", "count", "higher", _HTTP),
    ("runner.self_s", "s/op", "lower", _STUDY),
    ("trace.spans", "count/op", "lower", "none: tracing cost only"),
    ("trace.untraced.op_p50_ms", "ms", "lower", "none: overhead base"),
    ("trace.traced.op_p50_ms", "ms", "lower", "none: overhead base"),
    ("trace.overhead.op_p50_ms", "ms", "lower", "none: tracing overhead"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document described by the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _meaning in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, _moves in PER_LAYER
        ],
    }


def main() -> int:
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
