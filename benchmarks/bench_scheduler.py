"""Fused measurement vs the per-call loop on the measurement hot loop.

``MachineModel.measure_algorithm_batch`` over every algorithm of five
registered families at small (25-instance) batches.  The machine's
fused path (:meth:`repro.machine.machine.MachineModel._fused_batches`)
collapses the per-kernel noise/median passes of a multi-kernel
algorithm into one stacked pass; the legacy side below is the literal
per-call loop, one noise/median pass per kernel call.  Results are
bit-equal by construction and asserted so below.

The gate is the *aggregate* speedup (summed per-call time over summed
fused time) at >= 1.3x; measured headroom is ~1.8x.
"""

import random
import time

import numpy as np

from repro.core.searchspace import paper_box
from repro.expressions.registry import get_expression
from repro.machine.presets import paper_machine

N_INSTANCES = 25
MIN_SPEEDUP = 1.3
#: Best-of-``REPEATS`` timing of ``LOOPS`` back-to-back runs, the same
#: estimator bench_codegen.py uses.
REPEATS = 7
LOOPS = 10

FAMILIES = ("aatb", "chain4", "gram3", "sum3", "solve3")


def _instances_matrix(expression, seed):
    rng = random.Random(seed)
    box = paper_box(expression.n_dims)
    return np.asarray(
        [box.sample(rng) for _ in range(N_INSTANCES)], dtype=np.int64
    )


def _measure_all(machine, cases):
    return [
        machine.measure_algorithm_batch(batches, context=name)
        for name, batches in cases
    ]


def _per_call(machine, calls, context):
    """The pre-fusion measurement loop: one noise pass per call."""
    context_base = machine._stream_base(context)
    total = np.zeros(calls[0].n)
    previous = None
    for index, call in enumerate(calls):
        (base,) = machine._base_seconds_memo([(call.kernel, call.dims)])
        if previous is not None and call.reads_previous:
            base = base * (
                1.0 + machine.interference_penalty_batch(previous, call)
            )
        ids = machine._measurement_ids(
            context_base, index, call.kernel, call.dims
        )
        total = total + machine._measure_batch(base, ids)
        previous = call
    return total


def _measure_all_per_call(machine, cases):
    return [_per_call(machine, batches, name) for name, batches in cases]


def _best_of(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(LOOPS):
            result = fn(*args)
        best = min(best, (time.perf_counter() - t0) / LOOPS)
    return best, result


def test_scheduler_measurement_and_fusion_speedup(run_once, fig_config):
    family_cases = []
    for family in FAMILIES:
        expression = get_expression(family)
        arr = _instances_matrix(expression, fig_config.seed + 47)
        cases = [
            (a.name, a.kernel_call_batches(arr))
            for a in expression.algorithms()
        ]
        family_cases.append((family, paper_machine(seed=fig_config.seed), cases))

    # Warm both paths (codegen compiles lazily; noise tables fill on
    # first use) before any timing.
    for _, machine, cases in family_cases:
        _measure_all(machine, cases)
        _measure_all_per_call(machine, cases)

    def run_all_fused():
        return [
            _measure_all(machine, cases)
            for _, machine, cases in family_cases
        ]

    run_once(run_all_fused)

    print()
    total_legacy = total_fused = 0.0
    for family, machine, cases in family_cases:
        legacy_s, times_l = _best_of(_measure_all_per_call, machine, cases)
        fused_s, times_f = _best_of(_measure_all, machine, cases)
        total_legacy += legacy_s
        total_fused += fused_s
        print(
            f"{family:<10} legacy {legacy_s * 1e3:7.2f}ms   "
            f"fused {fused_s * 1e3:6.2f}ms   "
            f"speedup {legacy_s / fused_s:5.2f}x"
        )
        # The fused measurement pass is bit-equal to the per-call loop.
        for got, want in zip(times_f, times_l):
            assert np.array_equal(got, want)

    total = total_legacy / total_fused
    print(
        f"{'TOTAL':<10} legacy {total_legacy * 1e3:7.2f}ms   "
        f"fused {total_fused * 1e3:6.2f}ms   speedup {total:5.2f}x"
    )
    assert total >= MIN_SPEEDUP
