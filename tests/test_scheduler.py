"""Plan scheduler reordering contracts and fused measurement.

The scheduler (:mod:`repro.expressions.scheduler`) reorders plan steps
for the non-default machine schedules (``min-``/``max-interference``):
deterministic, cache-backed, scalar/batch consistent, and a valid
evaluation order (a plan run in the chosen order equals
``Plan.execute`` bit for bit).  Under the default schedule it is the
identity.

The machine measures every algorithm run through one fused
noise/median pass; it must equal the per-call measurement loop
written out below bit for bit.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.backends.simulated import SimulatedBackend
from repro.expressions.compiler import compile_add_plans
from repro.expressions.ir import AddExpr, Leaf
from repro.expressions.registry import get_expression
from repro.expressions.scheduler import (
    clear_scheduler_caches,
    schedule_order,
    scheduled_call_batches,
    scheduled_calls,
    scheduler_stats,
    step_reads,
)
from repro.kernels.types import batch_kernel_calls
from repro.machine.machine import SCHEDULES
from repro.machine.presets import paper_machine

#: The registered families plus two pattern-compiled ones (sum6 runs
#: the cost-guided pruning pass and carries a GEMM accumulation;
#: addchain4 is a pure ADD chain).
FAMILIES = (
    "aatb", "chain4", "gram3", "tri4", "sum3", "addchain3", "solve3",
    "sum6", "addchain4",
)


def _per_call_loop(machine, calls, context, with_interference):
    """One noise/median pass per call, summed in call order: the
    measurement loop the machine's fused pass must reproduce."""
    context_base = machine._stream_base(context)
    total = np.zeros(calls[0].n)
    previous = None
    for index, call in enumerate(calls):
        (base,) = machine._base_seconds_memo([(call.kernel, call.dims)])
        if with_interference and previous is not None and call.reads_previous:
            base = base * (
                1.0 + machine.interference_penalty_batch(previous, call)
            )
        ids = machine._measurement_ids(
            context_base, index, call.kernel, call.dims
        )
        total = total + machine._measure_batch(base, ids)
        previous = call
    return total


@pytest.mark.parametrize("family", ("sum3", "chain4", "aatb"))
def test_fused_measurement_bit_equal_to_per_call_loop(family):
    expression = get_expression(family)
    rng = random.Random(7)
    box_rows = [
        tuple(rng.randint(5, 300) for _ in range(expression.n_dims))
        for _ in range(37)
    ]
    arr = np.asarray(box_rows, dtype=np.int64)
    machine = paper_machine(seed=3)
    # A separate machine, so the oracle's base seconds come from its
    # own per-call memo rather than the fused pass's cached columns.
    oracle = paper_machine(seed=3)
    for algorithm in expression.algorithms():
        name = algorithm.name
        batches = algorithm.kernel_call_batches(arr)
        # Multi-call runs, plus a single-call run of the first slot.
        for calls in (batches, batches[:1]):
            assert np.array_equal(
                machine.measure_algorithm_batch(calls, name),
                _per_call_loop(oracle, calls, name, True),
            )
            assert np.array_equal(
                machine.predict_algorithm_batch(calls, name),
                _per_call_loop(oracle, calls, name, False),
            )
        scalar_calls = algorithm.kernel_calls(box_rows[0])
        assert machine.measure_algorithm(scalar_calls, name) == float(
            _per_call_loop(
                oracle, batch_kernel_calls(scalar_calls, 1), name, True
            )[0]
        )


def _reordered(plan, order):
    """``plan`` with its steps run in ``order``, step refs remapped."""
    position = {old: new for new, old in enumerate(order)}

    def remap(ref):
        if ref is None or not ref.is_step:
            return ref
        return replace(ref, index=position[ref.index])

    steps = tuple(
        replace(
            plan.steps[index],
            left=remap(plan.steps[index].left),
            right=remap(plan.steps[index].right),
            accumulate=(
                None
                if plan.steps[index].accumulate is None
                else position[plan.steps[index].accumulate]
            ),
        )
        for index in order
    )
    return replace(plan, steps=steps)


@pytest.mark.parametrize("family", FAMILIES)
def test_reordered_plans_execute_bit_equal_to_plan_execute(family):
    expression = get_expression(family)
    machines = [
        paper_machine(seed=0, schedule=schedule)
        for schedule in ("min-interference", "max-interference")
    ]
    rng = random.Random(11)
    instances = [
        tuple(rng.randint(2, 24) for _ in range(expression.n_dims))
        for _ in range(3)
    ]
    for plan in expression.plans():
        last = len(plan.steps) - 1
        for machine in machines:
            order, _ = schedule_order(plan, machine)
            assert sorted(order) == list(range(len(plan.steps)))
            # Every value is produced before it is read, and the
            # result step still runs last.
            for p, index in enumerate(order):
                assert set(step_reads(plan.steps[index])) <= set(order[:p])
            assert order[-1] == last
            reordered = _reordered(plan, order)
            for i, instance in enumerate(instances):
                operands = expression.make_operands(
                    instance, np.random.default_rng(23 + i)
                )
                reference = plan.execute(operands)
                result = reordered.execute(operands)
                assert result.dtype == reference.dtype
                assert np.array_equal(result, reference)


def test_step_reads_dependency_graph():
    leaves = tuple(
        Leaf(operand=i, rows=0, cols=1, label=f"M{i}") for i in range(4)
    )
    (plan,) = compile_add_plans("addfuse4", AddExpr(leaves))
    assert [step_reads(s) for s in plan.steps] == [(), (0,), (1,)]


def test_schedule_order_default_is_identity():
    machine = paper_machine(seed=0)
    expression = get_expression("sum3")
    for plan in expression.plans():
        order, flags = schedule_order(plan, machine)
        assert order == tuple(range(len(plan.steps)))
        assert flags == tuple(s.reads_previous for s in plan.steps)


def test_schedule_order_reorders_deterministically_with_cache():
    clear_scheduler_caches()
    minimize = paper_machine(seed=0, schedule="min-interference")
    maximize = paper_machine(seed=0, schedule="max-interference")
    expression = get_expression("sum3")
    identity_count = 0
    for plan in expression.plans():
        order_min, flags_min = schedule_order(plan, minimize)
        order_max, _ = schedule_order(plan, maximize)
        identity = tuple(range(len(plan.steps)))
        if order_min == identity and order_max == identity:
            identity_count += 1
        # Deterministic: a second call returns the cached choice.
        before = scheduler_stats()["schedule_cache_hits"]
        assert schedule_order(plan, minimize) == (order_min, flags_min)
        assert scheduler_stats()["schedule_cache_hits"] == before + 1
        # Flags describe producer/consumer adjacency in the new order.
        reads = [frozenset(step_reads(s)) for s in plan.steps]
        for p, index in enumerate(order_min):
            expected = p > 0 and order_min[p - 1] in reads[index]
            assert flags_min[p] == expected
    # The interference term separates the schedules on sum3: at least
    # one plan prefers a non-original order under each extreme.
    assert identity_count < len(expression.plans())
    assert scheduler_stats()["plans_reordered"] >= 2


def _probe(n_dims, start=20, stride=11):
    return tuple(start + stride * i for i in range(n_dims))


def _analytic_score(plan, machine, order):
    """The model aggregate schedule_order optimizes, recomputed here."""
    from repro.expressions.scheduler import _probe_instance

    reads = [frozenset(step_reads(s)) for s in plan.steps]
    calls = plan.kernel_calls(_probe_instance(plan.n_dims))
    score = 0.0
    previous = None
    for index in order:
        seconds = machine.kernel_seconds(
            calls[index].kernel, calls[index].dims
        )
        if previous is not None and previous in reads[index]:
            seconds *= 1.0 + machine.interference_penalty(
                calls[previous], calls[index]
            )
        score += seconds
        previous = index
    return score


def test_schedule_extremes_bracket_the_original_order():
    expression = get_expression("sum3")
    minimize = paper_machine(seed=0, schedule="min-interference")
    maximize = paper_machine(seed=0, schedule="max-interference")
    for plan in expression.plans():
        identity = tuple(range(len(plan.steps)))
        order_min, _ = schedule_order(plan, minimize)
        order_max, _ = schedule_order(plan, maximize)
        score_id = _analytic_score(plan, minimize, identity)
        assert _analytic_score(plan, minimize, order_min) <= score_id
        assert _analytic_score(plan, minimize, order_max) >= score_id


def test_scalar_and_batch_paths_agree_under_reordering():
    backend = SimulatedBackend(
        paper_machine(seed=1, schedule="min-interference")
    )
    expression = get_expression("sum3")
    instance = _probe(expression.n_dims, start=30)
    for algorithm in expression.algorithms():
        scalar = backend.time_algorithm(algorithm, instance)
        batch = backend.time_algorithms(algorithm, [instance])
        assert scalar == batch[0]
        assert backend.predict_time(algorithm, instance) == (
            backend.predict_times(algorithm, [instance])[0]
        )


def test_scheduled_calls_and_batches_are_consistent():
    machine = paper_machine(seed=0, schedule="max-interference")
    expression = get_expression("sum3")
    instance = _probe(expression.n_dims, start=25)
    arr = np.asarray([instance], dtype=np.int64)
    for algorithm in expression.algorithms():
        calls = scheduled_calls(
            algorithm, algorithm.kernel_calls(instance), machine
        )
        batches = scheduled_call_batches(
            algorithm, algorithm.kernel_call_batches(arr), machine
        )
        assert len(calls) == len(batches)
        for call, batch in zip(calls, batches):
            assert call.kernel is batch.kernel
            assert call.reads_previous == batch.reads_previous
            assert tuple(batch.dims[0]) == call.dims


def test_machine_rejects_unknown_schedule():
    assert SCHEDULES == ("default", "min-interference", "max-interference")
    with pytest.raises(ValueError, match="schedule"):
        paper_machine(seed=0, schedule="fastest")
    # Schedule names are exact (the CLI lowercases before they get
    # here): casing typos fail fast too.
    with pytest.raises(ValueError, match="schedule"):
        paper_machine(seed=0, schedule="Min-Interference")


def test_clear_scheduler_caches_resets_stats():
    plan = get_expression("sum3").plans()[0]
    schedule_order(plan, paper_machine(seed=0, schedule="min-interference"))
    assert scheduler_stats()["plans_reordered"] >= 1
    clear_scheduler_caches()
    stats = scheduler_stats()
    assert stats["plans_reordered"] == 0
    assert stats["schedule_cache_hits"] == 0
    # Orders recompute cleanly after the reset (on a fresh machine).
    schedule_order(plan, paper_machine(seed=0, schedule="min-interference"))
    assert scheduler_stats()["plans_reordered"] == 1
