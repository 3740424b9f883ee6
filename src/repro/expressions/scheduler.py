"""Plan scheduler: dependency graph and interference-scored reordering.

Sits between :mod:`repro.expressions.compiler` (which lowers an
expression tree to a straight-line :class:`~repro.expressions.compiler.Plan`)
and the machine model.  From each plan's steps it builds the explicit
read dependency graph — which prior step values each step reads — and
uses it to reorder steps for non-default machine schedules:
dependency-respecting permutations of the step list are scored with
:class:`~repro.machine.machine.MachineModel`'s producer-keyed
cache-interference term at a staggered probe instance;
``min-interference`` picks the model-predicted-fastest order and
``max-interference`` the slowest, with strict comparisons so ties keep
the original order.  Reordering changes which step pairs are
producer/consumer adjacent, hence the interference tokens and which
instances classify as anomalies — that contrast is a scenario axis,
exposed as the ``schedule`` knob on the machine presets.

The ``default`` schedule is the identity: call batches pass through
unchanged (same objects), so default-schedule studies never see this
module.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.kernels.types import KernelCall, KernelCallBatch

#: Cap on the number of topological orders scored per plan.  The
#: lexicographically-first order (the original one) is always scored
#: first, so truncation can only forgo a better permutation, never
#: produce a non-original order by accident.
MAX_ORDERS = 4000

_STATS = {
    "plans_reordered": 0,
    "reorder_wins": 0,
    "schedule_cache_hits": 0,
}


def scheduler_stats() -> dict:
    """Reordering counters for ``GET /stats`` and tests."""
    return dict(_STATS)


def clear_scheduler_caches() -> None:
    """Reset the counters (test isolation hook); step orders are
    cached per machine, in ``MachineModel.schedule_cache``."""
    for key in _STATS:
        _STATS[key] = 0


def step_reads(step) -> Tuple[int, ...]:
    """Indices of prior steps whose values this step reads."""
    reads = []
    for ref in (step.left, step.right):
        if ref is not None and ref.is_step:
            reads.append(ref.index)
    if step.accumulate is not None:
        reads.append(step.accumulate)
    return tuple(reads)


# ----------------------------------------------------------------------
# Interference-scored reordering (non-default schedules)
# ----------------------------------------------------------------------


def _probe_instance(n_dims: int) -> Tuple[int, ...]:
    """The staggered box centroid the pruner also scores at."""
    from repro.core.searchspace import PAPER_HIGH, PAPER_LOW

    span = PAPER_HIGH - PAPER_LOW
    return tuple(
        PAPER_LOW + (i + 1) * span // (n_dims + 1) for i in range(n_dims)
    )


def _topological_orders(reads: Sequence[frozenset], limit: int):
    """Dependency-respecting permutations, lexicographically first.

    Dependencies point backward, so the original order ``0..n-1`` is
    the lexicographic minimum and always comes out first; ``limit``
    bounds the enumeration for wide plans.
    """
    n = len(reads)
    emitted: set = set()
    order: List[int] = []
    yielded = 0

    def visit():
        nonlocal yielded
        if yielded >= limit:
            return
        if len(order) == n:
            yielded += 1
            yield tuple(order)
            return
        for i in range(n):
            if i not in emitted and reads[i] <= emitted:
                emitted.add(i)
                order.append(i)
                yield from visit()
                order.pop()
                emitted.discard(i)
                if yielded >= limit:
                    return

    yield from visit()


def schedule_order(plan, machine) -> Tuple[Tuple[int, ...], Tuple[bool, ...]]:
    """The machine's chosen step permutation and its consumer flags.

    Returns ``(order, reads_previous)`` where ``order[p]`` is the
    original index of the step that runs at position ``p`` and
    ``reads_previous[p]`` says whether that step consumes the value of
    the step right before it *in the new order* — the flag the
    machine's interference term keys on.  The ``default`` schedule
    returns the original order with the plan's own flags; ``min-``/``max-interference`` return the permutation the
    analytic model scores fastest/slowest at the staggered probe
    instance, with strict comparisons so ties keep the original order.
    """
    steps = plan.steps
    identity = tuple(range(len(steps)))
    original_flags = tuple(step.reads_previous for step in steps)
    schedule = getattr(machine, "schedule", "default")
    if schedule == "default" or len(steps) < 2:
        return identity, original_flags

    cache = machine.schedule_cache
    key = (schedule, plan.n_dims, steps)
    cached = cache.get(key)
    if cached is not None:
        _STATS["schedule_cache_hits"] += 1
        return cached

    reads = [frozenset(step_reads(step)) for step in steps]
    probe = _probe_instance(plan.n_dims)
    calls = plan.kernel_calls(probe)
    base = [machine.kernel_seconds(call.kernel, call.dims) for call in calls]
    maximize = schedule == "max-interference"

    best_order: Optional[Tuple[int, ...]] = None
    best_score = 0.0
    for order in _topological_orders(reads, MAX_ORDERS):
        score = 0.0
        previous: Optional[int] = None
        for index in order:
            seconds = base[index]
            if previous is not None and previous in reads[index]:
                seconds *= 1.0 + machine.interference_penalty(
                    calls[previous], calls[index]
                )
            score += seconds
            previous = index
        if best_order is None or (
            score > best_score if maximize else score < best_score
        ):
            best_order = order
            best_score = score
    assert best_order is not None

    flags = tuple(
        p > 0 and best_order[p - 1] in reads[best_order[p]]
        for p in range(len(best_order))
    )
    _STATS["plans_reordered"] += 1
    if best_order != identity:
        _STATS["reorder_wins"] += 1
    cache[key] = (best_order, flags)
    return best_order, flags


def _plan_of(algorithm):
    provider = getattr(algorithm, "codegen", None)
    return getattr(provider, "plan", None)


def scheduled_call_batches(
    algorithm, batches: Tuple[KernelCallBatch, ...], machine
) -> Tuple[KernelCallBatch, ...]:
    """Apply the machine's schedule to an algorithm's call batches.

    Identity (default schedule, or no plan behind the algorithm) returns ``batches`` unchanged — same objects, so the
    default path stays byte-identical.
    """
    plan = _plan_of(algorithm)
    if plan is None or len(plan.steps) != len(batches):
        return batches
    order, flags = schedule_order(plan, machine)
    if order == tuple(range(len(batches))):
        return batches
    return tuple(
        KernelCallBatch(
            batches[index].kernel,
            batches[index].dims,
            reads_previous=flags[position],
        )
        for position, index in enumerate(order)
    )


def scheduled_calls(
    algorithm, calls: Tuple[KernelCall, ...], machine
) -> Tuple[KernelCall, ...]:
    """Scalar counterpart of :func:`scheduled_call_batches`."""
    plan = _plan_of(algorithm)
    if plan is None or len(plan.steps) != len(calls):
        return calls
    order, flags = schedule_order(plan, machine)
    if order == tuple(range(len(calls))):
        return calls
    return tuple(
        replace(calls[index], reads_previous=flags[position])
        for position, index in enumerate(order)
    )
