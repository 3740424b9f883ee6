"""Per-plan codegen: specialized batch evaluators, compiled once.

The study hot loop evaluates every plan's FLOP polynomial and
kernel-call list millions of times; interpreting the ``Plan`` step
list per batch pays Python dispatch for work that is fixed at compile
time.  This module emits — per *plan structure* — two specialized
functions as Python source and ``compile()``s each exactly once:

* a **batch FLOP evaluator**: the step list collapsed into one
  closed-form NumPy column expression (constants folded, common
  factors extracted by :meth:`repro.expressions.shapes.SizeExpr.render`);
* a **kernel-call-batch builder**: shape indices resolved at codegen
  time into a single fancy-index gather plus per-call column slices,
  with :class:`~repro.kernels.types.KernelCallBatch` objects built
  through the trusted-constructor path (the emitted shapes are correct
  by construction, so the per-call validation is skipped).

Compiled code is cached two ways: per structural *plan signature*
(CSE-equal plans — identical leaves and steps — share both
functions) and, for the FLOP evaluator, per canonical FLOP polynomial
(plans that differ only in association share one evaluator object,
which lets ``core.classify.batch_flops`` dedupe whole evaluations by
function identity).

Adding a kernel needs nothing here: both builders are derived from the
kernel's arity and FLOP formula.  Real-operand execution is
``Plan.execute``'s job alone.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.expressions.shapes import SizeExpr, dim_symbols
from repro.kernels.types import KernelCallBatch

#: Plan signature → compiled :class:`PlanCode`.
_PLAN_CACHE: Dict[tuple, "PlanCode"] = {}

#: Canonical FLOP-polynomial key → (compiled evaluator, its source).
_FLOPS_FNS: Dict[tuple, Tuple[Callable[[np.ndarray], np.ndarray], str]] = {}

_STATS = {
    "plans_compiled": 0,
    "plan_cache_hits": 0,
    "flops_fns_shared": 0,
    "flops_batches": 0,
    "call_batches": 0,
}


def codegen_stats() -> dict:
    """Cache sizes and hit counters for ``GET /stats`` and tests."""
    return {
        "plan_cache_size": len(_PLAN_CACHE),
        "plan_cache_hits": _STATS["plan_cache_hits"],
        "plans_compiled": _STATS["plans_compiled"],
        "flops_functions": len(_FLOPS_FNS),
        "flops_fns_shared": _STATS["flops_fns_shared"],
        "flops_batches": _STATS["flops_batches"],
        "call_batches": _STATS["call_batches"],
    }


def clear_codegen_caches() -> None:
    """Drop all compiled code and counters (test isolation hook)."""
    _PLAN_CACHE.clear()
    _FLOPS_FNS.clear()
    for key in _STATS:
        _STATS[key] = 0


# ----------------------------------------------------------------------
# Plan signatures
# ----------------------------------------------------------------------


def plan_signature(plan) -> tuple:
    """Structural identity of a plan: everything codegen depends on.

    Both emitted functions read only the step list (kernels, dim
    indices, consumer flags), so two plans with equal signatures lower
    to byte-identical generated source — leaves, labels, tree indices
    and schedules are deliberately excluded, and CSE-equal plans (e.g.
    the two schedules of a chain tree, which reorder *independent*
    steps into the same step tuple) share one compiled
    :class:`PlanCode`.
    """
    return (plan.n_dims, plan.steps)


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------


def _compile_function(source: str, name: str, namespace: dict) -> Callable:
    scope = dict(namespace)
    exec(compile(source, f"<codegen:{name}>", "exec"), scope)
    return scope[name]


def _flops_entry(plan) -> Tuple[Callable[[np.ndarray], np.ndarray], str]:
    """The plan's batch FLOP evaluator, shared by canonical polynomial."""
    poly = plan.flops(dim_symbols(plan.n_dims))
    if not isinstance(poly, SizeExpr):  # constant-FLOP corner case
        poly = SizeExpr.constant(int(poly))
    key = poly.key()
    entry = _FLOPS_FNS.get(key)
    if entry is None:
        source = _emit_flops_source(poly)
        fn = _compile_function(source, "flops_batch", {"_np": np})
        entry = _FLOPS_FNS[key] = (fn, source)
    else:
        _STATS["flops_fns_shared"] += 1
    return entry


def _emit_flops_source(poly: SizeExpr) -> str:
    lines = ["def flops_batch(arr):"]
    dims = poly.used_dims()
    for dim in dims:
        lines.append(f"    c{dim} = arr[:, {dim}]")
    if dims:
        lines.append(f"    return {poly.render(lambda d: f'c{d}')}")
    else:
        constant = poly.size_hint(())
        lines.append(
            f"    return _np.full(arr.shape[0], {constant}, dtype=_np.int64)"
        )
    return "\n".join(lines) + "\n"


def _emit_calls_source(plan) -> Tuple[str, dict]:
    """KernelCallBatch builder: one gather, per-call slices, trusted init.

    All step dims are gathered with a single fancy index; each call
    slot's ``(n, arity)`` dims matrix is then a strided column slice
    of the gathered block.  The batches are assembled through
    ``object.__new__`` plus direct ``__dict__`` stores — the frozen
    dataclass's validated constructor costs ~5× as much per call and
    can only re-check shapes this emitter already fixed.
    """
    flat_dims = [i for step in plan.steps for i in step.dims]
    namespace: dict = {
        "_new": object.__new__,
        "_KCB": KernelCallBatch,
        "_IDX": np.asarray(flat_dims, dtype=np.intp),
    }
    lines = ["def calls_batch(arr):", "    d = arr[:, _IDX]"]
    offset = 0
    names: List[str] = []
    for s, step in enumerate(plan.steps):
        arity = len(step.dims)
        kernel_name = f"_K_{step.kernel.name}"
        namespace[kernel_name] = step.kernel
        lines.extend(
            [
                f"    b{s} = _new(_KCB)",
                f"    x = b{s}.__dict__",
                f"    x['kernel'] = {kernel_name}",
                f"    x['dims'] = d[:, {offset}:{offset + arity}]",
                f"    x['reads_previous'] = {step.reads_previous!r}",
            ]
        )
        names.append(f"b{s}")
        offset += arity
    trailing = "," if len(names) == 1 else ""
    lines.append(f"    return ({', '.join(names)}{trailing})")
    return "\n".join(lines) + "\n", namespace


# ----------------------------------------------------------------------
# Compiled plan code + the per-algorithm provider
# ----------------------------------------------------------------------


class PlanCode:
    """The two compiled functions (and their source) of one plan."""

    __slots__ = ("flops", "calls", "source")

    def __init__(
        self,
        flops: Callable[[np.ndarray], np.ndarray],
        calls: Callable[[np.ndarray], Tuple[KernelCallBatch, ...]],
        source: Dict[str, str],
    ) -> None:
        self.flops = flops
        self.calls = calls
        self.source = source


def compiled_plan(plan) -> PlanCode:
    """The plan's :class:`PlanCode`, compiling at most once per structure."""
    signature = plan_signature(plan)
    code = _PLAN_CACHE.get(signature)
    if code is not None:
        _STATS["plan_cache_hits"] += 1
        return code
    _STATS["plans_compiled"] += 1
    flops_fn, flops_source = _flops_entry(plan)
    calls_source, calls_namespace = _emit_calls_source(plan)
    calls_fn = _compile_function(calls_source, "calls_batch", calls_namespace)
    code = PlanCode(
        flops_fn, calls_fn, {"flops": flops_source, "calls": calls_source}
    )
    _PLAN_CACHE[signature] = code
    return code


class PlanCodegen:
    """Lazy per-plan provider wired into :class:`~repro.expressions.base.Algorithm`.

    Nothing compiles until a batch path first asks for a function.
    """

    __slots__ = ("plan", "_code")

    def __init__(self, plan) -> None:
        self.plan = plan
        self._code: Optional[PlanCode] = None

    def _resolve(self) -> PlanCode:
        if self._code is None:
            self._code = compiled_plan(self.plan)
        return self._code

    def flops_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        _STATS["flops_batches"] += 1
        return self._resolve().flops

    def calls_fn(self) -> Callable[[np.ndarray], Tuple[KernelCallBatch, ...]]:
        _STATS["call_batches"] += 1
        return self._resolve().calls
