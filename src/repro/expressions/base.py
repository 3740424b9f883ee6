"""Algorithm and Expression abstractions.

An *expression* is a target computation (e.g. ``A B C D`` or
``A Aᵀ B``); an *algorithm* is one mathematically equivalent way to
evaluate it as a sequence of BLAS kernel calls.  The FLOP count of an
algorithm is a polynomial in the instance dims, so the same
``kernel_calls`` builder serves numeric evaluation, the simulated
machine, and the symbolic analysis in :mod:`repro.core.symbolic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.types import (
    KernelCall,
    KernelCallBatch,
    batch_kernel_calls,
)

#: Builds the kernel-call sequence for a concrete (or symbolic) instance.
CallsBuilder = Callable[[Sequence[Any]], Tuple[KernelCall, ...]]

#: Executes the algorithm on real operand matrices (real-BLAS backend).
Executor = Callable[[Sequence[np.ndarray]], np.ndarray]


@dataclass(frozen=True)
class Algorithm:
    """One equivalent evaluation strategy for an expression.

    ``codegen`` is an optional provider of compiled batch evaluators
    (duck-typed: ``flops_fn()`` / ``calls_fn()`` returning a callable
    over an ``(n, n_dims)`` int64 instance matrix — see
    :class:`repro.expressions.codegen.PlanCodegen`).  The batch
    methods below use it when present and the interpreted column path
    otherwise, so hand-built algorithms without a provider keep
    working unchanged.
    """

    name: str
    expression: str
    calls_builder: CallsBuilder = field(compare=False, repr=False)
    executor: Optional[Executor] = field(
        default=None, compare=False, repr=False
    )
    codegen: Optional[Any] = field(default=None, compare=False, repr=False)

    def kernel_calls(self, instance: Sequence[Any]) -> Tuple[KernelCall, ...]:
        return self.calls_builder(instance)

    def flops(self, instance: Sequence[Any]) -> Any:
        """Total FLOPs; exact integer for int dims, polynomial otherwise."""
        total: Any = 0
        for call in self.kernel_calls(instance):
            total = total + call.flops
        return total

    def flops_batch_function(self):
        """The compiled batch FLOP evaluator, or None.

        Plans sharing one FLOP polynomial share one function *object*,
        so callers evaluating many algorithms may dedupe whole
        evaluations by function identity (``core.classify.batch_flops``
        does).
        """
        if self.codegen is None:
            return None
        return self.codegen.flops_fn()

    def flops_batch(self, instances_matrix: np.ndarray) -> np.ndarray:
        """Exact ``(n,)`` int64 FLOPs over an ``(n, n_dims)`` int64 matrix."""
        fn = self.flops_batch_function()
        if fn is not None:
            return fn(instances_matrix)
        n = instances_matrix.shape[0]
        columns = tuple(
            instances_matrix[:, i] for i in range(instances_matrix.shape[1])
        )
        return np.broadcast_to(
            np.asarray(self.flops(columns), dtype=np.int64), (n,)
        )

    def kernel_call_batches(
        self, instances_matrix: np.ndarray
    ) -> Tuple[KernelCallBatch, ...]:
        """One :class:`KernelCallBatch` per call slot over a batch."""
        if self.codegen is not None:
            return self.codegen.calls_fn()(instances_matrix)
        columns = tuple(
            instances_matrix[:, i] for i in range(instances_matrix.shape[1])
        )
        return batch_kernel_calls(
            self.kernel_calls(columns), instances_matrix.shape[0]
        )

    def execute(self, operands: Sequence[np.ndarray]) -> np.ndarray:
        if self.executor is None:
            raise NotImplementedError(
                f"{self.name} has no real-BLAS executor"
            )
        return self.executor(operands)


class Expression:
    """A computation with several mathematically equivalent algorithms."""

    name: str = ""
    n_dims: int = 0
    operand_labels: str = ""

    def algorithms(self) -> Tuple[Algorithm, ...]:
        raise NotImplementedError

    def make_operands(
        self, instance: Sequence[int], rng: np.random.Generator
    ) -> List[np.ndarray]:
        """Random double-precision operands for a concrete instance."""
        raise NotImplementedError

    def reference(self, operands: Sequence[np.ndarray]) -> np.ndarray:
        """Straightforward NumPy evaluation, the correctness oracle."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Expression {self.name} n_dims={self.n_dims}>"
