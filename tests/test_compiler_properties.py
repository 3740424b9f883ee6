"""Compiler invariants over every family up to k = 5, at random instances.

For every algorithm the compiler emits, three FLOP counts must agree
exactly at any accepted instance: the symbolic polynomial
(:func:`flop_polynomial`, evaluated with exact ints), the algorithm's
own ``flops``, and the sum of its emitted kernel calls' FLOPs.  The
generated int64 batch evaluator must return those same ints for every
instance up to the family's dim cap (the largest dim whose counts fit
int64, the bound the selection service enforces).
"""

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.symbolic import flop_polynomial  # noqa: E402
from repro.expressions.registry import get_expression  # noqa: E402
from repro.service.engine import flops_dim_cap  # noqa: E402

REGISTERED = ("aatb", "addchain3", "chain4", "gram3", "solve3", "sum3", "tri4")

#: Pattern families at k <= 5, each prefix from its smallest valid k.
PATTERNS = tuple(
    f"{prefix}{k}"
    for prefix, lo in (
        ("chain", 2), ("sum", 2), ("addchain", 2),
        ("solve", 2), ("gram", 3), ("tri", 2),
    )
    for k in range(lo, 6)
)

#: Every family once: the registered ones overlap the patterns.
FAMILIES = tuple(dict.fromkeys(REGISTERED + PATTERNS))


@lru_cache(maxsize=None)
def _family(name):
    expression = get_expression(name)
    algorithms = expression.algorithms()
    polynomials = tuple(
        flop_polynomial(a, expression.n_dims) for a in algorithms
    )
    cap = flops_dim_cap(algorithms, expression.n_dims)
    return expression.n_dims, algorithms, polynomials, cap


def family_rows(name):
    """Up to four instances of ``name``, mixing the full accepted range
    with small dims, where degenerate (size-1) extents live."""
    n_dims, _, _, cap = _family(name)
    dim = st.one_of(
        st.integers(min_value=1, max_value=cap),
        st.integers(min_value=1, max_value=64),
    )
    return st.lists(
        st.lists(dim, min_size=n_dims, max_size=n_dims),
        min_size=1,
        max_size=4,
    )


@pytest.mark.parametrize("name", FAMILIES)
def test_flop_polynomial_equals_flops_and_kernel_calls(name):
    _, algorithms, polynomials, _ = _family(name)

    @settings(max_examples=20, deadline=None)
    @given(family_rows(name))
    def check(rows):
        arr = np.asarray(rows, dtype=np.int64)
        for algorithm, polynomial in zip(algorithms, polynomials):
            exact = []
            for row in rows:
                instance = tuple(row)
                flops = polynomial.size_hint(instance)
                assert flops == algorithm.flops(instance), algorithm.name
                assert flops == sum(
                    call.flops for call in algorithm.kernel_calls(instance)
                ), algorithm.name
                exact.append(flops)
            assert algorithm.flops_batch(arr).tolist() == exact, (
                algorithm.name
            )

    check()
