"""The service's dim cap keeps int64 batch FLOP counts exact.

Batch FLOP counts are int64, so an instance whose count passes 2**63
would wrap and silently change the min-FLOP pick.  The engine refuses
dims above a per-expression cap derived from the exact counts; every
accepted instance must pick exactly what Python-int arithmetic picks.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.service import SelectionEngine, SelectionError  # noqa: E402

FAMILIES = ("aatb", "addchain3", "chain4", "gram3", "solve3", "sum3", "tri4")

INT64_MAX = 2**63 - 1


@pytest.fixture(scope="module")
def engine():
    return SelectionEngine(scale="quick", seed=0)


def exact_min_flops_index(algorithms, dims):
    counts = [int(a.flops(dims)) for a in algorithms]
    return counts.index(min(counts))  # ties go to the lowest index


@pytest.mark.parametrize("name", FAMILIES)
def test_cap_is_the_largest_dim_that_fits_int64(engine, name):
    algorithms = engine.algorithms_for(name)
    n_dims = engine.expression_for(name).n_dims
    cap = engine.dim_cap_for(name)
    assert max(int(a.flops((cap,) * n_dims)) for a in algorithms) <= INT64_MAX
    assert (
        max(int(a.flops((cap + 1,) * n_dims)) for a in algorithms)
        > INT64_MAX
    )


@pytest.mark.parametrize("name", FAMILIES)
def test_dims_above_the_cap_are_refused(engine, name):
    n_dims = engine.expression_for(name).n_dims
    cap = engine.dim_cap_for(name)
    dims = [1] * (n_dims - 1) + [cap + 1]
    with pytest.raises(SelectionError, match=f"at most {cap}"):
        engine.select(name, dims, discriminant="min-flops")


@pytest.mark.parametrize("name", FAMILIES)
def test_dims_at_the_cap_pick_the_exact_argmin(engine, name):
    # The largest accepted instances carry the largest FLOP counts the
    # int64 batch has to hold without wrapping.
    n_dims = engine.expression_for(name).n_dims
    cap = engine.dim_cap_for(name)
    batch = [
        [cap] * n_dims,
        [cap if i % 2 == 0 else 1 for i in range(n_dims)],
        [1 if i % 2 == 0 else cap for i in range(n_dims)],
    ]
    algorithms = engine.algorithms_for(name)
    picks = engine.select_many(
        name, batch, discriminant="min-flops", annotate=False
    )
    assert [s.algorithm_index for s in picks] == [
        exact_min_flops_index(algorithms, tuple(dims)) for dims in batch
    ]


@st.composite
def accepted_batches(draw, engine):
    name = draw(st.sampled_from(FAMILIES))
    n_dims = engine.expression_for(name).n_dims
    cap = engine.dim_cap_for(name)
    dims = st.lists(
        st.integers(min_value=1, max_value=cap),
        min_size=n_dims,
        max_size=n_dims,
    )
    return name, draw(st.lists(dims, min_size=1, max_size=6))


def test_min_flops_batch_is_the_exact_argmin_up_to_the_cap(engine):
    @settings(max_examples=150, deadline=None)
    @given(accepted_batches(engine))
    def check(case):
        name, batch = case
        algorithms = engine.algorithms_for(name)
        picks = engine.select_many(
            name, batch, discriminant="min-flops", annotate=False
        )
        assert [s.algorithm_index for s in picks] == [
            exact_min_flops_index(algorithms, tuple(dims)) for dims in batch
        ]

    check()

