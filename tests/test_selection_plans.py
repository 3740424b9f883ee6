"""Selection plans and the fused benchmark-sum path ≡ the scalar oracles.

A :class:`~repro.core.discriminants.SelectionPlan` dedupes call slots
across all algorithms of an expression and interpolates each kernel
once per request; the simulated backend's ``predict_times_matrix``
runs every algorithm's missing rows through one noise pass.  Both are
pure speedups: every time must equal the scalar path's bit for bit
(``==`` on the float64 bytes), over random families and instances with
duplicated rows, partly warm memos, a non-default machine schedule and
a silent-noise machine.  The hybrid's FLOP shortlist is exact at any
accepted size.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.backends.simulated import SimulatedBackend  # noqa: E402
from repro.core.discriminants import (  # noqa: E402
    FlopsProfileHybrid,
    ProfiledTimeDiscriminant,
)
from repro.expressions.registry import get_expression  # noqa: E402
from repro.machine.machine import MachineModel  # noqa: E402
from repro.machine.noise import NoiseModel  # noqa: E402
from repro.machine.presets import paper_machine  # noqa: E402
from repro.machine.spec import xeon_silver_4210_like  # noqa: E402
from repro.profiles.benchmark import standard_profiles  # noqa: E402
from repro.service import SelectionEngine  # noqa: E402

FAMILIES = ("aatb", "addchain3", "chain4", "gram3", "solve3", "sum3", "tri4")

MACHINES = {
    "paper": lambda: paper_machine(seed=3),
    "max-interference": lambda: paper_machine(
        seed=1, schedule="max-interference"
    ),
    "silent": lambda: MachineModel(
        xeon_silver_4210_like(), noise=NoiseModel()
    ),
}


def float_bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def instances_with_duplicates(draw, n_dims, high=1400):
    dims = st.lists(
        st.integers(min_value=1, max_value=high),
        min_size=n_dims,
        max_size=n_dims,
    )
    rows = draw(st.lists(dims, min_size=1, max_size=6))
    repeats = draw(
        st.lists(st.integers(0, len(rows) - 1), max_size=len(rows))
    )
    return rows + [rows[i] for i in repeats]


@pytest.fixture(scope="module")
def profiles():
    return standard_profiles(SimulatedBackend(paper_machine(seed=0)))


@pytest.fixture(scope="module")
def engine():
    return SelectionEngine(scale="quick", seed=0)


def test_plan_times_equal_scalar_predicted_time_sums(profiles):
    discriminant = ProfiledTimeDiscriminant(profiles)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        expression = get_expression(data.draw(st.sampled_from(FAMILIES)))
        algorithms = expression.algorithms()
        instances = data.draw(instances_with_duplicates(expression.n_dims))
        arr = np.asarray(instances, dtype=np.int64)
        times = discriminant.plan_for(algorithms, expression.n_dims).times(arr)
        expected = [
            [discriminant.predicted_time(a, inst) for a in algorithms]
            for inst in instances
        ]
        assert float_bytes(times) == float_bytes(expected)
        assert discriminant.select_batch(algorithms, instances) == [
            discriminant.select(algorithms, inst) for inst in instances
        ]

    check()


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_fused_predict_times_matrix_equals_per_algorithm(machine):
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def check(data):
        expression = get_expression(data.draw(st.sampled_from(FAMILIES)))
        algorithms = expression.algorithms()
        instances = data.draw(instances_with_duplicates(expression.n_dims))
        backend = SimulatedBackend(MACHINES[machine]())
        # Partly warm memos: some algorithms already predicted at some
        # of the instances.
        for algorithm in algorithms:
            warm = data.draw(st.lists(st.sampled_from(instances), max_size=3))
            if warm:
                backend.predict_times(algorithm, warm)
        fused = backend.predict_times_matrix(algorithms, instances)
        oracle = SimulatedBackend(MACHINES[machine]())
        expected = [
            [oracle.predict_time(a, inst) for a in algorithms]
            for inst in instances
        ]
        assert float_bytes(fused) == float_bytes(expected)
        # The memos now hold exactly those values.
        again = backend.predict_times_matrix(algorithms, instances)
        assert float_bytes(again) == float_bytes(expected)

    check()


def test_fused_predict_times_matrix_serves_repeated_algorithms():
    algorithms = get_expression("aatb").algorithms()
    instances = [(64, 96, 128), (30, 500, 20)]
    backend = SimulatedBackend(paper_machine(seed=0))
    doubled = backend.predict_times_matrix(
        algorithms + algorithms[:2], instances
    )
    assert float_bytes(doubled[:, 5:]) == float_bytes(doubled[:, :2])
    fresh = SimulatedBackend(paper_machine(seed=0))
    single = fresh.predict_times_matrix(algorithms, instances)
    assert float_bytes(doubled[:, :5]) == float_bytes(single)


def exact_shortlist(algorithms, dims, margin):
    counts = [int(a.flops(dims)) for a in algorithms]
    cutoff = min(counts) * (1 + Fraction(margin))
    return [i for i, c in enumerate(counts) if c <= cutoff]


def test_hybrid_margin_zero_keeps_the_min_flop_algorithm(engine):
    # float(min_flops) rounds below the exact minimum here, which used
    # to leave the shortlist empty.
    algorithms = engine.algorithms_for("addchain3")
    dims = [1023891, 771792, 1177163, 550735]
    hybrid = FlopsProfileHybrid(engine.discriminants["hybrid"].profiles, 0)
    pick = hybrid.select(algorithms, dims)
    assert pick in exact_shortlist(algorithms, dims, 0)
    assert hybrid.select_batch(algorithms, [dims]) == [pick]


@pytest.mark.parametrize("dims", [
    [1048575, 705272, 1048574, 1048570, 3, 3],
    [1048575, 2, 2, 1048574, 327629, 581923],
    [1048575, 3, 3, 1048574, 524791, 1048575],
])
def test_hybrid_batch_shortlist_is_exact_above_2_pow_53(engine, dims):
    # A sum3 algorithm a few FLOPs above the minimum rounds to the same
    # float64 as the cutoff; an int64-vs-float64 compare shortlisted
    # it, and its faster profile then won the batch pick.
    algorithms = engine.algorithms_for("sum3")
    hybrid = FlopsProfileHybrid(engine.discriminants["hybrid"].profiles, 0)
    (expected,) = exact_shortlist(algorithms, dims, 0)
    assert hybrid.select_batch(algorithms, [dims]) == [expected]
    assert hybrid.select(algorithms, dims) == expected


def test_hybrid_shortlist_is_exact_up_to_the_cap(engine):
    profiles = engine.discriminants["hybrid"].profiles
    hybrids = {m: FlopsProfileHybrid(profiles, m) for m in (0, 0.5, 5)}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(FAMILIES))
        margin = data.draw(st.sampled_from(sorted(hybrids)))
        hybrid = hybrids[margin]
        algorithms = engine.algorithms_for(name)
        cap = engine.dim_cap_for(name)
        n_dims = engine.expression_for(name).n_dims
        dim = st.one_of(st.integers(1, cap), st.integers(cap // 4, cap))
        batch = data.draw(
            st.lists(
                st.lists(dim, min_size=n_dims, max_size=n_dims),
                min_size=1,
                max_size=4,
            )
        )
        picks = hybrid.select_batch(algorithms, batch)
        for dims, pick in zip(batch, picks):
            shortlist = exact_shortlist(algorithms, dims, margin)
            expected = min(
                shortlist,
                key=lambda i: hybrid.predicted_time(algorithms[i], dims),
            )
            assert hybrid.select(algorithms, dims) == expected == pick

    check()


def test_plans_are_built_lazily_and_cached(engine):
    engine.warm(["aatb"])
    hybrid = engine.discriminants["hybrid"]
    algorithms = engine.algorithms_for("aatb")
    assert all(
        plan.algorithms != algorithms for plan in hybrid._plans.values()
    )
    engine.select("aatb", [30, 500, 20], annotate=False)
    plan = hybrid.plan_for(algorithms, 3)
    engine.select("aatb", [40, 600, 25], annotate=False)
    assert hybrid.plan_for(algorithms, 3) is plan


def _hand_built(name, builder):
    from repro.expressions.base import Algorithm

    return Algorithm(name=name, expression="hand-built", calls_builder=builder)


def test_plan_evaluates_derived_and_constant_dims(profiles):
    from repro.kernels.types import KernelCall, KernelName

    algorithms = (
        _hand_built("derived", lambda d: (
            KernelCall(KernelName.GEMM, (d[0] + d[1], d[2], 3)),
            KernelCall(KernelName.SYRK, (d[0], 2 * d[1] * d[2]), True),
        )),
        _hand_built("plain", lambda d: (
            KernelCall(KernelName.GEMM, (d[0], d[1], d[2])),
        )),
    )
    instances = [(20, 30, 40), (500, 7, 900), (20, 30, 40)]
    discriminant = ProfiledTimeDiscriminant(profiles)
    times = discriminant.plan_for(algorithms, 3).times(
        np.asarray(instances, dtype=np.int64)
    )
    expected = [
        [discriminant.predicted_time(a, inst) for a in algorithms]
        for inst in instances
    ]
    assert float_bytes(times) == float_bytes(expected)


def test_unprofiled_kernels_raise_only_where_the_scalar_path_does(profiles):
    from repro.kernels.types import KernelCall, KernelName

    algorithms = (
        _hand_built("gemm", lambda d: (
            KernelCall(KernelName.GEMM, (d[0], d[1], d[2])),
        )),
        # More FLOPs, so a margin-0 hybrid never shortlists it.
        _hand_built("gemm+add", lambda d: (
            KernelCall(KernelName.GEMM, (d[0], d[1], d[2])),
            KernelCall(KernelName.ADD, (d[0], d[2]), True),
        )),
    )
    gemm_only = {KernelName.GEMM: profiles[KernelName.GEMM]}
    instances = [(20, 30, 40), (500, 7, 900)]
    hybrid = FlopsProfileHybrid(gemm_only, margin=0)
    assert hybrid.select_batch(algorithms, instances) == [
        hybrid.select(algorithms, inst) for inst in instances
    ] == [0, 0]
    profiled = ProfiledTimeDiscriminant(gemm_only)
    with pytest.raises(KeyError, match="no profile for kernel add"):
        profiled.select(algorithms, instances[0])
    with pytest.raises(KeyError, match="no profile for kernel add"):
        profiled.select_batch(algorithms, instances)
