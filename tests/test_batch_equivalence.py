"""Scalar/batch equivalence: the batched paths must be bit-for-bit.

The vectorized engine (machine ``*_batch`` methods, backend batch API,
``classify_batch``, and the batched experiment drivers) promises
results *identical* to point-by-point evaluation — not approximately
equal: every comparison here is ``==`` on floats.  Parametrized over
all three machine presets and the seeds the benchmark suite uses.
"""

import random

import numpy as np
import pytest

from repro.backends.base import Backend
from repro.backends.simulated import SimulatedBackend
from repro.core.classify import (
    classify,
    classify_batch,
    evaluate_instance,
    evaluate_instances,
)
from repro.core.searchspace import paper_box
from repro.experiments.prediction import predict_from_benchmarks
from repro.experiments.random_search import random_search
from repro.experiments.regions import (
    RegionCell,
    explore_regions,
)
from repro.expressions.registry import get_expression
from repro.kernels.types import KernelName, batch_kernel_calls
from repro.machine.presets import (
    no_cache_machine,
    no_variants_machine,
    paper_machine,
)

PRESETS = {
    "paper": paper_machine,
    "no_cache": no_cache_machine,
    "no_variants": no_variants_machine,
}
SEEDS = (0, 1, 2, 7)

CASES = [
    pytest.param(name, seed, id=f"{name}-seed{seed}")
    for name in PRESETS
    for seed in SEEDS
]


def _instances(n_dims, count, seed=123):
    rng = random.Random(seed)
    box = paper_box(n_dims)
    return [box.sample(rng) for _ in range(count)]


@pytest.fixture(scope="module")
def aatb():
    return get_expression("aatb")


@pytest.fixture(scope="module")
def chain():
    return get_expression("chain4")


# ----------------------------------------------------------------------
# Machine layer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("preset,seed", CASES)
def test_measure_kernel_batch_matches_scalar(preset, seed):
    machine = PRESETS[preset](seed=seed)
    rng = random.Random(seed)
    for kernel, arity in (
        (KernelName.GEMM, 3),
        (KernelName.SYRK, 2),
        (KernelName.SYMM, 2),
    ):
        dims = [
            tuple(rng.randint(20, 1200) for _ in range(arity))
            for _ in range(10)
        ]
        batch = machine.measure_kernel_batch(kernel, dims)
        scalar = [machine.measure_kernel(kernel, d) for d in dims]
        assert batch.tolist() == scalar
        eff_batch = machine.efficiency_batch(kernel, dims)
        assert eff_batch.tolist() == [
            machine.efficiency(kernel, d) for d in dims
        ]


@pytest.mark.parametrize("preset,seed", CASES)
def test_algorithm_batches_match_scalar(preset, seed, aatb, chain):
    machine = PRESETS[preset](seed=seed)
    for expression, count in ((aatb, 12), (chain, 8)):
        instances = _instances(expression.n_dims, count, seed=seed)
        arr = np.asarray(instances, dtype=np.int64)
        columns = tuple(arr[:, i] for i in range(arr.shape[1]))
        for algorithm in expression.algorithms():
            calls = batch_kernel_calls(
                algorithm.kernel_calls(columns), len(instances)
            )
            measured = machine.measure_algorithm_batch(
                calls, context=algorithm.name
            )
            predicted = machine.predict_algorithm_batch(
                calls, context=algorithm.name
            )
            assert measured.tolist() == [
                machine.measure_algorithm(
                    algorithm.kernel_calls(inst), context=algorithm.name
                )
                for inst in instances
            ]
            assert predicted.tolist() == [
                machine.predict_algorithm(
                    algorithm.kernel_calls(inst), context=algorithm.name
                )
                for inst in instances
            ]


# ----------------------------------------------------------------------
# Backend layer: vectorized overrides vs the scalar-loop defaults
# ----------------------------------------------------------------------


@pytest.mark.parametrize("preset,seed", CASES)
def test_backend_batch_api_matches_default_loops(preset, seed, aatb):
    instances = _instances(3, 15, seed=seed)
    algorithm = aatb.algorithms()[0]
    fast = SimulatedBackend(PRESETS[preset](seed=seed))
    slow = SimulatedBackend(PRESETS[preset](seed=seed))
    assert (
        fast.time_algorithms(algorithm, instances).tolist()
        == Backend.time_algorithms(slow, algorithm, instances).tolist()
    )
    assert (
        fast.predict_times(algorithm, instances).tolist()
        == [slow.predict_time(algorithm, inst) for inst in instances]
    )
    dims = [inst[:2] for inst in instances]
    assert (
        fast.time_kernels(KernelName.SYRK, dims).tolist()
        == Backend.time_kernels(slow, KernelName.SYRK, dims).tolist()
    )


# ----------------------------------------------------------------------
# Classification layer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("preset,seed", CASES)
def test_classify_batch_matches_scalar(preset, seed, aatb):
    instances = _instances(3, 20, seed=seed)
    algorithms = aatb.algorithms()
    batch_backend = SimulatedBackend(PRESETS[preset](seed=seed))
    scalar_backend = SimulatedBackend(PRESETS[preset](seed=seed))
    batch = evaluate_instances(batch_backend, algorithms, instances)
    for threshold in (0.05, 0.10):
        batched = classify_batch(batch, threshold=threshold)
        for i, instance in enumerate(instances):
            evaluation = evaluate_instance(
                scalar_backend, algorithms, instance
            )
            assert batch.evaluation(i) == evaluation
            assert batched[i] == classify(evaluation, threshold=threshold)


# ----------------------------------------------------------------------
# Experiment layer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("preset,seed", CASES)
def test_random_search_identical_for_any_batch_size(preset, seed, aatb):
    box = paper_box(3)
    results = [
        random_search(
            SimulatedBackend(PRESETS[preset](seed=seed)),
            aatb,
            box,
            threshold=0.10,
            target_anomalies=3,
            max_samples=150,
            seed=seed,
            batch_size=batch_size,
        )
        for batch_size in (1, 7, 64, None)
    ]
    for other in results[1:]:
        assert other == results[0]


def _reference_explore_regions(
    backend, expression, origins, box, threshold, dims, step, hole_tolerance
):
    """Point-by-point region traversal (the pre-batching algorithm),
    with the origin recorded once per region and cells deduplicated by
    instance — the semantics ``explore_regions`` must reproduce."""
    from repro.experiments.regions import DimExtent, Region, Regions

    algorithms = expression.algorithms()
    cells, seen, regions = [], set(), []

    def record(instance, verdict):
        if instance not in seen:
            seen.add(instance)
            cells.append(
                RegionCell(
                    instance=instance,
                    time_score=verdict.time_score,
                    is_anomaly=verdict.is_anomaly,
                )
            )

    def walk(origin, dim, direction):
        extreme = position = origin[dim]
        holes = 0
        while True:
            position += direction * step
            if not box.lows[dim] <= position <= box.highs[dim]:
                break
            instance = tuple(
                position if i == dim else v for i, v in enumerate(origin)
            )
            verdict = classify(
                evaluate_instance(backend, algorithms, instance),
                threshold=threshold,
            )
            record(instance, verdict)
            if verdict.is_anomaly:
                extreme = position
                holes = 0
            else:
                holes += 1
                if holes > hole_tolerance:
                    break
        return extreme

    for origin in origins:
        origin = tuple(int(v) for v in origin)
        verdict = classify(
            evaluate_instance(backend, algorithms, origin),
            threshold=threshold,
        )
        record(origin, verdict)
        extents = {}
        if verdict.is_anomaly:
            for dim in dims:
                lo = walk(origin, dim, -1)
                hi = walk(origin, dim, +1)
                extents[dim] = DimExtent(dim=dim, lo=lo, hi=hi)
        regions.append(Region(origin=origin, extents=extents))
    return Regions(
        expression=expression.name,
        threshold=threshold,
        n_dims=expression.n_dims,
        regions=tuple(regions),
        cells=tuple(cells),
    )


@pytest.mark.parametrize("preset,seed", CASES)
def test_explore_regions_matches_scalar_reference(preset, seed, aatb):
    box = paper_box(3)
    search = random_search(
        SimulatedBackend(PRESETS[preset](seed=seed)),
        aatb,
        box,
        threshold=0.10,
        target_anomalies=2,
        max_samples=150,
        seed=seed,
    )
    origins = [anomaly.instance for anomaly in search.anomalies]
    kwargs = dict(
        box=box, threshold=0.05, dims=(0, 2), step=48, hole_tolerance=2
    )
    batched = explore_regions(
        SimulatedBackend(PRESETS[preset](seed=seed)), aatb, origins, **kwargs
    )
    reference = _reference_explore_regions(
        SimulatedBackend(PRESETS[preset](seed=seed)), aatb, origins, **kwargs
    )
    assert batched == reference


@pytest.mark.parametrize("preset,seed", CASES)
def test_prediction_matches_scalar_reference(preset, seed, aatb):
    from repro.core.classify import Evaluation
    from repro.experiments.prediction import PredictionRecord

    box = paper_box(3)
    backend = SimulatedBackend(PRESETS[preset](seed=seed))
    search = random_search(
        backend, aatb, box, threshold=0.10,
        target_anomalies=1, max_samples=150, seed=seed,
    )
    regions = explore_regions(
        backend, aatb,
        [a.instance for a in search.anomalies],
        box, threshold=0.05, dims=(0,), step=96,
    )
    batched = predict_from_benchmarks(backend, aatb, regions)

    scalar_backend = SimulatedBackend(PRESETS[preset](seed=seed))
    algorithms = aatb.algorithms()
    for cell, record in zip(regions.cells, batched.records):
        evaluation = Evaluation(
            instance=cell.instance,
            algorithm_names=tuple(a.name for a in algorithms),
            flops=tuple(int(a.flops(cell.instance)) for a in algorithms),
            seconds=tuple(
                float(scalar_backend.predict_time(a, cell.instance))
                for a in algorithms
            ),
        )
        verdict = classify(evaluation, threshold=regions.threshold)
        assert record == PredictionRecord(
            instance=cell.instance,
            actual_anomaly=cell.is_anomaly,
            predicted_anomaly=verdict.is_anomaly,
            actual_score=cell.time_score,
            predicted_score=verdict.time_score,
        )


def test_region_cells_are_unique_and_include_origins(aatb):
    box = paper_box(3)
    backend = SimulatedBackend(paper_machine(seed=0))
    search = random_search(
        backend, aatb, box, threshold=0.10,
        target_anomalies=2, max_samples=300, seed=0,
    )
    origins = [a.instance for a in search.anomalies]
    # Duplicate an origin on purpose: its verdict must be recorded once.
    regions = explore_regions(
        backend, aatb, origins + origins[:1], box,
        threshold=0.05, dims=(0, 1),
    )
    instances = [cell.instance for cell in regions.cells]
    assert len(instances) == len(set(instances))
    recorded = set(instances)
    for origin in origins:
        assert origin in recorded
    assert len(regions.regions) == len(origins) + 1


def test_base_predict_time_dedupes_kernel_timings(aatb):
    class CountingBackend(Backend):
        def __init__(self):
            self.kernel_calls = []

        @property
        def peak_flops(self):
            return 1.0

        def time_algorithm(self, algorithm, instance):
            raise NotImplementedError

        def time_kernel(self, kernel, dims):
            self.kernel_calls.append((kernel, tuple(dims)))
            return 1.0

    # aatb-3 at d1 == d2 issues GEMM(d0, d0, d1) and GEMM(d0, d2, d0)
    # which collide when all dims are equal.
    algorithm = aatb.algorithms()[2]
    backend = CountingBackend()
    total = backend.predict_time(algorithm, (64, 64, 64))
    assert total == 2.0  # both occurrences contribute
    assert len(backend.kernel_calls) == 1  # but only one benchmark ran
    backend.kernel_calls.clear()
    out = backend.predict_times(algorithm, [(64, 64, 64), (64, 64, 64), (32, 64, 64)])
    assert out.tolist() == [2.0, 2.0, 2.0]
    # one distinct call for the first two instances + two for the third
    assert len(backend.kernel_calls) == 3


def test_predict_times_matrix_dedupes_across_plans(aatb):
    """One benchmark memo spans all the plans of an evaluation batch."""

    class CountingBackend(Backend):
        def __init__(self):
            self.kernel_calls = []

        @property
        def peak_flops(self):
            return 1.0

        def time_algorithm(self, algorithm, instance):
            raise NotImplementedError

        def time_kernel(self, kernel, dims):
            self.kernel_calls.append((kernel, tuple(dims)))
            return 1.0

    # aatb-1 = SYRK(d0,d1) + SYMM(d0,d2); aatb-2 = SYRK(d0,d1) +
    # GEMM(d0,d2,d0): the SYRK call is shared, so a matrix prediction
    # benchmarks 3 distinct kernels where per-plan calls would run 4.
    algorithms = aatb.algorithms()[:2]
    backend = CountingBackend()
    out = backend.predict_times_matrix(algorithms, [(64, 96, 128)])
    assert out.shape == (1, 2)
    assert out.tolist() == [[2.0, 2.0]]
    assert len(backend.kernel_calls) == 3  # memo hit for aatb-2's SYRK

    # Without the shared memo, each plan re-times its own calls.
    backend.kernel_calls.clear()
    for algorithm in algorithms:
        backend.predict_times(algorithm, [(64, 96, 128)])
    assert len(backend.kernel_calls) == 4


def test_machine_base_seconds_memo_hits_across_plans(aatb):
    """The noise-free base-seconds cache is hit across plan contexts
    without perturbing a single bit of any prediction."""
    instances = _instances(3, 10, seed=5)
    algorithms = aatb.algorithms()
    shared = SimulatedBackend(paper_machine(seed=0))
    assert shared.machine.base_seconds_cache_hits == 0
    got = [
        shared.predict_times(a, instances).tolist() for a in algorithms
    ]
    # Every plan starts with SYRK or GEMM over overlapping dim columns.
    assert shared.machine.base_seconds_cache_hits > 0
    for algorithm, expected in zip(algorithms, got):
        # A fresh machine per algorithm sees every column cold.
        fresh = SimulatedBackend(paper_machine(seed=0))
        assert fresh.predict_times(algorithm, instances).tolist() == expected


@pytest.mark.parametrize("rows", [1, 4])
def test_base_seconds_cost_bounds_traced_bytes(rows):
    """The base-seconds budget counts at least what the cache really
    allocates: one-row entries are mostly per-entry overhead."""
    import tracemalloc

    from repro.machine import machine as machine_module

    entries = 20_000
    dims = np.random.default_rng(0).integers(
        20, 1200, size=(entries, rows, 3), dtype=np.int64
    )
    machine = paper_machine(seed=0)
    tracemalloc.start()
    try:
        for start in range(0, entries, 500):
            machine._base_seconds_memo(
                [(KernelName.GEMM, dims[i]) for i in range(start, start + 500)]
            )
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(machine._base_seconds_cache) == entries
    counted = machine._base_cache_bytes
    assert counted == entries * machine_module._base_entry_cost(
        8 * 3 * rows, 8 * rows
    )
    assert traced <= counted
    # Not a gross overcount either: the budget stays meaningful.
    assert counted <= 2 * traced


# ----------------------------------------------------------------------
# Profiles and profile-based discriminants
# ----------------------------------------------------------------------

_PROFILE_GRID = (24, 64, 160, 400, 800, 1400)


def _profiles_for(seed):
    from repro.profiles.benchmark import build_all_profiles

    backend = SimulatedBackend(paper_machine(seed=seed))
    return backend, build_all_profiles(
        backend,
        axes_by_kernel={
            KernelName.GEMM: (_PROFILE_GRID,) * 3,
            KernelName.SYRK: (_PROFILE_GRID,) * 2,
            KernelName.SYMM: (_PROFILE_GRID,) * 2,
        },
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_profile_predict_batch_matches_scalar(seed):
    _, profiles = _profiles_for(seed)
    rng = random.Random(seed)
    for profile in profiles.values():
        arity = len(profile.axes)
        # On-grid, off-grid, and out-of-range (clamped) dims.
        dims = [tuple(rng.randint(1, 2000) for _ in range(arity))
                for _ in range(50)]
        dims += [
            tuple(_PROFILE_GRID[0] for _ in range(arity)),
            tuple(_PROFILE_GRID[-1] for _ in range(arity)),
            tuple(3000 for _ in range(arity)),
        ]
        batch = profile.predict_batch(np.asarray(dims, dtype=np.int64))
        scalar = [profile.predict(d) for d in dims]
        # Bit-for-bit: the scalar path IS a one-row batch.
        assert batch.tolist() == scalar
        with pytest.raises(ValueError):
            profile.predict_batch(np.zeros((4, arity + 1), dtype=np.int64))


@pytest.mark.parametrize("seed", SEEDS)
def test_profiled_discriminant_select_batch_matches_scalar(
    seed, aatb, chain
):
    from repro.core.discriminants import (
        FlopsProfileHybrid,
        ProfiledTimeDiscriminant,
    )

    _, profiles = _profiles_for(seed)
    for expression in (aatb, chain):
        algorithms = expression.algorithms()
        instances = _instances(expression.n_dims, 200, seed=seed)
        for discriminant in (
            ProfiledTimeDiscriminant(profiles),
            FlopsProfileHybrid(profiles, margin=0.5),
            FlopsProfileHybrid(profiles, margin=0.0),
            FlopsProfileHybrid(profiles, margin=5.0),
        ):
            scalar = [
                discriminant.select(algorithms, inst) for inst in instances
            ]
            assert discriminant.select_batch(algorithms, instances) == scalar
            assert discriminant.select_batch(algorithms, []) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_predicted_times_batch_matches_scalar_sum(seed, aatb):
    from repro.core.discriminants import ProfiledTimeDiscriminant

    _, profiles = _profiles_for(seed)
    discriminant = ProfiledTimeDiscriminant(profiles)
    instances = _instances(aatb.n_dims, 60, seed=seed)
    arr = np.asarray(instances, dtype=np.int64)
    algorithms = aatb.algorithms()
    times = discriminant.plan_for(algorithms, aatb.n_dims).times(arr)
    for j, algorithm in enumerate(algorithms):
        batch = times[:, j]
        assert batch.tolist() == [
            discriminant.predicted_time(algorithm, inst)
            for inst in instances
        ]
