"""The columnar study loop ≡ its scalar oracles, for every family.

``evaluate_instances`` answers a batch with one backend matrix call,
``classify_batch`` keeps its verdicts as columns and builds a
:class:`Verdict` per row only on demand, and ``Box.sample_many`` inlines
CPython's ``randint`` rejection loop.  All three are pure speedups:
every value must equal the point-by-point path bit for bit, over random
registered families, instances (with repeated rows), machine presets
and a non-default step schedule.
"""

import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.backends.simulated import SimulatedBackend  # noqa: E402
from repro.core.classify import (  # noqa: E402
    BatchVerdicts,
    classify,
    classify_batch,
    evaluate_instance,
    evaluate_instances,
)
from repro.core.searchspace import Box  # noqa: E402
from repro.expressions.registry import get_expression  # noqa: E402
from repro.machine.presets import (  # noqa: E402
    no_cache_machine,
    no_variants_machine,
    paper_machine,
)

FAMILIES = ("aatb", "addchain3", "chain4", "gram3", "solve3", "sum3", "tri4")

PRESETS = {
    "paper": paper_machine,
    "no_cache": no_cache_machine,
    "no_variants": no_variants_machine,
    "max-interference": lambda seed: paper_machine(
        seed=seed, schedule="max-interference"
    ),
}


def float_bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def instance_batches(draw, n_dims, high=1400):
    rows = draw(st.lists(
        st.tuples(*[st.integers(min_value=1, max_value=high)] * n_dims),
        min_size=1,
        max_size=5,
    ))
    # Repeat some rows so the backend memo dedupes inside a batch.
    repeats = draw(st.lists(st.sampled_from(rows), max_size=2))
    return draw(st.permutations(rows + repeats))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_batch_rows_and_verdicts_equal_scalar_for_every_family(preset):
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def check(data):
        expression = get_expression(data.draw(st.sampled_from(FAMILIES)))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        threshold = data.draw(st.sampled_from((0.0, 0.05, 0.10)))
        instances = data.draw(instance_batches(expression.n_dims))
        algorithms = expression.algorithms()

        batch = evaluate_instances(
            SimulatedBackend(PRESETS[preset](seed)), algorithms, instances
        )
        verdicts = classify_batch(batch, threshold=threshold)
        oracle = SimulatedBackend(PRESETS[preset](seed))
        assert isinstance(verdicts, BatchVerdicts)
        assert len(verdicts) == len(instances)
        for i, instance in enumerate(instances):
            evaluation = evaluate_instance(oracle, algorithms, instance)
            row = batch.evaluation(i)
            assert row == evaluation
            assert float_bytes(row.seconds) == float_bytes(evaluation.seconds)
            verdict = classify(evaluation, threshold=threshold)
            assert verdicts[i] == verdict
            assert float_bytes(
                [verdicts[i].time_score, verdicts[i].flop_score]
            ) == float_bytes([verdict.time_score, verdict.flop_score])

        materialised = list(verdicts)
        assert verdicts.is_anomaly == [v.is_anomaly for v in materialised]
        assert float_bytes(verdicts.time_scores) == float_bytes(
            [v.time_score for v in materialised]
        )
        assert float_bytes(verdicts.flop_scores) == float_bytes(
            [v.flop_score for v in materialised]
        )
        assert all(v.threshold == threshold for v in materialised)
        # Slices materialise row by row, like a list of the verdicts.
        assert verdicts[1:3] == materialised[1:3]
        assert verdicts[::-2] == materialised[::-2]

    check()


@st.composite
def boxes(draw):
    """Boxes whose axis widths are 1, or 2**k - 1, 2**k, 2**k + 1: the
    edges of ``randrange``'s bit-length rejection loop."""
    lows, highs = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        k = draw(st.integers(min_value=0, max_value=40))
        width = draw(st.sampled_from((1, 2**k - 1, 2**k, 2**k + 1)))
        low = draw(st.integers(min_value=1, max_value=5000))
        lows.append(low)
        highs.append(low + max(width, 1) - 1)
    return Box(lows, highs)


@settings(max_examples=200, deadline=None)
@given(
    box=boxes(),
    seed=st.integers(min_value=0, max_value=2**64),
    n=st.integers(min_value=0, max_value=30),
)
def test_sample_many_equals_randint_loop(box, seed, n):
    rng, oracle = random.Random(seed), random.Random(seed)
    expected = [
        tuple(
            oracle.randint(lo, hi) for lo, hi in zip(box.lows, box.highs)
        )
        for _ in range(n)
    ]
    assert box.sample_many(rng, n) == expected
    # Same draws consumed: the next value of either rng agrees.
    assert rng.getstate() == oracle.getstate()
    # ``sample`` is the one-sample case of the same draw.
    single = random.Random(seed)
    assert [box.sample(single) for _ in range(n)] == expected
    assert single.getstate() == oracle.getstate()
