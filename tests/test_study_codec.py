"""Properties of the study codec and the store's damage handling.

* Encode → decode → encode is byte-identical for *generated* studies
  (any finite floats, any names, every schedule and variant key), not
  only for the computed studies the payload pins cover.
* A damaged store file — truncated, byte-flipped, a numeric field set
  to ``1e999`` or nested past the parser's recursion limit — loads as
  a miss or as a study, never as an exception, and ``study_for``
  recomputes a missed study and heals the file to its original bytes.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ablation.components import STUDY_VARIANTS
from repro.analysis.confusion import ConfusionMatrix
from repro.core.classify import Verdict
from repro.core.searchspace import NAMED_BOXES
from repro.experiments.prediction import Prediction, PredictionRecord
from repro.experiments.random_search import Anomaly, SearchResult
from repro.experiments.regions import DimExtent, Region, RegionCell, Regions
from repro.figures import cache
from repro.figures.cache import (
    StudyKey,
    StudyStore,
    decode_study,
    encode_study,
)
from repro.figures.common import (
    SCALES,
    FigureConfig,
    clear_study_cache,
    study_for,
)
from repro.machine.machine import SCHEDULES

# ----------------------------------------------------------------------
# Generated studies
# ----------------------------------------------------------------------

names = st.text(max_size=12)
finite = st.floats(allow_nan=False, allow_infinity=False)
dims = st.integers(min_value=0, max_value=2**62)
instances = st.lists(dims, min_size=1, max_size=6).map(tuple)
counts = st.integers(min_value=0, max_value=2**40)

verdicts = st.builds(
    Verdict,
    is_anomaly=st.booleans(),
    time_score=finite,
    flop_score=finite,
    threshold=finite,
    cheapest=st.lists(names, max_size=3).map(tuple),
    fastest=st.lists(names, max_size=3).map(tuple),
)

searches = st.builds(
    SearchResult,
    expression=names,
    threshold=finite,
    anomalies=st.lists(
        st.builds(Anomaly, instance=instances, verdict=verdicts), max_size=4
    ).map(tuple),
    n_samples=counts,
)


@st.composite
def regions_strategy(draw):
    n_dims = draw(st.integers(min_value=1, max_value=6))
    region_list = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        extent_dims = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_dims - 1),
                unique=True,
                max_size=n_dims,
            )
        )
        region_list.append(
            Region(
                origin=draw(instances),
                extents={
                    d: DimExtent(dim=d, lo=draw(dims), hi=draw(dims))
                    for d in extent_dims
                },
            )
        )
    cells = draw(
        st.lists(
            st.builds(
                RegionCell,
                instance=instances,
                time_score=finite,
                is_anomaly=st.booleans(),
            ),
            max_size=5,
        )
    )
    return Regions(
        expression=draw(names),
        threshold=draw(finite),
        n_dims=n_dims,
        regions=tuple(region_list),
        cells=tuple(cells),
    )


predictions = st.builds(
    Prediction,
    expression=names,
    threshold=finite,
    records=st.lists(
        st.builds(
            PredictionRecord,
            instance=instances,
            actual_anomaly=st.booleans(),
            predicted_anomaly=st.booleans(),
            actual_score=finite,
            predicted_score=finite,
        ),
        max_size=5,
    ).map(tuple),
)

confusions = st.builds(
    ConfusionMatrix,
    true_positive=counts,
    false_positive=counts,
    false_negative=counts,
    true_negative=counts,
)

keys = st.builds(
    StudyKey,
    scale=st.sampled_from(SCALES),
    seed=st.integers(min_value=-(2**63), max_value=2**63),
    expression=names,
    box=st.sampled_from(sorted(NAMED_BOXES)),
    schedule=st.sampled_from(SCHEDULES),
    variant=st.sampled_from(sorted(STUDY_VARIANTS)),
)


@settings(max_examples=150, deadline=None)
@given(
    key=keys,
    search=searches,
    regions=regions_strategy(),
    prediction=predictions,
    confusion=confusions,
)
def test_codec_round_trip_is_byte_identical(
    key, search, regions, prediction, confusion
):
    text = encode_study(key, search, regions, prediction, confusion)
    decoded = decode_study(text, key)
    assert decoded is not None
    # Exact values back, every float bit included...
    assert decoded["search"] == search
    assert decoded["regions"] == regions
    assert decoded["prediction"] == prediction
    assert decoded["confusion"] == confusion
    # ...and the same canonical bytes when they are encoded again.
    again = encode_study(
        key,
        decoded["search"],
        decoded["regions"],
        decoded["prediction"],
        decoded["confusion"],
    )
    assert again == text


# ----------------------------------------------------------------------
# Damaged store files
# ----------------------------------------------------------------------

KEY = StudyKey(scale="quick", seed=0, expression="aatb")
CONFIG = FigureConfig(scale="quick", seed=0)

#: A JSON number standing as a whole value: an object field or a list
#: element (digits inside strings such as algorithm names never match).
_NUMBER = re.compile(
    r"(?<=[:\[,])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?=[,\]}])"
)


@pytest.fixture(scope="module")
def original_text():
    """The canonical payload of a real quick-scale study."""
    clear_study_cache()
    try:
        study = study_for(CONFIG, "aatb")
    finally:
        clear_study_cache()
    return encode_study(
        KEY, study.search, study.regions, study.prediction, study.confusion
    )


@st.composite
def damage(draw, text):
    data = text.encode()
    kind = draw(st.sampled_from(["truncate", "flip", "inf", "nest"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != data[at]))
        return data[:at] + bytes([byte]) + data[at + 1:]
    numbers = list(_NUMBER.finditer(text))
    match = numbers[draw(st.integers(0, len(numbers) - 1))]
    if kind == "inf":
        value = "1e999"
    else:
        depth = draw(st.integers(2_000, 100_000))
        value = "[" * depth + match.group() + "]" * depth
    return (text[: match.start()] + value + text[match.end():]).encode()


@pytest.mark.parametrize(
    "value",
    ["1e999", "[" * 100_000, "[" * 100_000 + "]" * 100_000],
    ids=["inf", "open-nesting", "closed-nesting"],
)
def test_overflowing_and_deeply_nested_text_decodes_to_a_miss(
    original_text, value
):
    field = '"n_samples":' + value + ',"x":'
    text = original_text.replace('"n_samples":', field, 1)
    assert decode_study(text, KEY) is None
    assert decode_study(value, KEY) is None


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture,
        HealthCheck.too_slow,
    ],
)
@given(data=st.data())
def test_damaged_store_file_is_a_miss_or_a_study_and_heals(
    tmp_path, monkeypatch, original_text, data
):
    damaged = data.draw(damage(original_text))
    store = StudyStore(tmp_path)
    path = store.path_for(KEY)
    path.write_bytes(damaged)
    loaded = store.load(KEY)  # never raises
    if loaded is not None:
        # Damage that still parses (a flipped digit) is a study.
        assert set(loaded) == {"search", "regions", "prediction", "confusion"}
        return
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
    clear_study_cache()
    try:
        healed = study_for(CONFIG, "aatb")
    finally:
        clear_study_cache()
    assert path.read_bytes() == original_text.encode()
    assert encode_study(
        KEY, healed.search, healed.regions, healed.prediction, healed.confusion
    ) == original_text
