"""The on-disk study store: exact round-trip and graceful degradation."""

import json
import os

import pytest

from repro.figures import cache
from repro.figures.cache import StudyKey, StudyStore
from repro.figures.common import FigureConfig, clear_study_cache, study_for

KEY = StudyKey(scale="quick", seed=0, expression="aatb")


@pytest.fixture
def computed_study():
    clear_study_cache()
    try:
        yield study_for(FigureConfig(scale="quick", seed=0), "aatb")
    finally:
        clear_study_cache()


def _save(store, study, key=KEY):
    store.save(
        key, study.search, study.regions, study.prediction, study.confusion
    )


@pytest.mark.parametrize("kind", ["json"])
def test_payload_round_trip_is_exact(tmp_path, computed_study, kind):
    study = computed_study
    with cache.make_store(kind, tmp_path) as store:
        _save(store, study)
        loaded = store.load(KEY)
    assert loaded is not None
    # Dataclass equality is deep and includes every float bit-for-bit:
    # JSON uses shortest-repr floats, which round-trip exactly.
    assert loaded["search"] == study.search
    assert loaded["regions"] == study.regions
    assert loaded["prediction"] == study.prediction
    assert loaded["confusion"] == study.confusion


@pytest.mark.parametrize("kind", ["json"])
def test_study_for_uses_disk_store_across_process_caches(
    tmp_path, computed_study, monkeypatch, kind
):
    study = computed_study
    with cache.make_store(kind, tmp_path) as store:
        _save(store, study)
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
    clear_study_cache()  # simulate a fresh process
    try:
        reloaded = study_for(FigureConfig(scale="quick", seed=0), "aatb")
    finally:
        clear_study_cache()
    assert reloaded.search == study.search
    assert reloaded.regions == study.regions
    assert reloaded.prediction == study.prediction
    assert reloaded.confusion == study.confusion


def test_key_mismatch_and_corruption_fall_back_to_none(
    tmp_path, computed_study
):
    study = computed_study
    store = StudyStore(tmp_path)
    _save(store, study)
    # Wrong key coordinates → miss, not a crash.
    assert store.load(StudyKey("quick", 1, "aatb")) is None
    assert store.load(StudyKey("full", 0, "aatb")) is None
    assert store.load(StudyKey("quick", 0, "aatb", box="wide_box")) is None
    # Tampered schema field → rejected.
    path = store.path_for(KEY)
    payload = json.loads(path.read_text())
    payload["schema"] = cache.SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload))
    assert store.load(KEY) is None
    # Truncated file → rejected.
    path.write_text(path.read_text()[:40])
    assert store.load(KEY) is None
    # Non-UTF-8 bytes (disk corruption) → rejected, not raised.
    path.write_bytes(b"\xff\xfe not json \x80")
    assert store.load(KEY) is None
    # A store over an unwritable root: save is a no-op, load misses.
    (tmp_path / "file-not-dir").write_text("in the way")
    broken = StudyStore(tmp_path / "file-not-dir" / "nested")
    _save(broken, study)
    assert broken.load(KEY) is None
    assert broken.load_text(KEY) is None


def test_env_knobs_control_disk_layer(monkeypatch):
    monkeypatch.delenv(cache.CACHE_DIR_ENV, raising=False)
    assert cache.cache_dir_from_env() is None
    assert cache.store_from_env() is None
    monkeypatch.setenv(cache.CACHE_DIR_ENV, "  ")
    assert cache.cache_dir_from_env() is None
    monkeypatch.setenv(cache.CACHE_DIR_ENV, "/tmp/somewhere")
    assert str(cache.cache_dir_from_env()) == "/tmp/somewhere"
    key = StudyKey("quick", 3, "aatb")
    assert os.path.basename(
        str(cache.study_path(cache.cache_dir_from_env(), key))
    ) == f"study-v{cache.SCHEMA_VERSION}-quick-seed3-aatb-paper_box.json"
    # The directory is the only knob: it selects the one store.
    store = cache.store_from_env()
    assert isinstance(store, StudyStore)
    assert str(store.root) == "/tmp/somewhere"


def test_make_store_rejects_unknown_kind(tmp_path):
    # The factory builds the one store, and only under its own name.
    store = cache.make_store("json", tmp_path)
    assert isinstance(store, StudyStore) and store.root == tmp_path
    for kind in ("remote", "postgres", "JSON", ""):
        with pytest.raises(ValueError, match="the only store is 'json'"):
            cache.make_store(kind, tmp_path)


def test_box_knob_is_part_of_config_and_key():
    config = FigureConfig(scale="quick", seed=2, box="wide_box")
    key = config.study_key("chain4")
    assert key == StudyKey("quick", 2, "chain4", box="wide_box")
    assert key.slug == "quick-seed2-chain4-wide_box"
    with pytest.raises(ValueError, match="box"):
        FigureConfig(box="bathtub")
