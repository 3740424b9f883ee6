"""The study store: the shared on-disk layer of the study cache.

A computed :class:`repro.figures.common.Study` is fully determined by
its :class:`StudyKey` ``(scale, seed, expression, box, schedule)`` —
the backend
is deterministic and the experiment drivers are seeded — so its
results can be persisted and reloaded across processes.  With
``REPRO_CACHE_DIR`` set, regenerating an artefact a second time
(another pytest-benchmark process, a CI re-run, a notebook restart, a
:mod:`repro.runner` worker) costs one store read instead of the whole
experiment pipeline.

:class:`StudyStore` keeps one versioned JSON file per study.  Writes
are atomic (temp file + ``os.replace``), so concurrent regenerations
never observe a torn file; two racing writers of the same
deterministic study simply replace one valid payload with an
identical one.  ``load``/``save`` are the shared codec layered on the
text primitives ``load_text``/``save_text``.

The schema version participates in the filename and the payload:
bump :data:`SCHEMA_VERSION` whenever the serialized shape *or the
semantics of the pipeline that produced it* change, and stale entries
are simply never read again.  JSON
round-trips Python floats exactly (``repr`` shortest-float), so a
loaded study is bit-for-bit the study that was saved — and because
serialization is canonical (sorted nothing, insertion order, fixed
separators), any two processes that computed the same study persist
byte-identical payloads.

Loads and saves are best-effort: a missing, truncated, damaged or
version-mismatched entry silently falls back to recomputation, and an
unwritable store degrades to a no-op rather than failing the pipeline.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.analysis.confusion import ConfusionMatrix
from repro.core.classify import Verdict
from repro.experiments.prediction import Prediction, PredictionRecord
from repro.experiments.random_search import Anomaly, SearchResult
from repro.experiments.regions import DimExtent, Region, RegionCell, Regions

#: Bump when the payload layout or the producing pipeline changes.
#: v2: study keys (and payloads) carry the search ``box`` name.
SCHEMA_VERSION = 2

#: Environment variable naming the cache directory; unset disables
#: the disk layer.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@dataclass(frozen=True, order=True)
class StudyKey:
    """Everything that determines one study's results.

    ``schedule`` (the machine's step-schedule policy, see
    :data:`repro.machine.machine.SCHEDULES`) and ``variant`` (a named
    ablation modification of the pipeline, see
    :data:`repro.ablation.components.STUDY_VARIANTS`) participate only
    when they are not the default: default slugs and payloads are
    exactly the pre-scheduler/pre-ablation ones, so every existing
    store entry stays valid and the sha256-pinned payload tests hold
    with both axes present.
    """

    scale: str
    seed: int
    expression: str
    box: str = "paper_box"
    schedule: str = "default"
    variant: str = "default"

    @property
    def slug(self) -> str:
        slug = f"{self.scale}-seed{self.seed}-{self.expression}-{self.box}"
        if self.schedule != "default":
            slug += f"-{self.schedule}"
        if self.variant != "default":
            slug += f"-ablate-{self.variant}"
        return slug


def cache_dir_from_env() -> Optional[Path]:
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(value) if value else None


def study_path(cache_dir: Path, key: StudyKey) -> Path:
    return cache_dir / f"study-v{SCHEMA_VERSION}-{key.slug}.json"


# ----------------------------------------------------------------------
# Serialization (plain dict/list payloads, exact float round-trip)
# ----------------------------------------------------------------------


def _verdict_to_payload(verdict: Verdict) -> dict:
    return {
        "is_anomaly": verdict.is_anomaly,
        "time_score": verdict.time_score,
        "flop_score": verdict.flop_score,
        "threshold": verdict.threshold,
        "cheapest": list(verdict.cheapest),
        "fastest": list(verdict.fastest),
    }


def _verdict_from_payload(payload: dict) -> Verdict:
    return Verdict(
        is_anomaly=bool(payload["is_anomaly"]),
        time_score=float(payload["time_score"]),
        flop_score=float(payload["flop_score"]),
        threshold=float(payload["threshold"]),
        cheapest=tuple(payload["cheapest"]),
        fastest=tuple(payload["fastest"]),
    )


def _search_to_payload(search: SearchResult) -> dict:
    return {
        "expression": search.expression,
        "threshold": search.threshold,
        "n_samples": search.n_samples,
        "anomalies": [
            {
                "instance": list(anomaly.instance),
                "verdict": _verdict_to_payload(anomaly.verdict),
            }
            for anomaly in search.anomalies
        ],
    }


def _search_from_payload(payload: dict) -> SearchResult:
    return SearchResult(
        expression=payload["expression"],
        threshold=float(payload["threshold"]),
        n_samples=int(payload["n_samples"]),
        anomalies=tuple(
            Anomaly(
                instance=tuple(int(v) for v in entry["instance"]),
                verdict=_verdict_from_payload(entry["verdict"]),
            )
            for entry in payload["anomalies"]
        ),
    )


def _regions_to_payload(regions: Regions) -> dict:
    return {
        "expression": regions.expression,
        "threshold": regions.threshold,
        "n_dims": regions.n_dims,
        "regions": [
            {
                "origin": list(region.origin),
                "extents": [
                    [extent.dim, extent.lo, extent.hi]
                    for extent in region.extents.values()
                ],
            }
            for region in regions.regions
        ],
        "cells": [
            [list(cell.instance), cell.time_score, cell.is_anomaly]
            for cell in regions.cells
        ],
    }


def _regions_from_payload(payload: dict) -> Regions:
    return Regions(
        expression=payload["expression"],
        threshold=float(payload["threshold"]),
        n_dims=int(payload["n_dims"]),
        regions=tuple(
            Region(
                origin=tuple(int(v) for v in entry["origin"]),
                extents={
                    int(dim): DimExtent(dim=int(dim), lo=int(lo), hi=int(hi))
                    for dim, lo, hi in entry["extents"]
                },
            )
            for entry in payload["regions"]
        ),
        cells=tuple(
            RegionCell(
                instance=tuple(int(v) for v in instance),
                time_score=float(time_score),
                is_anomaly=bool(is_anomaly),
            )
            for instance, time_score, is_anomaly in payload["cells"]
        ),
    )


def _prediction_to_payload(prediction: Prediction) -> dict:
    return {
        "expression": prediction.expression,
        "threshold": prediction.threshold,
        "records": [
            [
                list(record.instance),
                record.actual_anomaly,
                record.predicted_anomaly,
                record.actual_score,
                record.predicted_score,
            ]
            for record in prediction.records
        ],
    }


def _prediction_from_payload(payload: dict) -> Prediction:
    return Prediction(
        expression=payload["expression"],
        threshold=float(payload["threshold"]),
        records=tuple(
            PredictionRecord(
                instance=tuple(int(v) for v in instance),
                actual_anomaly=bool(actual),
                predicted_anomaly=bool(predicted),
                actual_score=float(actual_score),
                predicted_score=float(predicted_score),
            )
            for instance, actual, predicted, actual_score, predicted_score
            in payload["records"]
        ),
    )


def _confusion_to_payload(matrix: ConfusionMatrix) -> dict:
    return {
        "true_positive": matrix.true_positive,
        "false_positive": matrix.false_positive,
        "false_negative": matrix.false_negative,
        "true_negative": matrix.true_negative,
    }


def _confusion_from_payload(payload: dict) -> ConfusionMatrix:
    return ConfusionMatrix(
        true_positive=int(payload["true_positive"]),
        false_positive=int(payload["false_positive"]),
        false_negative=int(payload["false_negative"]),
        true_negative=int(payload["true_negative"]),
    )


# ----------------------------------------------------------------------
# Canonical study codec
# ----------------------------------------------------------------------


def encode_study(
    key: StudyKey,
    search: SearchResult,
    regions: Regions,
    prediction: Prediction,
    confusion: ConfusionMatrix,
) -> str:
    """One study as canonical JSON text.

    Fixed field order + fixed separators: two processes that computed
    the same deterministic study encode byte-identical text, whichever
    worker persists it.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "scale": key.scale,
        "seed": key.seed,
        "expression": key.expression,
        "box": key.box,
    }
    if key.schedule != "default":
        # Conditional so default-schedule payloads stay byte-identical
        # to every pre-scheduler store entry (and the pinned shas).
        payload["schedule"] = key.schedule
    if key.variant != "default":
        # Same byte-compatibility contract for the ablation axis.
        payload["variant"] = key.variant
    payload.update(
        {
            "search": _search_to_payload(search),
            "regions": _regions_to_payload(regions),
            "prediction": _prediction_to_payload(prediction),
            "confusion": _confusion_to_payload(confusion),
        }
    )
    return json.dumps(payload, separators=(",", ":"))


def decode_study(text: str, key: StudyKey) -> Optional[dict]:
    """Parse and validate study text; None on any mismatch or damage.

    Damage that gets past the JSON parser is a miss too: a number
    that parses to ``inf`` fails ``int()`` with ``OverflowError``, and
    deeply nested brackets exhaust the parser with ``RecursionError``.
    """
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict) or (
            payload.get("schema") != SCHEMA_VERSION
            or payload.get("scale") != key.scale
            or payload.get("seed") != key.seed
            or payload.get("expression") != key.expression
            or payload.get("box") != key.box
            or payload.get("schedule", "default") != key.schedule
            or payload.get("variant", "default") != key.variant
        ):
            return None
        return {
            "search": _search_from_payload(payload["search"]),
            "regions": _regions_from_payload(payload["regions"]),
            "prediction": _prediction_from_payload(payload["prediction"]),
            "confusion": _confusion_from_payload(payload["confusion"]),
        }
    except (
        ValueError,
        KeyError,
        TypeError,
        AttributeError,
        OverflowError,
        RecursionError,
    ):
        return None


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class StudyStore:
    """Versioned JSON files, one per study, atomically replaced.

    Load misses return None.  Safe for many concurrent processes: the
    write goes to a ``mkstemp`` temp file in the same directory and
    lands via ``os.replace``, which is atomic on POSIX and Windows —
    concurrent readers see either no file, the old payload, or the new
    payload, never a prefix — and racing writers of the same key leave
    exactly one valid payload behind.  All operations are best-effort:
    storage failures degrade to cache misses, never to pipeline
    errors.

    ``load``/``save`` are the canonical codec layered on the text
    primitives ``load_text``/``save_text``.
    """

    kind = "json"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: StudyKey) -> Path:
        return study_path(self.root, key)

    def load_text(self, key: StudyKey) -> Optional[str]:
        """The stored canonical payload text, or None on a miss."""
        try:
            return self.path_for(key).read_text()
        except (OSError, UnicodeDecodeError):
            return None

    def save_text(self, key: StudyKey, text: str) -> None:
        """Persist canonical payload text (best-effort)."""
        path = self.path_for(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp_name, path)
            except BaseException:
                os.unlink(tmp_name)
                raise
        except OSError:
            return

    def load(self, key: StudyKey) -> Optional[dict]:
        # A corrupted or truncated entry decodes to None — a cache
        # miss — so callers recompute and heal the store.
        text = self.load_text(key)
        return None if text is None else decode_study(text, key)

    def save(
        self,
        key: StudyKey,
        search: SearchResult,
        regions: Regions,
        prediction: Prediction,
        confusion: ConfusionMatrix,
    ) -> None:
        self.save_text(
            key, encode_study(key, search, regions, prediction, confusion)
        )

    def raw_payload(self, key: StudyKey) -> Optional[str]:
        """The stored text for a key; the same as :meth:`load_text`."""
        return self.load_text(key)

    def __enter__(self) -> "StudyStore":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def make_store(kind: str, cache_dir: Union[str, Path]) -> StudyStore:
    """The store over ``cache_dir``; ``kind`` must be ``"json"``."""
    if kind != StudyStore.kind:
        raise ValueError(
            f"unknown store kind {kind!r}; the only store is "
            f"{StudyStore.kind!r}"
        )
    return StudyStore(cache_dir)


def store_from_env() -> Optional[StudyStore]:
    """The store over ``REPRO_CACHE_DIR``; None when it is unset."""
    cache_dir = cache_dir_from_env()
    return None if cache_dir is None else StudyStore(cache_dir)
