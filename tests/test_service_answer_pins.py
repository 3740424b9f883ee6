"""Pinned service answers for a fixed seeded request stream.

Every registered family gets 40 requests drawn in the paper box from a
seed-0 stream: uniform draws, small-dim draws (small dims drive the
anomalous regions) and repeats of earlier rows.  The first half goes
through ``select`` one request at a time, the second half as one
``select_many`` batch, so per-request and batched answers, duplicate
rows and partly warm backend memos all feed the digest.

Each discriminant's digest covers every request's
``(algorithm index, in_known_anomaly_region)``.  The digests were
recorded before the selection plans landed; a performance change to
the selection path must leave them untouched.
"""

import hashlib
import json
import random

import pytest

from repro.core.searchspace import PAPER_HIGH, PAPER_LOW
from repro.service import SelectionEngine

FAMILIES = ("aatb", "addchain3", "chain4", "gram3", "solve3", "sum3", "tri4")

REQUESTS_PER_FAMILY = 40

ANSWER_SHA256 = {
    "min-flops": (
        "1f4d3695bcfe5a579c0192fae7821577d1742174abbcbe6ab076cda388aa045b"
    ),
    "profiled-time": (
        "b38ad751d2b68269ee2e12535b14a2df11a5258aad96d0f4c1dbdbbd4460f7be"
    ),
    "hybrid": (
        "a7506656289c9b2d6693c00ba8b2136a4c6388771a1adc940136d896b4a26083"
    ),
    "benchmark-sum": (
        "0f55b32d8bfff983e8bd91dd8b44193c3ce3fc0a0311f0d96ea51aba49704557"
    ),
}


def request_stream(n_dims, rng):
    """40 dims rows: 24 uniform, 8 small-dim, 8 repeats of earlier rows."""
    rows = [
        [rng.randint(PAPER_LOW, PAPER_HIGH) for _ in range(n_dims)]
        for _ in range(24)
    ]
    rows += [
        [rng.randint(PAPER_LOW, 200) for _ in range(n_dims)]
        for _ in range(8)
    ]
    for _ in range(REQUESTS_PER_FAMILY - len(rows)):
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    return rows


def answers(engine, discriminant):
    rng = random.Random(0)
    out = []
    for name in FAMILIES:
        rows = request_stream(engine.expression_for(name).n_dims, rng)
        half = len(rows) // 2
        selections = [
            engine.select(name, dims, discriminant=discriminant)
            for dims in rows[:half]
        ]
        selections += engine.select_many(
            name, rows[half:], discriminant=discriminant
        )
        out += [
            [s.algorithm_index, s.in_known_anomaly_region]
            for s in selections
        ]
    return out


@pytest.fixture(scope="module")
def engine():
    return SelectionEngine(scale="quick", seed=0)


def test_stream_has_duplicates_and_anomaly_hits(engine):
    rng = random.Random(0)
    rows = request_stream(3, rng)
    assert len(rows) == REQUESTS_PER_FAMILY
    assert len({tuple(r) for r in rows}) < len(rows)
    flags = [flag for _, flag in answers(engine, "min-flops")]
    assert True in flags and False in flags


@pytest.mark.parametrize("discriminant", sorted(ANSWER_SHA256))
def test_service_answers_are_pinned(engine, discriminant):
    text = json.dumps(answers(engine, discriminant))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == ANSWER_SHA256[discriminant]
