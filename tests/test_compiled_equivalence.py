"""Compiler-generated chain4/aatb ≡ the PR-1 hand-coded algorithms.

The ISSUE-4 acceptance bar: regenerating the paper's two families
through the expression compiler must reproduce the hand-written
implementations *exactly* — same algorithm names in the same order,
same kernel-call sequences (dims, ``reads_previous``, notes), same
FLOP polynomials, and byte-identical quick-scale study payloads.

The payload digests below were recorded from the pre-refactor
implementation (PR 3 tree).  They pin the full deterministic pipeline;
if a later PR intentionally changes machine/experiment semantics it
must bump ``repro.figures.cache.SCHEMA_VERSION`` *and* refresh these
digests in the same commit.
"""

import hashlib

import pytest

from repro.core.symbolic import flop_polynomial
from repro.expressions.registry import get_expression
from repro.figures.cache import StudyKey, encode_study
from repro.figures.common import FigureConfig, compute_study_results
from repro.kernels.types import KernelName

#: The hand-coded chain4 call tables at dims (2, 3, 5, 7, 11):
#: (name, [(kernel, dims, reads_previous)]).
CHAIN4_EXPECTED = (
    ("chain4-1:A(B(CD))",
     [("gemm", (5, 11, 7), False), ("gemm", (3, 11, 5), True),
      ("gemm", (2, 11, 3), True)]),
    ("chain4-2:A((BC)D)",
     [("gemm", (3, 7, 5), False), ("gemm", (3, 11, 7), True),
      ("gemm", (2, 11, 3), True)]),
    ("chain4-3:(AB)(CD)/left-first",
     [("gemm", (2, 5, 3), False), ("gemm", (5, 11, 7), False),
      ("gemm", (2, 11, 5), True)]),
    ("chain4-3:(AB)(CD)/right-first",
     [("gemm", (5, 11, 7), False), ("gemm", (2, 5, 3), False),
      ("gemm", (2, 11, 5), True)]),
    ("chain4-4:(A(BC))D",
     [("gemm", (3, 7, 5), False), ("gemm", (2, 7, 3), True),
      ("gemm", (2, 11, 7), True)]),
    ("chain4-5:((AB)C)D",
     [("gemm", (2, 5, 3), False), ("gemm", (2, 7, 5), True),
      ("gemm", (2, 11, 7), True)]),
)

#: The hand-coded aatb call tables at dims (2, 3, 5).
AATB_EXPECTED = (
    ("aatb-1:syrk+symm",
     [("syrk", (2, 3), False), ("symm", (2, 5), True)]),
    ("aatb-2:syrk+copy+gemm",
     [("syrk", (2, 3), False), ("gemm", (2, 5, 2), True)]),
    ("aatb-3:gemm+gemm",
     [("gemm", (2, 2, 3), False), ("gemm", (2, 5, 2), True)]),
    ("aatb-4:gemm+symm",
     [("gemm", (2, 2, 3), False), ("symm", (2, 5), True)]),
    ("aatb-5:gemm+gemm-right",
     [("gemm", (3, 5, 2), False), ("gemm", (2, 5, 3), True)]),
)

#: Quick-scale study payload digests (seed 0, paper box).  ``chain4``
#: and ``aatb`` are the pre-refactor digests; the other five families
#: were pinned later, from the same pipeline, so every registered
#: family's payload bytes are held fixed.
PAYLOAD_SHA256 = {
    "chain4": "8b746c94b2bd6485177f980e500570ad939162b0db74a7dba77509e29465f9a7",
    "aatb": "e1cdf267c9add45efc29bc62fa13cec71c938521aec8f0a54b727c5ccd984049",
    "addchain3": "a90bd6499a6ab14ed6cacba4348070e0b9a60dc68821aa1bc8df3a4217f48149",
    "gram3": "54a171a6e62698257f883dea56ac37a6331f681f66c3eda5ab897ac15f060a5a",
    "solve3": "74060f377a847227247d24f97749c45916153377ab7c9d55b94fd39896326408",
    "sum3": "bd87693d2a966e8318348e64fbd09454a45bcc439605d2a60b218e69bbeed6bf",
    "tri4": "65b8d864adb8261d616eef0ab6893a36315eab68135d5af47c2e91147131fca4",
}

#: Full-scale study payload digests (seed 0, paper box), recorded from
#: the same pipeline as :data:`PAYLOAD_SHA256` so the paper's sample
#: counts are held fixed too, not only the quick ones.
FULL_PAYLOAD_SHA256 = {
    "aatb": "0dc48b6507766ea8095962d6b27438dfbc476825e98c6c451544e87a511848cd",
    "addchain3": "95573b18ee41de93ad0962b5c41e4da1ae345b930e6f8b07394014b43653735b",
    "chain4": "caa9efbfbe936c2797d175e01895ea1805acb245a76f10d4cc3d3a6f4370f625",
    "gram3": "760bf0da1e832dad645b9a902a309636ab324e78a1d95338e2b13fd4d155d18a",
    "solve3": "fca4d8a4c671f9464235f44ca0c751291c3f5108b997ccc36f68e5a613fb9ed4",
    "sum3": "4c3df3060cfd70821f3612828eeba0d12510df0200fdd7fff6705cc5df292a8d",
    "tri4": "2451c6af25c3f6319817fe434193c68b38405a0a15745116eaffafb6a8c520dd",
}

#: Quick-scale study payload digests (seed 0, paper box) under the two
#: reordering schedules, recorded from the pipeline before the scheduled
#: executor was removed, so reordered studies keep their bytes too.
SCHEDULED_PAYLOAD_SHA256 = {
    ("aatb", "min-interference"): "d3e53477aa7f003a9c570024903e615fdfa959bb29e88dc2f53f9fe0be6632d2",
    ("addchain3", "min-interference"): "5f855bef61c5065aa7aa609773b5b645f3a56eb8fcf9c733582c4680b39620df",
    ("chain4", "min-interference"): "86a4626973c20398bc37257d5f130b936cf65d2194e7f6cb84f6afb642615788",
    ("gram3", "min-interference"): "086a884bbfaf5c13856025e628814a6dc3310284a4c4f797e499072e0bfacd83",
    ("solve3", "min-interference"): "4094b61e3c46d89d43ee7312a1fc6bfb06d7723fd6559363c8ff2940b52c6498",
    ("sum3", "min-interference"): "1fe13e4cf7b426d6a74ba5b603c746571e48b9b2bd0edaa5aa1f251331e05b83",
    ("tri4", "min-interference"): "0516cbf6acaf2050118868c42b24e56ad4dbe6374103115fbe1eb114f6ac501e",
    ("aatb", "max-interference"): "28cc264c0f45a483be49684c55c724e5a632fcfde4da1afaf9e7e8f5fd6116b8",
    ("addchain3", "max-interference"): "b21068244cf95d1b2abc2ba1270f3fe6d859704130c5c40dad47a9bf30ab2790",
    ("chain4", "max-interference"): "ea2c19337d86024fb9e7726dc26a7541a071e944375f8c924e45a7c9149fe4ae",
    ("gram3", "max-interference"): "6280992b663aebb98b72ea1ca4a3a7dad433fe69e6b11ce242ab3cdea8e877bc",
    ("solve3", "max-interference"): "fcbd8dafd25bf35b59df84df4270c4642ecf7fb0dfd6525a7ede44d5c494376f",
    ("sum3", "max-interference"): "1684291de3d08f58b620877b40eb5e20d30befb83ee5c73f0630413ace7f19b0",
    ("tri4", "max-interference"): "79521c5274af4f1ed2bda128dade985805d363fb9c43512f327b3286b64bdeab",
}

#: Hand-derived FLOP polynomials of the paper's five aatb algorithms.
AATB_POLYS = {
    "aatb-1:syrk+symm": "d0^2*d1 + 2*d0^2*d2 + d0*d1",
    "aatb-2:syrk+copy+gemm": "d0^2*d1 + 2*d0^2*d2 + d0*d1",
    "aatb-3:gemm+gemm": "2*d0^2*d1 + 2*d0^2*d2",
    "aatb-4:gemm+symm": "2*d0^2*d1 + 2*d0^2*d2",
    "aatb-5:gemm+gemm-right": "4*d0*d1*d2",
}


@pytest.mark.parametrize(
    "expression_name,dims,expected",
    [("chain4", (2, 3, 5, 7, 11), CHAIN4_EXPECTED),
     ("aatb", (2, 3, 5), AATB_EXPECTED)],
)
def test_generated_names_and_calls_match_hand_coded(
    expression_name, dims, expected
):
    algorithms = get_expression(expression_name).algorithms()
    assert [a.name for a in algorithms] == [name for name, _ in expected]
    for algorithm, (_, calls) in zip(algorithms, expected):
        got = [
            (call.kernel.value, call.dims, call.reads_previous)
            for call in algorithm.kernel_calls(dims)
        ]
        assert got == calls, algorithm.name


def test_aatb_copy_note_preserved():
    algorithms = {a.name: a for a in get_expression("aatb").algorithms()}
    calls = algorithms["aatb-2:syrk+copy+gemm"].kernel_calls((2, 3, 5))
    assert calls[0].kernel is KernelName.SYRK
    assert calls[0].note == "then copy to full"


def test_aatb_flop_polynomials_match_hand_derivation():
    for algorithm in get_expression("aatb").algorithms():
        poly = flop_polynomial(algorithm)
        assert poly.expanded(("d0", "d1", "d2")) == AATB_POLYS[algorithm.name]


@pytest.mark.parametrize("expression_name", sorted(PAYLOAD_SHA256))
def test_quick_study_payloads_byte_identical_to_pre_refactor(
    expression_name,
):
    key = StudyKey("quick", 0, expression_name)
    config = FigureConfig(scale="quick", seed=0)
    text = encode_study(key, *compute_study_results(config, expression_name))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PAYLOAD_SHA256[expression_name]


@pytest.mark.parametrize("expression_name", sorted(FULL_PAYLOAD_SHA256))
def test_full_study_payloads_byte_identical(expression_name):
    key = StudyKey("full", 0, expression_name)
    config = FigureConfig(scale="full", seed=0)
    text = encode_study(key, *compute_study_results(config, expression_name))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == FULL_PAYLOAD_SHA256[expression_name]


@pytest.mark.parametrize(
    "expression_name,schedule",
    sorted(SCHEDULED_PAYLOAD_SHA256),
    ids=lambda value: value,
)
def test_quick_study_payloads_byte_identical_under_reordering(
    expression_name, schedule
):
    key = StudyKey("quick", 0, expression_name, schedule=schedule)
    config = FigureConfig(scale="quick", seed=0, schedule=schedule)
    text = encode_study(key, *compute_study_results(config, expression_name))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == SCHEDULED_PAYLOAD_SHA256[expression_name, schedule]
