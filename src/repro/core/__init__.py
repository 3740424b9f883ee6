"""Core layer: anomaly classification, search space, discriminants."""

from repro.core.classify import (
    BatchEvaluation,
    BatchVerdicts,
    Evaluation,
    Verdict,
    classify,
    classify_batch,
    evaluate_instance,
    evaluate_instances,
)
from repro.core.searchspace import Box, paper_box

__all__ = [
    "BatchEvaluation",
    "BatchVerdicts",
    "Box",
    "Evaluation",
    "Verdict",
    "classify",
    "classify_batch",
    "evaluate_instance",
    "evaluate_instances",
    "paper_box",
]
