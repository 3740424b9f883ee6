"""CLI for the ablation harness.

Run the quick-scale baseline-plus-one-off matrix and print the ranked
importance report::

    PYTHONPATH=src python -m repro.ablation \
        --jobs 4 --cache-dir .study-cache --report-dir reports

Studies land in the same :class:`~repro.figures.cache.StudyStore` the
runner and the benchmark suite use, so a warm store makes re-ablation
near-free.  ``--report-dir`` additionally writes the canonical JSON
and markdown artefacts (what CI archives); without it the markdown is
only printed.

Component names, expression names, scales and boxes are
validated *up front*: a typo is an argparse usage error (exit 2)
listing the valid names, never a KeyError traceback from the middle of
a study run.  ``--list-components`` prints the registry and exits.

The exit code is ``1`` when a study failed, ``0`` otherwise.

``python -m repro.runner --ablation`` drives the same code path with
the runner's jobs/cache-dir flags; the runner's CLI shares this
module's validators.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.ablation.components import (
    COMPONENTS,
    component_names,
)
from repro.ablation.harness import (
    DEFAULT_EXPRESSIONS,
    AblationConfig,
    AblationError,
    run_ablation,
)
from repro.ablation.report import report_markdown, write_report
from repro.core.searchspace import NAMED_BOXES
from repro.figures.cache import CACHE_DIR_ENV
from repro.figures.common import SCALES


def validated_component(name: str) -> str:
    """One component name, or an argparse usage error listing them all."""
    normalized = name.strip()
    if normalized not in COMPONENTS:
        raise argparse.ArgumentTypeError(
            f"unknown component {name!r}; known: "
            f"{', '.join(component_names())}"
        )
    return normalized


def parse_components(raw: str) -> Tuple[str, ...]:
    """Comma-separated component names, each validated up front."""
    names = tuple(
        validated_component(part)
        for part in raw.split(",")
        if part.strip()
    )
    if not names:
        raise argparse.ArgumentTypeError(
            f"needs at least one component name, got {raw!r}"
        )
    return names


def validated_expression(name: str) -> str:
    """One expression name, or an argparse usage error with the help."""
    from repro.expressions.registry import (
        expression_name_help,
        is_known_expression,
    )

    normalized = name.strip()
    if not is_known_expression(normalized):
        raise argparse.ArgumentTypeError(
            f"unknown expression {name!r}; {expression_name_help()}"
        )
    return normalized


def parse_expressions(raw: str) -> Tuple[str, ...]:
    names = tuple(
        validated_expression(part)
        for part in raw.split(",")
        if part.strip()
    )
    if not names:
        raise argparse.ArgumentTypeError(
            f"needs at least one expression name, got {raw!r}"
        )
    return names


def positive_int(flag: str):
    """An argparse type for ``flag``: an integer >= 1, else a usage
    error (never a raw ValueError from deeper in the run)."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} takes a positive integer, got {raw!r}"
            ) from None
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= 1, got {value}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ablation",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="quick",
        help="study scale (default: quick)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="machine/experiment seed (default: 0)",
    )
    parser.add_argument(
        "--box",
        default="paper_box",
        choices=tuple(sorted(NAMED_BOXES)),
        help="named exploration box (default: paper_box)",
    )
    parser.add_argument(
        "--expressions",
        type=parse_expressions,
        default=DEFAULT_EXPRESSIONS,
        metavar="NAME[,NAME...]",
        help="comma-separated expression families "
        f"(default: {','.join(DEFAULT_EXPRESSIONS)})",
    )
    parser.add_argument(
        "--components",
        type=parse_components,
        default=None,
        metavar="NAME[,NAME...]",
        help="comma-separated component names to ablate "
        "(default: the whole registry; see --list-components)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int("--jobs"),
        default=1,
        help="worker processes for the study matrix (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"store directory (default: ${CACHE_DIR_ENV})",
    )
    parser.add_argument(
        "--report-dir",
        default=None,
        metavar="DIR",
        help="also write ablation-report.json + ablation-report.md "
        "into DIR (created if missing)",
    )
    parser.add_argument(
        "--list-components",
        action="store_true",
        help="print the component registry and exit without running",
    )
    return parser


def list_components_text() -> str:
    lines = []
    for component in COMPONENTS.values():
        lines.append(
            f"{component.name:38s} {component.kind:9s}"
            f"  {component.description}"
        )
    return "\n".join(lines)


def execute(
    scale: str,
    seed: int,
    box: str,
    expressions: Sequence[str],
    components: Optional[Sequence[str]],
    cache_dir: str,
    jobs: int = 1,
    report_dir: Optional[str] = None,
) -> int:
    """Run one ablation and render it; the shared CLI body.

    Returns the process exit code: 0 on a clean run, 1 when a study
    failed.
    """
    config_kwargs = dict(
        scale=scale,
        seed=seed,
        box=box,
        expressions=tuple(expressions),
    )
    if components is not None:
        config_kwargs["components"] = tuple(components)
    config = AblationConfig(**config_kwargs)
    try:
        report = run_ablation(config, cache_dir=cache_dir, jobs=jobs)
    except AblationError as exc:
        print(f"error: {exc}")
        return 1
    print(report.run_report.summary())
    print()
    print(report_markdown(report))
    if report_dir is not None:
        json_path, markdown_path = write_report(report, Path(report_dir))
        print(f"wrote {json_path} and {markdown_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    import os
    import sys

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_components:
        print(list_components_text())
        return 0
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV, "").strip()
    if not cache_dir:
        print(
            f"error: no store directory; pass --cache-dir or set "
            f"{CACHE_DIR_ENV}",
            file=sys.stderr,
        )
        return 2
    return execute(
        scale=args.scale,
        seed=args.seed,
        box=args.box,
        expressions=args.expressions,
        components=args.components,
        cache_dir=cache_dir,
        jobs=args.jobs,
        report_dir=args.report_dir,
    )
