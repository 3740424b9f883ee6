"""CLI for the parallel multi-study runner.

Regenerate the quick-scale study matrix across 4 processes into a
shared study store (one JSON file per study)::

    PYTHONPATH=src python -m repro.runner \
        --scale quick --jobs 4 --cache-dir .study-cache

A later benchmark run pointed at the same store
(``REPRO_CACHE_DIR=.study-cache``) finds every study warm.  Extra
studies beyond the registered-expression matrix ride along via
``--extra scale:seed:expression[:box]``.

``--abundance`` widens the matrix to every named box
(``paper_box``/``wide_box``/``huge_box``) and prints the
anomaly-abundance-vs-search-volume figure from the freshly warmed
store.

``--schedule`` selects the machine's step-schedule policy for the
whole matrix (``default``/``min-interference``/``max-interference``,
case-insensitive) — non-default schedules are distinct study scenarios
with their own store entries.

``--ablation`` runs the baseline-plus-one-off ablation matrix instead
of the plain matrix (see :mod:`repro.ablation`): every registered
component — or the ``--ablation-components`` subset — is flipped off
one at a time, and the ranked science-delta report is printed (and
written to ``--report-dir`` when given).  Ablation takes exactly one
scale and one seed, and owns the schedule axis itself, so
``--schedule``/``--abundance``/``--extra`` are usage errors with it.

Expression names, boxes, scales and schedules are validated up front
against
:func:`repro.expressions.registry.is_known_expression` and the named
tables — a typo is a usage error here, not a KeyError traceback from a
worker process.  The expression, component and ``--jobs`` validators
are the ones :mod:`repro.ablation.cli` uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.ablation.cli import (
    parse_components,
    positive_int,
    validated_expression,
)
from repro.core.searchspace import NAMED_BOXES
from repro.machine.machine import SCHEDULES
from repro.figures.cache import CACHE_DIR_ENV, StudyKey, StudyStore
from repro.figures.common import SCALES
from repro.runner.runner import StudyRunner, study_matrix


def _validated_schedule(name: str) -> str:
    """Schedule names get the same up-front treatment as expression
    names: a typo is a usage error listing the known schedules,
    not a ValueError traceback from MachineModel inside a worker."""
    normalized = name.strip().lower()
    if normalized not in SCHEDULES:
        raise argparse.ArgumentTypeError(
            f"unknown schedule {name!r}; known: {'/'.join(SCHEDULES)}"
        )
    return normalized


def _parse_extra(raw: str) -> StudyKey:
    parts = raw.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"--extra takes scale:seed:expression[:box], got {raw!r}"
        )
    scale, seed, expression = parts[0], parts[1], parts[2]
    box = parts[3] if len(parts) == 4 else "paper_box"
    if scale not in SCALES:
        raise argparse.ArgumentTypeError(
            f"--extra scale must be one of {'/'.join(SCALES)}, "
            f"got {scale!r}"
        )
    try:
        seed_value = int(seed)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--extra seed must be an integer, got {seed!r}"
        ) from None
    if box not in NAMED_BOXES:
        raise argparse.ArgumentTypeError(
            f"--extra box must be one of "
            f"{'/'.join(sorted(NAMED_BOXES))}, got {box!r}"
        )
    return StudyKey(
        scale=scale,
        seed=seed_value,
        expression=validated_expression(expression),
        box=box,
    )


def _parse_seeds(raw: str) -> List[int]:
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--seeds takes comma-separated integers, got {raw!r}"
        ) from None
    if not seeds:
        # An all-blank value would silently produce an empty matrix
        # and a successful "0 studies" run.
        raise argparse.ArgumentTypeError(
            f"--seeds needs at least one integer, got {raw!r}"
        )
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scale",
        action="append",
        choices=SCALES,
        help="study scale; repeatable (default: quick)",
    )
    parser.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=[0],
        help="comma-separated machine/experiment seeds (default: 0)",
    )
    parser.add_argument(
        "--expressions",
        default=None,
        help="comma-separated expression names "
        "(default: all registered expressions)",
    )
    parser.add_argument(
        "--box",
        default="paper_box",
        choices=tuple(sorted(NAMED_BOXES)),
        help="named exploration box (default: paper_box)",
    )
    parser.add_argument(
        "--schedule",
        type=_validated_schedule,
        default=SCHEDULES[0],
        metavar="{" + ",".join(SCHEDULES) + "}",
        help="machine step-schedule policy for every matrix study "
        "(default: default; case-insensitive)",
    )
    parser.add_argument(
        "--abundance",
        action="store_true",
        help="also run every named box and print the "
        "anomaly-abundance-vs-search-volume figure",
    )
    parser.add_argument(
        "--ablation",
        action="store_true",
        help="run the baseline-plus-one-off ablation matrix and print "
        "the ranked science-delta report (see python -m repro.ablation)",
    )
    parser.add_argument(
        "--ablation-components",
        type=parse_components,
        default=None,
        metavar="NAME[,NAME...]",
        help="with --ablation: ablate only these components "
        "(default: the whole registry)",
    )
    parser.add_argument(
        "--report-dir",
        default=None,
        metavar="DIR",
        help="with --ablation: also write the JSON + markdown report "
        "artefacts into DIR",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int("--jobs"),
        default=1,
        help="worker processes (default: 1 = sequential in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"store directory (default: ${CACHE_DIR_ENV})",
    )
    parser.add_argument(
        "--extra",
        action="append",
        type=_parse_extra,
        default=[],
        metavar="SCALE:SEED:EXPR[:BOX]",
        help="extra study beyond the matrix; repeatable",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the study matrix and exit without running",
    )
    return parser


def _render_abundance(
    store: StudyStore,
    scales: Sequence[str],
    seeds: Sequence[int],
    expressions: Sequence[str],
) -> Tuple[str, bool]:
    """The abundance figure(s) from a warmed store; (text, complete).

    ``expressions`` must be the same list the warm-up matrix was built
    from — an in-process run may register pattern-family ``--extra``
    expressions into the registry mid-run, so re-reading
    ``known_expressions()`` here would demand studies that were never
    warmed.
    """
    from repro.figures import abundance
    from repro.figures.common import FigureConfig

    blocks: List[str] = []
    complete = True

    for scale in scales:
        for seed in seeds:

            def load_search(name: str, box: str):
                loaded = store.load(
                    StudyKey(
                        scale=scale, seed=seed, expression=name, box=box
                    )
                )
                if loaded is None:
                    raise LookupError(
                        f"study {scale}/seed{seed}/{name}/{box} missing "
                        "from the store"
                    )
                return loaded["search"]

            try:
                data = abundance.data_from_searches(
                    FigureConfig(scale=scale, seed=seed),
                    load_search,
                    expressions,
                )
            except LookupError as exc:
                blocks.append(f"abundance figure skipped: {exc}")
                complete = False
                continue
            blocks.append(abundance.render(data))
    return "\n\n".join(blocks), complete


def _run_ablation(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    scales: Tuple[str, ...],
    expressions: Optional[List[str]],
    cache_dir: str,
) -> int:
    """Dispatch ``--ablation`` to the shared ablation CLI body.

    The ablation matrix is one (scale, seed, box) with the component
    axis swept, and components own the schedule/variant knobs — the
    plain matrix's multi-valued and schedule flags are usage errors.
    """
    from repro.ablation.cli import execute
    from repro.ablation.harness import DEFAULT_EXPRESSIONS

    if args.abundance or args.extra:
        parser.error("--ablation cannot be combined with --abundance/--extra")
    if args.schedule != SCHEDULES[0]:
        parser.error(
            "--ablation owns the schedule axis (via the schedule-* "
            "components); drop --schedule"
        )
    if len(scales) != 1:
        parser.error("--ablation takes exactly one --scale")
    if len(args.seeds) != 1:
        parser.error("--ablation takes exactly one seed in --seeds")
    return execute(
        scale=scales[0],
        seed=args.seeds[0],
        box=args.box,
        expressions=(
            tuple(expressions)
            if expressions is not None
            else DEFAULT_EXPRESSIONS
        ),
        components=args.ablation_components,
        cache_dir=cache_dir,
        jobs=args.jobs,
        report_dir=args.report_dir,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV, "").strip()
    if not cache_dir:
        print(
            f"error: no store directory; pass --cache-dir or set "
            f"{CACHE_DIR_ENV}",
            file=sys.stderr,
        )
        return 2
    expressions = None
    if args.expressions is not None:
        expressions = []
        for name in args.expressions.split(","):
            if not name.strip():
                continue
            try:
                expressions.append(validated_expression(name))
            except argparse.ArgumentTypeError as exc:
                parser.error(f"--expressions: {exc}")
    scales = tuple(args.scale) if args.scale else ("quick",)
    if args.ablation:
        return _run_ablation(parser, args, scales, expressions, cache_dir)
    if args.ablation_components is not None or args.report_dir is not None:
        parser.error(
            "--ablation-components/--report-dir require --ablation"
        )
    extras = tuple(args.extra)
    abundance_names: Tuple[str, ...] = ()
    if args.abundance:
        from repro.expressions.registry import known_expressions
        from repro.figures.abundance import BOX_ORDER

        # Snapshot the name list now: running pattern-family extras
        # in process registers new expressions, and the figure must
        # cover exactly what was warmed.
        names = tuple(
            expressions if expressions is not None else known_expressions()
        )
        abundance_names = names
        extras += tuple(
            StudyKey(scale=scale, seed=seed, expression=name, box=box)
            for scale in scales
            for seed in args.seeds
            for name in names
            for box in BOX_ORDER
        )
    keys = study_matrix(
        scales=scales,
        seeds=args.seeds,
        expressions=expressions,
        box=args.box,
        schedule=args.schedule,
        extras=extras,
    )
    if args.list:
        for key in keys:
            print(key.slug)
        return 0
    runner = StudyRunner(cache_dir=cache_dir, jobs=args.jobs)
    report = runner.run(keys)
    for outcome in report.outcomes:
        line = (
            f"[{outcome.status:>8}] {outcome.key.slug:<40} "
            f"{outcome.seconds:7.2f}s"
        )
        if outcome.error:
            line += f"  {outcome.error}"
        print(line)
    print(report.summary())
    ok = report.ok
    if args.abundance:
        text, complete = _render_abundance(
            StudyStore(cache_dir), scales, args.seeds, abundance_names
        )
        print()
        print(text)
        ok = ok and complete
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
