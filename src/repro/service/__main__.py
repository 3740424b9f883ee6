"""CLI for the selection service.

Start an HTTP selection API over a study store::

    PYTHONPATH=src python -m repro.service \
        --store json --cache-dir .study-cache --port 8373 \
        --warm chain4 aatb

then ask it which algorithm to run::

    curl -s -X POST http://127.0.0.1:8373/select \
        -d '{"expression": "aatb", "dims": [100, 200, 300]}'

``--store json`` reads studies through the study store in
``--cache-dir`` (``json`` is its only value).  Without ``--store`` the
service computes studies locally on demand — slower on the first
request per expression, but fully self-contained.
See docs/service.md for the API.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import List, Optional

from repro.core.searchspace import NAMED_BOXES
from repro.figures.cache import CACHE_DIR_ENV, StudyStore
from repro.service.engine import DEFAULT_LRU_CAPACITY, SelectionEngine
from repro.service.http import SelectionService


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8373,
        help="bind port; 0 picks a free one (default: 8373)",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="study scale the service answers from (default: quick)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="machine seed (default: 0)"
    )
    parser.add_argument(
        "--box",
        choices=tuple(sorted(NAMED_BOXES)),
        default="paper_box",
        help="search-space box of the backing studies (default: paper_box)",
    )
    parser.add_argument(
        "--store",
        choices=(StudyStore.kind,),
        default=None,
        help="read studies through the study store in --cache-dir; "
        "omit to compute studies locally",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"store directory (default: ${CACHE_DIR_ENV})",
    )
    parser.add_argument(
        "--lru-capacity",
        type=_positive_int,
        default=DEFAULT_LRU_CAPACITY,
        help=f"hot-study LRU capacity (default: {DEFAULT_LRU_CAPACITY})",
    )
    parser.add_argument(
        "--discriminant",
        default="hybrid",
        help="default selection discriminant (default: hybrid)",
    )
    parser.add_argument(
        "--warm",
        nargs="*",
        default=(),
        metavar="EXPR",
        help="expressions whose studies to pre-load before serving",
    )
    parser.add_argument(
        "--deadline-ms",
        type=_positive_int,
        default=None,
        metavar="MS",
        help="per-request deadline in milliseconds; overruns answer "
        "503 (default: no deadline)",
    )
    parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shed selection requests beyond N in flight with an "
        "immediate 503 (default: unbounded)",
    )
    return parser


def _build_store(args: argparse.Namespace) -> Optional[StudyStore]:
    if args.store is None:
        return None
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV, "").strip()
    if not cache_dir:
        raise SystemExit(
            f"error: --store {args.store} needs --cache-dir or "
            f"${CACHE_DIR_ENV}"
        )
    return StudyStore(cache_dir)


async def _serve(service: SelectionService, warm: List[str]) -> None:
    await service.start()
    if warm:
        sources = service.engine.warm(warm)
        for name, source in zip(warm, sources):
            print(f"warmed {name}: {source}", flush=True)
    print(f"selection service listening on {service.address}", flush=True)
    # start() already accepts connections; all that remains is to wait
    # for a shutdown signal, then drain: stop accepting, finish every
    # in-flight request (zero dropped responses), flush final stats.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # platform without loop signal handlers
    await stop.wait()
    print("draining (SIGTERM/SIGINT): stopped accepting", flush=True)
    final = await service.drain()
    print(f"drained: {json.dumps(final)}", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    store = _build_store(args)
    try:
        engine = SelectionEngine(
            scale=args.scale,
            seed=args.seed,
            box=args.box,
            store=store,
            lru_capacity=args.lru_capacity,
            default_discriminant=args.discriminant,
        )
    except ValueError as exc:
        parser.error(str(exc))
    service = SelectionService(
        engine,
        host=args.host,
        port=args.port,
        deadline=(
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        ),
        max_inflight=args.max_inflight,
    )
    try:
        asyncio.run(_serve(service, list(args.warm)))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
