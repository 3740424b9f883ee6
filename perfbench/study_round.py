"""One cold study round: every benchmark family, computed and saved.

Run by ``perfbench/run.py`` in a fresh interpreter with a fresh store
directory, so the study memo, the codegen plan cache and the machine's
base-seconds memo all start empty::

    python3 perfbench/study_round.py --seed 1 --store DIR --out RESULT.json

Studies run one after another through ``repro.runner.run_study`` with
no process pool.  After the timed part the round checks its own output
(each saved payload loads back and re-encodes byte-identical) and
writes timings, payload hashes and abundances to ``--out``.  A
:mod:`hostspeed` probe runs before the first study and after each
one.  With ``--trace SPANS.json`` the layer wrappers of :mod:`tracing`
are installed before the first study and the spans are written there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

_now = time.monotonic_ns


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, metavar="SPANS.json")
    args = parser.parse_args()

    import repro.runner.runner as runner
    from repro.expressions.codegen import codegen_stats
    from repro.expressions.registry import is_known_expression
    from repro.figures.cache import StudyKey, encode_study, make_store

    import hostspeed
    from spec import FAMILIES

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    unknown = [name for name in FAMILIES if not is_known_expression(name)]
    if unknown:
        raise SystemExit(f"unregistered benchmark families: {unknown}")
    keys = [
        StudyKey(
            scale="full", seed=args.seed, expression=name, box="paper_box"
        )
        for name in FAMILIES
    ]

    started_ns = _now()
    studies = []
    probes = [hostspeed.probe()]
    for key in keys:
        begin = _now()
        outcome = runner.run_study(key, "json", args.store)
        studies.append(
            {
                "family": key.expression,
                "status": outcome.status,
                "error": outcome.error,
                "seconds": (_now() - begin) / 1e9,
            }
        )
        probes.append(hostspeed.probe())
    if tracer is not None:
        tracer.active = False
        tracer.dump(args.trace)
    codegen = codegen_stats()

    with make_store("json", args.store) as store:
        for key, study in zip(keys, studies):
            text = store.raw_payload(key)
            loaded = store.load(key) if text is not None else None
            study["loaded"] = loaded is not None
            study["roundtrip"] = loaded is not None and text == encode_study(
                key,
                loaded["search"],
                loaded["regions"],
                loaded["prediction"],
                loaded["confusion"],
            )
            if text is not None:
                data = text.encode()
                study["sha256"] = hashlib.sha256(data).hexdigest()
                study["payload_bytes"] = len(data)
            if loaded is not None:
                study["abundance"] = loaded["search"].abundance

    with open(args.out, "w") as handle:
        json.dump(
            {
                "started_ns": started_ns,
                "probes": probes,
                "studies": studies,
                "codegen": codegen,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
