"""The selection service with layer tracing installed.

Installs the :mod:`tracing` wrappers, then runs the service's own
command line (``python -m repro.service``) unchanged; when the service
has drained after SIGTERM, the recorded spans are written out::

    python3 perfbench/serve.py SPANS.json --scale full --store json ...
"""

from __future__ import annotations

import sys

import tracing


def main() -> int:
    spans_path, service_argv = sys.argv[1], sys.argv[2:]
    from repro.service.__main__ import main as service_main

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return service_main(service_argv)
    finally:
        tracer.active = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
