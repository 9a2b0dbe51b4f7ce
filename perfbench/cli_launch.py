"""Run ``cltlab.cli.main`` with the benchmark's tracer installed.

Usage: python cli_launch.py <cltlab arguments...>

Behaves like ``python -m cltlab`` (same stdout, stderr and exit status) and
dumps its spans and counters as JSON to the file named by the
PERFBENCH_SPANS environment variable when main returns.
"""

import os
import sys

import tracing

import cltlab.cli


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cltlab.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
