"""Run one ``pdfactor`` CLI command with the tracer installed.

Usage: ``python3 perfbench/cli_boot.py SPANS_JSON <pdfactor arguments...>``

Equivalent to ``python3 -m pdfactor <arguments...>`` (same exit code and
output), except that the spans of the public functions are written to
SPANS_JSON when the command returns.
"""

import json
import sys

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import pdfactor.cli

    tracer = Tracer()
    tracer.install()
    try:
        return pdfactor.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
