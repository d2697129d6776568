"""Run the spherediss CLI with the benchmark tracer installed.

    python3 bench/cli_traced.py SPANS.json <spherediss arguments...>

Behaves like the ``spherediss`` entry point and writes the spans of the
process to SPANS.json when it exits.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import spherediss.cli

    try:
        return spherediss.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
