"""Run the pbwforge command line under the benchmark's tracer.

    python3 bench/cli_shim.py SPANS_FILE <pbwforge arguments>

Behaves like ``python -m pbwforge.cli <pbwforge arguments>`` (same exit
code, same report) and writes the spans recorded around the package's
public functions to SPANS_FILE as one JSON list.  ``src/`` must be on
PYTHONPATH.
"""

import sys

import pbwforge.cli

import spans


def main(argv) -> int:
    path, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        return pbwforge.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
