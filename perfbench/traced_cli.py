"""Run `normforge.cli` with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py OUT.json <normforge arguments>

Writes the tracer's aggregates and spans to OUT.json and exits with the
CLI's exit code; stdout is the CLI's own.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from normforge.cli import main as cli_main

    try:
        code = cli_main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"aggregates": tracer.aggregates(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
