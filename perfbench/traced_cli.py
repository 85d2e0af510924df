"""Run one fabius CLI command with the layer wrappers installed.

    python perfbench/traced_cli.py SPANS_JSON OP_ID -- ARGV...

Imports ``fabius.cli`` (from ``PYTHONPATH``), installs the wrappers, calls
``fabius.cli.main(ARGV)`` exactly as ``python -m fabius.cli ARGV`` would, and
writes the spans and counters to SPANS_JSON once, at exit.  Every op runs in
a fresh process, so caches start cold just as they do for users.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_JSON OP_ID -- ARGV...", file=sys.stderr)
        return 2
    out_path, op_id, cli_argv = argv[0], int(argv[1]), argv[3:]
    import fabius.cli

    tracer = Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        return fabius.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
