"""Run one protflow CLI command with span probes installed and write its spans.

Usage (from the repository root, with src on PYTHONPATH):

    python3 perfbench/traced_cli.py SPANS.json -- train-flow --config run.cfg ...

The exit code is the command's own. SPANS.json holds every span recorded,
a root span "cli.main" around the whole command, and the probes whose
target function no longer exists.
"""

import sys

from tracer import SpanRecorder, install_probes


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <protflow arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    rec = SpanRecorder()
    missing = install_probes(rec)
    from protflow import cli

    idx = rec.open("cli.main")
    try:
        return cli.main(cli_argv)
    finally:
        rec.close(idx)
        rec.dump(out_path, missing=missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
