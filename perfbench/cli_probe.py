"""Traced stand-in for one cold ``python -m repro <args>`` invocation.

Run as ``python perfbench/cli_probe.py SPANS_PATH <repro args...>`` with
the program on ``PYTHONPATH``.  It performs the same work as the plain
invocation, but in separately timed steps, each a public call:

``import numpy`` → ``import repro.cli`` → (commands that load the Top500
study) ``repro.data.default_dataset()`` → ``repro.study.run_default_study()``
→ ``repro.cli.main(args)``.

The command's output goes to stdout unchanged; the spans (absolute
``time.perf_counter`` values, which share the system-wide monotonic
clock with the parent) are written as JSON to SPANS_PATH.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

#: Commands whose dispatch loads the Top500 dataset and study.
STUDY_COMMANDS = ("scenarios", "project", "shift", "report")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    spans = []

    def timed(name, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            spans.append([name, start, time.perf_counter()])

    timed("import.numpy", lambda: __import__("numpy"))
    cli = timed("cli.import", lambda: __import__("repro.cli").cli)
    if argv and argv[0] in STUDY_COMMANDS:
        import repro.data
        import repro.study
        timed("data.generate", repro.data.default_dataset)
        timed("study.run", repro.study.run_default_study)

    def dispatch():
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse --help
            return exc.code or 0

    code = timed("cli.dispatch", dispatch)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"t0": _T0, "spans": spans}, fh)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
