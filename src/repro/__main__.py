"""``python -m repro`` entry point.

This is the one place that ends the process early.  Once
:func:`repro.cli.main` has returned (or argparse has raised
``SystemExit`` for ``--help`` or a usage error), the command's work is
done and its output written; what normal interpreter shutdown would add
is freeing numpy and every loaded module, ~20–30 ms that prints
nothing.  So the process flushes stdout and stderr, closes the
``REPRO_TRACE`` sinks (the only ``atexit`` hook in ``repro``) and calls
``os._exit``.

Nothing else in ``repro`` relies on shutdown: thread pools are
``with`` blocks or ``asyncio.run``'s default executor, both joined
before ``main`` returns, and files are written inside ``with`` blocks
or replaced atomically.  ``main`` itself is unchanged, so in-process
callers, ``repro profile`` and the tests keep normal shutdown.

An exception other than ``SystemExit`` propagates as before: the
interpreter prints its traceback and exits 1.  A reader that closes
the pipe early (``repro report | head -n 1``) ends the command with
exit 1 and no traceback, as in the recipe of the :mod:`signal` docs.
"""

import os
import sys

from repro.cli import main
from repro.obs.tracing import close_sinks


def _exit_code(code: object) -> int:
    """``code`` as ``sys.exit`` would turn it into an exit status."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


def _run() -> int:
    try:
        try:
            code = _exit_code(main())
        except SystemExit as exc:
            code = _exit_code(exc.code)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; whatever is still buffered goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    try:
        sys.stderr.flush()
    except OSError:
        pass                # nowhere left to report it
    close_sinks()
    return code


if __name__ == "__main__":
    os._exit(_run())
