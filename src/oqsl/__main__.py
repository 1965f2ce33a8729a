"""The process entry of ``python -m oqsl`` and of the installed ``oqsl``
script; :func:`oqsl.cli.main` is the in-process API."""

import gc
import os
import sys

from .cli import main


def run() -> int:
    """Run the command line of this process. Once the imports are done, the
    heap they built is frozen: the interpreter's final collections skip it,
    and a forked audit child shares its pages instead of copying them. A
    reader that closes stdout early ends the process with exit 1 and no
    traceback."""
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(run())
