"""The process entry of ``python -m oqsl`` and of the installed ``oqsl``
script; :func:`oqsl.cli.main` is the in-process API.

Importing this module imports nothing of the program: the package namespace
is lazy, and :func:`run` imports the command line itself, with the
collector off."""

import gc
import os
import sys


def run() -> int:
    """Run the command line of this process. The collector is off while
    numpy and the program import, which allocate only objects that live as
    long as the process, and the heap they built is frozen before it is
    switched back on: no collection walks it, neither during the import nor
    at exit, and a forked audit child shares its pages instead of copying
    them. A reader that closes stdout early ends the process with exit 1 and
    no traceback."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
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
