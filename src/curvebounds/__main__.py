import os
import sys

from curvebounds.cli import EXIT_CLOSED_PIPE, main

if __name__ == "__main__":
    code = main()
    if code == EXIT_CLOSED_PIPE:
        # the reader is gone: the flush at exit goes to os.devnull, not to
        # a traceback (the step Python's documentation gives a script)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    sys.exit(code)
