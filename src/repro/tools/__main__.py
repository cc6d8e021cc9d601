import os
import sys

from .cli import main

try:
    code = main()
    # Flush here, not at shutdown, so a closed stdout raises inside the try.
    sys.stdout.flush()
except BrokenPipeError:
    # The reader closed stdout early (``... | head``).  Point stdout at
    # devnull so the flush at shutdown cannot raise again, and exit 1 as
    # Python does on EPIPE.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 1
raise SystemExit(code)
