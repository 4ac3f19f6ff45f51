"""`python -m coarselik ...`: the command line, as the installed `coarselik`
script runs it (see cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
