"""``python -m ddbound``: the ``ddbound`` command line, run from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
