"""``python -m evtrisk ...``: the command-line interface of :mod:`evtrisk.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
