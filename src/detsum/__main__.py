"""``python -m detsum``: the same command line as the ``detsum`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
