"""``python -m gk3``: the gk3 command line without an installed script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
