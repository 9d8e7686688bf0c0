"""`python -m nematicflow`: the same command as the `nematicflow` entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
