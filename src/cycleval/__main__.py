"""``python -m cycleval``: the command-line interface of cli.py."""

import sys

from .cli import main

sys.exit(main())
