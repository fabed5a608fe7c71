"""``python -m lotva``: the ``lotva`` command line."""

import sys

from .cli import main

sys.exit(main())
