"""``python -m mflqg``: the ``mflqg`` command line."""

import sys

from .cli import main

sys.exit(main())
