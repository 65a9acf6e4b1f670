"""``python -m ddetest``: the same command line as the ``ddetest`` script."""
import sys

from .cli import main

sys.exit(main())
