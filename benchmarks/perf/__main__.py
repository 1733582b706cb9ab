"""``python -m benchmarks.perf``: same as ``python3 benchmarks/perf/run.py``."""

import sys

from .run import main

sys.exit(main())
