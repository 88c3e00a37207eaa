"""``python -m pytest perf -q``: the benchmark's own tests.

Tier-1 (``testpaths = ["tests"]``) never collects this directory.
"""

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)

for path in (PERF, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
