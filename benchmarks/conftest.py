"""Import paths for the bench-module smokes (``python -m pytest benchmarks/bench_*.py``).

The soak and cluster modules import the shared service workload
(``bench_service``) by module name, so the benchmark directory joins the
source tree on ``sys.path``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent
for _path in (_BENCH.parent / "src", _BENCH):
    if str(_path) not in sys.path:  # pragma: no cover - depends on the environment
        sys.path.insert(0, str(_path))
