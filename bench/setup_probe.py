"""Time one cold set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing the program (numpy and scipy included), building the
workload's source models and asking ``regime_of`` for the limit.  The runner
starts this script several times, one after another, and reports the median
as ``setup_s``.

    python3 bench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports heavyagg, numpy and scipy)

workloads.WORKLOADS[sys.argv[1]]().setup()
print(repr(time.perf_counter() - t0))
