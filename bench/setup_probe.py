"""Set-up time of one workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py SRC_DIR WORKLOAD SEED

Prints the seconds spent importing dhj and building the workload's model
objects, then the median time in ns of the calibration reference run in
the same interpreter afterwards.  The benchmark's own modules are imported
outside the timed part.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import dhj.cli  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402  (found next to this script)

t1 = time.perf_counter()
workloads.build_models(sys.argv[2], int(sys.argv[3]))
setup_s = imported - t0 + time.perf_counter() - t1

import calibrate  # noqa: E402
import statistics  # noqa: E402

calibrate.reference()
print(repr(setup_s), statistics.median(calibrate.time_reference() for _ in range(5)))
