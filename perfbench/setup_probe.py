"""Set-up probe: one fresh interpreter that imports heavywalk, builds a
workload's inputs and warms it up, then exits.  run.py times several of
these for setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKERS TINY OUT_DIR
"""

import sys
from pathlib import Path

import heavywalk  # noqa: F401  (the import is part of what is timed)
from workloads import WORKLOADS

name, seed, workers, tiny, out_dir = sys.argv[1:6]
wl = WORKLOADS[name](int(seed), int(workers), tiny == "1", Path(out_dir))
wl.warm_up()
