"""One set-up sample: import numpy and fibershift, then load the inputs.

    python3 bench/probe.py WORKDIR

Prints the CPU seconds spent (see run.py for why CPU time), excluding
interpreter start-up and the import of the benchmark's own modules. ``run.py`` starts one fresh process per sample
so every sample pays the imports, as a CLI user does.
"""

import json
import os
import sys
import time

from run import add_paths

add_paths()
t0 = time.process_time()
import numpy  # noqa: E402,F401
import fibershift.cli  # noqa: E402,F401
t1 = time.process_time()
import workloads  # noqa: E402

workdir = sys.argv[1]
with open(os.path.join(workdir, "manifest.json")) as fh:
    manifest = json.load(fh)
t2 = time.process_time()
workloads.load_inputs(manifest, workdir)
t3 = time.process_time()
print(repr((t1 - t0) + (t3 - t2)))
