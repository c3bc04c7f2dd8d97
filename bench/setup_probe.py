"""Time what a fresh interpreter pays before its first cijt command.

    setup_probe.py <dataset>...

Times `import cijt.cli` plus one load_dataset per file, importing nothing
of its own before that (os and time are loaded at interpreter start), then
prints JSON with the plain times and set-up at reference speed (speed.py).
"""

import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# about 10 ms of speed probe after the loads: over 60 samples 30 bursts left
# IQR/median 0.135 at reference speed, 6 bursts 0.156
BURSTS = 30

start = perf_counter()
sys.path.insert(0, os.path.join(ROOT, "src"))
import cijt.cli  # noqa: E402

imported = perf_counter()
for path in sys.argv[1:]:
    cijt.cli.load_dataset(path)
done = perf_counter()

import json  # noqa: E402

import speed  # noqa: E402

speed.burst()  # warm the probe's own code
bursts = [speed.burst() for _ in range(BURSTS)]
print(json.dumps({"import_s": imported - start, "setup_s": done - start,
                  "setup_ref_s": speed.at_reference(done - start, bursts)}))
