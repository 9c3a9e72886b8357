"""Set-up of one workload in a fresh interpreter.

    python3 perfbench/make_inputs.py <workload> <seed>

Prints one JSON object: the seconds spent importing vanishlab plus
generating the inputs, the machine-speed scale measured meanwhile (see
probe.py), and the inputs themselves.  run.py starts this and reports the
median scaled time as setup_s.
"""

import json
import sys
from time import perf_counter

from probe import SpeedProbe

start = perf_counter()
with SpeedProbe() as probe:
    from paths import use_checkout_source

    use_checkout_source()

    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    inputs = workloads.WORKLOADS[name][0](seed)
seconds = perf_counter() - start
json.dump({"seconds": seconds, "scale": probe.scale(), "inputs": inputs},
          sys.stdout)
