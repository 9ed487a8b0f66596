"""Time one workload instance's set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <scenario config>

Prints the seconds taken by `import coopstream`, `load_config` and the
trace and instance building the command does before it simulates or solves
(see workloads.setup), then the mean seconds of host-speed probe calls made
right after it for as long (see hostspeed.py).  run.py starts this several
times per run.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    start = time.perf_counter()
    from coopstream import bound, harness

    cfg = harness.load_config(sys.argv[2])
    setup(harness, bound, workload, cfg)
    seconds = time.perf_counter() - start
    probes = hostspeed.probe(seconds)
    print(repr(seconds), repr(sum(probes) / len(probes)))


if __name__ == "__main__":
    main()
