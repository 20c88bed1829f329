"""Time one set-up in a fresh interpreter and print it in seconds.

Usage: python3 bench/probe_setup.py <workload> <seed>

Set-up is importing uvinfo and building the workload's library objects
(``Channel.of`` and the uncertainty functions) for every query; for
cli_fixtures it is ``import uvinfo.cli``.  Generating the inputs is the
benchmark's own work and happens before the clock starts.
"""

import os
import sys
import time

import workloads

workload, seed = sys.argv[1], int(sys.argv[2])
queries = workloads.queries_for(workload, seed)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

start = time.perf_counter()
if workload == "cli_fixtures":
    import uvinfo.cli  # noqa: F401
else:
    built = [workloads.prepare(q) for q in queries]
print(time.perf_counter() - start)
