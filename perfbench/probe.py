"""Set-up probe: ``python3 perfbench/probe.py <workload> <seed>``.

A fresh interpreter imports ``hanlesim.cli`` from this checkout's src/ and
generates the workload's inputs, then prints the monotonic clock.  run.py
takes ``setup_s`` as that reading minus the time it spawned the probe.  The
probe loads no module beyond what ``hanlesim.cli`` and input generation
need, so import-time work in the program is all that ``setup_s`` measures.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import hanlesim.cli  # noqa: E402,F401
from inputs import make_inputs  # noqa: E402

if not os.path.abspath(hanlesim.cli.__file__).startswith(os.path.join(SRC, "")):
    sys.exit(f"hanlesim was imported from {hanlesim.cli.__file__}, not from {SRC}")
make_inputs(sys.argv[1], int(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
