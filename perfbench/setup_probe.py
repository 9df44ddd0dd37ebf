"""Import solitonlab and load the named scenario files, then print the monotonic clock.

Usage: setup_probe.py SRC SCENARIO...

run.py starts this in a fresh interpreter and takes set-up time as the
printed clock minus the clock at the start; on Linux the monotonic clock is
shared by all processes.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import solitonlab  # noqa: E402

for path in sys.argv[2:]:
    solitonlab.load_scenario(path)
print(repr(time.monotonic()))
