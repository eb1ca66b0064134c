"""Set-up half of the benchmark, run in a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR '["3,2,B", ...]'

Imports qcorr from SRC_DIR, then does `workloads.set_up` for the sectors
and prints ``time.perf_counter()``. That clock is system-wide on Linux, so
the caller subtracts its own reading taken before the spawn to get the
set-up time from interpreter start.
"""
import json
import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import workloads

    workloads.set_up(json.loads(sys.argv[2]), workloads.layer_modules())
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
