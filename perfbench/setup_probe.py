"""Time one workload's set-up in a fresh process and print the seconds.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  The clock
starts before ``repro`` is imported and stops once the workload's requests
are built, so it covers the import, the backend and experiment registry
loads, the model zoo builds and the request construction.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import env  # noqa: E402


def main() -> None:
    env.require_source()
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]))
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
