"""Measure one workload's set-up time in this (fresh) process.

Prints the seconds from before ``import repro`` to the first entry into
``Environment.run`` while running the workload's first step: the
package import, the experiment-registry load, topology compile and
cluster build.  The run itself is cut off there.  Then prints the
median host seconds of three reference jobs run right after, which
the runner divides by.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

from time import perf_counter   # fcc: allow[wall-clock]

T0 = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]


class _FirstRun(Exception):
    """Raised from the first Environment.run entry to stop the step."""


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    from repro.sim import Environment
    from workloads import WORKLOADS

    def first_run(env, *args, **kwargs):
        raise _FirstRun

    Environment.run = first_run
    try:
        WORKLOADS[name].steps[0].call({"seed": seed})
    except _FirstRun:
        setup = perf_counter() - T0
        from reference import job_seconds
        refs = sorted(job_seconds() for _ in range(3))
        print(repr(setup), repr(refs[1]))
        return 0
    print(f"{name}: first step never entered Environment.run",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
