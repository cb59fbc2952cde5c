"""One set-up measurement, run in a fresh process by run.py.

Prints the host-corrected seconds this process took to import qglnm and
build the task list of a workload:

    python3 perfbench/setup_probe.py --workload dyson-exact --seed 1
"""

import argparse
from time import perf_counter

import hostspeed


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    ref_before = hostspeed.loop_seconds()
    start = perf_counter()
    import bootstrap

    bootstrap.prepare()
    import workloads

    workloads.build_tasks(args.workload, args.seed)
    seconds = perf_counter() - start
    print(repr(hostspeed.corrected(seconds, ref_before, hostspeed.loop_seconds())))


if __name__ == "__main__":
    main()
