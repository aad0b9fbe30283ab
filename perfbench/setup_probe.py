"""Time one cold set-up in a fresh interpreter and print it as JSON.

Set-up is the import of ``matabound`` plus building a workload's inputs:

    python3 perfbench/setup_probe.py <workload> <seed>

Run from the repository root; ``perfbench/run.py`` starts several of
these per run and reports their median as ``setup_s``.
"""

import json
import os
import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import matabound  # noqa: F401

    t1 = time.perf_counter()
    from workloads import make_ops

    make_ops(workload, seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
