"""Regenerate ``reference.json``: the per-point result digests of every
workload for each seed in ``check.REFERENCE_SEEDS``.

    python3 perfbench/make_reference.py

Run it only when a change is meant to move simulator outputs, and say
why in the change's notes: the benchmark counts every point whose
digest differs from the reference as a failure.
"""

from __future__ import annotations

import sys

from check import REFERENCE_SEEDS, digest, write_reference
from run import import_repro, run_serial
from workloads import WORKLOADS


def main() -> int:
    problem = import_repro()
    if problem is not None:
        print(f"make_reference: {problem}", file=sys.stderr)
        return 2
    table = {}
    for name, workload in sorted(WORKLOADS.items()):
        for seed in REFERENCE_SEEDS:
            results, _walls = run_serial(workload.configs(seed))
            for index, result in enumerate(results):
                if isinstance(result, Exception):
                    raise RuntimeError(
                        f"{name} seed {seed} point {index}") from result
            table.setdefault(name, {})[str(seed)] = [
                digest(r) for r in results]
            print(f"{name} seed {seed}: {len(results)} points")
    write_reference(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
