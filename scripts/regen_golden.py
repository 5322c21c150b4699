"""Regenerate the quick-exhibit golden snapshots.

Usage::

    python scripts/regen_golden.py                  # every golden
    python scripts/regen_golden.py tab2 fig13       # just these exhibits
    python scripts/regen_golden.py traced_obs       # the traced golden
    python scripts/regen_golden.py --jobs 2         # over 2 workers

Goldens pin behaviour: a change that moves one must say why in
CHANGES.md.  Results do not depend on ``--jobs``; it only sets how many
worker processes share the run.
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.experiments.figures import EXHIBITS, run_exhibits  # noqa: E402
from tests.experiments import goldens  # noqa: E402


def main(argv=None) -> int:
    choices = sorted(EXHIBITS) + [goldens.TRACED_GOLDEN]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"goldens to rewrite (default: all): "
                             f"{', '.join(choices)}")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    args = parser.parse_args(argv)
    names = args.names or choices
    unknown = sorted(set(names) - set(choices))
    if unknown:
        parser.error(f"unknown golden(s): {', '.join(unknown)}")

    exhibits = [name for name in names if name in EXHIBITS]
    if exhibits:
        results = run_exhibits(exhibits, quick=True, seed=goldens.SEED,
                               jobs=args.jobs)
        for name in exhibits:
            goldens.save(name, goldens.exhibit_record(results[name]))
            print(f"[golden {name} written]")
    if goldens.TRACED_GOLDEN in names:
        results = run_exhibits(goldens.TRACED_NAMES, quick=True,
                               seed=goldens.SEED, jobs=args.jobs,
                               **goldens.TRACED_KW)
        with tempfile.TemporaryDirectory() as out_dir:
            record = goldens.traced_record(results, Path(out_dir))
        goldens.save(goldens.TRACED_GOLDEN, record)
        print(f"[golden {goldens.TRACED_GOLDEN} written]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
