"""Session-wide quick-exhibit runs, shared by the golden snapshots
(``tests/experiments/test_golden.py``) and the paper-shape asserts
(``benchmarks/bench_*.py``).

``--exhibit-jobs N`` makes the session simulate every quick exhibit
once, through a single :func:`run_exhibits` call over N workers, and
hands the same results to both suites::

    pytest -m '' --exhibit-jobs 2 tests/experiments/test_golden.py \\
        benchmarks/bench_fig*.py benchmarks/bench_tab*.py \\
        benchmarks/bench_ablation.py --benchmark-disable

(``-m ''`` clears the default ``not golden`` filter, so the golden
tests and the benchmark files all run.)

Without it the golden tests run serially and each benchmark times its
own exhibit.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--exhibit-jobs", type=int, default=None, metavar="N",
        help="simulate every quick exhibit once over N workers and share "
             "the results between the golden tests and the exhibit "
             "benchmarks")


@pytest.fixture(scope="session")
def exhibit_jobs(request):
    """Worker count for session exhibit runs (``--exhibit-jobs``, 1 when
    unset)."""
    return request.config.getoption("--exhibit-jobs") or 1


@pytest.fixture(scope="session")
def quick_exhibits(exhibit_jobs):
    """Every quick exhibit at seed 42, from one ``run_exhibits`` call."""
    from repro.experiments.figures import EXHIBITS, run_exhibits
    return run_exhibits(sorted(EXHIBITS), quick=True, seed=42,
                        jobs=exhibit_jobs)
