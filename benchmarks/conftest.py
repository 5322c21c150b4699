"""Shared machinery for the exhibit benchmarks.

Every benchmark regenerates one paper exhibit (quick grids), prints the
same rows/series the paper reports, and asserts the qualitative *shape*
— who wins, by roughly what factor, where crossovers fall.  Run with::

    pytest benchmarks/ --benchmark-only -s

With ``--exhibit-jobs N`` (see the root ``conftest.py``) the exhibits
come from the session's single shared run instead of being timed one by
one, so the paper-shape asserts and the golden tests simulate each
exhibit once between them.
"""

import pytest

from repro.experiments import run_exhibits


@pytest.fixture
def exhibit(benchmark, request):
    """Run one exhibit exactly once under the benchmark timer (or take
    it from the shared session run) and print its report."""

    def _run(name, seed=42):
        if request.config.getoption("--exhibit-jobs") is not None \
                and seed == 42:
            result = request.getfixturevalue("quick_exhibits")[name]
        else:
            result = benchmark.pedantic(
                run_exhibits, args=([name],),
                kwargs={"quick": True, "seed": seed},
                rounds=1, iterations=1)[name]
        print("\n" + result.text + "\n")
        return result

    return _run
