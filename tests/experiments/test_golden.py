"""Every quick exhibit (seed 42) against its golden snapshot.

Marked ``golden`` and so left out of the default run (see
``pyproject.toml``); run them with ``pytest -m golden``, serially by
default or over N workers with ``--exhibit-jobs N``.  Every exhibit is
simulated once per session, by a single ``run_exhibits`` call (see the
root ``conftest.py``).  ``scripts/regen_golden.py`` rewrites the
goldens; a change that moves one must say why.
"""

import pytest

from repro.experiments.figures import EXHIBITS, run_exhibits
from tests.experiments import goldens

pytestmark = pytest.mark.golden


@pytest.mark.parametrize("name", sorted(EXHIBITS))
def test_exhibit_matches_golden(name, quick_exhibits):
    golden = goldens.load(name)
    record = goldens.exhibit_record(quick_exhibits[name])
    assert record["text"] == golden["text"]
    assert record == golden


def test_traced_observed_matches_golden(exhibit_jobs, tmp_path, capsys):
    results = run_exhibits(goldens.TRACED_NAMES, quick=True,
                           seed=goldens.SEED, jobs=exhibit_jobs,
                           **goldens.TRACED_KW)
    record = goldens.traced_record(results, tmp_path)
    golden = goldens.load(goldens.TRACED_GOLDEN)
    for name in goldens.TRACED_NAMES:
        assert record["exhibits"][name]["text"] == \
            golden["exhibits"][name]["text"]
    assert record == golden
