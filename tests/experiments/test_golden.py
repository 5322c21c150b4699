"""Every quick exhibit (seed 42) against its golden snapshot.

Marked ``golden`` and so left out of the default run (see
``pyproject.toml``); run them with ``pytest -m golden``, serially by
default or over N workers with ``--exhibit-jobs N``.  Every exhibit is
simulated once per session, by a single ``run_exhibits`` call (see the
root ``conftest.py``).  ``scripts/regen_golden.py`` rewrites the
goldens; a change that moves one must say why.

The full-mode tail exhibits are too slow to pin; their percentile
tables are checked for shape instead.
"""

import re

import pytest

from repro.experiments.figures import EXHIBITS, TAIL_SERVERS, run_exhibits
from tests.experiments import goldens

pytestmark = pytest.mark.golden

#: The tail exhibits (Figures 15-17) run at full size.
FULL_TAIL_NAMES = ("fig15", "fig16", "fig17")


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


def percentile_tables(text):
    """``(title, {server: column})`` for every percentile table in an
    exhibit's *text*; a column lists one server's response times in the
    table's row order (increasing percentile)."""
    tables = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.endswith(": percentile response time [ms]"):
            continue
        # Title, underline, header, rule, then rows up to a blank line.
        servers = re.split(r"\s{2,}", lines[i + 2].strip())[1:]
        rows = []
        for row in lines[i + 4:]:
            if not row.strip():
                break
            rows.append([float(cell) for cell in row.split()])
        pctls = [row[0] for row in rows]
        assert pctls == sorted(pctls), line
        tables.append((line, {server: [row[k + 1] for row in rows]
                              for k, server in enumerate(servers)}))
    return tables


def test_full_tail_percentiles_are_monotone(exhibit_jobs):
    results = run_exhibits(FULL_TAIL_NAMES, quick=False, seed=goldens.SEED,
                           jobs=exhibit_jobs)
    tables = [table for name in FULL_TAIL_NAMES
              for table in percentile_tables(results[name].text)]
    assert len(tables) == 4
    for title, columns in tables:
        assert list(columns) == [label for label, _kind in TAIL_SERVERS]
        for server, column in columns.items():
            assert column == sorted(column), f"{title}: {server} {column}"
