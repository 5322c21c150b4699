"""Golden snapshots of the quick exhibits: what a golden holds, and how
it is read and written.

One JSON file per exhibit under ``golden/`` holds the exhibit's
rendered text plus a SHA-256 over the ``repr`` of its canonicalised
data, all at ``quick=True, seed=42``.  ``golden/traced_obs.json`` pins
one traced + observed run (:data:`TRACED_NAMES` with
:data:`TRACED_KW`): each exhibit's text and data digest, the ordered
names and digests of its trace summaries / flames / phase windows /
Prometheus snapshots, and a SHA-256 over the bytes of the three
artifact files the CLI's ``--trace-out`` / ``--flame-out`` /
``--prom-out`` write for it.

``tests/experiments/test_golden.py`` checks these files;
``scripts/regen_golden.py`` rewrites them.
"""

import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Root seed every golden is recorded at.
SEED = 42

#: The traced + observed golden run: two exhibits, one of which
#: (``ewma_route``) already traces its own points at 0.25, so the
#: overlay's sample rate must override it.
TRACED_NAMES = ("fault_tail", "ewma_route")
TRACED_KW = {"trace": True, "trace_sample": 0.05, "obs": True}
TRACED_GOLDEN = "traced_obs"

#: Per-point artifacts a traced + observed exhibit collects in its data.
ARTIFACT_KEYS = ("trace_summaries", "flames", "trace_phases", "prometheus")

#: (file name, CLI writer) for each export the traced golden pins.
EXPORTS = (("trace.json", "_write_trace_out"),
           ("flame.collapsed", "_write_flame_out"),
           ("prom.txt", "_write_prom_out"))


def canonical(value):
    """*value* with every int made a float and every tuple a list.

    The recorded digests are taken over this form (an earlier pooled
    transport shipped counts as floats and sequences as lists), so it
    stays to keep them stable; pooled and serial results are now
    ``repr``-identical anyway.  Floats keep their exact ``repr``.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, dict):
        return {canonical(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(value) -> str:
    """SHA-256 over the ``repr`` of the canonical form of *value*."""
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


def exhibit_record(result) -> dict:
    """The golden of one exhibit result."""
    return {"exhibit": result.exhibit, "title": result.title,
            "text": result.text, "data_sha256": digest(result.data)}


def traced_record(results, out_dir: Path) -> dict:
    """The golden of a traced + observed :func:`run_exhibits` result:
    every exhibit's record plus its ordered artifact digests, and the
    digests of the export files written into *out_dir*."""
    from repro.experiments import cli

    exhibits = {}
    for name, result in results.items():
        record = exhibit_record(result)
        for key in ARTIFACT_KEYS:
            record[key] = [[label, digest(value)] for label, value
                           in result.data.get(key, {}).items()]
        exhibits[name] = record
    files = {}
    for file_name, writer in EXPORTS:
        path = out_dir / file_name
        getattr(cli, writer)(str(path), list(results.items()))
        files[file_name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"names": list(results), "exhibits": exhibits, "files": files}


def path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load(name: str) -> dict:
    return json.loads(path(name).read_text())


def save(name: str, record: dict) -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    path(name).write_text(json.dumps(record, indent=2, sort_keys=True)
                          + "\n")
