"""The pooled result transport: one pickle per result.

A worker runs its point and pickles the whole :class:`ExperimentResult`
(trace summary, flame and gauges included); the parent unpickles it, so
a pooled result is the serial one exactly, ints and all.
"""

from __future__ import annotations

import pickle
from typing import Tuple

from .config import ExperimentConfig, ExperimentResult
from .runner import run_experiment

__all__ = ["run_pickled", "decode_payload"]


def run_pickled(config: ExperimentConfig) -> Tuple[bytes, None, bytes]:
    """Worker entry point: run the point and pickle the result.
    Returns ``(pickled_result, None, b"")``."""
    blob = pickle.dumps(run_experiment(config), pickle.HIGHEST_PROTOCOL)
    return blob, None, b""


# The payload keeps three slots only because perfbench's decode_hook wraps
# parallel._decode_payload with 2 positional args, unpacks
# (bytes, None, inline) and sizes len(bytes) + len(inline).
def decode_payload(payload, _unused) -> ExperimentResult:
    """Parent side: unpickle one result from a worker's payload."""
    return pickle.loads(payload[0])
