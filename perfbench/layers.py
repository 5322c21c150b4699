"""Module -> layer map and the fold of a cProfile run into layers.

Every module under ``src/repro`` belongs to exactly one layer; layers
are named after the modules they hold.  ``test_perfbench.py`` fails when
a module is missing from :data:`LAYERS` or listed twice, so a new module
cannot silently land in ``other``.

Self time of a function outside ``repro`` (the stdlib, builtins) is
charged to its innermost ``repro`` caller, split over call edges in
proportion to the time cProfile measured on each edge.  Time whose
caller chain reaches no ``repro`` frame (the benchmark's own code, the
profiler's top level) is charged to ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

#: Layer -> the modules it holds (dotted names).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.kernel": ("repro.sim", "repro.sim.kernel", "repro.sim.resources",
                   "repro.sim.rng", "repro.sim.params"),
    "sim.cpu": ("repro.sim.cpu",),
    "sim.threads": ("repro.sim.threads",),
    "sim.network": ("repro.sim.network",),
    "sim.syscalls": ("repro.sim.syscalls",),
    "sim.metrics": ("repro.sim.metrics",),
    "drivers": ("repro.drivers", "repro.drivers.aio_backend",
                "repro.drivers.base", "repro.drivers.conn_pool",
                "repro.drivers.netty_backend", "repro.drivers.threadbased",
                "repro.drivers.type1", "repro.messages"),
    "core": ("repro.core", "repro.core.doubleface", "repro.core.handlers",
             "repro.core.scheduling"),
    "datastore": ("repro.datastore", "repro.datastore.cluster",
                  "repro.datastore.kvstore", "repro.datastore.records",
                  "repro.datastore.server", "repro.datastore.sharding"),
    "workload": ("repro.workload", "repro.workload.closed_loop",
                 "repro.workload.open_loop", "repro.workload.profiles",
                 "repro.data", "repro.data.dblp", "repro.data.ycsb"),
    "faults": ("repro.faults", "repro.faults.digest",
               "repro.faults.resilience", "repro.faults.schedule"),
    "trace": ("repro.trace", "repro.trace.critical_path",
              "repro.trace.export", "repro.trace.flame",
              "repro.trace.schema", "repro.trace.spans"),
    "obs": ("repro.obs", "repro.obs.prometheus", "repro.obs.timeline"),
    "experiments": ("repro", "repro.experiments",
                    "repro.experiments.__main__", "repro.experiments.cli",
                    "repro.experiments.config", "repro.experiments.figures",
                    "repro.experiments.parallel", "repro.experiments.report",
                    "repro.experiments.runner",
                    "repro.experiments.transport"),
}

#: Where self time with no ``repro`` caller goes.
OTHER = "other"


def module_layer() -> Dict[str, str]:
    """Invert :data:`LAYERS` into module -> layer."""
    return {module: layer for layer, modules in LAYERS.items()
            for module in modules}


def source_modules(src_dir: str) -> List[str]:
    """Dotted names of every ``.py`` module under ``src_dir/repro``."""
    modules = []
    root = os.path.join(src_dir, "repro")
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                modules.append(_dotted(src_dir, os.path.join(dirpath, name)))
    return sorted(modules)


def map_problems(src_dir: str) -> Tuple[List[str], List[str], List[str]]:
    """(unmapped, mapped twice, mapped but absent) module names."""
    listed = [module for modules in LAYERS.values() for module in modules]
    twice = sorted({m for m in listed if listed.count(m) > 1})
    present = set(source_modules(src_dir))
    return (sorted(present - set(listed)), twice,
            sorted(set(listed) - present))


def _dotted(src_dir: str, path: str) -> str:
    rel = os.path.relpath(path, src_dir)[:-len(".py")]
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class LayerFold:
    """Fold ``pstats``-style raw stats into per-layer self time.

    *stats* is ``pstats.Stats(profile).stats``: ``{func: (cc, nc, tt,
    ct, callers)}`` with ``func = (filename, line, name)`` and
    ``callers = {caller: (nc, cc, tt, ct)}``.
    """

    def __init__(self, stats, src_dir: str) -> None:
        self.stats = stats
        self.repro_dir = os.path.join(os.path.abspath(src_dir), "repro")
        self.src_dir = os.path.abspath(src_dir)
        self._layers = module_layer()
        self._shares: Dict[tuple, Dict[str, float]] = {}
        self.unmapped: set = set()

    def layer_of(self, func) -> Optional[str]:
        """Layer of a ``repro`` function, or None for any other code."""
        filename = os.path.abspath(func[0]) if func[0][:1] != "~" else ""
        if not filename.startswith(self.repro_dir + os.sep):
            return None
        module = _dotted(self.src_dir, filename)
        layer = self._layers.get(module)
        if layer is None:
            self.unmapped.add(module)
            return OTHER
        return layer

    def _caller_shares(self, func, visiting) -> Dict[str, float]:
        """Fractions of *func*'s self time owed to each layer."""
        if func in visiting:  # a cycle of non-repro calls
            return {OTHER: 1.0}
        cached = self._shares.get(func)
        if cached is not None:
            return cached
        callers = self.stats[func][4]
        total = sum(edge[2] for edge in callers.values())
        shares: Dict[str, float] = {}
        if not callers:
            shares[OTHER] = 1.0
        else:
            visiting.add(func)
            n = len(callers)
            for caller, edge in callers.items():
                weight = edge[2] / total if total > 0 else 1.0 / n
                if weight == 0.0:
                    continue
                layer = self.layer_of(caller)
                if layer is not None:
                    shares[layer] = shares.get(layer, 0.0) + weight
                elif caller not in self.stats:
                    shares[OTHER] = shares.get(OTHER, 0.0) + weight
                else:
                    for up, frac in self._caller_shares(
                            caller, visiting).items():
                        shares[up] = shares.get(up, 0.0) + weight * frac
            visiting.discard(func)
        self._shares[func] = shares
        return shares

    def self_times(self) -> Dict[str, float]:
        """Layer -> self seconds, every layer present, plus ``other``."""
        out = {layer: 0.0 for layer in LAYERS}
        out[OTHER] = 0.0
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            if tt == 0.0:
                continue
            layer = self.layer_of(func)
            if layer is not None:
                out[layer] += tt
                continue
            for up, frac in self._caller_shares(func, set()).items():
                out[up] += tt * frac
        return out

    def _outer_edges(self, functions: Iterable) -> Iterable[tuple]:
        """``(calls, inclusive seconds)`` of every call into the set
        *functions* from outside it, so nested calls count once."""
        keys = {_key(fn) for fn in functions}
        for key in keys:
            entry = self.stats.get(key)
            if entry is None:
                continue
            _cc, nc, _tt, ct, callers = entry
            if not callers:
                yield nc, ct
            for caller, edge in callers.items():
                if caller not in keys:
                    yield edge[0], edge[3]

    def calls(self, *functions) -> int:
        """Calls into any of *functions* (Python function objects)."""
        return sum(n for n, _ct in self._outer_edges(functions))

    def cumulative(self, *functions) -> float:
        """Inclusive seconds inside any of *functions*."""
        return sum(ct for _n, ct in self._outer_edges(functions))

    def builtin_calls(self, name: str, caller) -> int:
        """Calls of the builtin labelled *name* (as cProfile prints it,
        e.g. ``<built-in method _heapq.heappush>``) made by *caller*."""
        entry = self.stats.get(("~", 0, name))
        if entry is None:
            return 0
        edge = entry[4].get(_key(caller))
        return edge[0] if edge is not None else 0


def _key(function) -> tuple:
    """cProfile's key for a Python function."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)
