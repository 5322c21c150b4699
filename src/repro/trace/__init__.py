"""repro.trace — deterministic per-request span tracing.

A :class:`Tracer` owned by the :class:`~repro.sim.kernel.Simulator`
records a span tree for every *sampled* request: the root span covers
the whole request from workload issue to response receipt, child spans
cover driver hand-off, per-subquery sends, network transit, datastore
queueing + service, selector waits, application CPU, and the
retry/hedge/failover machinery of :mod:`repro.faults`.

Head-based sampling draws from its own named
:class:`~repro.sim.rng.RngStreams` stream, so the sampled set is a
pure function of the experiment seed — identical across ``--jobs 1``
and ``--jobs N`` — and tracing *off* makes zero draws and zero
behavioural changes (golden results stay byte-identical).

:mod:`repro.trace.critical_path` attributes each traced request's
end-to-end latency into exact, additive categories;
:mod:`repro.trace.export` builds the run summary that rides on the
result and renders Chrome ``trace_event`` JSON; :mod:`repro.trace.flame`
folds every sampled request into collapsed-stack flames.
"""

from .critical_path import (CATEGORIES, additivity_residual, attribute)
from .export import build_summary, chrome_trace, write_chrome_trace
from .flame import (FRAME_NAMES, F_SUBQUERY, FlameAccumulator, build_flame,
                    collapsed_stacks, merge_flames, write_flame)
from .schema import (SchemaError, check_chrome_trace, check_collapsed,
                     check_path, check_prometheus)
from .spans import (FLAG_DROPPED, FLAG_SYNTHESIZED, KIND_NAMES, K_ASSEMBLE,
                    K_FAILED, K_HANDOFF, K_HEDGE, K_INBOX_WAIT,
                    K_NET_REQUEST, K_NET_RESPONSE, K_PARSE, K_PROCESS,
                    K_RETRY, K_ROOT, K_SELECTOR_WAIT, K_SEND, K_SERVER_QUEUE,
                    K_SERVICE, Span, SpanKind, Trace, Tracer)

__all__ = [
    "Tracer", "Trace", "Span", "SpanKind", "KIND_NAMES",
    "K_ROOT", "K_PARSE", "K_SEND", "K_NET_REQUEST", "K_NET_RESPONSE",
    "K_SERVER_QUEUE", "K_SERVICE", "K_SELECTOR_WAIT", "K_HANDOFF",
    "K_INBOX_WAIT", "K_PROCESS", "K_ASSEMBLE", "K_RETRY", "K_HEDGE",
    "K_FAILED", "FLAG_DROPPED", "FLAG_SYNTHESIZED",
    "CATEGORIES", "attribute", "additivity_residual",
    "build_summary", "chrome_trace", "write_chrome_trace",
    "FlameAccumulator", "FRAME_NAMES", "F_SUBQUERY", "build_flame",
    "merge_flames", "collapsed_stacks", "write_flame",
    "SchemaError", "check_chrome_trace", "check_collapsed",
    "check_prometheus", "check_path",
]
