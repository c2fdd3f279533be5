"""The traced run: spans around calls into each layer's public functions.

:class:`SpanTracer` wraps the functions listed in :data:`SPANS` from the
benchmark's side (no file of the program changes).  Every wrapped call
records one span ``(id, parent, name, start, end)`` in memory; parents
come from a per-thread stack.  A served request keeps one tree across
the socket: the client puts its span id in an ``X-Trace-Parent`` header
and the server-side ``do_POST`` span takes it as parent.

At the end the spans become a JSONL trace through the program's own
``TraceRecorder.absorb`` and ``write_jsonl``; the per-layer metrics are
read back from the self times that ``profile_events`` (the code behind
``repro profile``) computes from that file.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import urllib.request
from typing import Callable, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: (owner, attribute, span name, kind).  ``kind`` is ``"call"`` for
#: functions and methods, ``"property"`` for properties, and the four
#: special kinds handled in :meth:`SpanTracer._wrapper`.
SPANS: Sequence[Tuple[str, str, str, str]] = (
    ("repro.core.index:CoreIndex", "__init__", "core.index.build", "call"),
    ("repro.core.index:CoreIndex", "requirement_ids",
     "core.index.requirement_ids", "call"),
    ("repro.core.index:CoreIndex", "decision_ids",
     "core.index.decision_ids", "call"),
    ("repro.core.index:CoreIndex", "subtree_ids",
     "core.index.subtree_ids", "call"),
    ("repro.core.index:CoreIndex", "prune_ids", "core.index.prune_ids",
     "call"),
    ("repro.core.index:CoreIndex", "materialize",
     "core.index.materialize", "call"),
    ("repro.core.index:CoreIndex", "merit_ranges_for",
     "core.index.merit_ranges", "call"),
    ("repro.serve.app", "merit_ranges", "core.pruning.merit_ranges", "call"),
    ("repro.core.session", "merit_ranges", "core.pruning.merit_ranges",
     "call"),
    ("repro.core.pruning:PruneReport", "digest", "core.pruning.digest",
     "call"),
    ("repro.core.session:ExplorationSession", "decide",
     "core.session.decide", "call"),
    ("repro.core.session:ExplorationSession", "prune_report",
     "core.session.prune_report", "call"),
    ("repro.core.session:ExplorationSession", "available_options",
     "core.session.options", "call"),
    ("repro.core.session:DecisionOutcome", "survivors_before",
     "core.session.outcome", "property"),
    ("repro.core.session:DecisionOutcome", "survivors_after",
     "core.session.outcome", "property"),
    ("repro.core.session:DecisionOutcome", "eliminated_count",
     "core.session.outcome", "property"),
    ("repro.core.explore.engine:SearchContext", "branch_open",
     "core.explore.branch_open", "call"),
    ("repro.core.explore.outcome:ParetoFrontier", "add",
     "core.explore.frontier_add", "call"),
    ("repro.core.layer:DesignSpaceLayer", "epoch", "core.layer.epoch",
     "property"),
    ("repro.core.library:LibraryFederation", "index", "core.library.index",
     "call"),
    ("repro.serve.snapshots:SnapshotManager", "checkout",
     "serve.snapshots.checkout", "call"),
    ("repro.serve.batching:PruneBatcher", "evaluate",
     "serve.batching.evaluate", "evaluate"),
    ("repro.serve.state:ServedSession", "run", "serve.state.run", "run"),
    ("repro.serve.app:DesignSpaceService", "handle", "serve.app.handle",
     "call"),
    ("repro.serve.app:DesignSpaceService", "handle_json",
     "serve.app.handle_json", "call"),
    ("repro.serve.app", "canonical_json", "serve.app.canonical_json",
     "serialize"),
    ("repro.serve.http:ServiceRequestHandler", "do_POST",
     "serve.http.do_POST", "do_post"),
    ("repro.serve.client:ServiceClient", "request", "serve.http.request",
     "call"),
)

PARENT_HEADER = "X-Trace-Parent"

Span = Tuple[int, Optional[int], str, float, float]


def _resolve(target: str):
    import importlib
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class SpanTracer:
    """In-memory span recording around the functions of :data:`SPANS`.

    :meth:`install` and :meth:`uninstall` swap the wrappers in and out,
    so one process can measure untraced and traced phases back to back.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: List[Span] = []
        #: Sizes of the responses ``canonical_json`` rendered.
        self.sizes: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.wall0 = time.time()
        self.clock0 = clock()

    # -- span primitives ----------------------------------------------
    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        ids, spans, stack_of = self._ids, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
        return wrapper

    def reset(self) -> None:
        """Forget what was recorded (installed wrappers keep working)."""
        self.spans.clear()
        self.sizes.clear()

    # -- installation -------------------------------------------------
    def _wrapper(self, kind: str, name: str, original: object) -> object:
        if kind == "property":
            prop = original
            return property(self.traced(name, prop.fget))  # type: ignore
        traced = self.traced(name, original)  # type: ignore[arg-type]
        if kind == "evaluate":
            compute_name = "serve.batching.compute"

            def evaluate(batcher, key, compute):
                return traced(batcher, key, self.traced(compute_name,
                                                        compute))
            return functools.wraps(original)(evaluate)  # type: ignore
        if kind == "run":
            def run(served, now, fn):
                return traced(served, now,
                              self.traced("serve.state.callback", fn))
            return functools.wraps(original)(run)  # type: ignore
        if kind == "serialize":
            sizes = self.sizes

            def serialize(payload):
                body = traced(payload)
                sizes.append(len(body))
                return body
            return functools.wraps(original)(serialize)  # type: ignore
        if kind == "do_post":
            stack_of = self._stack

            def do_post(handler):
                remote = handler.headers.get(PARENT_HEADER)
                stack = stack_of()
                if remote:
                    stack.append(int(remote))
                try:
                    return traced(handler)
                finally:
                    if remote:
                        stack.pop()
            return functools.wraps(original)(do_post)  # type: ignore
        return traced

    def install(self) -> None:
        """Swap every wrapper in (idempotent)."""
        if self._saved:
            return
        for target, attr, name, kind in SPANS:
            owner = _resolve(target)
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(kind, name, original))
        original_urlopen = urllib.request.urlopen
        stack_of = self._stack

        def urlopen(request, *args, **kwargs):
            stack = stack_of()
            if stack and isinstance(request, urllib.request.Request):
                request.add_header(PARENT_HEADER, str(stack[-1]))
            return original_urlopen(request, *args, **kwargs)
        self._saved.append((urllib.request, "urlopen", original_urlopen))
        urllib.request.urlopen = urlopen  # type: ignore[assignment]

    def uninstall(self) -> None:
        """Restore every original, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- export -------------------------------------------------------
    def trace_rows(self) -> List[Dict[str, object]]:
        """The spans as plain trace rows, in start order."""
        rows = []
        for seq, (span_id, parent, name, start, end) in enumerate(
                sorted(self.spans, key=lambda s: (s[3], s[0]))):
            row: Dict[str, object] = {
                "seq": seq, "kind": name,
                "at": self.wall0 + (start - self.clock0),
                "elapsed_s": start - self.clock0,
                "duration_s": end - start, "span": span_id}
            if parent is not None:
                row["parent"] = parent
            rows.append(row)
        return rows

    def write_trace(self, path: str) -> int:
        """Write the spans as a JSONL trace ``repro profile`` reads."""
        from repro.core.obs import TraceRecorder, write_jsonl
        recorder = TraceRecorder()
        recorder.absorb(self.trace_rows())
        return write_jsonl(recorder.events, path)


#: Self-time metrics: name -> the span sites whose self time the metric
#: sums, per operation (see ``README.md``).
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "core.index.requirement_ids_ms": ("core.index.requirement_ids",),
    "core.index.decision_ids_ms": ("core.index.decision_ids",),
    "core.index.subtree_ids_ms": ("core.index.subtree_ids",),
    "core.index.prune_ids_ms": ("core.index.prune_ids",),
    "core.index.materialize_ms": ("core.index.materialize",),
    "core.index.merit_ranges_ms": ("core.index.merit_ranges",),
    "core.pruning.merit_ranges_ms": ("core.pruning.merit_ranges",),
    "core.pruning.digest_ms": ("core.pruning.digest",),
    "core.session.decide_ms": ("core.session.decide",),
    "core.session.outcome_ms": ("core.session.outcome",),
    "core.session.prune_report_ms": ("core.session.prune_report",),
    "core.session.options_ms": ("core.session.options",),
    "core.explore.frontier_add_ms": ("core.explore.frontier_add",),
    "core.layer.epoch_ms": ("core.layer.epoch",),
    "core.library.index_ms": ("core.library.index",),
    "serve.snapshots.checkout_ms": ("serve.snapshots.checkout",),
    "serve.batching.compute_ms": ("serve.batching.compute",),
    "serve.batching.wait_ms": ("serve.batching.evaluate",),
    "serve.state.lock_wait_ms": ("serve.state.run",),
    "serve.app.handle_self_ms": ("serve.app.handle",
                                 "serve.state.callback"),
    "serve.app.serialize_ms": ("serve.app.canonical_json",),
    "serve.http.transport_ms": ("serve.http.request", "serve.http.do_POST"),
}


def layer_metrics(profile, tracer: SpanTracer, ops: int,
                  op_wall_s: float, builds: Sequence[float]
                  ) -> Dict[str, float]:
    """Per-layer metrics from a span profile of ``ops`` operations that
    took ``op_wall_s`` seconds in total.

    ``builds`` are the durations (s) of every traced ``CoreIndex``
    build, set-up included; ``core.index.build_ms`` is their mean.
    """
    per_op = 1.0 / max(ops, 1)

    def self_s(*sites: str) -> float:
        return sum(stats.self_s for stats in
                   (profile.site(site) for site in sites) if stats)

    def count(site: str) -> int:
        stats = profile.site(site)
        return stats.count if stats else 0

    out: Dict[str, float] = {
        name: self_s(*sites) * 1e3 * per_op
        for name, sites in SELF_TIME_METRICS.items()}
    # Summed from the unclaimed spans rather than as wall time minus the
    # claimed ones: a client span can end before the server span under
    # it returns, so self times of one request may overlap.
    claimed = {site for sites in SELF_TIME_METRICS.values()
               for site in sites} | {"core.index.build",
                                     "core.explore.branch_open"}
    unattributed = sum(stats.self_s for stats in profile.sites
                       if stats.site not in claimed)
    evaluations = count("serve.batching.evaluate")
    out.update({
        "core.index.requirement_ids_calls":
            count("core.index.requirement_ids") * per_op,
        "core.index.build_ms":
            1e3 * sum(builds) / len(builds) if builds else 0.0,
        "core.index.builds": float(count("core.index.build")),
        "core.explore.branches_opened":
            count("core.explore.branch_open") * per_op,
        "core.explore.frontier_adds":
            count("core.explore.frontier_add") * per_op,
        "core.layer.epoch_calls": count("core.layer.epoch") * per_op,
        "serve.batching.evaluations": evaluations * per_op,
        "serve.batching.hit_ratio":
            (1.0 - count("serve.batching.compute") / evaluations)
            if evaluations else 0.0,
        "serve.app.response_bytes":
            sum(tracer.sizes) / len(tracer.sizes) if tracer.sizes else 0.0,
        "trace.unattributed_share":
            unattributed / op_wall_s if op_wall_s else 0.0,
    })
    return out


#: Every per-layer metric with its unit and better direction, in the
#: order ``BENCHMARK.json`` lists them.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "core.index.requirement_ids_ms": ("ms", "lower"),
    "core.index.requirement_ids_calls": ("count", "lower"),
    "core.index.decision_ids_ms": ("ms", "lower"),
    "core.index.subtree_ids_ms": ("ms", "lower"),
    "core.index.prune_ids_ms": ("ms", "lower"),
    "core.index.materialize_ms": ("ms", "lower"),
    "core.index.merit_ranges_ms": ("ms", "lower"),
    "core.index.build_ms": ("ms", "lower"),
    "core.index.builds": ("count", "lower"),
    "core.pruning.merit_ranges_ms": ("ms", "lower"),
    "core.pruning.digest_ms": ("ms", "lower"),
    "core.session.decide_ms": ("ms", "lower"),
    "core.session.outcome_ms": ("ms", "lower"),
    "core.session.prune_report_ms": ("ms", "lower"),
    "core.session.options_ms": ("ms", "lower"),
    "core.explore.branches_opened": ("count", "lower"),
    "core.explore.frontier_adds": ("count", "lower"),
    "core.explore.frontier_add_ms": ("ms", "lower"),
    "core.layer.epoch_calls": ("count", "lower"),
    "core.layer.epoch_ms": ("ms", "lower"),
    "core.library.index_ms": ("ms", "lower"),
    "serve.snapshots.checkout_ms": ("ms", "lower"),
    "serve.snapshots.invalidations": ("count", "lower"),
    "serve.batching.evaluations": ("count", "lower"),
    "serve.batching.hit_ratio": ("ratio", "higher"),
    "serve.batching.compute_ms": ("ms", "lower"),
    "serve.batching.wait_ms": ("ms", "lower"),
    "serve.state.lock_wait_ms": ("ms", "lower"),
    "serve.app.handle_self_ms": ("ms", "lower"),
    "serve.app.serialize_ms": ("ms", "lower"),
    "serve.app.response_bytes": ("bytes", "lower"),
    "serve.http.transport_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}
