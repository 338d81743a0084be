"""Spans around the calls ``simulate`` makes into each layer.

Nothing is traced inside the program: the tracer swaps the module-level
names that ``streamctx.simulate`` calls (and the store loaders and the
provider transport) for wrappers that record a span per call, then puts the
originals back.  Spans stay in memory; ``write_spans`` saves them at the end.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Names in ``streamctx.simulate`` that are wrapped, and the layer metric
#: prefix each one's self time is reported under.
SIMULATE_CALLS = {
    "cluster": "clustering.cluster",
    "events_from": "clustering.events_from",
    "embed_event": "compression.embed_event",
    "embed_question": "compression.embed_question",
    "compress_stream": "compression.compress",
    "retrieve": "retrieval.retrieve",
    "assemble": "assembly.assemble",
    "generate_answer": "assembly.answer",
}
STORE_CALLS = ("load_manifest", "load_session_frames")
TRANSPORT = "transport"

_WIRE_KINDS = {"summarize": "summarize_calls", "embed": "embed_calls",
               "retrieve": "retrieve_calls", "generate": "generate_calls"}


class TraceError(RuntimeError):
    """A wrapped name is missing or never called, or the spans do not add up."""


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    question: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Records a span per wrapped call.

    A span's question is ``"<stream>:<qa_id>"``, where the harness sets
    ``stream`` before replaying each stream.  Top-level spans wait in
    ``_pending`` until the question's ``generate_answer`` call, which carries
    the qa_id.  With ``scratch`` set, ``cluster`` spans also record the
    tracemalloc peak of the call.
    """

    def __init__(self, *, scratch: bool = False):
        self.scratch = scratch
        self.stream: int | None = None
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._pending: list[Span] = []

    def reset(self) -> None:
        self.spans, self._open, self._pending = [], [], []

    def _wrap(self, name, fn, observe=None):
        measure = self.scratch and name == "cluster"

        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            if measure:
                tracemalloc.start()
            try:
                span.start = time.perf_counter()
                result = fn(*args, **kwargs)
                if measure:
                    span.info["scratch_peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                span.end = time.perf_counter()
                if measure:
                    tracemalloc.stop()
                self._open.pop()
            if observe is not None:
                span.info.update(observe(args, kwargs, result))
            if span.parent is None and name in SIMULATE_CALLS:
                self._pending.append(span)
                if name == "generate_answer":
                    for held in self._pending:
                        held.question = f"{self.stream}:{kwargs['qa_id']}"
                    self._pending.clear()
            return result

        return traced

    def wrap_transport(self, transport):
        """Wrap a ``wire.WireTransport``; spans carry the request kind and sizes."""

        def observe(args, kwargs, result):
            info = {"kind": args[1]["kind"], "bytes_out": len(transport.last_request),
                    "bytes_in": len(transport.last_reply)}
            if info["kind"] == "summarize":
                info["digest"] = hashlib.blake2b(
                    transport.last_request.encode(), digest_size=16
                ).digest()
            return info

        return self._wrap(TRANSPORT, transport, observe)

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        sim = importlib.import_module("streamctx.simulate")
        store = importlib.import_module("streamctx.store")
        targets = [(sim, name) for name in SIMULATE_CALLS] + [(store, n) for n in STORE_CALLS]
        originals = []
        for module, name in targets:
            fn = getattr(module, name, None)
            if fn is None:
                raise TraceError(f"{module.__name__}.{name} no longer exists")
            originals.append((module, name, fn))
        try:
            for module, name, fn in originals:
                setattr(module, name, self._wrap(name, fn, _OBSERVERS.get(name)))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)


_OBSERVERS = {
    "cluster": lambda a, k, r: {"frames": len(a[0]), "iterations": r.iterations,
                                "assignments": r.assignments},
    "compress_stream": lambda a, k, r: {"preserved": sum(u.kind == "preserved" for u in r)},
    "retrieve": lambda a, k, r: {"history": len(a[0]), "selected": len(r.selected_ids)},
    "load_session_frames": lambda a, k, r: {"frames": sum(len(v) for v in r.values())},
}


def require_called(spans: list[Span], names) -> None:
    called = {span.name for span in spans}
    missing = [name for name in names if name not in called]
    if missing:
        raise TraceError(f"wrapped names never called: {missing}")


def self_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ms[span.parent] += span.ms
    return [span.ms - child for span, child in zip(spans, child_ms)]


def question_of(spans: list[Span], index: int) -> str | None:
    while spans[index].parent is not None:
        index = spans[index].parent
    return spans[index].question


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Store metrics of one set-up: load time and frames loaded."""
    require_called(spans, STORE_CALLS)
    return {
        "store.load_ms": sum(span.ms for span in spans if span.parent is None),
        "store.frames_loaded": sum(span.info.get("frames", 0) for span in spans),
    }


def pass_metrics(
    spans: list[Span], question_wall_ms: dict[str, float], *, wire: bool = False
) -> dict[str, float]:
    """Per-layer self times and counts of one traced replay pass.

    ``question_wall_ms`` maps each question to the wall time ``simulate``
    recorded for it.  ``simulate.self_ms`` is that wall time minus the
    top-level spans inside it, so the layer self times plus
    ``simulate.self_ms`` must add up to the summed question wall time.  With
    ``wire`` set, the provider transport must have been called too.
    """
    require_called(spans, [*SIMULATE_CALLS, *([TRANSPORT] if wire else [])])
    own = self_ms(spans)
    out: dict[str, float] = defaultdict(float)
    top_ms: dict[str, float] = defaultdict(float)
    prefixes: set[tuple[str, int]] = set()
    digests: set[bytes] = set()
    for index, span in enumerate(spans):
        question = question_of(spans, index)
        if question not in question_wall_ms:
            raise TraceError(f"{span.name} span outside any question ({question})")
        if span.parent is None:
            top_ms[question] += span.ms
        info = span.info
        if span.name == TRANSPORT:
            out["providers.transport_ms"] += own[index]
            out["providers." + _WIRE_KINDS[info["kind"]]] += 1
            out["providers.bytes_out"] += info["bytes_out"]
            out["providers.bytes_in"] += info["bytes_in"]
            if "digest" in info:
                digests.add(info["digest"])
            continue
        out[SIMULATE_CALLS[span.name] + "_ms"] += own[index]
        if span.name == "cluster":
            out["clustering.calls"] += 1
            out["clustering.frames"] += info["frames"]
            out["clustering.iterations"] += info["iterations"]
            peak_mb = info.get("scratch_peak", 0) / 2**20
            out["clustering.scratch_peak_mb"] = max(out["clustering.scratch_peak_mb"], peak_mb)
            prefixes.add((question.split(":")[0], info["frames"]))
        elif span.name == "embed_event":
            out["compression.events_embedded"] += 1
        elif span.name == "compress_stream":
            out["compression.preserved_events"] += info["preserved"]
        elif span.name == "retrieve":
            out["retrieval.history_items_scored"] += info["history"]
            out["retrieval.selected_items"] += info["selected"]

    out["clustering.redundant_calls"] = out["clustering.calls"] - len(prefixes)
    out["providers.summarize_distinct"] = len(digests)
    if out["providers.retrieve_calls"]:
        retrieves = sum(1 for span in spans if span.name == "retrieve")
        out["providers.retries"] = out["providers.retrieve_calls"] - retrieves

    simulate_self = 0.0
    for question, wall in question_wall_ms.items():
        rest = wall - top_ms[question]
        if rest < 0:
            raise TraceError(f"spans of question {question} outlast its wall time")
        simulate_self += rest
    out["simulate.self_ms"] = simulate_self

    accounted = sum(v for k, v in out.items() if k.endswith("_ms"))
    wall = sum(question_wall_ms.values())
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        raise TraceError(f"self times add up to {accounted} ms, question wall is {wall} ms")
    return dict(out)


def write_spans(spans: list[Span], path) -> None:
    """One JSON line per span: name, start, end, parent and question."""
    with open(path, "w") as fh:
        for index, span in enumerate(spans):
            fh.write(json.dumps({
                "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent, "question": question_of(spans, index),
            }) + "\n")
