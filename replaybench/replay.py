"""One benchmark run: set up, warm up and check, then replay for a fixed time.

The load is a closed loop in one process: the streams of a session replay
one after another, and each question waits for the previous answer, which
joins the dialogue history.  A run replays the whole workload in passes;
every time is a median over the run: throughput over the passes, each
question's time over the passes, set-up time over the run's set-ups, and the
per-layer metrics of a traced run over its traced passes.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from streamctx import store
from streamctx.simulate import EngineConfig, SimulationReport, simulate

import checks
import tracing
from wire import wire_providers
from workloads import Workload

#: End-to-end metrics, from an untraced run, and their units.
END_TO_END = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "question_ms_p50": "ms",
    "question_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "context_tokens_per_question": "tokens",
    "retrieval_f1": "ratio",
    "event_ari": "ratio",
}

#: Per-layer metrics, from a traced run, and their units.
PER_LAYER = {
    "store.load_ms": "ms",
    "store.frames_loaded": "count",
    "clustering.cluster_ms": "ms",
    "clustering.calls": "count",
    "clustering.redundant_calls": "count",
    "clustering.frames": "count",
    "clustering.iterations": "count",
    "clustering.scratch_peak_mb": "MB",
    "clustering.events_from_ms": "ms",
    "compression.embed_event_ms": "ms",
    "compression.events_embedded": "count",
    "compression.embed_question_ms": "ms",
    "compression.compress_ms": "ms",
    "compression.preserved_events": "count",
    "retrieval.retrieve_ms": "ms",
    "retrieval.history_items_scored": "count",
    "retrieval.selected_items": "count",
    "assembly.assemble_ms": "ms",
    "assembly.answer_ms": "ms",
    "providers.summarize_calls": "count",
    "providers.summarize_distinct": "count",
    "providers.embed_calls": "count",
    "providers.retrieve_calls": "count",
    "providers.generate_calls": "count",
    "providers.retries": "count",
    "providers.bytes_out": "bytes",
    "providers.bytes_in": "bytes",
    "providers.transport_ms": "ms",
    "simulate.self_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Set-ups before each pass; set-up time is the median over the run.
SETUPS_PER_PASS = 3


@dataclass
class Session:
    manifest: store.SessionManifest
    frames: dict
    planted: np.ndarray

    @property
    def facts(self) -> checks.SessionFacts:
        segments = self.manifest.segments
        first = self.frames[segments[0].segment_id][0]
        return checks.SessionFacts(
            segment_frames=tuple((s.end_s, len(self.frames[s.segment_id])) for s in segments),
            patches=first.num_patches,
        )

    @property
    def dim(self) -> int:
        return self.frames[self.manifest.segments[0].segment_id][0].dim


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)

    def result_line(self, units: dict[str, str]) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": self.metrics[k], "unit": units[k]} for k in units},
        })


def set_up(inputs: Path) -> tuple[float, Session]:
    """Load the manifest and every segment's frames: what serving needs first."""
    start = time.perf_counter()
    manifest = store.load_manifest(inputs / "manifest.json")
    frames = store.load_session_frames(manifest, inputs)
    elapsed = time.perf_counter() - start
    planted = np.asarray(json.loads((inputs / "planted.json").read_text()))
    return elapsed, Session(manifest, frames, planted)


def replay_pass(
    session: Session, workload: Workload, tracer: tracing.Tracer | None = None,
    *, oracle: bool = False,
) -> tuple[float, list[SimulationReport]]:
    """Replay every stream of the session once; returns wall seconds and reports.

    ``oracle`` replays in-process with ``retrieval_mode="oracle"`` and no
    injected providers, the reference the provider-wire replay must match.
    """
    engine = {**workload.engine, "retrieval_mode": "oracle"} if oracle else workload.engine
    config = EngineConfig(**engine)
    wrap = tracer.wrap_transport if tracer is not None else None
    gc.collect()
    start = time.perf_counter()
    reports = []
    for index, stream in enumerate(session.manifest.dialogue_streams):
        if tracer is not None:
            tracer.stream = index
        providers = None
        if workload.wire and not oracle:
            providers = wire_providers(stream, session.dim, wrap)
        reports.append(simulate(session.manifest, index, config, frames=session.frames,
                                providers=providers))
    return time.perf_counter() - start, reports


def question_walls(reports: list[SimulationReport]) -> dict[str, float]:
    return {f"{i}:{rec['qa_id']}": rec["wall_ms"]
            for i, report in enumerate(reports) for rec in report.records}


def event_ari(spans: list[tracing.Span], reports: list[SimulationReport], planted) -> float:
    """Mean ARI between each question's clustering and the planted events it saw.

    A question's clustering is the latest ``cluster`` result of its stream
    over the same number of frames, so a clustering reused across questions
    still counts once per question.
    """
    by_question = defaultdict(list)
    for index, span in enumerate(spans):
        if span.name == "cluster":
            by_question[tracing.question_of(spans, index)].append(span.info["assignments"])
    scores = []
    for stream, report in enumerate(reports):
        latest = {}
        for rec in report.records:
            for assignments in by_question[f"{stream}:{rec['qa_id']}"]:
                latest[len(assignments)] = assignments
            if "error" in rec:
                continue
            n = rec["num_frames"]
            if n not in latest:
                raise checks.CheckFailure(f"qa {rec['qa_id']}: no clustering over {n} frames")
            scores.append(checks.adjusted_rand_index(latest[n], planted[:n]))
    return statistics.fmean(scores)


def _context_metrics(reports: list[SimulationReport]) -> dict[str, float]:
    answered = [r for report in reports for r in report.records if "error" not in r]
    counts = {key: sum(r["retrieval_confusion"][key] for r in answered) for key in ("tp", "fp", "fn")}
    return {
        "context_tokens_per_question": statistics.fmean(
            r["visual_tokens"] + r["text_tokens"] for r in answered
        ),
        "retrieval_f1": 2 * counts["tp"] / (2 * counts["tp"] + counts["fp"] + counts["fn"]),
    }


def run_workload(
    workload: Workload, inputs: Path, seconds: float, trace: bool, spans_out: Path | None = None
) -> Outcome:
    """Set up, warm up and check, then replay in passes for ``seconds``.

    Untraced (``trace`` false), the outcome holds the end-to-end metrics.
    Traced, untraced and traced passes alternate, and the outcome holds the
    per-layer metrics of the traced passes plus the tracing overhead.
    """
    failures: list[str] = []
    setups, store_layers = [], []
    probe = tracing.Tracer()

    def set_up_again() -> Session:
        for _ in range(SETUPS_PER_PASS):
            if trace:
                probe.reset()
                with probe.installed():
                    elapsed, session = set_up(inputs)
                store_layers.append(tracing.setup_metrics(probe.spans))
            else:
                elapsed, session = set_up(inputs)
            setups.append(elapsed)
        return session

    # Warm-up pass, traced so the checks can see every clustering.
    session = set_up_again()
    warm = tracing.Tracer(scratch=trace)
    with warm.installed():
        _, reference = replay_pass(session, workload, warm)
    try:
        for report in reference:
            checks.check_report(report, session.facts)
        ari = event_ari(warm.spans, reference, session.planted)
        if workload.wire:
            _, oracle = replay_pass(session, workload, oracle=True)
            checks.check_lossless_wire(reference, oracle)
    except checks.CheckFailure as exc:
        failures.append(str(exc))
        ari = 0.0
    canonical = [report.canonical_bytes() for report in reference]
    scratch_mb = tracing.pass_metrics(warm.spans, question_walls(reference))[
        "clustering.scratch_peak_mb"] if trace else 0.0

    walls, traced_walls, per_question, layers = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        session = set_up_again()
        wall, reports = replay_pass(session, workload)
        walls.append(wall)
        per_question.append([rec["wall_ms"] for report in reports for rec in report.records])
        passes = [reports]
        if trace:
            probe.reset()
            with probe.installed():
                traced_wall, traced = replay_pass(session, workload, probe)
            traced_walls.append(traced_wall)
            layers.append(tracing.pass_metrics(probe.spans, question_walls(traced),
                                               wire=workload.wire))
            passes.append(traced)
            wall += traced_wall
        for done in passes:
            records = [rec for report in done for rec in report.records]
            attempted += len(records)
            failed += sum("error" in rec for rec in records)
            try:
                checks.check_same_bytes(canonical, done)
            except checks.CheckFailure as exc:
                failures.append(str(exc))
        if time.perf_counter() + wall > deadline:
            break

    questions = len(per_question[0])
    notes = [f"{workload.name}: {len(walls)} timed passes of {questions} questions"
             f"{' (each followed by a traced pass)' if trace else ''}, after one warm-up pass",
             "pass wall s: " + " ".join(f"{w:.3f}" for w in walls)]
    if trace:
        notes.append("traced pass wall s: " + " ".join(f"{w:.3f}" for w in traced_walls))
    notes += [f"check failed: {msg}" for msg in failures]
    if trace:
        metrics = {name: statistics.median(m.get(name, 0.0) for m in layers) for name in PER_LAYER}
        metrics.update({name: statistics.median(m[name] for m in store_layers)
                        for name in ("store.load_ms", "store.frames_loaded")})
        metrics["clustering.scratch_peak_mb"] = scratch_mb
        untraced_ms = statistics.median(walls) * 1000.0
        metrics["trace.overhead_ms"] = statistics.median(traced_walls) * 1000.0 - untraced_ms
        notes.append(f"untraced pass {untraced_ms:.1f} ms (median); tracing adds "
                     f"{metrics['trace.overhead_ms']:.1f} ms")
        wall_ms = sum(question_walls(traced).values())
        split = sorted(((v, k) for k, v in layers[-1].items() if k.endswith("_ms")), reverse=True)
        notes.append(f"trace split of {wall_ms:.1f} ms question wall (last traced pass): "
                     + ", ".join(f"{k} {v / wall_ms:.1%}" for v, k in split if v > 0))
        if spans_out is not None:
            tracing.write_spans(probe.spans, spans_out)
    else:
        # The box's speed flickers between passes and drifts over tens of
        # seconds.  Medians over the passes follow its typical speed during the
        # run; the fastest pass follows its rare fast moments, and spread about
        # twice as much from one 30 s stretch to the next.
        question_ms = np.median(np.asarray(per_question), axis=0)
        metrics = {
            "setup_s": statistics.median(setups),
            "questions_per_s": questions / statistics.median(walls),
            "question_ms_p50": float(np.percentile(question_ms, 50)),
            "question_ms_p90": float(np.percentile(question_ms, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **_context_metrics(reference),
            "event_ari": ari,
        }
        notes.append(f"question time: median of {len(walls)} passes per question, then p50/p90 "
                     f"over {questions} questions; set-up: median of {len(setups)}")
    return Outcome(not failures, attempted, failed, metrics, notes)
