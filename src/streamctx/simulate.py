"""Streaming replay of a dialogue over a recorded session.

For each question on a dialogue path, in ask order, the simulator gathers
every frame from segments that have already finished, clusters them into
events, compresses the events against the question, retrieves relevant past
turns, assembles the context package, and generates an answer.  Frame access
runs through a guard that counts any read from a segment still in the future;
a correct run reports zero violations.

The visual pipeline (clustering, events, event embeddings) depends only on
the visible prefix, the number of finished segments, so it runs once per
prefix and every later question on that prefix reuses it.  The clustering
seed is keyed on the prefix too: two questions asked over the same frames
see the same events.  Past ``WINDOW_SEGMENTS`` segments a prefix keeps the
clustering of the one that many segments shorter and clusters only the
later frames, so on a stream that asks at every prefix its cost stops
growing with the stream.  Prefix s + 1 is prefix s plus one segment, so one
state object per call carries forward what the last prefixes built: the
finished segments, joined once into one block, those clusterings, and one
memo of what completed questions built: each event summary by its member
frames, each event's pair of units (and so their encoded fragments) by its
members and rank, and each question vector by its text.
A question stages its additions over the memo and commits them, with its
prefix, only once it completes; so a question that fails leaves nothing
behind for the next one to reuse, and nothing outlives the call.

Reports are JSON lines: one ``record`` object per question followed by one
``summary`` object.  Per-record wall-clock timings are diagnostics and are
excluded from the canonical byte form used for determinism comparisons.
"""

from __future__ import annotations

import bisect
import json
import logging
import math
import time
from collections import ChainMap
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .assembly import answer as generate_answer
from .assembly import assemble
from .clustering import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERS,
    DEFAULT_RATIO,
    ClusterConfig,
    ClusterResult,
    choose_k,
    cluster,
    events_from,
)
from .compression import (
    DEFAULT_THETA,
    PRESERVED,
    CompressionConfig,
    PrefixTable,
    compress_stream,
    compression_ratio,
    embed_event,
    embed_question,
    recall,
)
from .errors import InvalidConfigError, ManifestError, StreamContextError
from .providers import Generator, HashingQuestionEmbedder, Retriever, Summarizer, TextEmbedder
from .retrieval import (
    DEFAULT_OVERLAP_THRESHOLD,
    DialogueHistory,
    HistoryItem,
    RetrievalMetrics,
    RetrievalOutput,
    micro_metrics,
    retrieve,
    score_retrieval,
)
from .store import (
    FrameBlock,
    FrameFeature,
    SessionManifest,
    check_fields,
    encode,
    from_json,
)

logger = logging.getLogger(__name__)

#: Report fields that vary run to run and are dropped from canonical bytes.
VOLATILE_FIELDS = ("wall_ms",)

RETRIEVAL_MODES = ("fallback", "provider", "oracle")

#: Segments a new prefix clusters afresh: it keeps the clustering of the
#: prefix this many segments shorter (``cluster``'s ``frozen``).
WINDOW_SEGMENTS = 4


@dataclass(frozen=True)
class EngineConfig:
    """Every setting ``simulate`` reads, JSON round-trippable.

    Construction checks every field's type and range, so a bad config fails
    here instead of on every question.  ``cluster_config`` and
    ``compression_config`` are the only places engine settings become stage
    configs, and the stage configs own their rules.
    """

    cluster_ratio: float = DEFAULT_RATIO
    alpha_time: float = 1.0
    epsilon: float = DEFAULT_EPSILON
    max_iters: int = DEFAULT_MAX_ITERS
    theta: float = DEFAULT_THETA
    retrieval_mode: str = "fallback"
    retrieval_threshold: float = DEFAULT_OVERLAP_THRESHOLD
    use_gold_answers: bool = False
    seed: int = 0

    def __post_init__(self):
        check_fields(self, InvalidConfigError)
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        if self.retrieval_mode not in RETRIEVAL_MODES:
            raise InvalidConfigError(
                f"retrieval_mode must be one of {RETRIEVAL_MODES}, got {self.retrieval_mode!r}"
            )
        if not (0 < self.cluster_ratio and math.isfinite(self.cluster_ratio)):
            raise InvalidConfigError(f"cluster_ratio must be positive, got {self.cluster_ratio}")
        if not 0.0 <= self.retrieval_threshold <= 1.0:
            raise InvalidConfigError(
                f"retrieval_threshold must be in [0, 1], got {self.retrieval_threshold}"
            )
        self.compression_config()
        self.cluster_config(k=1, seed=self.seed)

    def cluster_config(self, k: int, seed: int) -> ClusterConfig:
        """The clustering run for ``k`` clusters seeded with ``seed``."""
        return ClusterConfig(
            k=k,
            alpha_time=self.alpha_time,
            max_iters=self.max_iters,
            epsilon=self.epsilon,
            seed=seed,
        )

    def compression_config(self) -> CompressionConfig:
        return CompressionConfig(theta=self.theta)

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, obj) -> "EngineConfig":
        return from_json(cls, obj, InvalidConfigError)

    @classmethod
    def from_file(cls, path) -> "EngineConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config file is not valid JSON: {exc}") from exc


@dataclass
class ProviderSet:
    """Optional injected providers; any left as None uses the local fallback.

    The exception is ``retrieval_mode="provider"``, which has no fallback and
    needs ``retriever``.
    """

    summarizer: Summarizer | None = None
    embedder: TextEmbedder | None = None
    retriever: Retriever | None = None
    generator: Generator | None = None


class _Stream:
    """What one replay carries from each prefix to the next (module docstring).

    It hands out the finished segments as slices of one block, joined once,
    and counts any future-frame access.  ``last`` is the latest completed
    prefix: its count and ``PrefixTable``.  ``clusterings`` holds the
    clusterings of the last ``WINDOW_SEGMENTS`` segment counts up to it, by
    count.  ``known`` is the memo of what completed questions built.
    ``simulate`` alone commits.
    """

    def __init__(self, manifest: SessionManifest, frames: Mapping[int, FrameBlock]):
        listed = [seg.segment_id for seg in manifest.segments]
        missing, unknown = sorted(set(listed) - set(frames)), sorted(set(frames) - set(listed))
        if missing or unknown:
            raise ManifestError(
                f"frames must cover exactly the manifest's segments: "
                f"missing {missing}, unknown {unknown}"
            )
        blocks = [FrameBlock.of(frames[segment_id]) for segment_id in listed]
        self._block = FrameBlock.of(blocks)
        self.dim = self._block.dim
        self._ends = [seg.end_s for seg in manifest.segments]
        self._stops = np.cumsum([0] + [len(b) for b in blocks]).tolist()
        self.violations = 0
        self.last: tuple[int, PrefixTable] | None = None
        self.clusterings: dict[int, ClusterResult] = {}
        # The memo's keys cannot collide: a summary's is its members (a tuple
        # of ints), a unit pair's (members, rank), a question vector's its text.
        self.known: dict = {}

    def frames_until(self, ask_time: float) -> tuple[int, FrameBlock]:
        """How many segments finished by ask_time, and all of their frames.

        Segments still open stay out entirely, even for their elapsed part;
        any returned frame stamped after ask_time counts as a violation.
        Segments are chronological and apart, so the finished ones are a
        prefix and their count names it.
        """
        finished = bisect.bisect_right(self._ends, ask_time)
        visible = self.prefix(finished)
        self.violations += int(np.count_nonzero(visible.timestamps > ask_time))
        return finished, visible

    def prefix(self, segments: int) -> FrameBlock:
        """The frames of the first ``segments`` segments."""
        return self._block[: self._stops[segments]]


def retrieval_policy(
    config: EngineConfig, retriever: Retriever | None
) -> Callable[[DialogueHistory, str, frozenset[int]], RetrievalOutput]:
    """The engine's one ``retrieval_mode`` dispatch, resolved before any question.

    Returns ``select(history, question, gold)``.  ``oracle`` selects the gold
    turns present in the history, ``provider`` asks ``retriever``, and
    ``fallback`` runs the lexical fallback at ``retrieval_threshold``.
    ``provider`` without a retriever raises ``InvalidConfigError`` here
    instead of quietly running the fallback.
    """
    if config.retrieval_mode == "oracle":
        return lambda history, question, gold: RetrievalOutput(
            selected_ids=gold & history.ids, delta=0
        )
    if config.retrieval_mode == "provider":
        if retriever is None:
            raise InvalidConfigError(
                "retrieval_mode 'provider' needs an injected retriever (ProviderSet.retriever)"
            )
        return lambda history, question, gold: retrieve(history, question, retriever)
    threshold = config.retrieval_threshold
    return lambda history, question, gold: retrieve(history, question, None, threshold=threshold)


def _clustering(stream: _Stream, finished: int, config: EngineConfig) -> ClusterResult:
    """The clustering of the first ``finished`` segments, a function of their frames.

    Up to ``WINDOW_SEGMENTS`` segments, and whenever the last
    ``WINDOW_SEGMENTS`` add no cluster to ``choose_k``, it runs from
    scratch.  Otherwise it keeps the clustering of the prefix that many
    segments shorter, carried or else computed here in turn, and clusters
    only the later frames.  Only the clusterings of the last
    ``WINDOW_SEGMENTS`` prefixes that a question completed are carried, so
    the cost stays flat only on a stream that asks at every prefix.  One
    that skips prefixes recomputes the frozen chain down to the last carried
    clustering, or the stream's start, and keeps none of it: a chain that
    grows with the stream.
    """
    carried = stream.clusterings.get(finished)
    if carried is not None:
        return carried
    visible = stream.prefix(finished)
    k = choose_k(len(visible), config.cluster_ratio)
    base = finished - WINDOW_SEGMENTS
    frozen = _clustering(stream, base, config) if base > 0 else None
    return cluster(visible, config.cluster_config(k, _question_seed(config.seed, finished)),
                   frozen=frozen if frozen is not None and frozen.k < k else None)


def _question_seed(base_seed: int, prefix: int) -> int:
    """Clustering seed for the visible prefix of ``prefix`` finished segments."""
    return int(np.random.SeedSequence([base_seed, prefix]).generate_state(1)[0])


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """One record per question, then the summary: session, stream, corpus fields, config."""

    records: tuple[dict, ...]
    summary: dict

    def lines(self, *, canonical: bool = False) -> list[str]:
        out = []
        for rec in self.records:
            body = dict(rec)
            if canonical:
                for key in VOLATILE_FIELDS:
                    body.pop(key, None)
            out.append(json.dumps({"kind": "record", **body}, sort_keys=True))
        out.append(json.dumps({"kind": "summary", **self.summary}, sort_keys=True))
        return out

    def canonical_bytes(self) -> bytes:
        return ("\n".join(self.lines(canonical=True)) + "\n").encode("utf-8")

    def write(self, path) -> None:
        Path(path).write_text("\n".join(self.lines()) + "\n")


def simulate(
    manifest: SessionManifest,
    stream_index: int,
    config: EngineConfig = EngineConfig(),
    *,
    frames: Mapping[int, FrameBlock | Sequence[FrameFeature]],
    providers: ProviderSet | None = None,
) -> SimulationReport:
    """Replay one dialogue stream end to end.

    ``frames`` maps each segment id to its frames, as ``load_session_frames``
    returns them; a segment id missing or not in the manifest, or segments
    that disagree on (patches, dim), raise before any question.  A
    ``StreamContextError`` inside one question's pipeline aborts that
    question (recorded with its error kind) and the stream moves on; the
    dialogue history then carries the dataset's gold answer so later
    questions still see the turn.  Any other exception is a bug
    and propagates.  The event table of the latest visible prefix, and the
    clusterings of the last ``WINDOW_SEGMENTS``, are kept for the next
    questions; event summaries, unit pairs and
    question vectors are kept for the rest of the stream (see the module
    docstring).  Each question stages what it builds, and only a question
    that completes commits it.
    """
    if not 0 <= stream_index < len(manifest.dialogue_streams):
        raise InvalidConfigError(
            f"stream_index {stream_index} out of range; manifest has "
            f"{len(manifest.dialogue_streams)} streams"
        )
    prov = providers or ProviderSet()
    select = retrieval_policy(config, prov.retriever)
    compression = config.compression_config()

    stream = _Stream(manifest, frames)
    qa_by_id = {qa.qa_id: qa for qa in manifest.qa_pool}
    history = DialogueHistory()
    path = manifest.dialogue_streams[stream_index]
    question_embedder = (HashingQuestionEmbedder(stream.dim) if prov.embedder is None
                         else prov.embedder)

    records: list[dict] = []
    for entry in path.entries:
        qa = qa_by_id[entry.qa_id]
        started = time.perf_counter()
        record: dict = {
            "qa_id": qa.qa_id,
            "qa_type": qa.qa_type,
            "ask_time": entry.ask_time,
            "history_size": len(history),
            "gold_relevant": sorted(entry.gold_relevant),
        }
        generated_answer: str | None = None
        memo = ChainMap({}, stream.known)
        try:
            finished, visible = stream.frames_until(entry.ask_time)
            if not len(visible):
                raise StreamContextError(
                    f"no finished segment before ask_time {entry.ask_time}"
                )
            # Ask times never decrease along a path (DialoguePath checks it),
            # so once a later prefix is visible no question returns to an
            # earlier one: the last completed prefix's table is the only one kept.
            if stream.last is not None and stream.last[0] == finished:
                table, result = stream.last[1], stream.clusterings[finished]
            else:
                result = _clustering(stream, finished, config)
                events = events_from(result, visible)
                summaries = [recall(memo, ev.frame_indices, embed_event, ev, prov.summarizer)
                             for ev in events]
                table = PrefixTable(events, summaries, memo)
            qvec = recall(memo, qa.question, embed_question, qa.question, question_embedder)
            visual = compress_stream(table, table.embeddings, qvec, compression)
            retrieval = select(history, qa.question, entry.gold_relevant)
            confusion = score_retrieval(retrieval, entry.gold_relevant, history.ids)
            selected_items = history.turns(retrieval.selected_ids)

            package = assemble(visual, selected_items, retrieval.delta, qa.question)
            answer_record = generate_answer(package, prov.generator, qa_id=qa.qa_id)
            generated_answer = answer_record.answer

            preserved = sum(unit.kind == PRESERVED for unit in visual)
            record.update(
                {
                    "num_frames": len(visible),
                    "k": result.k,
                    "cluster_iterations": result.iterations,
                    "cluster_delta": result.final_delta,
                    "num_events": len(table),
                    "preserved_events": preserved,
                    "pooled_events": len(visual) - preserved,
                    "compression_ratio": compression_ratio(visual),
                    "visual_tokens": answer_record.visual_tokens,
                    "text_tokens": answer_record.text_tokens,
                    "retrieval": {
                        "selected_ids": sorted(retrieval.selected_ids),
                        "delta": retrieval.delta,
                    },
                    "retrieval_confusion": confusion.to_dict(),
                    "answer": answer_record.answer,
                    "answer_provider": answer_record.provider_id,
                }
            )
            stream.last = (finished, table)
            stream.known.update(memo.maps[0])
            stream.clusterings = {prefix: r for prefix, r in stream.clusterings.items()
                                  if prefix > finished - WINDOW_SEGMENTS}
            stream.clusterings[finished] = result
        except StreamContextError as exc:
            error = record["error"] = {"type": type(exc).__name__, "message": str(exc)}
            # strings only: a log record holding exc would keep the stream alive
            logger.warning("question %d failed (%s: %s); continuing the stream",
                           qa.qa_id, error["type"], error["message"])
        record["wall_ms"] = (time.perf_counter() - started) * 1000.0
        records.append(record)

        spoken = qa.answer if (config.use_gold_answers or generated_answer is None) else generated_answer
        history.append(
            HistoryItem(qa_id=qa.qa_id, question=qa.question, answer=spoken, ask_time=entry.ask_time)
        )

    summary = {
        "video_id": manifest.video_id,
        "stream_index": stream_index,
        **summarize_records(records),
        "leakage_violations": stream.violations,
        "config": config.to_dict(),
    }
    return SimulationReport(records=tuple(records), summary=summary)


# ---------------------------------------------------------------------------
# report schema + evaluation

_CONFUSION_SCHEMA = {
    "type": "object",
    "required": ["tp", "fp", "fn", "tn", "accuracy", "precision", "recall", "f1"],
    "properties": {
        "tp": {"type": "integer", "minimum": 0},
        "fp": {"type": "integer", "minimum": 0},
        "fn": {"type": "integer", "minimum": 0},
        "tn": {"type": "integer", "minimum": 0},
        "accuracy": {"type": "number", "minimum": 0, "maximum": 1},
        "precision": {"type": "number", "minimum": 0, "maximum": 1},
        "recall": {"type": "number", "minimum": 0, "maximum": 1},
        "f1": {"type": "number", "minimum": 0, "maximum": 1},
    },
}

#: What ``simulate`` adds to a record when its question completes.
_COMPLETED_FIELDS = [
    "num_frames", "k", "cluster_iterations", "cluster_delta", "num_events", "preserved_events",
    "pooled_events", "compression_ratio", "visual_tokens", "text_tokens", "retrieval",
    "retrieval_confusion", "answer", "answer_provider",
]

_RECORD_SCHEMA = {
    "required": ["qa_id", "qa_type", "ask_time", "history_size", "gold_relevant"],
    # a record either failed or holds everything a completed question adds
    "if": {"required": ["error"]},
    "else": {"required": _COMPLETED_FIELDS},
    "properties": {
        "qa_id": {"type": "integer"},
        "qa_type": {"type": "string"},
        "ask_time": {"type": "number"},
        "history_size": {"type": "integer", "minimum": 0},
        "gold_relevant": {"type": "array", "items": {"type": "integer"}},
        "num_frames": {"type": "integer", "minimum": 1},
        "k": {"type": "integer", "minimum": 1},
        "cluster_iterations": {"type": "integer", "minimum": 1},
        "cluster_delta": {"type": "number", "minimum": 0},
        "num_events": {"type": "integer", "minimum": 1},
        "preserved_events": {"type": "integer", "minimum": 0},
        "pooled_events": {"type": "integer", "minimum": 0},
        "compression_ratio": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "visual_tokens": {"type": "integer", "minimum": 0},
        "text_tokens": {"type": "integer", "minimum": 0},
        "retrieval": {
            "type": "object",
            "required": ["selected_ids", "delta"],
            "properties": {
                "selected_ids": {"type": "array", "items": {"type": "integer"}},
                "delta": {"enum": [0, 1]},
            },
        },
        "retrieval_confusion": _CONFUSION_SCHEMA,
        "answer": {"type": "string", "minLength": 1},
        "answer_provider": {"type": "string"},
        "error": {
            "type": "object",
            "required": ["type", "message"],
            "properties": {"type": {"type": "string"}, "message": {"type": "string"}},
        },
        "wall_ms": {"type": "number", "minimum": 0},
    },
}

_SUMMARY_SCHEMA = {
    "required": ["video_id", "stream_index", "questions", "failed_questions", "leakage_violations"],
    "properties": {
        "video_id": {"type": "string"},
        "stream_index": {"type": "integer", "minimum": 0},
        "questions": {"type": "integer", "minimum": 0},
        "failed_questions": {"type": "integer", "minimum": 0},
        "leakage_violations": {"type": "integer", "minimum": 0},
        "retrieval": {"oneOf": [_CONFUSION_SCHEMA, {"type": "null"}]},
        "mean_compression_ratio": {"type": ["number", "null"]},
        "mean_tokens_per_question": {"type": ["number", "null"]},
        "config": {"type": "object"},
    },
}

#: A report line is a record or the summary; its ``kind`` picks the schema.
REPORT_LINE_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": ["record", "summary"]}},
    "allOf": [
        {"if": {"required": ["kind"], "properties": {"kind": {"const": kind}}}, "then": schema}
        for kind, schema in (("record", _RECORD_SCHEMA), ("summary", _SUMMARY_SCHEMA))
    ],
}


def validate_report(report: SimulationReport | Sequence[str | dict]) -> None:
    """Check every report line against the schema; raises on the first defect.

    One validator serves every line; ``REPORT_LINE_SCHEMA`` itself is
    checked against its meta-schema by a test, not here.
    """
    import jsonschema

    validator = jsonschema.Draft202012Validator(REPORT_LINE_SCHEMA)
    lines = report.lines() if isinstance(report, SimulationReport) else list(report)
    for line in lines:
        obj = json.loads(line) if isinstance(line, str) else line
        error = jsonschema.exceptions.best_match(validator.iter_errors(obj))
        if error is not None:
            raise error


def load_report_records(path) -> list[dict]:
    """Records (not the summary) from a JSON-lines report file.

    Every line must pass ``validate_report``; a line that is not JSON or not
    a report line is a ``ValueError`` naming the file.
    """
    import jsonschema

    try:
        objs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
        validate_report(objs)
    except json.JSONDecodeError as exc:
        raise ValueError(f"report {path}: {exc}") from exc
    except jsonschema.ValidationError as exc:
        raise ValueError(f"report {path}: {exc.message}") from exc
    return [obj for obj in objs if obj["kind"] == "record"]


def summarize_records(records: Sequence[dict]) -> dict:
    """The corpus fields a report summary and ``evaluate`` share.

    Retrieval confusions micro-aggregate; compression ratios and token
    totals average over questions that completed.
    """
    ok = [r for r in records if "error" not in r]
    confusions = [
        RetrievalMetrics(**{key: r["retrieval_confusion"][key] for key in ("tp", "fp", "fn", "tn")})
        for r in ok
    ]
    corpus = micro_metrics(confusions) if confusions else None
    return {
        "questions": len(records),
        "failed_questions": len(records) - len(ok),
        "retrieval": corpus.to_dict() if corpus else None,
        "mean_compression_ratio": (
            float(np.mean([r["compression_ratio"] for r in ok])) if ok else None
        ),
        "mean_tokens_per_question": (
            float(np.mean([r["visual_tokens"] + r["text_tokens"] for r in ok])) if ok else None
        ),
    }


def evaluate(record_sets: Sequence[Sequence[dict]]) -> dict:
    """Corpus metrics across one or more reports' records (``summarize_records``)."""
    all_records = [rec for records in record_sets for rec in records]
    if not all_records:
        raise ValueError("no records to evaluate")
    return summarize_records(all_records)
