"""Synthetic sessions with planted structure, for tests and offline demos.

The generator plants everything a real annotated session would have, in a
form whose ground truth is known exactly:

* frames drawn around well-separated per-event feature centers, laid out as
  contiguous time blocks (so clustering should recover the events);
* a QA pool whose relevance scores are sampled strictly above the relevant
  threshold for planted dependencies and strictly below it otherwise (so
  thresholding reproduces the planted relevant sets);
* one or more dialogue streams sampled with the real path generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvalidConfigError
from .paths import PathConfig, attach_streams
from .store import (
    FrameBlock,
    QARecord,
    SegmentMeta,
    SessionManifest,
    save_embeddings,
    save_manifest,
)

_NOUNS = (
    "lamp", "kettle", "bicycle", "sparrow", "ladder", "compass", "teapot",
    "umbrella", "violin", "lantern", "satchel", "falcon", "anvil", "mirror",
    "barrel", "whistle", "carpet", "easel", "pulley", "canoe",
)
_COLORS = ("red", "blue", "green", "amber", "violet", "copper", "ivory", "slate")
_VERBS = ("polished", "repaired", "carried", "opened", "folded", "tuned", "stacked", "rinsed")
_PLACES = ("workbench", "windowsill", "counter", "shelf", "doorway", "courtyard")

_BASIC_TYPES = ("attributes", "objects", "actions", "co-reference")
_STREAMING_TYPES = (
    "sequence-perception",
    "dialogue-recalling",
    "dynamic-updating",
    "object-tracking",
    "causal-reasoning",
)
_GLOBAL_TYPES = ("global-analysis", "overall-summary")

#: Feature-space scale of planted event centers vs. within-event noise.
_CENTER_SCALE = 10.0
_NOISE_SCALE = 0.1
#: Length of every synthetic segment, in seconds.
_SEGMENT_SECONDS = 10.0


@dataclass(frozen=True)
class SyntheticSpec:
    segments: int = 5
    frames_per_segment: int = 10
    patches: int = 2
    dim: int = 8
    events_per_segment: int = 2
    basic_per_segment: int = 2
    streaming_per_segment: int = 2
    global_count: int = 0
    num_streams: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.segments < 1 or self.frames_per_segment < 1:
            raise InvalidConfigError("need at least one segment and one frame per segment")
        if self.patches < 1 or self.dim < 1:
            raise InvalidConfigError("patches and dim must be >= 1")
        if not 1 <= self.events_per_segment <= self.frames_per_segment:
            raise InvalidConfigError("events_per_segment must be in [1, frames_per_segment]")
        if min(self.basic_per_segment, self.streaming_per_segment, self.global_count) < 0:
            raise InvalidConfigError("QA counts must be >= 0")
        if self.num_streams < 1:
            raise InvalidConfigError("num_streams must be >= 1")


@dataclass(frozen=True, eq=False)
class SyntheticSession:
    """A generated session plus the ground truth it was built from."""

    manifest: SessionManifest
    frames: dict[int, FrameBlock]
    planted_events: list[int]  # per frame, chronological across segments
    out_dir: Path | None = None


def _noun(qa_id: int) -> str:
    return _NOUNS[(qa_id - 1) % len(_NOUNS)]


def _basic_qa(qa_id: int, segment_id: int, qa_type: str) -> tuple[str, str]:
    noun = _noun(qa_id)
    color = _COLORS[(qa_id - 1) % len(_COLORS)]
    verb = _VERBS[(qa_id - 1) % len(_VERBS)]
    place = _PLACES[(qa_id - 1) % len(_PLACES)]
    if qa_type == "attributes":
        return (f"What color is the {noun} shown now?", f"The {noun} is {color}.")
    if qa_type == "objects":
        return (f"What object sits on the {place}?", f"A {color} {noun} sits on the {place}.")
    if qa_type == "actions":
        return (f"What is being done with the {noun}?", f"The {noun} is being {verb}.")
    return (f"Which item near the {place} is it pointing at?", f"It refers to the {noun}.")


def _streaming_qa(qa_id: int, qa_type: str, anchors: list[QARecord]) -> tuple[str, str]:
    anchor_nouns = sorted({_noun(a.qa_id) for a in anchors}) or [_noun(qa_id)]
    named = " and ".join(anchor_nouns)
    if qa_type == "dialogue-recalling":
        return (
            f"What did I ask about the {named} earlier?",
            f"You asked about the {named}; I described it then.",
        )
    if qa_type == "sequence-perception":
        return (
            f"In what order did things happen to the {named}?",
            f"First the {named} appeared, then it was handled.",
        )
    if qa_type == "dynamic-updating":
        return (
            f"How has the {named} changed since it first appeared?",
            f"The {named} moved and its state changed.",
        )
    if qa_type == "object-tracking":
        return (
            f"Where is the {named} now compared to before?",
            f"The {named} moved to a new spot.",
        )
    return (
        f"Why was the {named} handled that way?",
        f"Because of what happened to the {named} earlier.",
    )


def _global_qa(qa_id: int, qa_type: str) -> tuple[str, str]:
    if qa_type == "global-analysis":
        return (
            "Which object received the most attention across the whole stream?",
            "Several objects recurred; one stood out across segments.",
        )
    return (
        "Summarize everything that happened in the video.",
        "Objects were introduced segment by segment and handled in turn.",
    )


def _planted_scores(
    rng: np.random.Generator, priors: list[QARecord], max_relevant: int
) -> tuple[frozenset[int], dict[int, float], list[QARecord]]:
    """Pick relevant priors (scores strictly above 4) and distractors (below)."""
    if not priors or max_relevant < 1:
        return frozenset(), {}, []
    n_rel = int(rng.integers(1, min(max_relevant, len(priors)) + 1))
    order = rng.permutation(len(priors))
    relevant = [priors[i] for i in order[:n_rel]]
    distractors = [priors[i] for i in order[n_rel : n_rel + 2]]
    scores: dict[int, float] = {}
    for qa in relevant:
        scores[qa.qa_id] = round(float(rng.uniform(4.5, 7.0)), 3)
    for qa in distractors:
        scores[qa.qa_id] = round(float(rng.uniform(0.0, 3.5)), 3)
    return frozenset(qa.qa_id for qa in relevant), scores, relevant


def build_synthetic(spec: SyntheticSpec = SyntheticSpec()) -> SyntheticSession:
    """Generate a session in memory; see make_synthetic to also write it out."""
    rng = np.random.default_rng(spec.seed)

    segments = []
    frames: dict[int, FrameBlock] = {}
    planted: list[int] = []
    event_label = 0
    for s in range(1, spec.segments + 1):
        start = (s - 1) * _SEGMENT_SECONDS
        end = s * _SEGMENT_SECONDS
        step = _SEGMENT_SECONDS / spec.frames_per_segment
        # contiguous frame blocks per event, sized as evenly as possible
        block = spec.frames_per_segment / spec.events_per_segment
        centers = [
            rng.normal(0.0, _CENTER_SCALE, size=(spec.patches, spec.dim))
            for _ in range(spec.events_per_segment)
        ]
        feats, stamps = [], []
        for i in range(spec.frames_per_segment):
            which = min(int(i / block), spec.events_per_segment - 1)
            feats.append(centers[which] + rng.normal(0.0, _NOISE_SCALE, size=(spec.patches, spec.dim)))
            stamps.append(start + i * step)
            planted.append(event_label + which)
        event_label += spec.events_per_segment
        frames[s] = FrameBlock(stamps, np.asarray(feats, dtype=np.float32))
        segments.append(
            SegmentMeta(
                segment_id=s,
                start_s=start,
                end_s=end,
                embedding_ref=f"embeddings/segment_{s:03d}.bin",
            )
        )

    pool: list[QARecord] = []
    qa_id = 0
    for s in range(1, spec.segments + 1):
        earlier = [qa for qa in pool if qa.segment_id < s]
        for b in range(spec.basic_per_segment):
            qa_id += 1
            qa_type = _BASIC_TYPES[(qa_id - 1) % len(_BASIC_TYPES)]
            question, ans = _basic_qa(qa_id, s, qa_type)
            pool.append(QARecord(qa_id, s, qa_type, question, ans))
        for c in range(spec.streaming_per_segment):
            qa_id += 1
            qa_type = _STREAMING_TYPES[(qa_id - 1) % len(_STREAMING_TYPES)]
            relevant, scores, anchors = _planted_scores(rng, earlier, max_relevant=2)
            question, ans = _streaming_qa(qa_id, qa_type, anchors)
            pool.append(
                QARecord(qa_id, s, qa_type, question, ans,
                         relevant_ids=relevant, relevance_scores=scores)
            )
        if s == spec.segments:
            for g in range(spec.global_count):
                qa_id += 1
                qa_type = _GLOBAL_TYPES[g % len(_GLOBAL_TYPES)]
                relevant, scores, _ = _planted_scores(rng, earlier, max_relevant=3)
                question, ans = _global_qa(qa_id, qa_type)
                pool.append(
                    QARecord(qa_id, s, qa_type, question, ans,
                             relevant_ids=relevant, relevance_scores=scores)
                )

    manifest = attach_streams(
        SessionManifest(video_id=f"synthetic-{spec.seed}", segments=segments, qa_pool=pool),
        PathConfig(num_paths=spec.num_streams, seed=spec.seed),
    )
    return SyntheticSession(manifest=manifest, frames=frames, planted_events=planted)


def make_synthetic(spec: SyntheticSpec = SyntheticSpec(), out_dir=None) -> SyntheticSession:
    """Generate a session and, if ``out_dir`` is given, write it to disk.

    Layout: ``<out_dir>/manifest.json`` plus one binary embedding file per
    segment under ``<out_dir>/embeddings/``.
    """
    session = build_synthetic(spec)
    if out_dir is None:
        return session
    out = Path(out_dir)
    (out / "embeddings").mkdir(parents=True, exist_ok=True)
    for seg in session.manifest.segments:
        save_embeddings(out / seg.embedding_ref, session.frames[seg.segment_id])
    save_manifest(out / "manifest.json", session.manifest)
    return replace(session, out_dir=out)
