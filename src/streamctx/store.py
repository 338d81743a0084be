"""Data model, vector primitives, and on-disk formats for frame streams.

Binary frame-embedding format (little-endian throughout)::

    magic    4 bytes   b"CGSE"
    version  u32       currently 1
    N        u32       number of frames
    P        u32       patch rows per frame (>= 1)
    D        u32       feature dimension (>= 1)
    stamps   N * f64   per-frame timestamps, non-decreasing, seconds
    features N*P*D f32 frame-major, row-major within each frame

The session manifest is JSON with an explicit ``schema_version`` field; its
keys match the dataclass field names below.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    DegenerateVectorError,
    DimensionMismatchError,
    EmbeddingFormatError,
    ManifestError,
    NonFiniteValueError,
    TimestampOrderError,
    TruncatedPayloadError,
    VersionMismatchError,
)

MAGIC = b"CGSE"
FORMAT_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1

_HEADER = struct.Struct("<4sIIII")

#: Question categories, grouped into the three difficulty tiers the path
#: generator samples from.
QA_TIERS: Mapping[str, str] = {
    "attributes": "basic",
    "objects": "basic",
    "actions": "basic",
    "co-reference": "basic",
    "sequence-perception": "streaming",
    "dialogue-recalling": "streaming",
    "dynamic-updating": "streaming",
    "object-tracking": "streaming",
    "causal-reasoning": "streaming",
    "global-analysis": "global",
    "overall-summary": "global",
}


# ---------------------------------------------------------------------------
# core types


class FrameBlock:
    """N frames as read-only columns: ``timestamps`` (N,) float64 and
    ``features`` (N, P, D) float32.

    The constructor is the one place the frame rules are checked: P, D >= 1,
    one timestamp per frame, finite values and timestamps >= 0.  Time order
    is a rule of the file format, not of a block: clustering takes frames in
    any order.  A slice or an index array gives a block over the same frames,
    not checked again; an int gives one ``FrameFeature``.
    """

    __slots__ = ("timestamps", "features")

    def __init__(self, timestamps, features):
        feats = np.ascontiguousarray(features, dtype=np.float32)
        stamps = np.ascontiguousarray(timestamps, dtype=np.float64)
        if feats.ndim != 3 or min(feats.shape[1:]) < 1 or stamps.shape != feats.shape[:1]:
            raise DimensionMismatchError(
                f"frames need (N, patches >= 1, dim >= 1) features and (N,) timestamps, "
                f"got {feats.shape} and {stamps.shape}"
            )
        if not np.isfinite(feats).all():
            raise NonFiniteValueError("frame features contain NaN or infinite values")
        if not np.isfinite(stamps).all() or (stamps < 0).any():
            raise NonFiniteValueError("frame timestamps must be finite and >= 0")
        self._hold(stamps, feats)

    def _hold(self, stamps: np.ndarray, feats: np.ndarray) -> "FrameBlock":
        for name, arr in (("timestamps", stamps), ("features", feats)):
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        return self

    @staticmethod
    def _trusted(stamps: np.ndarray, feats: np.ndarray) -> "FrameBlock":
        """A block over arrays taken from checked blocks, not checked again."""
        return object.__new__(FrameBlock)._hold(stamps, feats)

    @staticmethod
    def of(frames) -> "FrameBlock":
        """``frames`` as one block: a block as it is, or a sequence of frames
        or blocks joined in order, which must share one (P, D)."""
        if isinstance(frames, FrameBlock):
            return frames
        parts = list(frames)
        shapes = sorted({part.features.shape[1:] for part in parts})
        if len(shapes) != 1:
            raise DimensionMismatchError(f"frames must share one (patches, dim), got {shapes}")
        stamps = np.concatenate([part.timestamps for part in parts])
        return FrameBlock._trusted(stamps, np.concatenate([part.features for part in parts]))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return FrameFeature(self.features[index], self.timestamps[index])
        return self._trusted(self.timestamps[index], self.features[index])

    @property
    def num_patches(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]


class FrameFeature(FrameBlock):
    """One frame, a (patches, dim) float32 matrix and its timestamp, as a one-frame block."""

    __slots__ = ()

    def __init__(self, patches, timestamp: float):
        super().__init__([timestamp], np.asarray(patches, dtype=np.float32)[None])

    @property
    def patches(self) -> np.ndarray:
        return self.features[0]

    @property
    def timestamp(self) -> float:
        return float(self.timestamps[0])

    def flat(self) -> np.ndarray:
        """The patch matrix flattened row-major to a (patches * dim,) vector."""
        return self.features.reshape(-1)


@dataclass(frozen=True)
class SegmentMeta:
    segment_id: int
    start_s: float
    end_s: float
    embedding_ref: str

    def __post_init__(self):
        if self.segment_id < 1:
            raise ManifestError(f"segment_id must be >= 1, got {self.segment_id}")
        if not (np.isfinite(self.start_s) and np.isfinite(self.end_s)):
            raise ManifestError("segment bounds must be finite")
        if not self.start_s < self.end_s:
            raise ManifestError(
                f"segment {self.segment_id}: start_s ({self.start_s}) must be < end_s ({self.end_s})"
            )


@dataclass(frozen=True)
class QARecord:
    """A question/answer annotation attached to one video segment.

    ``relevance_scores`` maps earlier qa_ids to scores in [0, 7];
    ``relevant_ids`` is the thresholded subset actually treated as context.
    """

    qa_id: int
    segment_id: int
    qa_type: str
    question: str
    answer: str
    relevant_ids: frozenset[int] = frozenset()
    relevance_scores: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.question, str) and self.question.strip()):
            raise ManifestError(f"qa {self.qa_id}: question must be non-empty text")
        if self.qa_type not in QA_TIERS:
            raise ManifestError(
                f"qa {self.qa_id}: unknown qa_type {self.qa_type!r}; "
                f"expected one of {sorted(QA_TIERS)}"
            )
        object.__setattr__(self, "relevant_ids", frozenset(int(i) for i in self.relevant_ids))
        scores = {int(k): float(v) for k, v in dict(self.relevance_scores).items()}
        for other, score in scores.items():
            if not np.isfinite(score) or not 0.0 <= score <= 7.0:
                raise ManifestError(
                    f"qa {self.qa_id}: relevance score for {other} must be in [0, 7], got {score}"
                )
        object.__setattr__(self, "relevance_scores", scores)

    @property
    def tier(self) -> str:
        return QA_TIERS[self.qa_type]


@dataclass(frozen=True)
class PathEntry:
    """One turn of a dialogue stream: a question asked at a point in time."""

    qa_id: int
    ask_time: float
    gold_relevant: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "gold_relevant", frozenset(int(i) for i in self.gold_relevant))


@dataclass(frozen=True)
class DialoguePath:
    """An ordered dialogue stream over a session's QA pool.

    Entries are chronological, qa_ids never repeat, and every gold relevant
    set only references questions asked earlier on the same path.
    """

    entries: tuple[PathEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[int] = set()
        last_time = -np.inf
        for entry in self.entries:
            if entry.qa_id in seen:
                raise ManifestError(f"dialogue path repeats qa_id {entry.qa_id}")
            if entry.ask_time < last_time:
                raise ManifestError(
                    f"dialogue path ask times must be non-decreasing (qa_id {entry.qa_id})"
                )
            if not entry.gold_relevant <= seen:
                raise ManifestError(
                    f"qa {entry.qa_id}: gold relevant set references questions "
                    "not asked earlier on this path"
                )
            seen.add(entry.qa_id)
            last_time = entry.ask_time

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def qa_ids(self) -> tuple[int, ...]:
        return tuple(e.qa_id for e in self.entries)


@dataclass(frozen=True)
class SessionManifest:
    video_id: str
    segments: tuple[SegmentMeta, ...]
    qa_pool: tuple[QARecord, ...]
    dialogue_streams: tuple[DialoguePath, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "qa_pool", tuple(self.qa_pool))
        object.__setattr__(self, "dialogue_streams", tuple(self.dialogue_streams))
        self.validate()

    def validate(self) -> None:
        seg_ids = [s.segment_id for s in self.segments]
        if len(set(seg_ids)) != len(seg_ids):
            raise ManifestError("duplicate segment_id in manifest")
        ordered = sorted(self.segments, key=lambda s: s.start_s)
        if [s.segment_id for s in ordered] != seg_ids:
            raise ManifestError("segments must be listed in chronological order")
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start_s < prev.end_s:
                raise ManifestError(
                    f"segments {prev.segment_id} and {cur.segment_id} overlap in time"
                )

        seg_by_id = {s.segment_id: s for s in self.segments}
        qa_ids = [qa.qa_id for qa in self.qa_pool]
        if len(set(qa_ids)) != len(qa_ids):
            raise ManifestError("duplicate qa_id in qa_pool")
        qa_by_id = {qa.qa_id: qa for qa in self.qa_pool}
        for qa in self.qa_pool:
            if qa.segment_id not in seg_by_id:
                raise ManifestError(f"qa {qa.qa_id} references unknown segment {qa.segment_id}")
            for other in set(qa.relevant_ids) | set(qa.relevance_scores):
                ref = qa_by_id.get(other)
                if ref is None:
                    raise ManifestError(f"qa {qa.qa_id} references unknown qa_id {other}")
                if ref.segment_id >= qa.segment_id:
                    raise ManifestError(
                        f"qa {qa.qa_id}: related qa {other} must come from an earlier segment"
                    )
        for stream in self.dialogue_streams:
            for entry in stream.entries:
                if entry.qa_id not in qa_by_id:
                    raise ManifestError(
                        f"dialogue stream references unknown qa_id {entry.qa_id}"
                    )


def with_updated_pool(manifest: SessionManifest, pool: Sequence[QARecord]) -> SessionManifest:
    return replace(manifest, qa_pool=tuple(pool))


# ---------------------------------------------------------------------------
# vector primitives


def cosine(a, b) -> float:
    """Cosine similarity of two equal-length 1-D vectors, clipped to [-1, 1].

    Raises:
        DimensionMismatchError: if the vectors differ in length.
        DegenerateVectorError: if either vector has zero norm; the caller
            decides what a degenerate score means in its own context.
    """
    va = np.asarray(a, dtype=np.float64).reshape(-1)
    vb = np.asarray(b, dtype=np.float64).reshape(-1)
    if va.shape != vb.shape:
        raise DimensionMismatchError(f"cosine: shapes {va.shape} and {vb.shape} differ")
    norm_a = float(np.linalg.norm(va))
    norm_b = float(np.linalg.norm(vb))
    if norm_a == 0.0 or norm_b == 0.0:
        raise DegenerateVectorError("cosine similarity is undefined for zero-norm vectors")
    return float(np.clip(float(va @ vb) / (norm_a * norm_b), -1.0, 1.0))


def mean_pool(rows) -> np.ndarray:
    """Element-wise mean over the first axis of a non-empty (n, d) stack."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.size == 0 or arr.shape[0] == 0:
        raise ValueError("mean_pool requires at least one row")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr.mean(axis=0)


def minmax_normalize(values) -> np.ndarray:
    """Rescale values to [0, 1]; a constant input maps to all zeros."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("minmax_normalize requires at least one value")
    low = arr.min()
    span = arr.max() - low
    if span == 0.0:
        return np.zeros_like(arr)
    return (arr - low) / span


# ---------------------------------------------------------------------------
# binary embedding files


def save_embeddings(path, frames: FrameBlock | Sequence[FrameFeature]) -> None:
    """Write frames to ``path`` in the binary format documented above.

    Timestamps must be non-decreasing: the writer rejects what the reader would.
    """
    block = FrameBlock.of(frames)
    if np.any(np.diff(block.timestamps) < 0):
        raise TimestampOrderError("frame timestamps must be non-decreasing")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, *block.features.shape))
        fh.write(block.timestamps.astype("<f8", copy=False).tobytes())
        fh.write(block.features.astype("<f4", copy=False).tobytes())


def load_embeddings(path) -> FrameBlock:
    """Read a frame-embedding file, raising a distinct error per defect kind.

    The block's features view the file's bytes; only the timestamps, which
    sit at an offset no float64 is aligned to, are copied.
    """
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != MAGIC:
        if len(data) >= 4:
            raise BadMagicError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
        raise TruncatedPayloadError(f"file is {len(data)} bytes, too short for a header")
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError(
            f"header needs {_HEADER.size} bytes, file has {len(data)}"
        )
    _, version, n, p, d = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"unsupported format version {version}, expected {FORMAT_VERSION}")
    if p < 1 or d < 1:
        raise EmbeddingFormatError(f"patch shape ({p}, {d}) must be at least (1, 1)")
    expected = _HEADER.size + 8 * n + 4 * n * p * d
    if len(data) < expected:
        raise TruncatedPayloadError(
            f"payload truncated: need {expected} bytes for {n} frames, file has {len(data)}"
        )
    if len(data) > expected:
        raise EmbeddingFormatError(
            f"{len(data) - expected} trailing bytes after the declared payload"
        )
    stamps = np.frombuffer(data, dtype="<f8", count=n, offset=_HEADER.size).astype(np.float64)
    feats = np.frombuffer(data, dtype="<f4", count=n * p * d, offset=_HEADER.size + 8 * n)
    if np.any(np.diff(stamps) < 0):
        raise TimestampOrderError("frame timestamps decrease within the file")
    return FrameBlock(stamps, feats.reshape(n, p, d))


# ---------------------------------------------------------------------------
# manifest JSON


def _qa_to_dict(qa: QARecord) -> dict:
    return {
        "qa_id": qa.qa_id,
        "segment_id": qa.segment_id,
        "qa_type": qa.qa_type,
        "question": qa.question,
        "answer": qa.answer,
        "relevant_ids": sorted(qa.relevant_ids),
        "relevance_scores": {str(k): v for k, v in sorted(qa.relevance_scores.items())},
    }


def _qa_from_dict(obj: Mapping) -> QARecord:
    return QARecord(
        qa_id=int(obj["qa_id"]),
        segment_id=int(obj["segment_id"]),
        qa_type=obj["qa_type"],
        question=obj["question"],
        answer=obj["answer"],
        relevant_ids=frozenset(int(i) for i in obj.get("relevant_ids", ())),
        relevance_scores={int(k): float(v) for k, v in obj.get("relevance_scores", {}).items()},
    )


def manifest_to_dict(manifest: SessionManifest) -> dict:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "video_id": manifest.video_id,
        "segments": [
            {
                "segment_id": s.segment_id,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "embedding_ref": s.embedding_ref,
            }
            for s in manifest.segments
        ],
        "qa_pool": [_qa_to_dict(qa) for qa in manifest.qa_pool],
        "dialogue_streams": [
            {
                "entries": [
                    {
                        "qa_id": e.qa_id,
                        "ask_time": e.ask_time,
                        "gold_relevant": sorted(e.gold_relevant),
                    }
                    for e in stream.entries
                ]
            }
            for stream in manifest.dialogue_streams
        ],
    }


def manifest_from_dict(obj: Mapping) -> SessionManifest:
    try:
        version = obj["schema_version"]
        if version != MANIFEST_SCHEMA_VERSION:
            raise ManifestError(f"unsupported manifest schema_version {version}")
        segments = tuple(
            SegmentMeta(
                segment_id=int(s["segment_id"]),
                start_s=float(s["start_s"]),
                end_s=float(s["end_s"]),
                embedding_ref=s["embedding_ref"],
            )
            for s in obj["segments"]
        )
        qa_pool = tuple(_qa_from_dict(q) for q in obj["qa_pool"])
        streams = tuple(
            DialoguePath(
                entries=tuple(
                    PathEntry(
                        qa_id=int(e["qa_id"]),
                        ask_time=float(e["ask_time"]),
                        gold_relevant=frozenset(int(i) for i in e.get("gold_relevant", ())),
                    )
                    for e in stream["entries"]
                )
            )
            for stream in obj.get("dialogue_streams", ())
        )
        return SessionManifest(
            video_id=obj["video_id"],
            segments=segments,
            qa_pool=qa_pool,
            dialogue_streams=streams,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"malformed manifest: {exc}") from exc


def save_manifest(path, manifest: SessionManifest) -> None:
    Path(path).write_text(json.dumps(manifest_to_dict(manifest), indent=2) + "\n")


def load_manifest(path) -> SessionManifest:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    return manifest_from_dict(obj)


def load_session_frames(manifest: SessionManifest, base_dir) -> dict[int, FrameBlock]:
    """Load every segment's frames, resolving refs relative to ``base_dir``.

    Frames must stay within their segment's [start_s, end_s] window and
    segments must not interleave in time, so the concatenation over segments
    is itself chronological.
    """
    base = Path(base_dir)
    out: dict[int, FrameBlock] = {}
    for seg in manifest.segments:
        block = load_embeddings(base / seg.embedding_ref)
        outside = (block.timestamps < seg.start_s) | (block.timestamps > seg.end_s)
        if outside.any():
            raise ManifestError(
                f"segment {seg.segment_id}: frame at t={block.timestamps[outside.argmax()]} "
                f"falls outside [{seg.start_s}, {seg.end_s}]"
            )
        out[seg.segment_id] = block
    return out
