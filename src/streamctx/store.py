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

import dataclasses
import inspect
import json
import re
import struct
import typing
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DimensionMismatchError,
    EmbeddingFormatError,
    ManifestError,
    NonFiniteValueError,
    TimestampOrderError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .text import has_word

MAGIC = b"CGSE"
FORMAT_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1

_HEADER = struct.Struct("<4sIIII")

#: An int id as JSON writes a key: ``relevance_scores`` keys are text.
_ID_TEXT = re.compile(r"0|-?[1-9][0-9]*")

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
        check_fields(self, ManifestError)
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
        check_fields(self, ManifestError)
        if not has_word(self.question):
            raise ManifestError(f"qa {self.qa_id}: question must hold a word, got {self.question!r}")
        if self.qa_type not in QA_TIERS:
            raise ManifestError(
                f"qa {self.qa_id}: unknown qa_type {self.qa_type!r}; "
                f"expected one of {sorted(QA_TIERS)}"
            )
        _hold_ids(self, "relevant_ids")
        if not isinstance(self.relevance_scores, Mapping):
            raise ManifestError(f"qa {self.qa_id}: relevance_scores must be an object")
        scores = {}
        for key, score in self.relevance_scores.items():
            other = int(key) if isinstance(key, str) and _ID_TEXT.fullmatch(key) else key
            if not (json_typed(other, int) and json_typed(score, float) and 0.0 <= score <= 7.0):
                raise ManifestError(
                    f"qa {self.qa_id}: relevance score keys must be int ids and scores "
                    f"in [0, 7], got {key!r}: {score!r}"
                )
            scores[other] = float(score)
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
        check_fields(self, ManifestError)
        _hold_ids(self, "gold_relevant")


def _hold_ids(record, name: str) -> None:
    """Store ``record.name``, a collection of int ids, as a frozenset."""
    ids = getattr(record, name)
    if not isinstance(ids, (list, tuple, set, frozenset)) or (
        ids and not all(json_typed(i, int) for i in ids)  # most id sets are empty
    ):
        raise ManifestError(f"{type(record).__name__}.{name} must be a list of int ids, got {ids!r}")
    object.__setattr__(record, name, frozenset(ids))


@dataclass(frozen=True)
class DialoguePath:
    """An ordered dialogue stream over a session's QA pool.

    Entries are chronological at finite times, qa_ids never repeat, and every
    gold relevant set only references questions asked earlier on the same path.
    """

    entries: tuple[PathEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[int] = set()
        last_time = -np.inf
        for entry in self.entries:
            if entry.qa_id in seen:
                raise ManifestError(f"dialogue path repeats qa_id {entry.qa_id}")
            if not last_time <= entry.ask_time < np.inf:  # a NaN compares False
                raise ManifestError(
                    f"dialogue path ask times must be finite and non-decreasing (qa_id {entry.qa_id})"
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
        check_fields(self, ManifestError)
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "qa_pool", tuple(self.qa_pool))
        object.__setattr__(self, "dialogue_streams", tuple(self.dialogue_streams))
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


# ---------------------------------------------------------------------------
# vector primitives


def mean_pool(rows) -> np.ndarray:
    """Element-wise mean over the first axis of a non-empty (n, d) stack."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"mean_pool requires a non-empty (n, d) stack, got shape {arr.shape}")
    return arr.mean(axis=0)


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
    if p < 1 or d < 1 or 4 * p * d > np.iinfo(np.intp).max:
        raise EmbeddingFormatError(f"patch shape ({p}, {d}) must be at least (1, 1) and fit one array")
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
# records as JSON


def json_typed(value, kind: type) -> bool:
    """``value`` has the JSON type of ``kind``: bools are not numbers, ints count as floats."""
    if type(value) is kind:
        return True
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _typed_fields(cls) -> tuple[tuple, tuple]:
    """A record class's fields annotated int, float, str or bool as (name,
    type), and its ``tuple[R, ...]`` fields as (name, R); built once per
    class and kept on the class itself."""
    typed = cls.__dict__.get("_json_fields")
    if typed is None:
        scalars, records = [], []
        for name, hint in typing.get_type_hints(cls).items():
            item = typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else None
            if hint in (int, float, str, bool):
                scalars.append((name, hint))
            elif dataclasses.is_dataclass(item):
                records.append((name, item))
        typed = cls._json_fields = (tuple(scalars), tuple(records))
    return typed


def check_fields(record, error: type[Exception]) -> None:
    """Raise ``error`` unless each field of ``record`` annotated int, float,
    str or bool holds that JSON type (``json_typed``); a number in a float
    field is stored as a float, so equal records encode to equal bytes."""
    for name, kind in _typed_fields(type(record))[0]:
        value = getattr(record, name)
        if type(value) is not kind:  # the exact type skips the checks
            if not json_typed(value, kind):
                raise error(f"{type(record).__name__}.{name} must be a {kind.__name__}, got {value!r}")
            if kind is float:
                object.__setattr__(record, name, float(value))


def from_json(cls, obj, error: type[Exception]):
    """The ``cls`` record that the JSON object ``obj`` describes.

    A ``tuple[R, ...]`` field holds a list of ``R`` objects, decoded the same
    way.  A value that is not an object, a missing key or an unknown key
    raises ``error`` at any level; the record's constructor checks the values.
    """
    if not isinstance(obj, dict):
        raise error(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    values = obj
    for name, item in _typed_fields(cls)[1]:
        if name in obj:
            if not isinstance(obj[name], list):
                raise error(f"{cls.__name__}.{name} must be a list of {item.__name__} objects")
            values = {**values, name: tuple(from_json(item, each, error) for each in obj[name])}
    try:
        return cls(**values)
    except TypeError:
        # The keys are checked only once the constructor refuses them, off
        # the path every valid record takes.
        try:
            inspect.signature(cls).bind(**values)
        except TypeError as exc:
            raise error(f"{cls.__name__}: {exc}") from None
        raise


def encode(value):
    """A record as a JSON object, keys in field order; inside it, record
    tuples become lists, id sets sorted lists, and score maps objects sorted
    by id with the ids as text."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [encode(each) for each in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, Mapping):
        return {str(k): v for k, v in sorted(value.items())}
    return value


def manifest_to_dict(manifest: SessionManifest) -> dict:
    return {"schema_version": MANIFEST_SCHEMA_VERSION, **encode(manifest)}


def manifest_from_dict(obj) -> SessionManifest:
    if not isinstance(obj, dict):
        raise ManifestError(f"manifest must be a JSON object, got {type(obj).__name__}")
    body = dict(obj)
    version = body.pop("schema_version", None)
    if not (json_typed(version, int) and version == MANIFEST_SCHEMA_VERSION):
        raise ManifestError(f"unsupported manifest schema_version {version!r}")
    return from_json(SessionManifest, body, ManifestError)


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
