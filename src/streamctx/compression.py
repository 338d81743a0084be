"""Question-aware compression of an event stream.

Every event gets a relevance score, ``event_relevance``: the cosine between
its embedding and the current question's embedding.  Preserve and pool
decide the token accounting: an event at or above the threshold keeps its
full patch tokens ("preserved"), the rest one mean-pooled token per frame
("pooled").  No event disappears; units carry these counts, not token
arrays.

Only the score depends on the question.  So a ``PrefixTable`` stacks the
embeddings once per visible prefix; a question then costs one GEMV and a
pick per event, and every question on a prefix gets the same unit objects.
An event's units depend only on its members and rank, so one that survives
into the next prefix keeps them (``simulate`` carries them for its
stream); only new or changed events get new units.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .clustering import Event
from .errors import DimensionMismatchError, InvalidConfigError, ProviderError
from .providers import SUMMARY_PROMPT, Summarizer, TextEmbedder, provider_call
from .store import mean_pool
from .text import has_word

logger = logging.getLogger(__name__)

DEFAULT_THETA = 0.45

PRESERVED = "preserved"
POOLED = "pooled"

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class CompressionConfig:
    """theta is the preserve/pool relevance threshold, a cosine in [-1, 1]."""

    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if not (-1.0 <= self.theta <= 1.0) or not math.isfinite(self.theta):
            raise InvalidConfigError(f"theta must be in [-1, 1], got {self.theta}")


@dataclass(frozen=True, eq=False)
class EventEmbedding:
    """An event's summary vector plus where it came from."""

    vector: np.ndarray
    provenance: str

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "vector", vec)

    @cached_property
    def norm(self) -> float:
        """The vector's Euclidean norm, taken once however many questions score it."""
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True, eq=False)
class VisualUnit:
    """One event after compression: the counts its layout line shows.

    A preserved unit stands for ``num_frames * patch_count`` tokens, a pooled
    one for ``num_frames``; ``patch_count`` keeps the uncompressed size known.
    """

    kind: str
    event_id: int
    num_frames: int
    patch_count: int
    start_s: float
    time_centroid: float

    @cached_property
    def tokens(self) -> int:
        return self.num_frames * (self.patch_count if self.kind == PRESERVED else 1)


def embed_event(event: Event, summarizer: Summarizer | None = None) -> EventEmbedding:
    """Embed one event, via the summarizer provider or the local fallback.

    The one place an event's members are gathered from its prefix: their
    patch rows, concatenated in time order, go to the provider with a fixed
    summarization prompt, and its hidden states are mean-pooled over the
    token axis.  Without a provider the embedding is the mean over those
    rows.  A provider failure, or a reply that is not a non-empty 2-D array
    pooling to a finite vector, is a ``ProviderError`` (the one reply check).
    """
    prefix = event.prefix
    stacked = prefix.features[list(event.frame_indices)].reshape(-1, prefix.dim)
    if summarizer is None:
        return EventEmbedding(mean_pool(stacked), provenance="fallback-meanpool")
    features = stacked.astype(np.float64)
    with provider_call(f"summarizer failed on event {event.event_id}"):
        states = np.asarray(summarizer.hidden_states(features, SUMMARY_PROMPT), dtype=np.float64)
    what = f"summarizer {summarizer.provider_id} reply for event {event.event_id}"
    if states.ndim != 2 or states.size == 0:
        raise ProviderError(f"{what} must be a non-empty 2-D array, got shape {states.shape}")
    return EventEmbedding(_finite(mean_pool(states), what), provenance=summarizer.provider_id)


def embed_question(question: str, embedder: TextEmbedder) -> np.ndarray:
    """Embed the current question with ``embedder``.

    The caller picks the embedder; the local fallback is a
    ``HashingQuestionEmbedder`` at the raw feature dimension, the space of the
    fallback event embeddings.  A question with no word (``QARecord``'s rule)
    is a ``ValueError`` before the embedder runs; any embedder failure, or a
    reply that is not a non-empty, finite 1-D array, is a ``ProviderError``
    (the one reply check).
    """
    if not has_word(question):
        raise ValueError(f"question must hold a word, got {question!r}")
    with provider_call("question embedder failed"):
        vector = np.asarray(embedder.embed(question), dtype=np.float64)
    what = f"question embedder {embedder.provider_id} reply"
    if vector.ndim != 1 or vector.size == 0:
        raise ProviderError(f"{what} must be a non-empty 1-D array, got shape {vector.shape}")
    return _finite(vector, what)


def _finite(vector: np.ndarray, what: str) -> np.ndarray:
    """``vector`` itself; a provider reply holding NaN or inf is a ``ProviderError``."""
    if not np.isfinite(vector).all():
        raise ProviderError(f"{what} contains NaN or infinite values")
    return vector


def event_relevance(embeddings: Sequence[EventEmbedding], question_vec) -> list[float]:
    """Each embedding's relevance to the question: the one definition of the score.

    Relevance is the cosine ``(e @ q) / (‖e‖ · ‖q‖)`` of the event embedding
    ``e`` and the question embedding ``q``, clipped to [-1, 1], from each
    embedding's cached norm and one question norm per call.  A zero-norm
    vector on either side scores -1 (never preserved unless theta is -1) and
    is logged rather than raised, since an all-zero event is valid input.
    """
    q = np.asarray(question_vec, dtype=np.float64).reshape(-1)
    nq = float(np.linalg.norm(q))
    scores = []
    for emb in embeddings:
        if emb.norm == 0.0 or nq == 0.0:
            logger.warning(
                "zero-norm %s; scoring -1 (always pooled)",
                "question" if nq == 0.0 else f"embedding from {emb.provenance}",
            )
            scores.append(-1.0)
        else:
            scores.append(min(1.0, max(-1.0, float(emb.vector @ q) / (emb.norm * nq))))
    return scores


class PrefixTable(tuple):
    """One prefix's events, and what compression needs of them whatever the question.

    The table is the tuple of its events, so it can stand for them.  Rows
    are in output order (event time centroid, then id): each event's
    embedding (``ordered``), their ``stack`` and ``norms``, and its unit
    pair, ``[pooled, preserved or None]``, with the preserved unit built
    when a question first keeps the event.  ``width`` is the embeddings'
    common dimension, None when they disagree or are none.  ``units`` maps
    (member indices, rank), which fix every field of both units, to a pair:
    an event found there keeps its pair, a new one adds its own.
    """

    def __new__(cls, events: Sequence[Event], embeddings: Sequence[EventEmbedding],
                units: dict | None = None):
        table = super().__new__(cls, events)
        table.embeddings = tuple(embeddings)
        if len(table) != len(table.embeddings):
            raise DimensionMismatchError(
                f"got {len(table)} events but {len(table.embeddings)} embeddings"
            )
        units = {} if units is None else units
        order = sorted(range(len(table)), key=lambda i: (table[i].time_centroid, table[i].event_id))
        table.ordered = tuple(table.embeddings[i] for i in order)
        widths = {emb.vector.shape[0] for emb in table.embeddings}
        table.width = widths.pop() if len(widths) == 1 else None
        table.stack = (np.stack([emb.vector for emb in table.ordered])
                       if table.width is not None else np.empty((0, 0)))
        table.norms = np.array([emb.norm for emb in table.ordered])
        table.pairs = tuple(_unit_pair(table[i], units) for i in order)
        table.pooled = tuple(pair[0] for pair in table.pairs)
        return table


def _unit_pair(event: Event, units: dict) -> list:
    key = (event.frame_indices, event.event_id)
    pair = units.get(key)
    if pair is None:
        pooled = VisualUnit(kind=POOLED, event_id=event.event_id, num_frames=event.num_frames,
                            patch_count=event.prefix.num_patches, start_s=event.start_s,
                            time_centroid=event.time_centroid)
        pair = units[key] = [pooled, None]
    return pair


def compress_stream(
    events: Sequence[Event],
    embeddings: Sequence[EventEmbedding],
    question_vec,
    config: CompressionConfig = CompressionConfig(),
) -> list[VisualUnit]:
    """Compress the stream for one question: each event's unit by its relevance.

    An event is preserved when ``event_relevance`` of its embedding is at
    least ``theta``.  Output units are ordered by event time centroid; an
    embedding whose width is not the question's is a
    ``DimensionMismatchError`` on every question.  ``events`` may be the
    ``PrefixTable`` of ``embeddings``, as ``simulate`` passes for each of
    its prefixes, so every question on a prefix shares one table.

    The decision reads one GEMV, ``c = clip((E @ q) / (‖e‖ · ‖q‖))``, and
    recomputes with ``event_relevance`` every row the rounding could put on
    the other side of theta.  Bound, with n the width and u = eps/2: any
    summation order of a dot of n products, the GEMV's and the per-event
    one alike, is within n·u/(1 - n·u) · Σ|e_i q_i| of the true dot, plus
    at most 2n·2^-1075 lost to subnormal results; Σ|e_i q_i| <= ‖e‖‖q‖.  So
    the two dots differ by at most about 2n·u·‖e‖‖q‖ + n·2^-1073.  Both are
    divided by the same float D = ‖e‖·‖q‖ (the computed norms are within
    about n·u of the true ones), each division adds a relative error of u to
    a value of about 1, and clipping never moves two values apart.  The two
    scores thus differ by at most about (2n + 2)·u + n·2^-1073 / D, and
    ``tol = (2n + 4)·eps + n·2^-1073 / D`` holds that with a margin of two.
    A row whose GEMV score is more than ``tol`` from theta has its exact
    score on the same side; every other row, and every row with D = 0
    (NaN or infinite score, infinite ``tol``), is recomputed exactly.
    """
    table = events if isinstance(events, PrefixTable) else PrefixTable(events, embeddings)
    if table.embeddings != tuple(embeddings):
        raise ValueError("a PrefixTable is compressed against its own embeddings")
    q = np.asarray(question_vec, dtype=np.float64).reshape(-1)
    if q.shape != (table.width,):
        for event, emb in zip(table, table.embeddings):
            if emb.vector.shape != q.shape:
                raise DimensionMismatchError(
                    f"event {event.event_id} embedding from {emb.provenance} has dim "
                    f"{emb.vector.shape[0]} != question dim {q.shape[0]}"
                )
    if not table.pooled:
        return []

    n = q.shape[0]
    denominators = table.norms * float(np.linalg.norm(q))
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.clip((table.stack @ q) / denominators, -1.0, 1.0)
        tol = (2 * n + 4) * _EPS + n * 2.0**-1073 / denominators
    keep = scores >= config.theta
    rows = (~(np.abs(scores - config.theta) > tol)).nonzero()[0]
    if rows.size:
        exact = event_relevance([table.ordered[i] for i in rows], q)
        keep[rows] = np.asarray(exact) >= config.theta
    units = list(table.pooled)
    for i in keep.nonzero()[0].tolist():
        pair = table.pairs[i]
        if pair[1] is None:
            pair[1] = replace(pair[0], kind=PRESERVED)
        units[i] = pair[1]
    return units


def token_count(units: Sequence[VisualUnit]) -> int:
    """Tokens the compressed stream occupies: frames*patches preserved, frames pooled."""
    return sum(u.tokens for u in units)


def original_token_count(units: Sequence[VisualUnit]) -> int:
    return sum(u.num_frames * u.patch_count for u in units)


def compression_ratio(units: Sequence[VisualUnit]) -> float:
    """Compressed tokens over original tokens, in (0, 1]."""
    original = original_token_count(units)
    if original == 0:
        raise ValueError("compression ratio is undefined for an empty stream")
    return token_count(units) / original
