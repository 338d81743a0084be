"""Question-aware compression of an event stream.

Every event gets a relevance score: the cosine between its embedding and the
current question's embedding.  Preserve and pool decide the token
accounting: an event at or above the threshold keeps its full patch tokens
("preserved"), the rest one mean-pooled token per frame ("pooled").  No
event disappears; units carry these counts, not token arrays.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
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
    relevance: float
    start_s: float
    time_centroid: float

    @property
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


def compress_stream(
    events: Sequence[Event],
    embeddings: Sequence[EventEmbedding],
    question_vec,
    config: CompressionConfig = CompressionConfig(),
) -> list[VisualUnit]:
    """Score every event against the question and compress the stream.

    Relevance is the cosine ``(e @ q) / (‖e‖ · ‖q‖)`` of the event embedding
    ``e`` and the question embedding ``q``, clipped to [-1, 1], from each
    embedding's cached norm and one question norm per call.  A zero-norm
    vector on either side scores -1 (never preserved) and is logged rather
    than raised, since an all-zero event is valid input.  Output units are
    ordered by event time centroid.
    """
    if len(events) != len(embeddings):
        raise DimensionMismatchError(
            f"got {len(events)} events but {len(embeddings)} embeddings"
        )
    q = np.asarray(question_vec, dtype=np.float64).reshape(-1)
    for event, emb in zip(events, embeddings):
        if emb.vector.shape != q.shape:
            raise DimensionMismatchError(
                f"event {event.event_id} embedding from {emb.provenance} has dim "
                f"{emb.vector.shape[0]} != question dim {q.shape[0]}"
            )

    nq = float(np.linalg.norm(q))
    units = []
    for event, emb in zip(events, embeddings):
        if emb.norm == 0.0 or nq == 0.0:
            logger.warning(
                "zero-norm embedding for event %d; scoring -1 (always pooled)", event.event_id
            )
            score = -1.0
        else:
            score = min(1.0, max(-1.0, float(emb.vector @ q) / (emb.norm * nq)))
        preserved = score >= config.theta
        units.append(
            VisualUnit(
                kind=PRESERVED if preserved else POOLED,
                event_id=event.event_id,
                num_frames=event.num_frames,
                patch_count=event.prefix.num_patches,
                relevance=score,
                start_s=event.start_s,
                time_centroid=event.time_centroid,
            )
        )
    units.sort(key=lambda u: (u.time_centroid, u.event_id))
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
