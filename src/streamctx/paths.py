"""Relevance annotation and dialogue-path sampling over a session's QA pool.

A session's QA pool is larger than any single conversation.  This module
scores how much each question depends on each earlier one (0-7 scale),
thresholds those scores into per-question relevant sets, and then samples
plausible multi-turn dialogue paths: a couple of basic questions per segment
plus harder ones drawn softmax-weighted by how well the path so far supports
them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidConfigError, ProviderError
from .providers import RelevanceScorer, provider_call
from .store import DialoguePath, PathEntry, QARecord, SessionManifest, json_typed
from .text import tf_cosine

logger = logging.getLogger(__name__)

#: Strict lower bound a relevance score must exceed to enter a relevant set.
RELEVANCE_THRESHOLD = 4.0

RELEVANCE_MIN, RELEVANCE_MAX = 0.0, 7.0

DEFAULT_ALPHA_LEN = 0.3
DEFAULT_NUM_PATHS = 3


@dataclass(frozen=True)
class PathConfig:
    """Sampling knobs for dialogue-path generation.

    alpha_len rewards candidates whose supporting questions themselves have
    large relevant sets; force_include_global appends every global question
    at stream end instead of sampling them.
    """

    alpha_len: float = DEFAULT_ALPHA_LEN
    num_paths: int = DEFAULT_NUM_PATHS
    basic_per_segment: int = 2
    complex_per_segment: int = 2
    force_include_global: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.num_paths < 1:
            raise InvalidConfigError(f"num_paths must be >= 1, got {self.num_paths}")
        if self.basic_per_segment < 0 or self.complex_per_segment < 0:
            raise InvalidConfigError("per-segment counts must be >= 0")
        if not math.isfinite(self.alpha_len):
            raise InvalidConfigError(f"alpha_len must be finite, got {self.alpha_len}")


def score_relevance(
    current: QARecord, prior: QARecord, scorer: RelevanceScorer | None = None
) -> float:
    """Relevance of an earlier QA to the current one, on the [0, 7] scale.

    The scorer's reply must be a finite JSON number (``json_typed``: a bool
    or a numeric string is not one); that, or any scorer failure, is a
    ``ProviderError`` naming the scorer and the (current, prior) pair, for
    in-process scorers and ``JsonProviderClient`` alike.  A number is
    clipped into range (and logged when that actually changes it).  The
    offline fallback is 7x the term-frequency cosine of the two QA texts, so
    verbatim dependence scores 7 and disjoint topics score 0.
    """
    cur = {"question": current.question, "answer": current.answer}
    pri = {"question": prior.question, "answer": prior.answer}
    if scorer is not None:
        what = f"scorer {scorer.provider_id} on ({current.qa_id}, {prior.qa_id})"
        with provider_call(f"{what} failed"):
            raw = scorer.score(cur, pri)
        # chained comparisons stay exact for an int of any size, and NaN fails them
        if not (json_typed(raw, float) and -math.inf < raw < math.inf):
            raise ProviderError(f"{what} must reply with a finite number, got {raw!r:.80}")
        clipped = float(min(max(raw, RELEVANCE_MIN), RELEVANCE_MAX))
        if clipped != raw:
            logger.warning(
                "scorer %s returned %s for (%d, %d); clipped to %s",
                scorer.provider_id, raw, current.qa_id, prior.qa_id, clipped,
            )
        return clipped
    return RELEVANCE_MAX * tf_cosine(
        f"{current.question} {current.answer}", f"{prior.question} {prior.answer}"
    )


def score_all_pairs(
    pool: Sequence[QARecord], scorer: RelevanceScorer | None = None
) -> list[QARecord]:
    """Fill every record's relevance_scores against all earlier-segment QAs."""
    out = []
    for qa in pool:
        scores = {
            prior.qa_id: score_relevance(qa, prior, scorer)
            for prior in pool
            if prior.segment_id < qa.segment_id
        }
        out.append(replace(qa, relevance_scores=scores))
    return out


def build_relevant_sets(
    pool: Sequence[QARecord], threshold: float = RELEVANCE_THRESHOLD
) -> list[QARecord]:
    """Threshold each record's scores into its relevant set.

    Strictly greater-than: a score exactly at the threshold stays out.
    """
    return [
        replace(
            qa,
            relevant_ids=frozenset(
                other for other, score in qa.relevance_scores.items() if score > threshold
            ),
        )
        for qa in pool
    ]


def composite_score(
    candidate_id: int,
    path_qa_ids: Sequence[int],
    rs_table: Mapping[tuple[int, int], float],
    relevant_set_sizes: Mapping[int, int],
    alpha_len: float = DEFAULT_ALPHA_LEN,
) -> float:
    """How well the path so far sets up a candidate question.

    The best single supporter wins:

        max over qa_j in path of  RS(candidate, qa_j) + alpha_len * len(qa_j)

    where len(qa_j) is the size of qa_j's own relevant set.  An empty path
    scores 0; a missing table entry contributes RS 0 (logged at debug).
    """
    if not path_qa_ids:
        return 0.0
    best = -math.inf
    for qa_j in path_qa_ids:
        rs = rs_table.get((candidate_id, qa_j))
        if rs is None:
            logger.debug("no relevance score for (%d, %d); treating as 0", candidate_id, qa_j)
            rs = 0.0
        best = max(best, rs + alpha_len * relevant_set_sizes.get(qa_j, 0))
    return best


def selection_probabilities(scores) -> np.ndarray:
    """Numerically stable softmax over candidate scores."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("selection_probabilities requires at least one score")
    if not np.isfinite(arr).all():
        raise ValueError("scores must be finite")
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


def weighted_draw(candidate_ids: Sequence[int], scores, rng: np.random.Generator) -> int:
    """Draw one candidate with softmax(scores) probabilities."""
    probs = selection_probabilities(scores)
    if len(candidate_ids) != probs.shape[0]:
        raise ValueError("one score per candidate required")
    return int(candidate_ids[int(rng.choice(len(candidate_ids), p=probs))])


def _rs_table(pool: Sequence[QARecord]) -> dict[tuple[int, int], float]:
    return {(qa.qa_id, prior): score for qa in pool for prior, score in qa.relevance_scores.items()}


def generate_path(
    session: SessionManifest, config: PathConfig, rng: np.random.Generator
) -> DialoguePath:
    """Sample one dialogue path over the session's annotated QA pool.

    Segments are visited chronologically.  In each, up to
    ``basic_per_segment`` basic questions are drawn uniformly without
    replacement, then up to ``complex_per_segment`` harder ones drawn
    sequentially without replacement, each draw softmax-weighted by the
    candidates' composite scores against the path built so far.  Global
    questions join the hard-candidate pool only at the final segment (their
    answers need the whole stream); with ``force_include_global`` any left
    unsampled are appended at the end.

    Every entry is asked at its segment's end time and records the gold
    relevant set restricted to questions already on the path.
    """
    if not session.segments:
        raise InvalidConfigError("session has no segments")
    rs_table = _rs_table(session.qa_pool)
    set_sizes = {qa.qa_id: len(qa.relevant_ids) for qa in session.qa_pool}
    by_id = {qa.qa_id: qa for qa in session.qa_pool}

    final_segment = session.segments[-1].segment_id
    ask_times = {s.segment_id: s.end_s for s in session.segments}
    globals_pool = [qa.qa_id for qa in session.qa_pool if qa.tier == "global"]

    path_ids: list[int] = []

    def draw_complex(candidates: list[int], count: int) -> None:
        remaining = list(candidates)
        for _ in range(min(count, len(remaining))):
            scores = [
                composite_score(c, path_ids, rs_table, set_sizes, config.alpha_len)
                for c in remaining
            ]
            picked = weighted_draw(remaining, scores, rng)
            path_ids.append(picked)
            remaining.remove(picked)

    for seg in session.segments:
        segment_qas = [qa for qa in session.qa_pool if qa.segment_id == seg.segment_id]
        basics = [qa.qa_id for qa in segment_qas if qa.tier == "basic"]
        if basics and config.basic_per_segment:
            take = min(config.basic_per_segment, len(basics))
            picks = rng.choice(len(basics), size=take, replace=False)
            path_ids.extend(basics[i] for i in picks)
        hard = [qa.qa_id for qa in segment_qas if qa.tier == "streaming"]
        if seg.segment_id == final_segment:
            hard = hard + [g for g in globals_pool if g not in hard]
        draw_complex([c for c in hard if c not in path_ids], config.complex_per_segment)
        if seg.segment_id == final_segment and config.force_include_global:
            path_ids.extend(g for g in globals_pool if g not in path_ids)

    entries = []
    so_far: set[int] = set()
    for qa_id in path_ids:
        qa = by_id[qa_id]
        ask = ask_times[final_segment] if qa.tier == "global" else ask_times[qa.segment_id]
        entries.append(PathEntry(qa_id, ask, gold_relevant=qa.relevant_ids & so_far))
        so_far.add(qa_id)
    return DialoguePath(entries=tuple(entries))


def generate_paths(session: SessionManifest, config: PathConfig) -> list[DialoguePath]:
    """num_paths independent samples, each from a (seed, index)-derived stream."""
    return [
        generate_path(session, config, np.random.default_rng([config.seed, index]))
        for index in range(config.num_paths)
    ]


def attach_streams(session: SessionManifest, config: PathConfig) -> SessionManifest:
    """Session with dialogue_streams replaced by freshly generated paths."""
    return replace(session, dialogue_streams=tuple(generate_paths(session, config)))
