import math

import numpy as np
import pytest

from streamctx.errors import InvalidConfigError
from streamctx.paths import (
    DEFAULT_ALPHA_LEN,
    DEFAULT_NUM_PATHS,
    RELEVANCE_THRESHOLD,
    PathConfig,
    attach_streams,
    build_relevant_sets,
    composite_score,
    generate_path,
    generate_paths,
    score_all_pairs,
    score_relevance,
    selection_probabilities,
    weighted_draw,
)
from streamctx.store import QARecord
from streamctx.synthetic import SyntheticSpec, build_synthetic


def qa(qa_id, segment_id, question, answer="", qa_type="attributes", **kwargs):
    return QARecord(qa_id, segment_id, qa_type, question, answer, **kwargs)


class TestConfig:
    def test_defaults(self):
        cfg = PathConfig()
        assert cfg.alpha_len == DEFAULT_ALPHA_LEN == 0.3
        assert cfg.num_paths == DEFAULT_NUM_PATHS == 3
        assert cfg.basic_per_segment == 2 and cfg.complex_per_segment == 2
        assert cfg.force_include_global is False

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            PathConfig(num_paths=0)
        with pytest.raises(InvalidConfigError):
            PathConfig(basic_per_segment=-1)
        with pytest.raises(InvalidConfigError):
            PathConfig(alpha_len=float("inf"))


class _FixedScorer:
    provider_id = "fixed"

    def __init__(self, value):
        self.value = value

    def score(self, current, prior):
        return self.value


class TestScoreRelevance:
    def test_fallback_scales_term_overlap_to_seven(self):
        a = qa(2, 2, "red", "ball")
        b = qa(1, 1, "red", "ball")
        assert score_relevance(a, b) == 7.0

    def test_fallback_half_overlap_is_three_point_five(self):
        # combined texts "red ball" vs "ball crate": cosine exactly 0.5
        a = qa(2, 2, "red ball", "")
        b = qa(1, 1, "ball crate", "")
        assert score_relevance(a, b) == 3.5

    def test_fallback_disjoint_is_zero(self):
        assert score_relevance(qa(2, 2, "alpha", ""), qa(1, 1, "omega", "")) == 0.0

    def test_provider_value_passes_through(self):
        assert score_relevance(qa(2, 2, "q", "a"), qa(1, 1, "q", "a"), _FixedScorer(5.5)) == 5.5

    @pytest.mark.parametrize("raw,clipped", [(9.3, 7.0), (-2.0, 0.0)])
    def test_provider_value_clipped_into_range(self, raw, clipped):
        got = score_relevance(qa(2, 2, "q", "a"), qa(1, 1, "q", "a"), _FixedScorer(raw))
        assert got == clipped


class TestScoreAllPairs:
    def test_only_earlier_segments_scored(self):
        pool = [
            qa(1, 1, "the red ball"),
            qa(2, 1, "the blue cube"),
            qa(3, 2, "where did the red ball go"),
            qa(4, 3, "summary of everything"),
        ]
        scored = score_all_pairs(pool)
        assert scored[0].relevance_scores == {}
        assert scored[1].relevance_scores == {}  # same segment as qa 1
        assert set(scored[2].relevance_scores) == {1, 2}
        assert set(scored[3].relevance_scores) == {1, 2, 3}

    def test_scores_match_pairwise_calls(self):
        pool = [qa(1, 1, "red ball"), qa(2, 2, "red ball bounced")]
        scored = score_all_pairs(pool)
        assert scored[1].relevance_scores[1] == score_relevance(pool[1], pool[0])


class TestRelevantSets:
    def test_threshold_is_strict(self):
        record = qa(
            3, 2, "q", relevance_scores={1: RELEVANCE_THRESHOLD, 2: RELEVANCE_THRESHOLD + 1e-9}
        )
        (out,) = build_relevant_sets([record])
        assert out.relevant_ids == {2}

    def test_default_threshold_is_four(self):
        assert RELEVANCE_THRESHOLD == 4.0
        record = qa(3, 2, "q", relevance_scores={1: 4.5, 2: 3.9})
        (out,) = build_relevant_sets([record])
        assert out.relevant_ids == {1}

    def test_custom_threshold(self):
        record = qa(3, 2, "q", relevance_scores={1: 4.5, 2: 3.9})
        (out,) = build_relevant_sets([record], threshold=3.0)
        assert out.relevant_ids == {1, 2}


class TestCompositeScore:
    TABLE = {(9, 1): 2.0, (9, 2): 5.0}
    SIZES = {1: 3, 2: 0}

    def test_empty_path_scores_zero(self):
        assert composite_score(9, [], self.TABLE, self.SIZES) == 0.0

    def test_best_supporter_wins(self):
        # qa 1: 2.0 + 0.3*3 = 2.9; qa 2: 5.0 + 0  -> 5.0
        assert composite_score(9, [1, 2], self.TABLE, self.SIZES, alpha_len=0.3) == 5.0

    def test_length_bonus_can_flip_the_winner(self):
        # qa 1: 2.0 + 1.5*3 = 6.5 beats qa 2's flat 5.0
        assert composite_score(9, [1, 2], self.TABLE, self.SIZES, alpha_len=1.5) == 6.5

    def test_missing_score_treated_as_zero(self):
        assert composite_score(9, [7], self.TABLE, self.SIZES, alpha_len=0.3) == 0.0
        assert composite_score(9, [7], self.TABLE, {7: 10}, alpha_len=0.3) == 3.0


class TestSelectionProbabilities:
    def test_reference_pair(self):
        probs = selection_probabilities([1.0, 2.0])
        assert probs[0] == pytest.approx(1 / (1 + math.e), abs=1e-12)
        assert probs[1] == pytest.approx(math.e / (1 + math.e), abs=1e-12)

    def test_equal_scores_are_uniform(self):
        assert selection_probabilities([3.0, 3.0]).tolist() == [0.5, 0.5]
        assert selection_probabilities([0.0] * 5).tolist() == [0.2] * 5

    def test_translation_invariant(self):
        a = selection_probabilities([1.0, 2.0, 4.0])
        b = selection_probabilities([101.0, 102.0, 104.0])
        assert np.allclose(a, b, atol=1e-15)

    def test_huge_scores_stay_finite(self):
        probs = selection_probabilities([1000.0, 1001.0])
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            selection_probabilities([])
        with pytest.raises(ValueError):
            selection_probabilities([1.0, float("nan")])


class TestWeightedDraw:
    def test_single_candidate(self):
        rng = np.random.default_rng(0)
        assert weighted_draw([42], [0.0], rng) == 42

    def test_dominant_score_wins_essentially_always(self):
        rng = np.random.default_rng(1)
        draws = {weighted_draw([10, 20], [0.0, 50.0], rng) for _ in range(200)}
        assert draws == {20}

    def test_equal_scores_hit_both_sides(self):
        rng = np.random.default_rng(2)
        draws = [weighted_draw([0, 1], [1.0, 1.0], rng) for _ in range(200)]
        assert 60 < sum(draws) < 140

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_draw([1, 2], [0.0], np.random.default_rng(0))


@pytest.fixture(scope="module")
def annotated_session():
    session = build_synthetic(SyntheticSpec(global_count=2)).manifest
    return session


class TestGeneratePath:
    def test_structure(self, annotated_session):
        path = generate_path(annotated_session, PathConfig(), np.random.default_rng(0))
        ids = list(path.qa_ids)
        assert len(ids) == len(set(ids))
        by_id = {q.qa_id: q for q in annotated_session.qa_pool}
        seg_end = {s.segment_id: s.end_s for s in annotated_session.segments}
        final_end = annotated_session.segments[-1].end_s
        for entry in path.entries:
            record = by_id[entry.qa_id]
            if record.tier == "global":
                assert entry.ask_time == final_end
            else:
                assert entry.ask_time == seg_end[record.segment_id]

    def test_gold_sets_are_relevant_and_already_asked(self, annotated_session):
        by_id = {q.qa_id: q for q in annotated_session.qa_pool}
        for seed in range(10):
            path = generate_path(annotated_session, PathConfig(), np.random.default_rng(seed))
            seen: set[int] = set()
            for entry in path.entries:
                assert entry.gold_relevant == by_id[entry.qa_id].relevant_ids & seen
                seen.add(entry.qa_id)

    def test_basic_questions_come_from_their_segment(self, annotated_session):
        by_id = {q.qa_id: q for q in annotated_session.qa_pool}
        cfg = PathConfig(complex_per_segment=0)
        path = generate_path(annotated_session, cfg, np.random.default_rng(3))
        per_segment: dict[int, int] = {}
        for entry in path.entries:
            record = by_id[entry.qa_id]
            assert record.tier == "basic"
            per_segment[record.segment_id] = per_segment.get(record.segment_id, 0) + 1
        assert all(v <= cfg.basic_per_segment for v in per_segment.values())

    def test_globals_only_at_final_segment(self, annotated_session):
        by_id = {q.qa_id: q for q in annotated_session.qa_pool}
        final_end = annotated_session.segments[-1].end_s
        for seed in range(20):
            path = generate_path(annotated_session, PathConfig(), np.random.default_rng(seed))
            for entry in path.entries:
                if by_id[entry.qa_id].tier == "global":
                    assert entry.ask_time == final_end

    def test_force_include_global_appends_all(self, annotated_session):
        global_ids = {q.qa_id for q in annotated_session.qa_pool if q.tier == "global"}
        assert global_ids  # fixture plants two
        cfg = PathConfig(force_include_global=True)
        path = generate_path(annotated_session, cfg, np.random.default_rng(0))
        assert global_ids <= set(path.qa_ids)

    def test_empty_session_rejected(self, annotated_session):
        from dataclasses import replace

        empty = replace(
            annotated_session, segments=(), qa_pool=(), dialogue_streams=()
        )
        with pytest.raises(InvalidConfigError):
            generate_path(empty, PathConfig(), np.random.default_rng(0))


class TestGeneratePaths:
    def test_count_and_determinism(self, annotated_session):
        cfg = PathConfig(num_paths=3, seed=7)
        a = generate_paths(annotated_session, cfg)
        b = generate_paths(annotated_session, cfg)
        assert len(a) == 3
        assert [p.qa_ids for p in a] == [p.qa_ids for p in b]

    def test_seed_changes_paths(self, annotated_session):
        a = generate_paths(annotated_session, PathConfig(num_paths=1, seed=0))
        b = generate_paths(annotated_session, PathConfig(num_paths=1, seed=99))
        assert a[0].qa_ids != b[0].qa_ids

    def test_attach_streams_round_trips_validation(self, annotated_session):
        out = attach_streams(annotated_session, PathConfig(num_paths=2, seed=1))
        assert len(out.dialogue_streams) == 2
        assert out.video_id == annotated_session.video_id
        # the original session object is untouched
        assert len(annotated_session.dialogue_streams) == 1
