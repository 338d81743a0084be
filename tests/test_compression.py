import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctx.clustering import Event
from streamctx.compression import (
    DEFAULT_THETA,
    POOLED,
    PRESERVED,
    CompressionConfig,
    EventEmbedding,
    compress_stream,
    compression_ratio,
    embed_event,
    embed_question,
    event_relevance,
    original_token_count,
    token_count,
)
from streamctx.errors import DimensionMismatchError, InvalidConfigError, ProviderError
from streamctx.providers import SUMMARY_PROMPT, HashingQuestionEmbedder
from streamctx.store import FrameBlock, FrameFeature, mean_pool

from conftest import cosine


def make_event(event_id, frames, members=None):
    """An event over ``members`` (all frames by default) of the block ``frames`` join to."""
    block = FrameBlock.of(frames)
    members = list(range(len(block))) if members is None else list(members)
    stamps = block.timestamps[members]
    return Event(
        event_id=event_id,
        frame_indices=tuple(members),
        prefix=block,
        time_centroid=float(stamps.mean()),
        start_s=float(stamps.min()),
        end_s=float(stamps.max()),
    )


def filled_event(event_id, n_frames, patches, dim, value=1.0, t0=0.0):
    frames = [
        FrameFeature(np.full((patches, dim), value, dtype=np.float32), t0 + float(i))
        for i in range(n_frames)
    ]
    return make_event(event_id, frames)


class _ScriptedSummarizer:
    provider_id = "scripted-summarizer"

    def __init__(self, states):
        self.states = states
        self.calls = []

    def hidden_states(self, features, prompt):
        self.calls.append((np.asarray(features), prompt))
        if isinstance(self.states, Exception):
            raise self.states
        return self.states


class TestConfig:
    def test_default_theta(self):
        assert CompressionConfig().theta == DEFAULT_THETA == 0.45

    @pytest.mark.parametrize("theta", [1.5, -1.5, float("nan")])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(InvalidConfigError):
            CompressionConfig(theta=theta)


class TestEmbedEvent:
    def _event(self):
        frames = [
            FrameFeature([[0.0, 0.0], [2.0, 2.0]], 0.0),
            FrameFeature([[4.0, 4.0], [6.0, 6.0]], 1.0),
        ]
        return make_event(1, frames)

    def test_fallback_is_mean_over_all_patch_rows(self):
        emb = embed_event(self._event())
        assert emb.vector.tolist() == [3.0, 3.0]
        assert emb.provenance == "fallback-meanpool"

    def test_provider_path_pools_hidden_states(self):
        summarizer = _ScriptedSummarizer(np.asarray([[0.0, 4.0], [2.0, 0.0]]))
        emb = embed_event(self._event(), summarizer)
        assert emb.vector.tolist() == [1.0, 2.0]
        assert emb.provenance == "scripted-summarizer"
        feats, prompt = summarizer.calls[0]
        # all patch rows of all frames, concatenated in frame order
        assert feats.tolist() == [[0.0, 0.0], [2.0, 2.0], [4.0, 4.0], [6.0, 6.0]]
        assert prompt == SUMMARY_PROMPT

    def test_provider_failure_propagates_by_default(self):
        summarizer = _ScriptedSummarizer(ProviderError("down"))
        with pytest.raises(ProviderError):
            embed_event(self._event(), summarizer)

    def test_only_the_members_are_gathered(self):
        frames = [FrameFeature([[float(i), 10.0 * i]], float(i)) for i in range(5)]
        summarizer = _ScriptedSummarizer(np.asarray([[1.0, 1.0]]))
        embed_event(make_event(1, frames, members=[1, 3, 4]), summarizer)
        assert summarizer.calls[0][0].tolist() == [[1.0, 10.0], [3.0, 30.0], [4.0, 40.0]]

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12),
        st.sampled_from([1, 2, 3, 8, 31]),
        st.sampled_from([1, 2, 5, 32]),
        st.floats(-6, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_fallback_is_the_mean_of_the_gathered_members_bitwise(
        self, n_frames, patches, dim, log_scale, seed
    ):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        block = FrameBlock(
            np.arange(n_frames, dtype=np.float64),
            rng.normal(scale * 3, scale, size=(n_frames, patches, dim)),
        )
        members = np.flatnonzero(rng.random(n_frames) < 0.5)
        if not members.size:
            members = np.asarray([int(rng.integers(n_frames))])
        emb = embed_event(make_event(1, block, members=members.tolist()))
        want = mean_pool(block[members].features.reshape(-1, dim))
        assert emb.vector.tobytes() == want.tobytes()


class TestEmbedQuestion:
    def test_fallback_matches_hashing_embedder(self):
        direct = HashingQuestionEmbedder(12).embed("where is the box")
        assert np.array_equal(embed_question("where is the box", HashingQuestionEmbedder(12)), direct)

    def test_an_injected_reply_is_the_vector(self):
        class Emb:
            provider_id = "e"

            def embed(self, text):
                return [1.0, 0.0]

        vector = embed_question("q", Emb())
        assert vector.dtype == np.float64 and vector.tolist() == [1.0, 0.0]

    def test_empty_question_rejected(self):
        class Unreachable:
            provider_id = "unreachable"

            def embed(self, text):
                raise AssertionError("the embedder ran")

        for question in ("", "   ", "???"):
            with pytest.raises(ValueError, match="word"):
                embed_question(question, HashingQuestionEmbedder(4))
            with pytest.raises(ValueError, match="word"):
                embed_question(question, Unreachable())


class TestCompressStream:
    def test_threshold_is_inclusive(self):
        # cosine([3,4],[1,0]) is exactly 3/5, the same float as theta=0.6
        event = filled_event(1, n_frames=2, patches=3, dim=2)
        units = compress_stream(
            [event], [EventEmbedding([3.0, 4.0], "t")], [1.0, 0.0], CompressionConfig(theta=0.6)
        )
        assert units[0].kind == PRESERVED
        assert event_relevance([EventEmbedding([3.0, 4.0], "t")], [1.0, 0.0]) == [0.6]

    def test_below_threshold_pools(self):
        event = filled_event(1, n_frames=2, patches=3, dim=2)
        units = compress_stream(
            [event], [EventEmbedding([0.0, 1.0], "t")], [1.0, 0.0], CompressionConfig(theta=0.6)
        )
        assert units[0].kind == POOLED
        assert event_relevance([EventEmbedding([0.0, 1.0], "t")], [1.0, 0.0]) == [0.0]

    def test_preserved_keeps_full_patch_grid(self):
        frames = [
            FrameFeature([[0.0, 2.0], [4.0, 6.0]], 0.0),
            FrameFeature([[1.0, 1.0], [3.0, 3.0]], 1.0),
        ]
        event = make_event(1, frames)
        units = compress_stream(
            [event], [EventEmbedding([1.0, 0.0], "t")], [1.0, 0.0], CompressionConfig(theta=0.0)
        )
        u = units[0]
        assert u.kind == PRESERVED
        assert (u.num_frames, u.patch_count) == (2, 2)
        assert u.tokens == 4  # every patch row of every frame
        assert u.start_s == 0.0

    def test_pooled_averages_each_frame(self):
        frames = [FrameFeature([[0.0, 2.0], [4.0, 6.0]], 0.0)]
        event = make_event(1, frames)
        units = compress_stream(
            [event], [EventEmbedding([0.0, 1.0], "t")], [1.0, 0.0], CompressionConfig(theta=0.5)
        )
        u = units[0]
        assert u.kind == POOLED
        assert u.num_frames == 1
        assert u.patch_count == 2  # original patches remembered for accounting
        assert u.tokens == 1  # one mean-pooled token per frame

    def test_zero_norm_embedding_scores_minus_one(self, caplog):
        event = filled_event(1, n_frames=1, patches=2, dim=2)
        zero = EventEmbedding([0.0, 0.0], "t")
        units = compress_stream([event], [zero], [1.0, 0.0], CompressionConfig(theta=-1.0))
        assert event_relevance([zero], [1.0, 0.0]) == [-1.0]
        assert units[0].kind == PRESERVED  # -1 >= theta == -1 still passes the gate
        assert "zero-norm embedding from t" in caplog.text

    def test_zero_norm_question_scores_minus_one(self, caplog):
        event = filled_event(1, n_frames=1, patches=2, dim=2)
        emb = EventEmbedding([1.0, 0.0], "t")
        units = compress_stream([event], [emb], [0.0, 0.0])
        assert units[0].kind == POOLED
        assert "zero-norm question" in caplog.text
        caplog.clear()
        assert event_relevance([emb], [0.0, 0.0]) == [-1.0]
        assert "zero-norm question" in caplog.text

    def test_relevances_equal_store_cosine_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            dim = int(rng.integers(1, 40))
            embs = [EventEmbedding(rng.normal(size=dim) * 10.0 ** rng.integers(-6, 7), "t")
                    for _ in range(6)]
            events = [filled_event(i, 1, 1, dim, t0=float(i)) for i in range(1, 7)]
            q = rng.normal(size=dim)
            relevance = event_relevance(embs, q)
            assert relevance == [cosine(e.vector, q) for e in embs]
            units = compress_stream(events, embs, q)
            assert [u.kind == PRESERVED for u in units] == [r >= DEFAULT_THETA for r in relevance]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 64),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from([-1, 0, 1]),
        st.sampled_from([1e-300, 1e-160, 1e-150, 1e-6, 1.0, 1e6, 1e150]),
    )
    def test_the_gemv_decides_as_the_exact_score_within_ulps_of_theta(
        self, dim, n_events, seed, step, scale
    ):
        # theta lands on an exact relevance or one ulp beside it, where the
        # GEMV's rounding alone could put the event on the wrong side
        rng = np.random.default_rng(seed)
        q = rng.normal(size=dim)
        base = rng.normal(size=dim)
        embs = [
            EventEmbedding((base + rng.normal(size=dim) * 10.0 ** rng.integers(-16, 1)) * scale, "t")
            for _ in range(n_events)
        ]
        events = [filled_event(i, 1, 1, dim, t0=float(i)) for i in range(1, n_events + 1)]
        relevance = event_relevance(embs, q)
        theta = float(relevance[int(rng.integers(n_events))])
        theta = float(np.clip(np.nextafter(theta, step * np.inf) if step else theta, -1.0, 1.0))
        units = compress_stream(events, embs, q, CompressionConfig(theta=theta))
        assert [u.kind for u in units] == [PRESERVED if r >= theta else POOLED for r in relevance]

    def test_units_sorted_by_time_centroid(self):
        late = filled_event(1, n_frames=1, patches=1, dim=2, t0=50.0)
        early = filled_event(2, n_frames=1, patches=1, dim=2, t0=0.0)
        units = compress_stream(
            [late, early],
            [EventEmbedding([1.0, 0.0], "t"), EventEmbedding([1.0, 0.0], "t")],
            [1.0, 0.0],
        )
        assert [u.event_id for u in units] == [2, 1]

    def test_length_mismatch_rejected(self):
        event = filled_event(1, 1, 1, 2)
        with pytest.raises(DimensionMismatchError):
            compress_stream([event], [], [1.0, 0.0])

    def test_dim_mismatch_rejected(self):
        event = filled_event(1, 1, 1, 2)
        with pytest.raises(DimensionMismatchError):
            compress_stream([event], [EventEmbedding([1.0, 0.0, 0.0], "t")], [1.0, 0.0])

    def test_dim_mismatch_names_the_event_and_its_summarizer(self):
        events = [filled_event(1, 1, 1, 2), filled_event(2, 1, 1, 2, t0=5.0)]
        embeddings = [EventEmbedding([1.0, 0.0], "a"), EventEmbedding([1.0, 0.0, 0.0], "wide-one")]
        with pytest.raises(DimensionMismatchError) as info:
            compress_stream(events, embeddings, [1.0, 0.0])
        assert str(info.value) == "event 2 embedding from wide-one has dim 3 != question dim 2"


class TestAccounting:
    def _mixed_units(self):
        # two events, five frames each, four patches per frame; the first
        # stays preserved, the second pools
        relevant = filled_event(1, n_frames=5, patches=4, dim=2, t0=0.0)
        irrelevant = filled_event(2, n_frames=5, patches=4, dim=2, t0=10.0)
        return compress_stream(
            [relevant, irrelevant],
            [EventEmbedding([1.0, 0.0], "t"), EventEmbedding([0.0, 1.0], "t")],
            [1.0, 0.0],
            CompressionConfig(theta=0.45),
        )

    def test_token_counts(self):
        units = self._mixed_units()
        assert [u.kind for u in units] == [PRESERVED, POOLED]
        assert token_count(units) == 5 * 4 + 5 == 25
        assert original_token_count(units) == 40

    def test_ratio_is_exact(self):
        units = self._mixed_units()
        assert compression_ratio(units) == 25 / 40

    def test_all_preserved_means_ratio_one(self):
        event = filled_event(1, 3, 2, 2)
        units = compress_stream(
            [event], [EventEmbedding([1.0, 0.0], "t")], [1.0, 0.0], CompressionConfig(theta=-1.0)
        )
        assert compression_ratio(units) == 1.0

    def test_empty_stream_has_no_ratio(self):
        assert token_count([]) == 0
        with pytest.raises(ValueError):
            compression_ratio([])
