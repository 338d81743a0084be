import numpy as np
import pytest

from streamctx.clustering import ClusterConfig, choose_k, cluster
from streamctx.errors import InvalidConfigError
from streamctx.store import load_manifest, load_session_frames, manifest_to_dict
from streamctx.synthetic import SyntheticSpec, build_synthetic, make_synthetic


class TestSpec:
    def test_default_pool_size(self, default_session):
        # 5 segments x (2 basic + 2 streaming), no globals
        assert len(default_session.manifest.qa_pool) == 20

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            SyntheticSpec(segments=0)
        with pytest.raises(InvalidConfigError):
            SyntheticSpec(events_per_segment=11, frames_per_segment=10)


class TestBuildSynthetic:
    def test_manifest_validates_itself(self, default_session):
        manifest = default_session.manifest
        assert manifest.video_id == "synthetic-0"
        assert len(manifest.segments) == 5
        assert [s.segment_id for s in manifest.segments] == [1, 2, 3, 4, 5]
        assert manifest.segments[0].start_s == 0.0
        assert manifest.segments[-1].end_s == 50.0

    def test_frames_are_chronological_and_in_window(self, default_session):
        for seg in default_session.manifest.segments:
            stamps = [f.timestamp for f in default_session.frames[seg.segment_id]]
            assert stamps == sorted(stamps)
            assert all(seg.start_s <= t < seg.end_s for t in stamps)

    def test_planted_labels_cover_each_frame(self, default_session):
        num_frames = sum(len(block) for block in default_session.frames.values())
        labels = default_session.planted_events
        assert len(labels) == num_frames == 50
        assert sorted(set(labels)) == list(range(10))  # 5 segments x 2 events

    def test_planted_events_are_recoverable_by_clustering(self, default_session):
        # the whole point of the plant: event centers are drawn at scale 10
        # against noise 0.1, so clustering each segment's frames with the
        # planted k recovers the labels exactly
        session = default_session
        for seg in session.manifest.segments:
            frames = session.frames[seg.segment_id]
            k = 2
            res = cluster(frames, ClusterConfig(k=k, seed=0))
            base = (seg.segment_id - 1) * k
            truth = session.planted_events[(seg.segment_id - 1) * 10 : seg.segment_id * 10]
            # same partition, label-free
            groups = {}
            for i, a in enumerate(res.assignments):
                groups.setdefault(int(a), set()).add(i)
            truth_groups = {}
            for i, t in enumerate(truth):
                truth_groups.setdefault(t - base, set()).add(i)
            assert frozenset(map(frozenset, groups.values())) == frozenset(
                map(frozenset, truth_groups.values())
            )

    def test_streaming_questions_have_planted_relevance(self, default_session):
        pool = default_session.manifest.qa_pool
        streaming = [qa for qa in pool if qa.tier == "streaming" and qa.segment_id > 1]
        assert streaming
        for qa in streaming:
            assert qa.relevant_ids  # at least one planted dependency
            for rid, score in qa.relevance_scores.items():
                if rid in qa.relevant_ids:
                    assert 4.5 <= score <= 7.0
                else:
                    assert 0.0 <= score <= 3.5

    def test_recall_questions_carry_the_cue(self, default_session):
        recalls = [
            qa for qa in default_session.manifest.qa_pool if qa.qa_type == "dialogue-recalling"
        ]
        assert recalls
        for qa in recalls:
            assert "what did i ask" in qa.question.lower()

    def test_streams_generated(self, default_session):
        manifest = default_session.manifest
        assert len(manifest.dialogue_streams) == 1
        assert len(manifest.dialogue_streams[0].entries) > 0

    def test_global_questions_live_in_last_segment(self):
        session = build_synthetic(SyntheticSpec(global_count=3))
        global_qas = [qa for qa in session.manifest.qa_pool if qa.tier == "global"]
        assert len(global_qas) == 3
        assert all(qa.segment_id == 5 for qa in global_qas)

    def test_same_seed_same_session(self):
        a = build_synthetic(SyntheticSpec(seed=5))
        b = build_synthetic(SyntheticSpec(seed=5))
        assert manifest_to_dict(a.manifest) == manifest_to_dict(b.manifest)
        for seg_id, frames in a.frames.items():
            for fa, fb in zip(frames, b.frames[seg_id]):
                assert fa.timestamp == fb.timestamp
                assert np.array_equal(fa.patches, fb.patches)

    def test_different_seed_differs(self):
        a = build_synthetic(SyntheticSpec(seed=0))
        b = build_synthetic(SyntheticSpec(seed=1))
        assert not np.array_equal(
            a.frames[1][0].patches, b.frames[1][0].patches
        )

    def test_default_k_suggestion_matches_plant(self, default_session):
        # 50 frames at the default ratio suggest 3 clusters per full stream;
        # per segment (10 frames) the plant uses 2 events, chosen explicitly
        assert choose_k(sum(len(block) for block in default_session.frames.values())) == 3


class TestMakeSynthetic:
    def test_writes_loadable_corpus(self, tmp_path):
        session = make_synthetic(SyntheticSpec(segments=2, seed=3), out_dir=tmp_path)
        assert session.out_dir == tmp_path
        loaded = load_manifest(tmp_path / "manifest.json")
        assert manifest_to_dict(loaded) == manifest_to_dict(session.manifest)
        frames = load_session_frames(loaded, tmp_path)
        for seg in loaded.segments:
            assert len(frames[seg.segment_id]) == 10
            for fa, fb in zip(frames[seg.segment_id], session.frames[seg.segment_id]):
                assert fa.timestamp == fb.timestamp
                assert np.array_equal(fa.patches, fb.patches)

    def test_in_memory_only_without_out_dir(self):
        session = make_synthetic(SyntheticSpec(segments=1))
        assert session.out_dir is None
