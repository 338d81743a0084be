import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctx.clustering import _rowwise_minmax
from streamctx.errors import (
    BadMagicError,
    DimensionMismatchError,
    EmbeddingFormatError,
    ManifestError,
    NonFiniteValueError,
    TimestampOrderError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from streamctx.store import (
    FORMAT_VERSION,
    MAGIC,
    QA_TIERS,
    FrameBlock,
    FrameFeature,
    PathEntry,
    DialoguePath,
    QARecord,
    SegmentMeta,
    SessionManifest,
    load_embeddings,
    load_manifest,
    load_session_frames,
    manifest_from_dict,
    manifest_to_dict,
    mean_pool,
    save_embeddings,
    save_manifest,
)

from conftest import cosine, make_frames, other_json_type


class TestFrameFeature:
    def test_basic_construction(self):
        f = FrameFeature([[1.0, 2.0], [3.0, 4.0]], 1.5)
        assert f.num_patches == 2 and f.dim == 2
        assert f.patches.dtype == np.float32
        assert f.flat().tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_patches_are_immutable(self):
        f = FrameFeature([[1.0]], 0.0)
        with pytest.raises(ValueError):
            f.patches[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [[1.0, 2.0], [[[1.0]]], np.zeros((0, 3)), np.zeros((3, 0))])
    def test_rejects_non_matrix_shapes(self, bad):
        with pytest.raises(DimensionMismatchError):
            FrameFeature(bad, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValueError):
            FrameFeature([[np.nan, 1.0]], 0.0)
        with pytest.raises(NonFiniteValueError):
            FrameFeature([[1.0]], float("inf"))
        with pytest.raises(NonFiniteValueError):
            FrameFeature([[1.0]], -0.5)


class TestFrameBlock:
    @pytest.mark.parametrize(
        "stamps, feats, error",
        [
            ([0.0], np.zeros((1, 2)), DimensionMismatchError),
            ([0.0], np.zeros((1, 0, 2)), DimensionMismatchError),
            ([0.0], np.zeros((1, 2, 0)), DimensionMismatchError),
            ([0.0, 1.0], np.zeros((1, 2, 2)), DimensionMismatchError),
            ([[0.0]], np.zeros((1, 2, 2)), DimensionMismatchError),
            ([0.0], np.full((1, 1, 1), np.nan), NonFiniteValueError),
            ([np.inf], np.zeros((1, 1, 1)), NonFiniteValueError),
            ([-1.0], np.zeros((1, 1, 1)), NonFiniteValueError),
        ],
    )
    def test_constructor_checks_the_frame_rules(self, stamps, feats, error):
        with pytest.raises(error):
            FrameBlock(stamps, feats)

    def test_columns_are_read_only(self):
        block = FrameBlock([0.0, 1.0], np.zeros((2, 1, 3)))
        assert block.features.dtype == np.float32 and block.timestamps.dtype == np.float64
        with pytest.raises(ValueError):
            block.features[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            block.timestamps[0] = 1.0
        with pytest.raises(AttributeError):
            block.features = np.ones((2, 1, 3), dtype=np.float32)

    def test_slices_and_index_arrays_are_not_checked_again(self, monkeypatch):
        block = FrameBlock([3.0, 1.0, 2.0], np.arange(6, dtype=np.float32).reshape(3, 1, 2))

        def refuse(self, *args):
            raise AssertionError("frames were checked again")

        monkeypatch.setattr(FrameBlock, "__init__", refuse)
        head = block[:2]
        picked = block[np.asarray([2, 0])]
        assert type(head) is type(picked) is FrameBlock
        assert head.timestamps.tolist() == [3.0, 1.0] and len(head) == 2
        assert picked.features[:, 0].tolist() == [[4.0, 5.0], [0.0, 1.0]]
        assert not picked.features.flags.writeable

    def test_an_int_gives_one_frame(self):
        block = FrameBlock([0.5, 1.5], np.arange(4, dtype=np.float32).reshape(2, 1, 2))
        frame = block[-1]
        assert isinstance(frame, FrameFeature)
        assert frame.timestamp == 1.5 and frame.patches.tolist() == [[2.0, 3.0]]
        with pytest.raises(IndexError):
            block[2]

    def test_of_joins_frames_and_blocks_in_order(self):
        frames = make_frames(3, patches=2, dim=3)
        block = FrameBlock.of(frames)
        assert FrameBlock.of(block) is block
        joined = FrameBlock.of([block, block[:1]])
        assert joined.timestamps.tolist() == [0.0, 1.0, 2.0, 0.0]
        expected = np.stack([f.patches for f in frames + frames[:1]])
        assert joined.features.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "frames", [[], [FrameFeature([[1.0, 2.0]], 0.0), FrameFeature([[1.0]], 1.0)]]
    )
    def test_of_needs_one_shape(self, frames):
        with pytest.raises(DimensionMismatchError):
            FrameBlock.of(frames)


class TestCosine:
    def test_identical_vector_is_exactly_one(self):
        assert cosine([1, 2, 2], [1, 2, 2]) == 1.0

    def test_orthogonal_is_zero(self):
        assert cosine([1, 0], [0, 3]) == 0.0

    def test_opposite_is_minus_one(self):
        assert cosine([3, 0], [-2, 0]) == -1.0

    def test_known_fraction(self):
        # dot 8 over norms 3 * 3
        assert cosine([1, 2, 2], [2, 1, 2]) == 8 / 9

    def test_zero_norm_raises(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine([0, 0], [1, 2])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            cosine([1, 2], [1, 2, 3])

    def test_scale_invariance_and_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            s = cosine(a, b)
            assert abs(s - cosine(b, a)) < 1e-12
            assert abs(s - cosine(3.7 * a, 0.002 * b)) < 1e-12
            assert -1.0 <= s <= 1.0


class TestMeanPool:
    def test_two_rows(self):
        assert mean_pool([[1, 3], [5, 7]]).tolist() == [3.0, 5.0]

    def test_three_rows(self):
        assert mean_pool([[0, 0], [0, 0], [6, 3]]).tolist() == [2.0, 1.0]

    @pytest.mark.parametrize(
        "rows", [np.zeros((0, 4)), np.zeros((3, 0)), [1.0, 2.0], [[[1.0, 2.0]]], 1.0],
        ids=["no-row", "no-column", "1-d", "3-d", "0-d"],
    )
    def test_anything_but_a_non_empty_stack_raises(self, rows):
        with pytest.raises(ValueError, match=r"non-empty \(n, d\) stack"):
            mean_pool(rows)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(9, 5))
        shuffled = rows[rng.permutation(9)]
        assert np.allclose(mean_pool(rows), mean_pool(shuffled))


def normalize_row(values) -> np.ndarray:
    """One row through the clustering's per-row min-max rule."""
    return _rowwise_minmax(np.asarray([values], dtype=np.float64))[0]


class TestMinmaxNormalize:
    def test_known_values(self):
        assert normalize_row([2, 4, 10]).tolist() == [0.0, 0.25, 1.0]

    def test_constant_input_maps_to_zeros(self):
        assert normalize_row([5, 5, 5]).tolist() == [0.0, 0.0, 0.0]

    def test_single_value(self):
        assert normalize_row([42.0]).tolist() == [0.0]

    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=40))
    def test_range_and_order_preserved(self, values):
        out = normalize_row(values)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        order = np.argsort(np.asarray(values, dtype=np.float64), kind="stable")
        assert np.all(np.diff(out[order]) >= 0)


class TestEmbeddingFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        frames = make_frames(7, patches=3, dim=5, seed=1)
        path = tmp_path / "frames.bin"
        save_embeddings(path, frames)
        loaded = load_embeddings(path)
        assert len(loaded) == 7
        for a, b in zip(frames, loaded):
            assert a.timestamp == b.timestamp
            assert np.array_equal(a.patches, b.patches)
            assert a.patches.dtype == b.patches.dtype == np.float32

    def test_file_size_accounting(self, tmp_path):
        # header 20 + timestamps 2*8 + features 2*3*4*4
        frames = make_frames(2, patches=3, dim=4)
        path = tmp_path / "f.bin"
        save_embeddings(path, frames)
        assert path.stat().st_size == 20 + 16 + 96

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        frames = make_frames(2)
        save_embeddings(path, frames)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load_embeddings(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "f.bin"
        save_embeddings(path, make_frames(2))
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            load_embeddings(path)

    def test_an_empty_file_with_a_patch_shape_no_array_holds(self, tmp_path):
        # no frame, so no size check fails, yet (0, p, d) is too large to reshape to
        path = tmp_path / "f.bin"
        path.write_bytes(struct.pack("<4sIIII", MAGIC, FORMAT_VERSION, 0, 2**32 - 1, 2**32 - 1))
        with pytest.raises(EmbeddingFormatError, match="fit one array"):
            load_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.bin"
        save_embeddings(path, make_frames(4))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TruncatedPayloadError):
            load_embeddings(path)
        path.write_bytes(data[:3])
        with pytest.raises(TruncatedPayloadError):
            load_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        save_embeddings(path, make_frames(2))
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "f.bin"
        save_embeddings(path, make_frames(2, patches=1, dim=1))
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(NonFiniteValueError):
            load_embeddings(path)

    def test_decreasing_timestamps(self, tmp_path):
        path = tmp_path / "f.bin"
        save_embeddings(path, make_frames(2, patches=1, dim=1))
        data = bytearray(path.read_bytes())
        # overwrite the second timestamp with something before the first
        data[28:36] = np.array([-1.0], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(TimestampOrderError):
            load_embeddings(path)

    def test_save_rejects_mixed_shapes_and_bad_order(self, tmp_path):
        a = FrameFeature([[1.0, 2.0]], 0.0)
        b = FrameFeature([[1.0], [2.0]], 1.0)
        with pytest.raises(DimensionMismatchError):
            save_embeddings(tmp_path / "x.bin", [a, b])
        c = FrameFeature([[1.0, 2.0]], 2.0)
        d = FrameFeature([[1.0, 2.0]], 1.0)
        with pytest.raises(TimestampOrderError):
            save_embeddings(tmp_path / "y.bin", [c, d])
        with pytest.raises(DimensionMismatchError):
            save_embeddings(tmp_path / "z.bin", [])

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 4),
        p=st.integers(1, 3),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        mutation=st.one_of(
            st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
            st.tuples(
                st.just("flip"),
                st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
                         min_size=1, max_size=3),
            ),
            st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
        ),
    )
    def test_mutated_files_raise_only_format_errors(
        self, tmp_path_factory, n, p, d, seed, mutation
    ):
        rng = np.random.default_rng(seed)
        stamps = np.cumsum(rng.uniform(0, 3, size=n))
        block = FrameBlock(stamps, rng.normal(scale=100, size=(n, p, d)))
        path = tmp_path_factory.mktemp("fuzz") / "f.bin"
        save_embeddings(path, block)
        raw = path.read_bytes()

        loaded = load_embeddings(path)
        assert loaded.timestamps.tobytes() == block.timestamps.tobytes()
        assert loaded.features.tobytes() == block.features.tobytes()
        assert not loaded.timestamps.flags.writeable and not loaded.features.flags.writeable
        base = loaded.features
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, bytes)  # a view of the file's bytes, not a copy

        kind, arg = mutation
        if kind == "truncate":
            mutated = raw[: int(arg * len(raw))]
        elif kind == "flip":
            mutated = bytearray(raw)
            for where, mask in arg:
                mutated[int(where * len(raw))] ^= mask
        else:
            mutated = raw + arg
        path.write_bytes(bytes(mutated))
        try:
            result = load_embeddings(path)
        except EmbeddingFormatError:
            return
        assert kind == "flip" and isinstance(result, FrameBlock)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        p=st.integers(1, 3),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(self, tmp_path_factory, n, p, d, seed):
        rng = np.random.default_rng(seed)
        stamps = np.cumsum(rng.uniform(0, 3, size=n))
        frames = [
            FrameFeature(rng.normal(scale=100, size=(p, d)).astype(np.float32), float(t))
            for t in stamps
        ]
        path = tmp_path_factory.mktemp("rt") / "f.bin"
        save_embeddings(path, frames)
        loaded = load_embeddings(path)
        assert all(
            a.timestamp == b.timestamp and np.array_equal(a.patches, b.patches)
            for a, b in zip(frames, loaded)
        )


def _tiny_manifest():
    segments = (
        SegmentMeta(1, 0.0, 10.0, "embeddings/s1.bin"),
        SegmentMeta(2, 10.0, 20.0, "embeddings/s2.bin"),
    )
    pool = (
        QARecord(1, 1, "attributes", "What color is the lamp?", "Red."),
        QARecord(
            2, 2, "dynamic-updating", "How did the lamp change?", "It moved.",
            relevant_ids={1}, relevance_scores={1: 6.5},
        ),
    )
    streams = (
        DialoguePath((
            PathEntry(1, 10.0),
            PathEntry(2, 20.0, gold_relevant={1}),
        )),
    )
    return SessionManifest("vid-1", segments, pool, streams)


class TestManifest:
    def test_json_round_trip(self, tmp_path):
        manifest = _tiny_manifest()
        path = tmp_path / "manifest.json"
        save_manifest(path, manifest)
        loaded = load_manifest(path)
        assert manifest_to_dict(loaded) == manifest_to_dict(manifest)
        # relevance score keys come back as ints
        assert loaded.qa_pool[1].relevance_scores == {1: 6.5}

    def test_schema_version_checked(self):
        obj = manifest_to_dict(_tiny_manifest())
        obj["schema_version"] = 99
        with pytest.raises(ManifestError):
            manifest_from_dict(obj)

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ManifestError):
            SessionManifest(
                "v",
                (SegmentMeta(1, 0.0, 10.0, "a"), SegmentMeta(2, 9.0, 20.0, "b")),
                (),
            )

    def test_unordered_segments_rejected(self):
        with pytest.raises(ManifestError):
            SessionManifest(
                "v",
                (SegmentMeta(2, 10.0, 20.0, "b"), SegmentMeta(1, 0.0, 10.0, "a")),
                (),
            )

    def test_unknown_qa_type_rejected(self):
        with pytest.raises(ManifestError):
            QARecord(1, 1, "trivia", "q", "a")

    @pytest.mark.parametrize("question", ["", "   ", 5, "???"])
    def test_question_must_be_non_empty_text(self, question):
        with pytest.raises(ManifestError):
            QARecord(1, 1, "attributes", question, "a")

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ManifestError):
            QARecord(2, 2, "actions", "q", "a", relevance_scores={1: 7.5})

    def test_relevant_ref_must_be_earlier_segment(self):
        segments = (SegmentMeta(1, 0.0, 10.0, "a"),)
        pool = (
            QARecord(1, 1, "attributes", "q1", "a1"),
            QARecord(2, 1, "actions", "q2", "a2", relevant_ids={1}),
        )
        with pytest.raises(ManifestError):
            SessionManifest("v", segments, pool)

    def test_stream_referencing_unknown_qa_rejected(self):
        segments = (SegmentMeta(1, 0.0, 10.0, "a"),)
        pool = (QARecord(1, 1, "attributes", "q", "a"),)
        stream = DialoguePath((PathEntry(7, 10.0),))
        with pytest.raises(ManifestError):
            SessionManifest("v", segments, pool, (stream,))

    def test_path_invariants(self):
        with pytest.raises(ManifestError):
            DialoguePath((PathEntry(1, 5.0), PathEntry(1, 6.0)))
        with pytest.raises(ManifestError):
            DialoguePath((PathEntry(1, 5.0), PathEntry(2, 4.0)))
        with pytest.raises(ManifestError):
            DialoguePath((PathEntry(1, 5.0, gold_relevant={2}),))

    def test_load_session_frames_checks_windows(self, tmp_path):
        (tmp_path / "embeddings").mkdir()
        save_embeddings(tmp_path / "embeddings" / "s1.bin", make_frames(3, t0=0.0))
        # frame at t=25 is outside segment 2's window
        save_embeddings(tmp_path / "embeddings" / "s2.bin", make_frames(3, t0=15.0, dt=5.0))
        manifest = SessionManifest(
            "v",
            (
                SegmentMeta(1, 0.0, 10.0, "embeddings/s1.bin"),
                SegmentMeta(2, 10.0, 20.0, "embeddings/s2.bin"),
            ),
            (),
        )
        with pytest.raises(ManifestError):
            load_session_frames(manifest, tmp_path)


#: ``save_manifest`` of ``_tiny_manifest()``: the keys in this order, id sets
#: sorted, score keys as text and times as floats.
TINY_MANIFEST_JSON = {
    "schema_version": 1,
    "video_id": "vid-1",
    "segments": [
        {"segment_id": 1, "start_s": 0.0, "end_s": 10.0, "embedding_ref": "embeddings/s1.bin"},
        {"segment_id": 2, "start_s": 10.0, "end_s": 20.0, "embedding_ref": "embeddings/s2.bin"},
    ],
    "qa_pool": [
        {
            "qa_id": 1, "segment_id": 1, "qa_type": "attributes",
            "question": "What color is the lamp?", "answer": "Red.",
            "relevant_ids": [], "relevance_scores": {},
        },
        {
            "qa_id": 2, "segment_id": 2, "qa_type": "dynamic-updating",
            "question": "How did the lamp change?", "answer": "It moved.",
            "relevant_ids": [1], "relevance_scores": {"1": 6.5},
        },
    ],
    "dialogue_streams": [
        {
            "entries": [
                {"qa_id": 1, "ask_time": 10.0, "gold_relevant": []},
                {"qa_id": 2, "ask_time": 20.0, "gold_relevant": [1]},
            ]
        }
    ],
}


def _slot(obj, at):
    """The container holding the last key of path ``at``, and that key."""
    for key in at[:-1]:
        obj = obj[key]
    return obj, at[-1]


def _json_slots(obj, at=()):
    """Every (container, key) in a JSON value, nested ones included."""
    keys = range(len(obj)) if isinstance(obj, list) else obj.keys()
    for key in keys:
        yield obj, key, at + (key,)
        if isinstance(obj[key], (list, dict)):
            yield from _json_slots(obj[key], at + (key,))


_TEXT = st.text(min_size=1, max_size=8).filter(str.strip)
#: Question text: any text around at least one word (``text.has_word``).
_QUESTION = st.builds(
    "{}{}{}".format, st.text(max_size=3), st.from_regex(r"[A-Za-z0-9]{1,3}", fullmatch=True),
    st.text(max_size=3),
)


@st.composite
def valid_manifests(draw):
    """Random valid manifests: any counts, ids and float times, empty id sets
    and no streams allowed."""
    n_segments = draw(st.integers(1, 4))
    bounds = sorted(draw(st.lists(
        st.floats(0.0, 1e6), min_size=2 * n_segments, max_size=2 * n_segments, unique=True,
    )))
    segment_ids = sorted(draw(st.lists(
        st.integers(1, 10**6), min_size=n_segments, max_size=n_segments, unique=True,
    )))
    segments = [
        SegmentMeta(sid, bounds[2 * i], bounds[2 * i + 1], draw(_TEXT))
        for i, sid in enumerate(segment_ids)
    ]
    qa_ids = draw(st.lists(st.integers(-(10**6), 10**6), max_size=6, unique=True))
    pool = []
    for qa_id in qa_ids:
        segment_id = draw(st.sampled_from(segment_ids))
        earlier = sorted(qa.qa_id for qa in pool if qa.segment_id < segment_id)
        pool.append(QARecord(
            qa_id, segment_id, draw(st.sampled_from(sorted(QA_TIERS))), draw(_QUESTION),
            draw(st.text(max_size=8)),
            relevant_ids=draw(st.frozensets(st.sampled_from(earlier))) if earlier else frozenset(),
            relevance_scores=draw(st.dictionaries(
                st.sampled_from(earlier), st.floats(0.0, 7.0), max_size=len(earlier),
            )) if earlier else {},
        ))
    streams = []
    for _ in range(draw(st.integers(0, 2))):
        order = draw(st.permutations(qa_ids))[: draw(st.integers(0, len(qa_ids)))]
        times = sorted(draw(st.lists(
            st.floats(0.0, 1e6), min_size=len(order), max_size=len(order),
        )))
        entries = [
            PathEntry(qa_id, at, draw(st.frozensets(st.sampled_from(order[:i]))) if i else frozenset())
            for i, (qa_id, at) in enumerate(zip(order, times))
        ]
        streams.append(DialoguePath(tuple(entries)))
    return SessionManifest(draw(st.text(max_size=8)), tuple(segments), tuple(pool), tuple(streams))


class TestManifestJson:
    def test_writes_the_documented_bytes(self, tmp_path):
        path = tmp_path / "manifest.json"
        save_manifest(path, _tiny_manifest())
        assert path.read_text() == json.dumps(TINY_MANIFEST_JSON, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(manifest=valid_manifests())
    def test_round_trip(self, manifest):
        obj = manifest_to_dict(manifest)
        back = manifest_from_dict(json.loads(json.dumps(obj)))
        assert back == manifest
        assert json.dumps(manifest_to_dict(back)) == json.dumps(obj)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_value_of_another_json_type_is_a_manifest_error(self, data):
        obj = copy.deepcopy(TINY_MANIFEST_JSON)
        container, key, at = data.draw(st.sampled_from(list(_json_slots(obj))), label="slot")
        container[key] = data.draw(other_json_type(container[key]), label=f"value at {at}")
        with pytest.raises(ManifestError):
            manifest_from_dict(obj)

    @pytest.mark.parametrize(
        "at, value, named",
        [
            (("qa_pool", 0, "qa_id"), 1.7, "qa_id"),
            (("dialogue_streams", 0, "entries", 1, "ask_time"), True, "ask_time"),
            (("qa_pool", 1, "answer"), None, "answer"),
            (("video_id",), 7, "video_id"),
            (("segments", 0, "embedding_ref"), 5, "embedding_ref"),
            (("qa_pool", 1, "relevant_ids", 0), 1.0, "relevant_ids"),
            (("qa_pool", 1, "relevance_scores"), [[1, 6.5]], "relevance_scores"),
            (("dialogue_streams", 0, "entries", 1, "gold_relevant"), "1", "gold_relevant"),
            (("segments",), {}, "segments"),
        ],
    )
    def test_values_are_checked_not_coerced(self, at, value, named):
        obj = copy.deepcopy(TINY_MANIFEST_JSON)
        container, key = _slot(obj, at)
        container[key] = value
        with pytest.raises(ManifestError, match=named):
            manifest_from_dict(obj)

    @pytest.mark.parametrize(
        "at",
        [("colour",), ("segments", 1, "colour"), ("qa_pool", 0, "colour"),
         ("dialogue_streams", 0, "colour"), ("dialogue_streams", 0, "entries", 0, "colour")],
    )
    def test_unknown_keys_fail_by_name_at_every_level(self, at):
        obj = copy.deepcopy(TINY_MANIFEST_JSON)
        container, key = _slot(obj, at)
        container[key] = "red"
        with pytest.raises(ManifestError, match="colour"):
            manifest_from_dict(obj)

    @pytest.mark.parametrize(
        "at",
        [("video_id",), ("segments", 0, "end_s"), ("qa_pool", 1, "answer"),
         ("dialogue_streams", 0, "entries"), ("dialogue_streams", 0, "entries", 0, "qa_id"),
         ("schema_version",)],
    )
    def test_a_missing_key_fails_by_name(self, at):
        obj = copy.deepcopy(TINY_MANIFEST_JSON)
        container, key = _slot(obj, at)
        del container[key]
        with pytest.raises(ManifestError, match=key):
            manifest_from_dict(obj)

    def test_optional_keys_take_their_defaults(self):
        obj = copy.deepcopy(TINY_MANIFEST_JSON)
        del obj["dialogue_streams"]
        for qa in obj["qa_pool"]:
            del qa["relevant_ids"], qa["relevance_scores"]
        manifest = manifest_from_dict(obj)
        assert manifest.dialogue_streams == ()
        assert manifest.qa_pool[1].relevant_ids == frozenset()
        assert manifest.qa_pool[1].relevance_scores == {}

    @pytest.mark.parametrize("ask_time", [float("nan"), float("inf")])
    def test_ask_times_must_be_finite(self, ask_time):
        # either one would let simulate show the question every segment with 0 violations
        obj = copy.deepcopy(TINY_MANIFEST_JSON)
        obj["dialogue_streams"][0]["entries"][0]["ask_time"] = ask_time
        with pytest.raises(ManifestError, match="finite"):
            manifest_from_dict(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("key", ["1.0", "01", " 1", "+1", "one", "١"])
    def test_score_keys_must_be_int_ids(self, key):
        obj = copy.deepcopy(TINY_MANIFEST_JSON)
        obj["qa_pool"][1]["relevance_scores"] = {key: 6.5}
        with pytest.raises(ManifestError, match="key"):
            manifest_from_dict(obj)

    def test_floats_are_stored_as_floats(self):
        obj = copy.deepcopy(TINY_MANIFEST_JSON)
        obj["segments"][0]["start_s"] = 0
        obj["dialogue_streams"][0]["entries"][0]["ask_time"] = 10
        obj["qa_pool"][1]["relevance_scores"] = {"1": 7}
        manifest = manifest_from_dict(obj)
        assert type(manifest.segments[0].start_s) is float
        assert type(manifest.dialogue_streams[0].entries[0].ask_time) is float
        assert type(manifest.qa_pool[1].relevance_scores[1]) is float
        expected = copy.deepcopy(TINY_MANIFEST_JSON)
        expected["qa_pool"][1]["relevance_scores"] = {"1": 7.0}
        assert json.dumps(manifest_to_dict(manifest)) == json.dumps(expected)

    @pytest.mark.parametrize("obj", [None, [], "manifest", 1])
    def test_a_manifest_must_be_an_object(self, obj):
        with pytest.raises(ManifestError):
            manifest_from_dict(obj)

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_schema_version_must_be_the_int_one(self, version):
        obj = {**copy.deepcopy(TINY_MANIFEST_JSON), "schema_version": version}
        with pytest.raises(ManifestError, match="schema_version"):
            manifest_from_dict(obj)
