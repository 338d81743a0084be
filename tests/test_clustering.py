import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frames
from streamctx import clustering
from streamctx.clustering import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERS,
    DEFAULT_RATIO,
    ClusterConfig,
    ClusterResult,
    choose_k,
    cluster,
    events_from,
    kmeanspp_init,
)
from streamctx.compression import (
    POOLED,
    PRESERVED,
    CompressionConfig,
    EventEmbedding,
    compress_stream,
    original_token_count,
)
from streamctx.errors import DimensionMismatchError, InvalidConfigError
from streamctx.store import FrameBlock, FrameFeature


class TestChooseK:
    def test_reference_ratio(self):
        assert choose_k(150) == 10
        assert choose_k(150, 1 / 15) == 10

    def test_floor_never_drops_below_one(self):
        assert choose_k(1) == 1
        assert choose_k(14) == 1  # floor(14/15) == 0, clamped up

    def test_capped_at_frame_count(self):
        assert choose_k(3, 2.0) == 3

    def test_large_stream(self):
        assert choose_k(10_000, 1 / 15) == 666

    def test_invalid_inputs(self):
        with pytest.raises(InvalidConfigError):
            choose_k(0)
        with pytest.raises(InvalidConfigError):
            choose_k(10, -0.1)


class TestClusterConfig:
    def test_defaults(self):
        cfg = ClusterConfig(k=4)
        assert cfg.alpha_time == 1.0
        assert cfg.max_iters == DEFAULT_MAX_ITERS == 100
        assert cfg.epsilon == DEFAULT_EPSILON == 1e-4
        assert DEFAULT_RATIO == 1 / 15

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2, "alpha_time": -1.0},
            {"k": 2, "epsilon": -1e-9},
            {"k": 2, "max_iters": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            ClusterConfig(**kwargs)


def _composite_matrix(x, t, centroids, taus, alpha_time):
    """Exact composite distances for every (frame, cluster) pair; shape (N, k).

    The reference the GEMM-based ``_assign`` must agree with.
    """
    d_time = np.abs(t[:, None] - taus[None, :])
    return clustering._composite(clustering._feature_distances(x, centroids), d_time, alpha_time)


class TestCompositeDistances:
    # One frame, two centroids: feature-nearest is cluster 0, time-nearest
    # is cluster 1.  Normalized feature distances are [0, 1] and normalized
    # time distances [1, 0], so alpha_time alone decides the winner.
    CENTROIDS = [[0.0], [4.0]]
    TAUS = [0.0, 100.0]

    @staticmethod
    def composite(frame, timestamp, centroids, taus, alpha):
        return _composite_matrix(
            np.asarray([frame], dtype=np.float64),
            np.asarray([timestamp], dtype=np.float64),
            np.asarray(centroids, dtype=np.float64),
            np.asarray(taus, dtype=np.float64),
            alpha,
        )[0]

    def dist(self, alpha):
        return self.composite([1.0], 90.0, self.CENTROIDS, self.TAUS, alpha)

    def test_balanced_weight_ties(self):
        assert self.dist(1.0).tolist() == [1.0, 1.0]

    def test_small_alpha_favors_features(self):
        d = self.dist(0.25)
        assert d.tolist() == [0.5, 1.0]
        assert d.argmin() == 0

    def test_large_alpha_favors_time(self):
        d = self.dist(4.0)
        assert d.tolist() == [2.0, 1.0]
        assert d.argmin() == 1

    def test_alpha_zero_ignores_time(self):
        assert self.dist(0.0).tolist() == [0.0, 1.0]

    def test_equidistant_everything_gives_zeros(self):
        d = self.composite([3.0], 50.0, [[2.0], [4.0]], [40.0, 60.0], 1.0)
        assert d.tolist() == [0.0, 0.0]

    def test_single_cluster_distance_is_zero(self):
        # a one-column row is constant, so min-max sends it to zero
        d = self.composite([9.0], 5.0, [[0.0]], [0.0], 1.0)
        assert d.tolist() == [0.0]


@st.composite
def _assignment_case(draw):
    """Frames, centroids and times built to sit near the kernel's hard cases."""
    n = draw(st.integers(1, 24))
    pd = draw(st.integers(1, 48))
    k = draw(st.integers(1, min(n, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6]))
    spread = draw(st.sampled_from([1.0, 1e-3, 1e-6]))
    x = offset + spread * rng.normal(size=(n, pd))
    if draw(st.booleans()):  # duplicate frames
        x[n // 2 :] = x[: n - n // 2]
    x = x.astype(np.float32).astype(np.float64)
    c = x[rng.choice(n, size=k, replace=False)].copy()
    shape = draw(st.sampled_from(["frames", "duplicate", "near", "all-equal", "midpoints"]))
    if k > 1 and shape == "duplicate":
        c[1] = c[0]
    elif k > 1 and shape == "near":
        c[1] = c[0] + 1e-9
    elif shape == "all-equal":  # every row's feature distances are equal
        c[:] = c[0]
    elif k > 1 and shape == "midpoints":  # frames halfway between two centroids
        x[: n // 2] = (c[0] + c[1]) / 2
    t = np.cumsum(rng.uniform(0.1, 2.0, size=n))
    taus = t[rng.integers(0, n, size=k)]
    if draw(st.booleans()):
        taus[:] = taus[0]
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    return x, t, c, taus, alpha


class TestAssignmentKernel:
    @settings(max_examples=300, deadline=None)
    @given(_assignment_case())
    def test_guarded_argmin_equals_exact_kernel(self, case):
        x, t, c, taus, alpha = case
        exact = _composite_matrix(x, t, c, taus, alpha).argmin(axis=1)
        x_sq = np.einsum("ij,ij->i", x, x)
        got = clustering._assign(x, x_sq, t, c, taus, alpha)
        assert np.array_equal(got, exact)

    @settings(max_examples=100, deadline=None)
    @given(_assignment_case(), st.integers(1, 64))
    def test_chunked_exact_kernel_is_bitwise_unchunked(self, case, chunk):
        x, _, c, _, _ = case
        with mock.patch.object(clustering, "_CHUNK_ELEMENTS", chunk):
            got = clustering._feature_distances(x, c)
        assert np.array_equal(got, np.linalg.norm(x[:, None, :] - c[None], axis=2))

    def test_chunked_exact_kernel_at_stream_size(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(480, 256)).astype(np.float32).astype(np.float64)
        c = x[rng.choice(480, size=32, replace=False)]
        got = clustering._feature_distances(x, c)
        assert np.array_equal(got, np.linalg.norm(x[:, None, :] - c[None], axis=2))

    def test_scratch_does_not_grow_with_n_k_pd(self):
        # the (N, k, P·D) float64 temporary alone would be 480·32·256·8 B = 30 MiB
        frames = make_frames(480, patches=8, dim=32, seed=11)
        config = ClusterConfig(k=32, seed=0)
        tracemalloc.start()
        try:
            cluster(frames, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _kmeanspp_reference(x, k, rng):
    """k-means++ seeding with every squared distance taken as ``sum((x - c)^2)``.

    The exact expression the norm-expanded ``_kmeanspp_indices`` must agree with.
    """
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            pool = np.setdiff1d(np.arange(n), np.asarray(chosen))
            nxt = int(rng.choice(pool))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((x - x[nxt]) ** 2, axis=1))
    return np.asarray(chosen)


@st.composite
def _seeding_case(draw, offsets):
    """Float32-derived frames, with copied rows, all-equal rows or zero frames."""
    n = draw(st.integers(1, 40))
    pd = draw(st.integers(1, 64))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from(offsets))
    spread = draw(st.sampled_from([1e3, 1.0, 1e-3, 1e-6]))
    x = offset + spread * rng.normal(size=(n, pd))
    shape = draw(st.sampled_from(["random", "copied", "all-equal", "zeros"]))
    if shape == "copied":  # a few distinct frames, each repeated
        x = x[rng.integers(0, draw(st.integers(1, n)), size=n)]
    elif shape == "all-equal":  # every draw after the first is the uniform fallback
        x[:] = x[0]
    elif shape == "zeros":
        x[rng.random(n) < 0.5] = 0.0
    return x.astype(np.float32).astype(np.float64), k, draw(st.integers(0, 2**32 - 1))


class TestSeeding:
    def test_indices_distinct_and_members_copied(self):
        frames = make_frames(12, patches=2, dim=3, seed=5)
        for seed in range(50):
            cents, taus, idx = kmeanspp_init(frames, 4, np.random.default_rng(seed))
            assert len(set(idx.tolist())) == 4
            for slot, i in enumerate(idx):
                assert taus[slot] == frames[i].timestamp
                assert np.allclose(cents[slot], np.asarray(frames[i].patches, dtype=np.float64))

    @settings(max_examples=300, deadline=None)
    @given(_seeding_case(offsets=[0.0]), st.booleans())
    def test_norm_expansion_seeds_like_the_exact_expression(self, case, pass_norms):
        x, k, seed = case
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        x_sq = np.einsum("ij,ij->i", x, x) if pass_norms else None
        got = clustering._kmeanspp_indices(x, k, got_rng, x_sq=x_sq)
        want = _kmeanspp_reference(x, k, want_rng)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert len(set(got.tolist())) == k

    @settings(max_examples=300, deadline=None)
    @given(_seeding_case(offsets=[1.0, 1e3, 1e6]))
    def test_frames_far_from_the_origin_still_seed_distinct_rows(self, case):
        # the expansion's error grows with |x|^2, so draws may leave the exact
        # expression's (see the docstring); exact zeros must not
        x, k, seed = case
        idx = clustering._kmeanspp_indices(x, k, np.random.default_rng(seed))
        assert len(set(idx.tolist())) == k

    def test_all_equal_frames_reach_the_uniform_fallback(self):
        # one row whose norm expansion against itself leaves a positive residue
        # (1.4e-14 with OpenBLAS), so only the exact recompute reaches 0
        row = np.random.default_rng(5).normal(size=64).astype(np.float32)
        x = np.tile(row, (8, 1)).astype(np.float64)
        with mock.patch.object(np, "setdiff1d", wraps=np.setdiff1d) as fallback:
            idx = clustering._kmeanspp_indices(x, 8, np.random.default_rng(0))
        assert sorted(idx.tolist()) == list(range(8))
        assert fallback.call_count == 7

    def test_duplicate_frames_still_seed_distinct_indices(self):
        patch = [[1.0, 1.0]]
        frames = [FrameFeature(patch, float(i)) for i in range(6)]
        for seed in range(50):
            _, _, idx = kmeanspp_init(frames, 3, np.random.default_rng(seed))
            assert len(set(idx.tolist())) == 3

    def test_spread_data_prefers_far_points(self):
        # two tight blobs far apart: the second seed should land in the
        # opposite blob essentially always
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.01, size=(10, 1, 2))
        b = rng.normal(100.0, 0.01, size=(10, 1, 2))
        frames = [
            FrameFeature(p.astype(np.float32), float(i))
            for i, p in enumerate(np.concatenate([a, b]))
        ]
        crossings = 0
        for seed in range(200):
            _, _, idx = kmeanspp_init(frames, 2, np.random.default_rng(seed))
            if (idx[0] < 10) != (idx[1] < 10):
                crossings += 1
        assert crossings == 200

    def test_k_out_of_range(self):
        frames = make_frames(3)
        with pytest.raises(InvalidConfigError):
            kmeanspp_init(frames, 0, np.random.default_rng(0))
        with pytest.raises(InvalidConfigError):
            kmeanspp_init(frames, 4, np.random.default_rng(0))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-9, 0.5, 1.0, 3.0, 1e6]), min_size=1,
                 max_size=40).filter(any),
        st.integers(0, 2**32 - 1),
    )
    def test_draw_is_generator_choice(self, weights, seed):
        d2 = np.asarray(weights)
        p = d2 / d2.sum()
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert clustering._draw(p, got_rng) == int(want_rng.choice(p.size, p=p))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _partition(assignments):
    """Label-free view of an assignment vector."""
    groups = {}
    for i, a in enumerate(assignments):
        groups.setdefault(int(a), set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def _plain_kmeans_trace(frames, config):
    """Ordinary k-means (features only), recorded iteration by iteration.

    Written with its own loop so the alpha_time == 0 run of cluster() has an
    independent trajectory to match, seeded from the same generator stream.
    """
    x = np.stack([f.flat() for f in frames]).astype(np.float64)
    t = np.asarray([f.timestamp for f in frames])
    rng = np.random.default_rng(config.seed)
    from streamctx.clustering import _kmeanspp_indices

    idx = _kmeanspp_indices(x, config.k, rng)
    centroids = x[idx].copy()
    taus = t[idx].copy()
    trace = []
    for _ in range(config.max_iters):
        d = np.linalg.norm(x[:, None, :] - centroids[None, :, :], axis=2)
        assignments = d.argmin(axis=1)
        new_centroids = np.empty_like(centroids)
        new_taus = np.empty_like(taus)
        for j in range(config.k):
            members = assignments == j
            if members.any():
                new_centroids[j] = x[members].mean(axis=0)
                new_taus[j] = t[members].mean()
            else:
                r = int(rng.integers(x.shape[0]))
                new_centroids[j] = x[r]
                new_taus[j] = t[r]
        delta = float(
            np.linalg.norm(new_centroids - centroids, axis=1).sum()
            + np.abs(new_taus - taus).sum()
        )
        centroids, taus = new_centroids, new_taus
        trace.append((assignments.copy(), centroids.copy(), delta))
        if delta <= config.epsilon:
            break
    return trace


class TestCluster:
    def test_alpha_zero_matches_plain_kmeans_exactly(self):
        # min-max normalization is monotone within each row, so with the
        # time term switched off every assignment, update, and delta must
        # coincide bitwise with ordinary k-means.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 40))
            k = int(rng.integers(1, min(n, 6) + 1))
            frames = make_frames(n, patches=2, dim=3, seed=seed + 1000)
            config = ClusterConfig(k=k, alpha_time=0.0, seed=seed)
            expected = _plain_kmeans_trace(frames, config)

            # a run cut at max_iters=i ends in the state of iteration i
            assert cluster(frames, config).iterations == len(expected)
            for i, (a2, c2, d2) in enumerate(expected, start=1):
                res = cluster(frames, replace(config, max_iters=i))
                assert res.iterations == i
                assert np.array_equal(res.assignments, a2)
                assert np.array_equal(res.feature_centroids.reshape(c2.shape), c2)
                assert res.final_delta == d2

    def test_temporal_split_of_identical_features(self):
        # identical features everywhere: only timestamps can separate the
        # frames, and a clean two-block timeline should split exactly
        patch = [[2.0, 2.0]]
        frames = [FrameFeature(patch, float(i)) for i in range(10)]
        frames += [FrameFeature(patch, 100.0 + i) for i in range(10)]
        for seed in range(10):
            res = cluster(frames, ClusterConfig(k=2, alpha_time=1.0, seed=seed))
            assert _partition(res.assignments) == frozenset(
                {frozenset(range(10)), frozenset(range(10, 20))}
            )

    def test_k_equals_one_gives_global_means(self):
        frames = make_frames(8, patches=2, dim=3, seed=7)
        res = cluster(frames, ClusterConfig(k=1, seed=0))
        x = np.stack([np.asarray(f.patches, dtype=np.float64) for f in frames])
        assert np.allclose(res.feature_centroids[0], x.mean(axis=0))
        assert res.time_centroids[0] == pytest.approx(np.mean([f.timestamp for f in frames]))
        # first update lands on the mean, second confirms it with delta 0
        assert res.iterations == 2
        assert res.final_delta == 0.0

    def test_four_frame_optimum_recovered(self):
        # small enough to see the answer by eye: two feature pairs far
        # apart, timestamps in step with them
        frames = [
            FrameFeature([[0.0]], 0.0),
            FrameFeature([[0.5]], 1.0),
            FrameFeature([[10.0]], 2.0),
            FrameFeature([[10.5]], 3.0),
        ]
        want = frozenset({frozenset({0, 1}), frozenset({2, 3})})
        for seed in range(10):
            res = cluster(frames, ClusterConfig(k=2, seed=seed))
            assert _partition(res.assignments) == want

    def test_result_invariants(self):
        frames = make_frames(30, patches=3, dim=4, seed=2)
        config = ClusterConfig(k=5, seed=3)
        res = cluster(frames, config)
        assert res.assignments.shape == (30,)
        assert res.assignments.min() >= 0 and res.assignments.max() < 5
        assert res.feature_centroids.shape == (5, 3, 4)
        assert res.time_centroids.shape == (5,)
        assert res.final_delta <= config.epsilon or res.iterations == config.max_iters

    def test_same_seed_reproduces_run(self):
        frames = make_frames(25, seed=9)
        a = cluster(frames, ClusterConfig(k=3, seed=42))
        b = cluster(frames, ClusterConfig(k=3, seed=42))
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.feature_centroids, b.feature_centroids)
        assert a.final_delta == b.final_delta and a.iterations == b.iterations

    def test_k_exceeding_frames_rejected(self):
        with pytest.raises(InvalidConfigError):
            cluster(make_frames(3), ClusterConfig(k=4))

    def test_to_dict_stays_small(self):
        res = cluster(make_frames(10, seed=1), ClusterConfig(k=2, seed=0))
        d = res.to_dict()
        assert "feature_centroids" not in d
        assert d["assignments"] == res.assignments.tolist()
        assert d["iterations"] == res.iterations


def _lloyd_reference(x, t, config):
    """The Lloyd loop before its fast paths, as ``cluster``'s bitwise reference.

    Every iteration assigns with the exact kernel and then updates every
    centroid with ``x[mask].mean``, even when nothing moved; an empty cluster
    reseeds from the run's generator.
    """
    n = x.shape[0]
    rng = np.random.default_rng(config.seed)
    idx = clustering._kmeanspp_indices(x, config.k, rng)
    centroids, taus = x[idx].copy(), t[idx].copy()
    for iteration in range(1, config.max_iters + 1):
        assignments = _composite_matrix(x, t, centroids, taus, config.alpha_time).argmin(axis=1)
        new_centroids = np.empty_like(centroids)
        new_taus = np.empty_like(taus)
        for j in range(config.k):
            members = assignments == j
            if members.any():
                new_centroids[j] = x[members].mean(axis=0)
                new_taus[j] = t[members].mean()
            else:
                r = int(rng.integers(n))
                new_centroids[j] = x[r]
                new_taus[j] = t[r]
        delta = float(
            np.linalg.norm(new_centroids - centroids, axis=1).sum()
            + np.abs(new_taus - taus).sum()
        )
        centroids, taus = new_centroids, new_taus
        if delta <= config.epsilon:
            break
    return assignments, centroids, taus, iteration, delta


@st.composite
def _lloyd_case(draw):
    """Float32 frames, often duplicate-heavy, with k anywhere up to n.

    Entries can span twelve decades, so that float64 sums of them round and
    the order of a centroid's summands shows in its bits.
    """
    n = draw(st.integers(1, 30))
    pd = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, pd))
    if draw(st.booleans()):
        x *= 10.0 ** rng.uniform(-6, 6, size=(n, pd))
    x += draw(st.sampled_from([0.0, 1e3]))
    shape = draw(st.sampled_from(["random", "copied", "all-equal"]))
    if shape == "copied":  # a few distinct frames, each repeated
        x = x[rng.integers(0, draw(st.integers(1, n)), size=n)]
    elif shape == "all-equal":
        x[:] = x[0]
    times = draw(st.sampled_from(["spread", "repeated", "equal"]))
    if times == "spread":
        t = np.cumsum(rng.uniform(0.1, 2.0, size=n))
    elif times == "repeated":
        t = np.sort(rng.integers(0, 4, size=n)).astype(np.float64)
    else:
        t = np.full(n, 5.0)
    config = ClusterConfig(
        k=draw(st.integers(1, n)),
        alpha_time=draw(st.sampled_from([0.0, 1.0])),
        max_iters=draw(st.sampled_from([1, 2, 3, DEFAULT_MAX_ITERS])),
        epsilon=draw(st.sampled_from([0.0, DEFAULT_EPSILON])),
        seed=draw(st.integers(0, 2**16)),
    )
    return x.astype(np.float32).reshape(n, 1, pd), t, config


class TestLloydFastPaths:
    @staticmethod
    def assert_matches_reference(features, t, config):
        got = cluster(FrameBlock(t, features), config)
        n = features.shape[0]
        assignments, centroids, taus, iterations, delta = _lloyd_reference(
            features.reshape(n, -1).astype(np.float64), t, config
        )
        assert np.array_equal(got.assignments, assignments)
        assert got.feature_centroids.reshape(centroids.shape).tobytes() == centroids.tobytes()
        assert got.time_centroids.tobytes() == taus.tobytes()
        assert got.iterations == iterations
        assert got.final_delta == delta
        return got

    @settings(max_examples=200, deadline=None)
    @given(_lloyd_case())
    def test_cluster_is_bitwise_the_plain_lloyd_loop(self, case):
        self.assert_matches_reference(*case)

    def test_empty_cluster_reseeds_from_the_generator(self, caplog):
        # identical frames at one instant: every frame ties and goes to cluster
        # 0, so clusters 1 and 2 are reseeded, and nothing moves after that
        features = np.ones((6, 1, 2), dtype=np.float32)
        config = ClusterConfig(k=3, seed=4, max_iters=5)
        with caplog.at_level("DEBUG", logger="streamctx.clustering"):
            got = self.assert_matches_reference(features, np.full(6, 2.0), config)
        assert got.iterations == 1 and got.final_delta == 0.0
        assert sum("reseeding" in r.getMessage() for r in caplog.records) == 2

    def test_repeated_assignments_end_the_loop_without_an_update(self):
        frames = make_frames(60, patches=2, dim=4, seed=8)
        config = ClusterConfig(k=4, seed=1)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as updates:  # one per update
            got = cluster(frames, config)
        assert got.final_delta == 0.0
        assert updates.call_count == got.iterations - 1
        x = np.stack([f.flat() for f in frames]).astype(np.float64)
        for j in range(config.k):
            members = x[got.assignments == j]
            assert got.feature_centroids[j].reshape(-1).tobytes() == members.mean(axis=0).tobytes()


@st.composite
def _window_case(draw):
    """A ``_lloyd_case`` of at least two frames cut at m, with a real clustering
    of its first m frames and a window k up to the frames after them."""
    features, t, config = draw(_lloyd_case().filter(lambda case: case[0].shape[0] > 1))
    n = features.shape[0]
    m = draw(st.integers(1, n - 1))
    frozen = cluster(FrameBlock(t[:m], features[:m]), replace(config, k=draw(st.integers(1, m))))
    window_k = draw(st.integers(1, n - m))
    return features, t, replace(config, k=frozen.k + window_k), frozen, draw(st.booleans())


class TestFrozenWindow:
    @settings(max_examples=200, deadline=None)
    @given(_window_case())
    def test_frozen_clusters_stay_and_the_window_runs_from_scratch(self, case):
        features, t, config, frozen, flat = case
        block = FrameBlock(t, features)
        if flat:  # as simulate hands it over
            block = clustering.FlatBlock(block, *clustering.flat_rows(block))
        got = cluster(block, config, frozen=frozen)
        m, r = frozen.assignments.shape[0], frozen.k
        want = cluster(FrameBlock(t[m:], features[m:]), replace(config, k=config.k - r))
        assert got.k == config.k
        assert got.assignments[:m].tobytes() == frozen.assignments.tobytes()
        assert got.feature_centroids[:r].tobytes() == frozen.feature_centroids.tobytes()
        assert got.time_centroids[:r].tobytes() == frozen.time_centroids.tobytes()
        assert np.array_equal(got.assignments[m:], want.assignments + r)
        assert got.feature_centroids[r:].tobytes() == want.feature_centroids.tobytes()
        assert got.time_centroids[r:].tobytes() == want.time_centroids.tobytes()
        assert (got.iterations, got.final_delta) == (want.iterations, want.final_delta)

    def test_a_frozen_clustering_that_does_not_fit_is_rejected(self):
        frames = make_frames(20, patches=2, dim=4, seed=3)
        frozen = cluster(frames[:10], ClusterConfig(k=3))
        for k in (2, 3):  # the window would get no cluster
            with pytest.raises(InvalidConfigError, match="no window"):
                cluster(frames, ClusterConfig(k=k), frozen=frozen)
        for patches, dim in ((1, 8), (2, 3)):
            other = cluster(make_frames(10, patches=patches, dim=dim), ClusterConfig(k=2))
            with pytest.raises(InvalidConfigError, match="no window"):
                cluster(frames, ClusterConfig(k=5), frozen=other)


class TestEvents:
    def _result(self):
        # hand-built: cluster 1 is empty, cluster 2 happens earlier than 0
        return ClusterResult(
            feature_centroids=np.arange(6, dtype=np.float64).reshape(3, 1, 2),
            time_centroids=np.asarray([30.0, 99.0, 4.0]),
            assignments=np.asarray([2, 0, 2, 0]),
            iterations=1,
            final_delta=0.0,
        )

    def _frames(self):
        return [
            FrameFeature([[1.0, 1.0]], 3.0),
            FrameFeature([[2.0, 2.0]], 20.0),
            FrameFeature([[3.0, 3.0]], 5.0),
            FrameFeature([[4.0, 4.0]], 40.0),
        ]

    def test_ids_follow_time_order_and_empty_cluster_skipped(self):
        events = events_from(self._result(), self._frames())
        assert [e.event_id for e in events] == [1, 2]
        assert events[0].frame_indices == (0, 2)  # cluster 2
        assert events[1].frame_indices == (1, 3)

    def test_span_and_centroid_fields(self):
        events = events_from(self._result(), self._frames())
        first = events[0]
        assert (first.start_s, first.end_s) == (3.0, 5.0)
        assert first.time_centroid == 4.0
        assert first.num_frames == 2

    def test_events_index_the_one_block_they_came_from(self):
        frames = self._frames()
        block = FrameBlock.of(frames)
        events = events_from(self._result(), block)
        assert all(e.prefix is block for e in events)
        joined = events_from(self._result(), frames)
        assert joined[0].prefix is joined[1].prefix
        assert joined[0].prefix.timestamps.tolist() == [3.0, 20.0, 5.0, 40.0]

    def test_frame_count_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            events_from(self._result(), self._frames()[:3])

    def test_round_trip_from_real_run(self):
        frames = make_frames(30, seed=6)
        res = cluster(frames, ClusterConfig(k=4, seed=0))
        events = events_from(res, frames)
        covered = [i for e in events for i in e.frame_indices]
        assert sorted(covered) == list(range(30))
        taus = [e.time_centroid for e in events]
        assert taus == sorted(taus)
        for e in events:
            stamps = e.prefix.timestamps[list(e.frame_indices)]
            assert e.start_s == stamps.min() and e.end_s == stamps.max()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2, 3, 8, 130]), st.floats(-1, 1))
    def test_an_event_counts_its_tokens_per_mode(self, n_frames, patches, theta):
        frames = [FrameFeature(np.ones((patches, 2)), float(t)) for t in range(n_frames)]
        res = ClusterResult(
            feature_centroids=np.zeros((1, patches, 2)),
            time_centroids=np.zeros(1),
            assignments=np.zeros(n_frames, dtype=int),
            iterations=1,
            final_delta=0.0,
        )
        (event,) = events_from(res, frames)
        (unit,) = compress_stream(
            [event], [EventEmbedding([3.0, 4.0], "t")], [1.0, 0.0], CompressionConfig(theta)
        )
        assert unit.kind == (PRESERVED if 0.6 >= theta else POOLED)  # cosine is exactly 3/5
        assert unit.num_frames == event.num_frames == n_frames
        assert unit.tokens == n_frames * (patches if unit.kind == PRESERVED else 1)
        assert original_token_count([unit]) == n_frames * patches
