"""Time-weighted K-means: groups a frame stream into temporally coherent events.

Each frame is flattened to a single feature vector and carries a timestamp.
Assignment uses a composite distance: per frame, the k feature distances and
the k time distances are separately min-max normalized across clusters, then
combined as ``sqrt(nf**2 + alpha_time * nt**2)``.  With ``alpha_time = 0``
this reduces exactly to ordinary nearest-centroid assignment, because min-max
rescaling is monotone per frame.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError
from .store import FrameBlock, FrameFeature

logger = logging.getLogger(__name__)

#: Default cluster-count ratio: one event per 15 frames.
DEFAULT_RATIO = 1.0 / 15.0
DEFAULT_MAX_ITERS = 100
DEFAULT_EPSILON = 1e-4


def choose_k(num_frames: int, ratio: float = DEFAULT_RATIO) -> int:
    """Cluster count for a stream: ``max(1, floor(num_frames * ratio))``.

    The result is additionally capped at ``num_frames`` so every cluster can
    hold at least one frame.
    """
    if num_frames < 1:
        raise InvalidConfigError(f"num_frames must be >= 1, got {num_frames}")
    if not (ratio > 0 and math.isfinite(ratio)):
        raise InvalidConfigError(f"ratio must be a positive finite number, got {ratio}")
    return min(max(1, math.floor(num_frames * ratio)), num_frames)


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for one clustering run.

    alpha_time weights the (normalized, squared) time distance inside the
    composite metric; 0 ignores time entirely.
    """

    k: int
    alpha_time: float = 1.0
    max_iters: int = DEFAULT_MAX_ITERS
    epsilon: float = DEFAULT_EPSILON
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise InvalidConfigError(f"k must be >= 1, got {self.k}")
        if self.alpha_time < 0 or not math.isfinite(self.alpha_time):
            raise InvalidConfigError(f"alpha_time must be >= 0, got {self.alpha_time}")
        if self.max_iters < 1:
            raise InvalidConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.epsilon < 0:
            raise InvalidConfigError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Final state of a clustering run.

    ``assignments`` holds 0-based cluster indices (one per frame, in input
    order) that index directly into the centroid arrays.
    """

    feature_centroids: np.ndarray  # (k, P, D)
    time_centroids: np.ndarray  # (k,)
    assignments: np.ndarray  # (N,) int
    iterations: int
    final_delta: float

    @property
    def k(self) -> int:
        return self.feature_centroids.shape[0]

    def to_dict(self) -> dict:
        k, p, d = self.feature_centroids.shape
        return {
            "k": k,
            "patches": p,
            "dim": d,
            "assignments": self.assignments.tolist(),
            "time_centroids": self.time_centroids.tolist(),
            "iterations": self.iterations,
            "final_delta": self.final_delta,
        }


def _rowwise_minmax(mat: np.ndarray) -> np.ndarray:
    # Each row rescaled to [0, 1]; a constant row (including k == 1) maps
    # to all zeros instead of dividing by zero.
    low = mat.min(axis=1, keepdims=True)
    span = mat.max(axis=1, keepdims=True) - low
    span[span == 0] = 1.0  # a constant row is all zeros after the shift
    out = mat - low
    out /= span
    return out


#: Elements in one row chunk of the exact kernel's (rows, k, P·D) temporary (1 MB).
_CHUNK_ELEMENTS = 1 << 17

_EPS = float(np.finfo(np.float64).eps)


def _feature_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact Euclidean distances from every frame to every centroid; shape (N, k).

    Rows go through in chunks so the difference temporary stays near
    ``_CHUNK_ELEMENTS``.  Each entry is still reduced by ``np.linalg.norm``
    over the same contiguous P·D axis, so the result is bitwise equal to the
    unchunked expression.
    """
    n, k = x.shape[0], centroids.shape[0]
    step = max(1, _CHUNK_ELEMENTS // max(1, k * x.shape[1]))
    out = np.empty((n, k))
    for lo in range(0, n, step):
        out[lo : lo + step] = np.linalg.norm(x[lo : lo + step, None, :] - centroids[None], axis=2)
    return out


def _composite(d_feat: np.ndarray, d_time: np.ndarray, alpha_time: float) -> np.ndarray:
    nf = _rowwise_minmax(d_feat)
    nt = _rowwise_minmax(d_time)
    nf *= nf
    nt *= nt
    nt *= alpha_time
    nf += nt
    return np.sqrt(nf, out=nf)


def _assign(
    x: np.ndarray,
    x_sq: np.ndarray,
    t: np.ndarray,
    centroids: np.ndarray,
    taus: np.ndarray,
    alpha_time: float,
) -> np.ndarray:
    """Composite-distance argmin per frame, always equal to the exact kernel's.

    ``x_sq`` holds the squared frame norms.  Feature distances come from one
    GEMM, ``g = sqrt(max(0, |x|^2 - 2 x.c + |c|^2))``, and every row whose
    argmin the rounding in ``g`` could flip is recomputed exactly.

    Error bound, with n = P·D and u = eps/2.  Each of |x|^2, x.c and |c|^2
    is a sum of n products, off by at most n·u times |x|^2, |x||c| and
    |c|^2 in any summation order, so |g^2 - d^2| <= gamma·(|x| + |c|)^2 for
    the true distance d, with gamma = 2(n + 4)·eps four times above that.
    As |g - d|^2 <= |g - d|(g + d) = |g^2 - d^2| (the clamp only shrinks
    the error), |g - d| <= sqrt(gamma)·(|x| + |c|).  The exact kernel rounds
    each difference once before squaring and summing, so its own value e has
    |e - d| <= gamma·d, which the margin lets us write as gamma·g.  Per row,
    E = sqrt(gamma)·(|x| + max_j |c_j|) + gamma·max_j g_j bounds every
    |g_j - e_j|.  It is never below the per-entry maximum, so it can only
    send more rows to the exact kernel, and it needs no (N, k) error matrix.

    Min-max rescaling shifts each entry's numerator and the span by at most
    2E, which moves a rescaled entry by at most 4E / (span - 2E) when
    span > 2E.  The composite sqrt(nf^2 + alpha·nt^2) is 1-Lipschitz in nf
    and its nt is computed identically on both sides, so each composite is
    within B = 4E / (span - 2E) of the exact one, up to a few rounding
    errors of the rescale and the composite themselves (``slack``).  A row
    whose two smallest composites are more than 2B + slack apart therefore
    has the same strict argmin as the exact kernel.  Every other row, and
    every row with span <= 2E, is recomputed with the exact kernel; exact
    ties, duplicate frames and duplicate centroids all land there, so ties
    still break toward the lowest index.

    ``g`` and the time distances are (k, N) arrays read through their
    transposes, so every per-frame reduction runs across frames.  Min-max,
    squares, sums and square roots are exact or elementwise, so the layout
    changes no bit of any composite.
    """
    n, k = x.shape[0], centroids.shape[0]
    if k == 1:  # a one-column row rescales to 0
        return np.zeros(n, dtype=np.intp)

    d_time = np.abs(t - taus[:, None]).T
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    g = (centroids @ x.T).T  # built in place as |x|^2 - 2 x.c + |c|^2
    g *= -2.0
    g += x_sq[:, None]
    g += c_sq
    np.sqrt(np.maximum(g, 0.0, out=g), out=g)
    comp = _composite(g, d_time, alpha_time)
    best = comp.argmin(axis=1)

    gamma = 2.0 * (x.shape[1] + 4) * _EPS
    g_max = g.max(axis=1)
    e_row = math.sqrt(gamma) * (np.sqrt(x_sq) + math.sqrt(c_sq.max())) + gamma * g_max
    span = g_max - g.min(axis=1)
    slack = 4.0 * _EPS * (1.0 + math.sqrt(1.0 + alpha_time))
    first = comp.min(axis=1)
    comp[np.arange(n), best] = np.inf
    gap = comp.min(axis=1) - first  # 0 when the smallest value repeats
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = 4.0 * e_row / (span - 2.0 * e_row)
        safe = (span > 2.0 * e_row) & (gap > 2.0 * bound + slack)
    rows = np.flatnonzero(~safe)
    if rows.size:
        exact = _composite(_feature_distances(x[rows], centroids), d_time[rows], alpha_time)
        best[rows] = exact.argmin(axis=1)
    return best


def _kmeanspp_indices(
    x: np.ndarray, k: int, rng: np.random.Generator, *, x_sq: np.ndarray | None = None
) -> np.ndarray:
    """k-means++ seeding over flattened features only; returns k distinct rows.

    Each seed's squared distances come from one GEMV, ``|x|^2 - 2 x.c + |c|^2``,
    with the squared frame norms ``x_sq`` (taken here when not given), built
    in place in that order of operations.  By the bound in ``_assign``'s
    docstring this is within gamma·(|x| + |c|)^2 <= 4·gamma·max|x|^2 of the
    true value, so every row at or below that one threshold is recomputed
    exactly as ``sum((x - c)^2)``.  The seed's own row is exactly 0 there,
    so it is set to 0 and the recompute runs only when another row is that
    near.  Chosen frames and their duplicates therefore sit at exactly 0 and
    are never drawn again, and ``total > 0`` decides as the exact expression
    would.  Not covered: other rows keep the expansion's rounding, which
    grows with |x|^2, so a draw within it of a CDF boundary may pick a
    neighbouring row.  Each draw is ``_draw``, which picks the row and
    consumes the generator exactly as ``rng.choice(n, p=d2 / total)`` does.

    When every remaining candidate sits at squared distance zero from the
    chosen set (duplicate-heavy data), the next seed falls back to a uniform
    draw over the unchosen rows so the seeds stay distinct frames.
    """
    n = x.shape[0]
    if x_sq is None:
        x_sq = np.einsum("ij,ij->i", x, x)
    gamma = 2.0 * (x.shape[1] + 4) * _EPS
    near_zero = 4.0 * gamma * float(x_sq.max())

    def dist2(c: int) -> np.ndarray:
        g = x @ x[c]  # in place: the same bits as x_sq - 2 x.c + x_sq[c]
        g *= -2.0
        g += x_sq
        g += x_sq[c]
        g[c] = 0.0
        near = g <= near_zero
        if np.count_nonzero(near) > 1:
            rows = np.flatnonzero(near)
            g[rows] = np.sum((x[rows] - x[c]) ** 2, axis=1)
        return g

    chosen = [int(rng.integers(n))]
    d2 = dist2(chosen[0])
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            nxt = _draw(d2 / total, rng)
        else:
            pool = np.setdiff1d(np.arange(n), np.asarray(chosen))
            nxt = int(rng.choice(pool))
        chosen.append(nxt)
        np.minimum(d2, dist2(nxt), out=d2)
    return np.asarray(chosen)


def _draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """``int(rng.choice(p.size, p=p))`` without its argument checks.

    The same steps ``Generator.choice`` takes for one draw with replacement:
    the normalized cumulative sum, one ``rng.random()`` and a right-side
    search.  So the row and the generator state after it are the same.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class FlatBlock(FrameBlock):
    """A frame block with its float64 flat ``rows`` and their squared norms
    ``row_sq``, as ``flat_rows`` takes them.  ``simulate`` fills both once
    per segment for its whole stream and hands ``cluster`` a view of each
    prefix; slicing gives a plain block."""

    __slots__ = ("rows", "row_sq")

    def __init__(self, block: FrameBlock, rows: np.ndarray, row_sq: np.ndarray):
        self._hold(timestamps=block.timestamps, features=block.features, rows=rows, row_sq=row_sq)


def flat_rows(frames: FrameBlock | Sequence[FrameFeature]) -> tuple[np.ndarray, np.ndarray]:
    """The frames as (N, P·D) float64 rows and their squared norms: those a
    ``FlatBlock`` holds, else converted here.  A row's norm depends on that
    row alone, so rows taken a segment at a time equal a whole prefix's."""
    block = FrameBlock.of(frames)
    if isinstance(block, FlatBlock):
        return block.rows, block.row_sq
    x = block.features.reshape(len(block), block.num_patches * block.dim).astype(np.float64)
    return x, np.einsum("ij,ij->i", x, x)


def kmeanspp_init(
    frames: FrameBlock | Sequence[FrameFeature], k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed centroids from k distinct frames.

    Feature distances alone drive the k-means++ probabilities; each chosen
    frame's timestamp becomes the initial time centroid of its cluster.

    Returns:
        (feature_centroids (k, P, D), time_centroids (k,), chosen indices (k,))
    """
    block = FrameBlock.of(frames)
    n, p, d = block.features.shape
    if not 1 <= k <= n:
        raise InvalidConfigError(f"k must be in [1, {n}], got {k}")
    x, x_sq = flat_rows(block)
    idx = _kmeanspp_indices(x, k, rng, x_sq=x_sq)
    return x[idx].reshape(k, p, d), block.timestamps[idx], idx


def cluster(frames: FrameBlock | Sequence[FrameFeature], config: ClusterConfig, *,
            frozen: ClusterResult | None = None) -> ClusterResult:
    """Run time-weighted K-means over a chronological frame stream.

    Each iteration assigns every frame to the composite-distance argmin
    (ties break toward the lowest cluster index), then recomputes each
    centroid as the feature mean and time mean of its members.  A cluster
    left empty by assignment is reseeded from a uniformly random frame drawn
    from the run's seeded generator, keeping whole runs reproducible.  The
    loop stops once the total centroid movement

        delta = sum_j ||c'_j - c_j|| + sum_j |tau'_j - tau_j|

    drops to ``config.epsilon`` or below (checked after each update), or
    after ``config.max_iters`` iterations.

    An iteration whose assignments repeat the previous iteration's and leave
    no cluster empty would recompute the same means from the same members,
    so it ends the loop with ``delta = 0.0`` and skips the update.  An update
    groups members with one stable argsort and sums each cluster's rows in
    frame order, the same sums and divisions ``.mean()`` performs, so every
    centroid is bitwise the mean of its members.  Frames never move, so
    their rows and norms come from ``flat_rows`` (a ``FlatBlock``'s, or new).

    ``frozen``, a clustering of the first ``m = len(frozen.assignments)``
    frames, keeps their clusters, listed first; the rest run bitwise as
    ``cluster(frames[m:])`` with ``config.k - frozen.k`` clusters would, and
    give ``iterations`` and ``final_delta``.  A ``frozen`` of other
    (patches, dim), or of no fewer clusters, is an ``InvalidConfigError``.
    """
    block = FrameBlock.of(frames)
    n, p, d = block.features.shape
    if frozen is not None:
        shape = frozen.feature_centroids.shape[1:]
        if shape != (p, d) or frozen.k >= config.k:
            raise InvalidConfigError(f"frozen k={frozen.k} over (patches, dim) {shape} leaves "
                                     f"no window for k={config.k} over {(p, d)}")
        m, (x, x_sq) = frozen.assignments.shape[0], flat_rows(block)
        run = cluster(FlatBlock(block[m:], x[m:], x_sq[m:]), replace(config, k=config.k - frozen.k))
        return ClusterResult(
            np.concatenate([frozen.feature_centroids, run.feature_centroids]),
            np.concatenate([frozen.time_centroids, run.time_centroids]),
            np.concatenate([frozen.assignments, run.assignments + frozen.k]),
            run.iterations, run.final_delta,
        )
    if config.k > n:
        raise InvalidConfigError(f"k={config.k} exceeds the number of frames ({n})")

    x, x_sq = flat_rows(block)
    t = block.timestamps
    rng = np.random.default_rng(config.seed)
    idx = _kmeanspp_indices(x, config.k, rng, x_sq=x_sq)
    centroids = x[idx]
    taus = t[idx]

    assignments = None
    delta = math.inf
    iterations = 0
    while iterations < config.max_iters:
        previous = assignments
        assignments = _assign(x, x_sq, t, centroids, taus, config.alpha_time)
        counts = np.bincount(assignments, minlength=config.k)
        iterations += 1
        if counts.all() and previous is not None and np.array_equal(assignments, previous):
            delta = 0.0  # the update would recompute the same means from the same members
            break

        new_centroids = np.empty_like(centroids)
        new_taus = np.empty_like(taus)
        order = np.argsort(assignments, kind="stable")  # members in frame order
        ends = np.cumsum(counts).tolist()
        for j, (lo, hi) in enumerate(zip([0] + ends, ends)):
            if hi > lo:  # the sums and divisions .mean() performs, bitwise
                members = order[lo:hi]
                new_centroids[j] = np.add.reduce(x[members], axis=0) / (hi - lo)
                new_taus[j] = np.add.reduce(t[members]) / (hi - lo)
            else:
                r = int(rng.integers(n))
                logger.debug("cluster %d empty at iteration %d; reseeding from frame %d",
                             j, iterations, r)
                new_centroids[j] = x[r]
                new_taus[j] = t[r]

        delta = float(
            np.linalg.norm(new_centroids - centroids, axis=1).sum()
            + np.abs(new_taus - taus).sum()
        )
        centroids, taus = new_centroids, new_taus
        if delta <= config.epsilon:
            break

    return ClusterResult(
        feature_centroids=centroids.reshape(config.k, p, d),
        time_centroids=taus,
        assignments=assignments,
        iterations=iterations,
        final_delta=delta,
    )


@dataclass(frozen=True, eq=False)
class Event:
    """A cluster of frames presented as one temporally ordered unit.

    ``event_id`` is the 1-based rank of the event by time centroid.  No frame
    is copied: ``frame_indices`` are the members' rows, in time order, of
    ``prefix``, the block the event was clustered from (held by reference).
    """

    event_id: int
    frame_indices: tuple[int, ...]
    prefix: FrameBlock
    time_centroid: float
    start_s: float
    end_s: float

    @property
    def num_frames(self) -> int:
        return len(self.frame_indices)


def events_from(result: ClusterResult, frames: FrameBlock | Sequence[FrameFeature]) -> list[Event]:
    """One Event per cluster, members and events both ordered by time.

    Members sort by (timestamp, frame index) and events by (time centroid,
    cluster index).  A cluster with no assigned frames (possible only in
    degenerate runs) is skipped with a warning rather than emitted as an
    empty event.  Every event indexes the one block ``frames`` joins to.
    """
    block = FrameBlock.of(frames)
    if len(block) != result.assignments.shape[0]:
        raise DimensionMismatchError(
            f"result covers {result.assignments.shape[0]} frames, got {len(block)}"
        )
    # lexsort is stable: by cluster, then timestamp, then frame index
    by_cluster = np.lexsort((block.timestamps, result.assignments))
    counts = np.bincount(result.assignments, minlength=result.k)
    groups = np.split(by_cluster, np.cumsum(counts)[:-1])
    order: list[tuple[float, int, np.ndarray]] = []
    for j, members in enumerate(groups):
        if not members.size:
            logger.warning("cluster %d has no members; skipping empty event", j)
            continue
        order.append((float(result.time_centroids[j]), j, members))
    order.sort(key=lambda item: (item[0], item[1]))

    return [
        Event(
            event_id=rank,
            frame_indices=tuple(members.tolist()),
            prefix=block,
            time_centroid=tau,
            start_s=float(block.timestamps[members[0]]),
            end_s=float(block.timestamps[members[-1]]),
        )
        for rank, (tau, _, members) in enumerate(order, start=1)
    ]
