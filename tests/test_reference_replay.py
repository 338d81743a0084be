"""``simulate`` against a replay that reuses no work between questions.

``simulate`` keeps the latest prefixes' clusterings, each event summary for
the rest of its stream, and the dialogue history's term rows.  The reference
below recomputes everything for every question from the public stage
functions and must give the same canonical report bytes, including when
injected providers fail.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctx.assembly import answer, assemble
from streamctx.clustering import ClusterConfig, choose_k, cluster, events_from
from streamctx.compression import (
    CompressionConfig,
    compress_stream,
    compression_ratio,
    embed_event,
    embed_question,
)
from streamctx.errors import StreamContextError
from streamctx.providers import EchoGenerator, HashingQuestionEmbedder
from streamctx.retrieval import (
    DialogueHistory,
    HistoryItem,
    RetrievalOutput,
    render_constrained,
    retrieve,
    score_retrieval,
)
from streamctx.simulate import (
    WINDOW_SEGMENTS,
    EngineConfig,
    ProviderSet,
    SimulationReport,
    simulate,
    summarize_records,
)
from streamctx.store import FrameBlock
from streamctx.synthetic import SyntheticSpec, build_synthetic

from test_retrieval import _reference_fallback


def _digest(salt: int, payload: bytes) -> int:
    key = salt.to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=4, salt=key).digest(), "little")


class FaultySummarizer:
    """Keyed on the frames it is given, never on the call count.

    A payload whose digest is 0 mod ``every`` always raises.  One whose
    digest is 1 mod ``every`` is answered one column too wide the first time
    it is seen, which fails its question in ``compress_stream``; a summary
    kept from that question would fail later ones too.  Every other reply is
    the features themselves.
    """

    provider_id = "faulty-summarizer"

    def __init__(self, salt: int, every: int):
        self.salt, self.every, self.seen = salt, every, set()

    def hidden_states(self, features, prompt):
        payload = features.tobytes()
        mode = _digest(self.salt, payload) % self.every
        if mode == 0:
            raise RuntimeError("summarizer down")
        if mode == 1 and payload not in self.seen:
            self.seen.add(payload)
            return np.hstack([features, features[:, :1]])
        return features


class FaultyGenerator:
    """Keyed on the payload: raises on some, replies with a non-string on others."""

    provider_id = "faulty-generator"

    def __init__(self, salt: int, every: int):
        self.salt, self.every = salt, every

    def generate(self, payload):
        mode = _digest(self.salt, payload.encode()) % self.every
        if mode == 0:
            raise RuntimeError("generator down")
        return 5 if mode == 1 else EchoGenerator().generate(payload)


class HashRetriever:
    """Selects and flags turns by a digest of the question and each turn; some
    questions get prose, which fails them after the retry."""

    provider_id = "hash-retriever"

    def __init__(self, salt: int):
        self.salt = salt

    def select(self, request):
        question = request["question"].encode()
        if _digest(self.salt, question) % 7 == 0:
            return "no idea"
        ids = {
            h["qa_id"]
            for h in request["history"]
            if _digest(self.salt, question + str(h["qa_id"]).encode()) % 3 == 0
        }
        delta = int(_digest(self.salt + 1, question) % 5 == 0)
        return render_constrained(RetrievalOutput(ids, delta))


def reference_clustering(manifest, frames, config, finished):
    """The clustering of the first ``finished`` segments, recomputed down to scratch.

    Past ``WINDOW_SEGMENTS`` segments, the clustering of the prefix that many
    segments shorter stays frozen and only the later frames are clustered, with
    the clusters ``choose_k`` adds; a window that adds none clusters from scratch.
    """
    visible = FrameBlock.of(
        [FrameBlock.of(frames[seg.segment_id]) for seg in manifest.segments[:finished]]
    )
    k = choose_k(len(visible), config.cluster_ratio)
    frozen = None
    if finished > WINDOW_SEGMENTS:
        frozen = reference_clustering(manifest, frames, config, finished - WINDOW_SEGMENTS)
        if frozen.k >= k:
            frozen = None
    seed = int(np.random.SeedSequence([config.seed, finished]).generate_state(1)[0])
    cfg = ClusterConfig(k=k, alpha_time=config.alpha_time, max_iters=config.max_iters,
                        epsilon=config.epsilon, seed=seed)
    return cluster(visible, cfg, frozen=frozen)


def reference_replay(manifest, stream_index, config, frames, providers):
    """``simulate``'s report, with every question computed from scratch."""
    qa_by_id = {qa.qa_id: qa for qa in manifest.qa_pool}
    first = manifest.segments[0].segment_id
    embedder = providers.embedder or HashingQuestionEmbedder(FrameBlock.of(frames[first]).dim)
    history: list[HistoryItem] = []
    records, violations = [], 0
    for entry in manifest.dialogue_streams[stream_index].entries:
        qa = qa_by_id[entry.qa_id]
        record = {
            "qa_id": qa.qa_id,
            "qa_type": qa.qa_type,
            "ask_time": entry.ask_time,
            "history_size": len(history),
            "gold_relevant": sorted(entry.gold_relevant),
        }
        generated = None
        try:
            finished = sum(seg.end_s <= entry.ask_time for seg in manifest.segments)
            if not finished:
                raise StreamContextError(f"no finished segment before ask_time {entry.ask_time}")
            visible = FrameBlock.of(
                [FrameBlock.of(frames[seg.segment_id]) for seg in manifest.segments[:finished]]
            )
            violations += int(np.count_nonzero(visible.timestamps > entry.ask_time))
            k = choose_k(len(visible), config.cluster_ratio)
            result = reference_clustering(manifest, frames, config, finished)
            events = events_from(result, visible)
            embeddings = [embed_event(ev, providers.summarizer) for ev in events]
            qvec = embed_question(qa.question, embedder)
            compression = CompressionConfig(theta=config.theta)
            units = compress_stream(events, embeddings, qvec, compression)
            ids = frozenset(h.qa_id for h in history)
            if config.retrieval_mode == "oracle":
                retrieval = RetrievalOutput(entry.gold_relevant & ids, 0)
            elif config.retrieval_mode == "provider":
                retrieval = retrieve(DialogueHistory(history), qa.question, providers.retriever)
            else:
                retrieval = _reference_fallback(history, qa.question, config.retrieval_threshold)
            selected = [h for h in history if h.qa_id in retrieval.selected_ids]
            package = assemble(units, selected, retrieval.delta, qa.question)
            reply = answer(package, providers.generator, qa_id=qa.qa_id)
            generated = reply.answer
            record.update(
                {
                    "num_frames": len(visible),
                    "k": k,
                    "cluster_iterations": result.iterations,
                    "cluster_delta": result.final_delta,
                    "num_events": len(events),
                    "preserved_events": sum(u.kind == "preserved" for u in units),
                    "pooled_events": sum(u.kind == "pooled" for u in units),
                    "compression_ratio": compression_ratio(units),
                    "visual_tokens": reply.visual_tokens,
                    "text_tokens": reply.text_tokens,
                    "retrieval": {
                        "selected_ids": sorted(retrieval.selected_ids),
                        "delta": retrieval.delta,
                    },
                    "retrieval_confusion": score_retrieval(
                        retrieval, entry.gold_relevant, ids
                    ).to_dict(),
                    "answer": reply.answer,
                    "answer_provider": reply.provider_id,
                }
            )
        except StreamContextError as exc:
            record["error"] = {"type": type(exc).__name__, "message": str(exc)}
        records.append(record)
        spoken = qa.answer if config.use_gold_answers or generated is None else generated
        history.append(HistoryItem(qa.qa_id, qa.question, spoken, entry.ask_time))
    summary = {
        "video_id": manifest.video_id,
        "stream_index": stream_index,
        **summarize_records(records),
        "leakage_violations": violations,
        "config": config.to_dict(),
    }
    return SimulationReport(records=tuple(records), summary=summary)


_SPECS = st.builds(
    SyntheticSpec,
    segments=st.integers(2, 5),
    frames_per_segment=st.sampled_from([5, 10]),
    patches=st.integers(1, 2),
    dim=st.sampled_from([2, 4, 8]),
    events_per_segment=st.integers(1, 2),
    basic_per_segment=st.integers(1, 2),
    streaming_per_segment=st.integers(1, 2),
    global_count=st.integers(0, 2),
    num_streams=st.integers(1, 3),
    seed=st.integers(0, 1000),
)

_CONFIGS = st.builds(
    EngineConfig,
    alpha_time=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    theta=st.sampled_from([-1.0, 0.0, 0.45, 0.9]),
    retrieval_mode=st.sampled_from(["fallback", "provider", "oracle"]),
    retrieval_threshold=st.sampled_from([0.1, 0.3]),
    use_gold_answers=st.booleans(),
    seed=st.integers(0, 5),
)


@settings(max_examples=40, deadline=None)
@given(
    spec=_SPECS,
    config=_CONFIGS,
    salt=st.integers(0, 2**32),
    summarizer_every=st.sampled_from([None, 3, 6]),
    generator_every=st.sampled_from([None, 4, 8]),
)
def test_simulate_matches_a_replay_that_reuses_nothing(
    spec, config, salt, summarizer_every, generator_every
):
    session = build_synthetic(spec)

    def providers():
        return ProviderSet(
            summarizer=summarizer_every and FaultySummarizer(salt, summarizer_every),
            retriever=HashRetriever(salt),
            generator=generator_every and FaultyGenerator(salt, generator_every),
        )

    for stream in range(spec.num_streams):
        got = simulate(session.manifest, stream, config, frames=session.frames, providers=providers())
        want = reference_replay(session.manifest, stream, config, session.frames, providers())
        assert got.canonical_bytes() == want.canonical_bytes()
