"""Streaming video QA context engine.

A recorded video session arrives as per-frame feature matrices with
timestamps.  For every question asked mid-stream, the pipeline

1. clusters the frames seen so far into temporally coherent events
   (time-weighted K-means, :mod:`streamctx.clustering`),
2. compresses events by relevance to the question
   (:mod:`streamctx.compression`),
3. retrieves the past dialogue turns worth re-reading
   (:mod:`streamctx.retrieval`),
4. assembles one chronological context package and generates an answer
   (:mod:`streamctx.assembly`).

:mod:`streamctx.paths` builds the dataset side (relevance sets, sampled
dialogue paths), :mod:`streamctx.synthetic` fabricates sessions with known
ground truth, and :mod:`streamctx.simulate` replays full streams and scores
them.  Everything runs offline; remote providers are optional.
"""

__version__ = "0.1.0"

from .assembly import AnswerRecord, ContextPackage, answer, assemble, render_layout
from .clustering import (
    ClusterConfig,
    ClusterResult,
    Event,
    choose_k,
    cluster,
    events_from,
    kmeanspp_init,
)
from .compression import (
    CompressionConfig,
    EventEmbedding,
    VisualUnit,
    compress_stream,
    compression_ratio,
    embed_event,
    embed_question,
    event_relevance,
    token_count,
)
from .errors import (
    BadMagicError,
    DimensionMismatchError,
    EmbeddingFormatError,
    InvalidConfigError,
    ManifestError,
    NonFiniteValueError,
    ProviderError,
    RetrievalParseError,
    StreamContextError,
    TimestampOrderError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .paths import (
    PathConfig,
    build_relevant_sets,
    composite_score,
    generate_path,
    generate_paths,
    score_all_pairs,
    score_relevance,
    selection_probabilities,
)
from .providers import (
    EchoGenerator,
    HashingQuestionEmbedder,
    JsonProviderClient,
)
from .retrieval import (
    DialogueHistory,
    HistoryItem,
    RetrievalMetrics,
    RetrievalOutput,
    lexical_fallback,
    micro_metrics,
    parse_constrained,
    render_constrained,
    retrieve,
    score_retrieval,
)
from .simulate import EngineConfig, SimulationReport, evaluate, simulate, validate_report
from .store import (
    DialoguePath,
    FrameBlock,
    FrameFeature,
    PathEntry,
    QARecord,
    SegmentMeta,
    SessionManifest,
    load_embeddings,
    load_manifest,
    mean_pool,
    save_embeddings,
    save_manifest,
)
from .synthetic import SyntheticSpec, build_synthetic, make_synthetic

__all__ = [
    "__version__",
    # store
    "FrameBlock", "FrameFeature", "SegmentMeta", "QARecord", "PathEntry", "DialoguePath",
    "SessionManifest", "mean_pool",
    "save_embeddings", "load_embeddings", "save_manifest", "load_manifest",
    # clustering
    "ClusterConfig", "ClusterResult", "Event", "choose_k", "cluster",
    "events_from", "kmeanspp_init",
    # compression
    "CompressionConfig", "EventEmbedding", "VisualUnit", "compress_stream",
    "compression_ratio", "embed_event", "embed_question", "event_relevance", "token_count",
    # retrieval
    "DialogueHistory", "HistoryItem", "RetrievalOutput", "RetrievalMetrics",
    "retrieve", "lexical_fallback", "parse_constrained", "render_constrained",
    "score_retrieval", "micro_metrics",
    # paths
    "PathConfig", "score_relevance", "score_all_pairs",
    "build_relevant_sets", "composite_score", "selection_probabilities",
    "generate_path", "generate_paths",
    # assembly
    "ContextPackage", "AnswerRecord", "assemble", "render_layout", "answer",
    # providers
    "EchoGenerator", "HashingQuestionEmbedder", "JsonProviderClient",
    # simulate / synthetic
    "EngineConfig", "SimulationReport", "simulate", "evaluate", "validate_report",
    "SyntheticSpec", "build_synthetic", "make_synthetic",
    # errors
    "StreamContextError", "EmbeddingFormatError", "BadMagicError",
    "VersionMismatchError", "TruncatedPayloadError", "NonFiniteValueError",
    "TimestampOrderError", "ManifestError", "DimensionMismatchError",
    "InvalidConfigError", "RetrievalParseError", "ProviderError",
]
