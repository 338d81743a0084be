import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import streamctx

#: Deleted names, each with the module that used to hold it.
DELETED = [
    ("streamctx.store", "iter_qa_ids"),
    ("streamctx.paths", "RelevancePair"),
    ("streamctx.providers", "AnswerJudge"),
    ("streamctx.providers", "JUDGE_ASPECTS"),
    ("streamctx.clustering", "composite_distances"),
    ("streamctx.clustering", "IterationHook"),
    ("streamctx.store", "minmax_normalize"),
    ("streamctx.store", "cosine"),
    ("streamctx.errors", "DegenerateVectorError"),
    ("streamctx.retrieval", "_TermIndex"),
    ("streamctx.providers", "summarize_request"),
    ("streamctx.providers", "embed_request"),
    ("streamctx.providers", "score_request"),
    ("streamctx.providers", "generate_request"),
]


def test_every_exported_name_resolves():
    assert len(set(streamctx.__all__)) == len(streamctx.__all__)
    for name in streamctx.__all__:
        assert getattr(streamctx, name) is not None, name


@pytest.mark.parametrize("module,name", DELETED)
def test_deleted_names_are_gone(module, name):
    assert name not in streamctx.__all__
    assert not hasattr(streamctx, name)
    assert not hasattr(importlib.import_module(module), name)


def test_deleted_members_are_gone():
    assert not hasattr(streamctx.SessionManifest, "qa_by_id")
    assert not hasattr(streamctx.JsonProviderClient, "judge")
    assert {name for name in vars(streamctx.JsonProviderClient) if not name.startswith("_")} == {
        "hidden_states", "embed", "select", "score", "generate",
    }
    assert not hasattr(streamctx.DialogueHistory, "extended")
    assert list(inspect.signature(streamctx.DialogueHistory.overlaps).parameters) == [
        "self", "question",
    ]
    for name in ("endpoints", "alpha_len", "num_paths"):
        assert not hasattr(streamctx.EngineConfig(), name)
    assert [f.name for f in dataclasses.fields(streamctx.SimulationReport)] == ["records", "summary"]
    assert list(inspect.signature(streamctx.embed_question).parameters) == ["question", "embedder"]
    assert list(inspect.signature(streamctx.embed_event).parameters) == ["event", "summarizer"]
    assert list(inspect.signature(streamctx.render_layout).parameters) == ["package"]
    params = inspect.signature(streamctx.cluster).parameters
    assert list(params) == ["frames", "config", "frozen"]
    assert params["frozen"].kind is inspect.Parameter.KEYWORD_ONLY
    params = inspect.signature(streamctx.simulate).parameters
    assert "base_dir" not in params
    assert params["frames"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["frames"].default is inspect.Parameter.empty
    assert "segment_seconds" not in {f.name for f in dataclasses.fields(streamctx.SyntheticSpec)}


def test_events_and_units_hold_no_token_arrays():
    assert [f.name for f in dataclasses.fields(streamctx.Event)] == [
        "event_id", "frame_indices", "prefix", "time_centroid", "start_s", "end_s",
    ]
    assert [f.name for f in dataclasses.fields(streamctx.VisualUnit)] == [
        "kind", "event_id", "num_frames", "patch_count", "start_s", "time_centroid",
    ]
    for name in ("frames", "pooled", "feature_centroid", "cluster_index"):
        assert not hasattr(streamctx.Event, name)
    for name in ("data", "timestamps"):
        assert not hasattr(streamctx.VisualUnit, name)


def test_simulate_keeps_what_the_benchmark_tracer_wraps(monkeypatch):
    """``replaybench/tracing.py`` swaps these globals of ``streamctx.simulate``
    and calls ``compress_stream`` positionally; a rename breaks traced runs."""
    path = Path(__file__).resolve().parent.parent / "replaybench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("replaybench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    assert sorted(tracing.SIMULATE_CALLS) == sorted([
        "cluster", "events_from", "embed_event", "embed_question",
        "compress_stream", "retrieve", "assemble", "generate_answer",
    ])
    module = importlib.import_module("streamctx.simulate")
    for name in tracing.SIMULATE_CALLS:
        assert callable(getattr(module, name, None)), name
    assert list(inspect.signature(module.compress_stream).parameters) == [
        "events", "embeddings", "question_vec", "config",
    ]
    qa_id = inspect.signature(module.generate_answer).parameters["qa_id"]
    assert qa_id.kind is inspect.Parameter.KEYWORD_ONLY


def _module_containers() -> dict[str, str]:
    """The repr of every mutable container a ``streamctx`` module or class holds."""
    held = {}
    for info in pkgutil.iter_modules(streamctx.__path__):
        module = importlib.import_module(f"streamctx.{info.name}")
        for name, value in vars(module).items():
            scope = [(name, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                scope += [(f"{name}.{key}", attr) for key, attr in vars(value).items()]
            for key, obj in scope:
                if isinstance(obj, (dict, list, set, bytearray)) and "__" not in key:
                    held[f"{module.__name__}.{key}"] = repr(obj)
    return held


def test_src_holds_no_module_level_cache(default_session):
    """What a replay carries lives in objects the call owns, never in a module."""
    src = Path(streamctx.__file__).resolve().parent
    for path in src.glob("*.py"):
        text = path.read_text()
        for name in ("lru_cache", "functools.cache", "WeakKeyDictionary", "WeakValueDictionary"):
            assert name not in text, f"{path.name} uses {name}"
    before = _module_containers()
    assert before  # the schemas and templates are there to compare
    for mode in ("fallback", "oracle"):
        config = streamctx.EngineConfig(retrieval_mode=mode)
        streamctx.simulate(default_session.manifest, 0, config, frames=default_session.frames)
    assert _module_containers() == before
