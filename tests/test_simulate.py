import hashlib
import importlib
import json
import re
from collections import Counter, defaultdict
from dataclasses import fields, replace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctx import clustering
from streamctx.compression import VisualUnit, embed_event
from streamctx.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    ManifestError,
    ProviderError,
)
from streamctx.providers import EchoGenerator, HashingQuestionEmbedder, JsonProviderClient
from streamctx.retrieval import DialogueHistory, RetrievalMetrics, micro_metrics
from streamctx.simulate import (
    REPORT_LINE_SCHEMA,
    RETRIEVAL_MODES,
    VOLATILE_FIELDS,
    EngineConfig,
    ProviderSet,
    SimulationReport,
    evaluate,
    load_report_records,
    simulate,
    summarize_records,
    validate_report,
)
from streamctx.store import DialoguePath, FrameFeature, PathEntry, load_session_frames
from streamctx.synthetic import SyntheticSpec, build_synthetic, make_synthetic

from conftest import other_json_type
from test_clustering import _kmeanspp_reference
from test_reference_replay import FaultySummarizer


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.cluster_ratio == 1 / 15
        assert cfg.alpha_time == 1.0
        assert cfg.epsilon == 1e-4
        assert cfg.max_iters == 100
        assert cfg.theta == 0.45
        assert cfg.retrieval_mode == "fallback"
        assert cfg.retrieval_threshold == 0.3
        assert cfg.use_gold_answers is False
        assert cfg.seed == 0
        assert list(cfg.to_dict()) == [
            "cluster_ratio", "alpha_time", "epsilon", "max_iters", "theta",
            "retrieval_mode", "retrieval_threshold", "use_gold_answers", "seed",
        ]

    def test_round_trip(self):
        cfg = EngineConfig(theta=0.6, seed=9, retrieval_mode="oracle")
        again = EngineConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidConfigError, match="thetta"):
            EngineConfig.from_dict({"thetta": 0.5})

    @pytest.mark.parametrize("key, value", [("alpha_len", 0.3), ("num_paths", 3)])
    def test_path_sampler_keys_are_not_engine_settings(self, key, value):
        with pytest.raises(InvalidConfigError, match=key):
            EngineConfig.from_dict({key: value})

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"theta": 0.2, "seed": 3}))
        cfg = EngineConfig.from_file(path)
        assert cfg.theta == 0.2 and cfg.seed == 3
        path.write_text("{not json")
        with pytest.raises(InvalidConfigError):
            EngineConfig.from_file(path)

    def test_validation(self):
        assert RETRIEVAL_MODES == ("fallback", "provider", "oracle")
        with pytest.raises(InvalidConfigError):
            EngineConfig(retrieval_mode="psychic")
        with pytest.raises(InvalidConfigError):
            EngineConfig(cluster_ratio=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": 2.0},
            {"alpha_time": -1.0},
            {"max_iters": 0},
            {"epsilon": -1e-9},
            {"cluster_ratio": float("inf")},
            {"theta": float("nan")},
            {"retrieval_threshold": float("nan")},
            {"retrieval_threshold": float("inf")},
            {"retrieval_threshold": -0.1},
            {"retrieval_threshold": 1.5},
            {"seed": -1},
        ],
    )
    def test_stage_config_rules_apply_at_construction(self, kwargs):
        with pytest.raises(InvalidConfigError):
            EngineConfig(**kwargs)
        with pytest.raises(InvalidConfigError):
            EngineConfig.from_dict(kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retrieval_threshold": "x"},
            {"theta": "x"},
            {"epsilon": "x"},
            {"cluster_ratio": None},
            {"max_iters": 2.5},
            {"seed": 1.0},
            {"seed": True},
            {"theta": True},
            {"use_gold_answers": 1},
            {"retrieval_mode": 3},
        ],
    )
    def test_wrong_types_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            EngineConfig.from_dict(kwargs)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_value_of_another_json_type_is_an_invalid_config(self, data):
        obj = EngineConfig(theta=0.6, seed=9, retrieval_mode="oracle").to_dict()
        key = data.draw(st.sampled_from(sorted(obj)), label="key")
        obj[key] = data.draw(other_json_type(obj[key]), label="value")
        with pytest.raises(InvalidConfigError):
            EngineConfig.from_dict(obj)

    def test_ints_count_as_floats(self):
        cfg = EngineConfig.from_dict({"theta": 0, "alpha_time": 2, "retrieval_threshold": 1})
        assert cfg.theta == 0 and cfg.alpha_time == 2 and cfg.retrieval_threshold == 1
        # and are stored as floats; int fields stay ints
        assert {type(v) for v in (cfg.theta, cfg.alpha_time, cfg.retrieval_threshold)} == {float}
        assert type(cfg.max_iters) is int and type(cfg.seed) is int

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]"])
    def test_config_must_be_an_object(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(InvalidConfigError):
            EngineConfig.from_file(path)

    def test_stage_configs_carry_the_engine_settings(self):
        cfg = EngineConfig(alpha_time=0.5, max_iters=7, epsilon=1e-3, theta=0.2, seed=4)
        stage = cfg.cluster_config(k=3, seed=11)
        assert (stage.k, stage.alpha_time, stage.max_iters, stage.epsilon, stage.seed) == (
            3, 0.5, 7, 1e-3, 11,
        )
        assert cfg.compression_config().theta == 0.2


#: The names ``simulate`` calls through its module globals, which the replay
#: benchmark's tracer wraps.
SIMULATE_CALLS = (
    "cluster", "events_from", "embed_event", "embed_question",
    "compress_stream", "retrieve", "assemble", "generate_answer",
)


@pytest.fixture
def calls(monkeypatch):
    """Recording wrappers around every name in SIMULATE_CALLS."""
    module = importlib.import_module("streamctx.simulate")
    seen = defaultdict(list)

    def recording(name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            seen[name].append((args, kwargs, result))
            return result

        monkeypatch.setattr(module, name, wrapper)

    for name in SIMULATE_CALLS:
        recording(name)
    return seen


class NullRetriever:
    """An injected retriever that never selects a turn."""

    provider_id = "null"

    def __init__(self):
        self.calls = 0

    def select(self, request):
        self.calls += 1
        return "delta=0;selected="


@pytest.fixture(scope="module")
def report(default_session):
    return simulate(default_session.manifest, 0, EngineConfig(), frames=default_session.frames)


class TestSimulateFallback:
    def test_every_question_completes(self, report):
        assert report.summary["questions"] == len(report.records) == 20
        assert report.summary["failed_questions"] == 0
        assert all("error" not in r for r in report.records)

    def test_no_leakage(self, report):
        assert report.summary["leakage_violations"] == 0

    def test_history_grows_one_turn_per_question(self, report):
        assert [r["history_size"] for r in report.records] == list(range(20))

    def test_ask_times_non_decreasing(self, report):
        times = [r["ask_time"] for r in report.records]
        assert times == sorted(times)

    def test_frames_accumulate_with_the_stream(self, report):
        counts = [r["num_frames"] for r in report.records]
        assert counts == sorted(counts)
        assert counts[0] == 10 and counts[-1] == 50
        assert all(r["k"] >= 1 for r in report.records)

    def test_compression_accounting_is_coherent(self, report):
        for r in report.records:
            assert r["preserved_events"] + r["pooled_events"] == r["num_events"]
            assert 0 < r["compression_ratio"] <= 1
            assert r["visual_tokens"] >= 0

    def test_answers_come_from_the_echo_fallback(self, report):
        for r in report.records:
            assert r["answer"].startswith("echo(")
            assert r["answer_provider"] == "fallback-echo"

    def test_schema_validates(self, report):
        validate_report(report)
        validate_report(report.lines())

    def test_byte_identical_rerun(self, report, default_session):
        again = simulate(
            default_session.manifest, 0, EngineConfig(), frames=default_session.frames
        )
        assert again.canonical_bytes() == report.canonical_bytes()

    def test_equal_configs_write_equal_bytes(self, default_session):
        int_given, float_given = EngineConfig(alpha_time=0), EngineConfig(alpha_time=0.0)
        assert int_given == float_given
        a, b = (
            simulate(default_session.manifest, 0, cfg, frames=default_session.frames)
            for cfg in (int_given, float_given)
        )
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_wall_time_is_reported_but_not_canonical(self, report):
        assert VOLATILE_FIELDS == ("wall_ms",)
        full = report.lines()
        canonical = report.lines(canonical=True)
        assert all("wall_ms" in json.loads(line) for line in full[:-1])
        assert all("wall_ms" not in json.loads(line) for line in canonical[:-1])

    def test_summary_embeds_config(self, report):
        assert report.summary["config"] == EngineConfig().to_dict()
        assert report.summary["video_id"] == "synthetic-0"
        assert report.summary["stream_index"] == 0

    def test_write_and_reload(self, report, tmp_path):
        out = tmp_path / "report.jsonl"
        report.write(out)
        records = load_report_records(out)
        assert len(records) == 20
        assert records[0]["qa_id"] == report.records[0]["qa_id"]


class TestSimulateModes:
    def test_oracle_retrieval_is_perfect(self, default_session):
        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(retrieval_mode="oracle"),
            frames=default_session.frames,
        )
        assert report.summary["failed_questions"] == 0
        corpus = report.summary["retrieval"]
        assert corpus["f1"] == 1.0
        assert corpus["fp"] == 0 and corpus["fn"] == 0

    def test_provider_retrieval_uses_injected_retriever(self, default_session):
        retriever = NullRetriever()
        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(retrieval_mode="provider"),
            frames=default_session.frames,
            providers=ProviderSet(retriever=retriever),
        )
        assert retriever.calls == 20
        assert report.summary["failed_questions"] == 0
        assert all(r["retrieval"]["selected_ids"] == [] for r in report.records)

    def test_provider_mode_without_a_retriever_fails_up_front(self, default_session, calls):
        with pytest.raises(InvalidConfigError, match="retriever"):
            simulate(
                default_session.manifest,
                0,
                EngineConfig(retrieval_mode="provider"),
                frames=default_session.frames,
                providers=ProviderSet(generator=EchoGenerator()),
            )
        assert not calls  # no question started

    def test_gold_answer_history_mode_runs_clean(self, default_session):
        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(use_gold_answers=True),
            frames=default_session.frames,
        )
        assert report.summary["failed_questions"] == 0
        # generated answers themselves still come from the generator
        assert all(r["answer"].startswith("echo(") for r in report.records)

    def test_frames_can_load_from_disk(self, tmp_path):
        session = make_synthetic(SyntheticSpec(segments=2, seed=1), out_dir=tmp_path)
        frames = load_session_frames(session.manifest, tmp_path)
        report = simulate(session.manifest, 0, EngineConfig(), frames=frames)
        assert report.summary["failed_questions"] == 0

    def test_input_validation(self, default_session):
        with pytest.raises(InvalidConfigError):
            simulate(default_session.manifest, 5, frames=default_session.frames)


class TestSimulateFailureModes:
    def test_generator_failure_is_contained(self, default_session):
        class Boom:
            provider_id = "boom"

            def generate(self, payload):
                raise RuntimeError("no model")

        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(),
            frames=default_session.frames,
            providers=ProviderSet(generator=Boom()),
        )
        assert report.summary["failed_questions"] == 20
        for r in report.records:
            assert r["error"]["type"] == "ProviderError"
            assert "answer" not in r
        # failed records still satisfy the report schema
        validate_report(report)
        # and the dialogue history kept growing on gold answers
        assert [r["history_size"] for r in report.records] == list(range(20))

    @pytest.mark.parametrize("reply", [5, b"x", ["a"], None, ""])
    def test_a_generator_reply_that_is_not_text_fails_its_question(self, default_session, reply):
        class BadSecondReply:
            provider_id = "bad-second-reply"

            def __init__(self):
                self.calls = 0

            def generate(self, payload):
                self.calls += 1
                return reply if self.calls == 2 else EchoGenerator().generate(payload)

        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(),
            frames=default_session.frames,
            providers=ProviderSet(generator=BadSecondReply()),
        )
        assert [r.get("error", {}).get("type") for r in report.records[:3]] == [
            None, "ProviderError", None,
        ]
        assert report.summary["failed_questions"] == 1
        validate_report(report)

    @pytest.mark.parametrize("role", ["summarizer", "embedder"])
    def test_summarizer_or_embedder_failure_is_a_provider_error(self, default_session, role):
        class Boom:
            provider_id = "boom"

            def hidden_states(self, features, prompt):
                raise RuntimeError("no model")

            def embed(self, text):
                raise RuntimeError("no model")

        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(),
            frames=default_session.frames,
            providers=ProviderSet(**{role: Boom()}),
        )
        assert report.summary["failed_questions"] == 20
        assert {r["error"]["type"] for r in report.records} == {"ProviderError"}

    @pytest.mark.parametrize("role", ["summarizer", "embedder"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_provider_vectors_are_provider_errors(self, default_session, role, bad):
        class NonFinite:
            provider_id = "non-finite"

            def hidden_states(self, features, prompt):
                return np.full_like(features, bad)

            def embed(self, text):
                return np.full(8, bad)

        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(),
            frames=default_session.frames,
            providers=ProviderSet(**{role: NonFinite()}),
        )
        assert report.summary["failed_questions"] == 20
        assert {r["error"]["type"] for r in report.records} == {"ProviderError"}
        assert all("NaN or infinite" in r["error"]["message"] for r in report.records)

    @pytest.mark.parametrize("wire", [False, True], ids=["in-process", "json-client"])
    @pytest.mark.parametrize(
        "malformed",
        [
            lambda f: f[0],  # 1-D
            lambda f: f[None],  # 3-D
            lambda f: f[:0],  # no row
            lambda f: np.full_like(f, np.nan),
        ],
        ids=["1-d", "3-d", "no-row", "nan"],
    )
    def test_a_malformed_summarizer_reply_fails_only_its_question(
        self, default_session, malformed, wire
    ):
        replies = []

        def reply(features):
            """Malformed the first time, then the features themselves."""
            replies.append(features)
            return malformed(features) if len(replies) == 1 else features

        if wire:
            def transport(url, body):
                return {"hidden_states": reply(np.asarray(body["features"])).tolist()}

            summarizer = JsonProviderClient("http://unit.test", transport, provider_id="wired")
        else:
            class InProcess:
                provider_id = "wired"

                def hidden_states(self, features, prompt):
                    return reply(features)

            summarizer = InProcess()
        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(),
            frames=default_session.frames,
            providers=ProviderSet(summarizer=summarizer),
        )
        first, *rest = report.records
        assert first["error"]["type"] == "ProviderError"
        assert first["error"]["message"].startswith("summarizer wired reply for event 1 ")
        assert not any("error" in rec for rec in rest)
        assert report.summary["failed_questions"] == 1

    def test_a_too_wide_summary_names_its_summarizer(self, default_session):
        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(),
            frames=default_session.frames,
            providers=ProviderSet(summarizer=FaultySummarizer(salt=1, every=2)),
        )
        wide = [r["error"]["message"] for r in report.records
                if r.get("error", {}).get("type") == "DimensionMismatchError"]
        assert wide
        assert all(re.fullmatch(r"event \d+ embedding from faulty-summarizer has dim 9 "
                                r"!= question dim 8", message) for message in wide)

    def test_a_bug_in_a_stage_crashes_the_run(self, default_session, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a bad input")

        module = importlib.import_module("streamctx.simulate")
        monkeypatch.setattr(module, "compress_stream", broken)
        with pytest.raises(TypeError, match="a bug"):
            simulate(default_session.manifest, 0, EngineConfig(), frames=default_session.frames)

    def test_segments_that_disagree_on_shape_fail_before_any_question(
        self, default_session, calls
    ):
        last = default_session.manifest.segments[-1]
        frames = dict(default_session.frames)
        frames[last.segment_id] = [
            FrameFeature(np.ones((2, 9), dtype=np.float32), last.start_s + i) for i in range(10)
        ]
        with pytest.raises(DimensionMismatchError):
            simulate(default_session.manifest, 0, EngineConfig(), frames=frames)
        assert not calls  # no question started

    def test_a_missing_segment_fails_before_any_question(self, default_session, calls):
        frames = dict(default_session.frames)
        del frames[3]
        with pytest.raises(ManifestError, match=r"missing \[3\], unknown \[\]"):
            simulate(default_session.manifest, 0, EngineConfig(), frames=frames)
        assert not calls

    def test_an_unlisted_segment_fails_before_any_question(self, default_session, calls):
        frames = {**default_session.frames, 9: default_session.frames[1]}
        with pytest.raises(ManifestError, match=r"missing \[\], unknown \[9\]"):
            simulate(default_session.manifest, 0, EngineConfig(), frames=frames)
        assert not calls

    def test_question_before_any_finished_segment(self, default_session):
        manifest = replace(
            default_session.manifest,
            dialogue_streams=(DialoguePath((PathEntry(qa_id=1, ask_time=5.0),)),),
        )
        report = simulate(manifest, 0, EngineConfig(), frames=default_session.frames)
        assert report.summary["failed_questions"] == 1
        assert "no finished segment" in report.records[0]["error"]["message"]

    def test_mis_stamped_frames_count_as_leakage(self, default_session):
        frames = {k: list(v) for k, v in default_session.frames.items()}
        # a frame claiming segment 1 but stamped past the segment's end
        patches = np.asarray(frames[1][0].patches)
        frames[1][-1] = FrameFeature(patches, 12.0)
        report = simulate(default_session.manifest, 0, EngineConfig(), frames=frames)
        assert report.summary["leakage_violations"] > 0


class TestEvaluate:
    def _records(self, session, **config_kwargs):
        report = simulate(
            session.manifest, 0, EngineConfig(**config_kwargs), frames=session.frames
        )
        return [json.loads(line) for line in report.lines()[:-1]]

    def test_matches_micro_aggregation(self, default_session):
        records = self._records(default_session)
        out = evaluate([records])
        confusions = [
            RetrievalMetrics(
                tp=r["retrieval_confusion"]["tp"],
                fp=r["retrieval_confusion"]["fp"],
                fn=r["retrieval_confusion"]["fn"],
                tn=r["retrieval_confusion"]["tn"],
            )
            for r in records
        ]
        expected = micro_metrics(confusions)
        assert out["retrieval"] == expected.to_dict()
        assert out["questions"] == 20 and out["failed_questions"] == 0

    def test_pools_multiple_record_sets(self, default_session):
        records = self._records(default_session)
        out = evaluate([records, records])
        assert out["questions"] == 40
        single = evaluate([records])
        assert out["retrieval"]["f1"] == single["retrieval"]["f1"]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate([[]])

    def test_summary_shares_the_aggregation(self, default_session):
        class FailsThird:
            provider_id = "fails-third"

            def __init__(self):
                self.calls = 0

            def generate(self, payload):
                self.calls += 1
                if self.calls % 3 == 0:
                    raise ProviderError("down")
                return EchoGenerator().generate(payload)

        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(),
            frames=default_session.frames,
            providers=ProviderSet(generator=FailsThird()),
        )
        assert report.summary["failed_questions"] == 6
        records = [json.loads(line) for line in report.lines()[:-1]]
        shared = evaluate([records])
        assert set(shared) == {
            "questions", "failed_questions", "retrieval",
            "mean_compression_ratio", "mean_tokens_per_question",
        }
        assert shared == {key: report.summary[key] for key in shared}
        assert summarize_records(report.records) == shared


class TestReportSchema:
    def test_bad_line_rejected(self, default_session):
        report = simulate(
            default_session.manifest, 0, EngineConfig(), frames=default_session.frames
        )
        lines = report.lines()
        broken = json.loads(lines[0])
        broken["compression_ratio"] = 0  # schema demands exclusiveMinimum 0
        with pytest.raises(jsonschema.ValidationError):
            validate_report([json.dumps(broken)])

    def test_schema_is_a_valid_schema(self):
        # validate_report compiles the schema without checking it
        jsonschema.Draft202012Validator.check_schema(REPORT_LINE_SCHEMA)

    def test_summary_line_is_last(self, default_session):
        report = simulate(
            default_session.manifest, 0, EngineConfig(), frames=default_session.frames
        )
        parsed = [json.loads(line) for line in report.lines()]
        assert parsed[-1]["kind"] == "summary"
        assert all(obj["kind"] == "record" for obj in parsed[:-1])


class TestTracerContract:
    """The replay benchmark's tracer swaps these names in ``streamctx.simulate``.

    It needs each one called through the module's globals, the frames as the
    first argument of ``cluster``, the history as the first argument of
    ``retrieve``, and ``qa_id=`` on ``generate_answer``.
    """

    @pytest.mark.parametrize("mode", ["fallback", "provider"])
    def test_every_traced_name_is_called(self, default_session, calls, mode, monkeypatch):
        # the history grows in place, so its length is read as retrieve is called
        module = importlib.import_module("streamctx.simulate")
        sizes, recorded = [], module.retrieve
        monkeypatch.setattr(
            module, "retrieve", lambda *a, **k: sizes.append(len(a[0])) or recorded(*a, **k)
        )
        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(retrieval_mode=mode),
            frames=default_session.frames,
            providers=ProviderSet(retriever=NullRetriever() if mode == "provider" else None),
        )
        assert report.summary["failed_questions"] == 0
        assert sorted(calls) == sorted(SIMULATE_CALLS)
        assert [len(args[0]) for args, _, _ in calls["cluster"]] == sorted(
            {rec["num_frames"] for rec in report.records}
        )
        histories = [args[0] for args, _, _ in calls["retrieve"]]
        assert all(isinstance(history, DialogueHistory) for history in histories)
        assert sizes == [rec["history_size"] for rec in report.records]
        assert [kwargs["qa_id"] for _, kwargs, _ in calls["generate_answer"]] == [
            rec["qa_id"] for rec in report.records
        ]


class CountingSummarizer:
    """Returns its features unchanged and keeps a digest of every payload it
    summarized; with ``fail_on`` set, that call (1-based) raises instead."""

    provider_id = "counting"

    def __init__(self, fail_on=None):
        self.fail_on = fail_on
        self.attempts = 0
        self.payloads = []

    def hidden_states(self, features, prompt):
        self.attempts += 1
        if self.attempts == self.fail_on:
            raise ProviderError("summarizer down")
        self.payloads.append(hashlib.blake2b(features.tobytes(), digest_size=16).digest())
        return features


@pytest.fixture(scope="module")
def surviving_events():
    """Two planted events per 30-frame segment: most events outlive their prefix."""
    return build_synthetic(SyntheticSpec(segments=6, frames_per_segment=30))


class TestPrefixReuse:
    """The visual pipeline runs once per visible prefix (finished-segment count)."""

    @staticmethod
    def _by_prefix(report):
        groups = defaultdict(list)
        for rec in report.records:
            groups[rec["num_frames"]].append(rec)
        return groups

    def test_cluster_once_per_prefix_and_embed_once_per_event(self, default_session, calls):
        report = simulate(
            default_session.manifest, 0, EngineConfig(), frames=default_session.frames
        )
        groups = self._by_prefix(report)
        assert len(groups) == 5 and all(len(g) == 4 for g in groups.values())
        assert sorted(len(args[0]) for args, _, _ in calls["cluster"]) == sorted(groups)
        assert len(calls["events_from"]) == len(groups)
        # a frozen event keeps its members, so its summary is embedded once
        members = {ev.frame_indices for _, _, events in calls["events_from"] for ev in events}
        assert len(calls["embed_event"]) == len(members)
        assert len(members) < sum(g[0]["num_events"] for g in groups.values())
        texts = {qa.qa_id: qa.question for qa in default_session.manifest.qa_pool}
        asked = [texts[rec["qa_id"]] for rec in report.records]
        assert len(set(asked)) < len(asked)  # some question is asked twice
        assert sorted(args[0] for args, _, _ in calls["embed_question"]) == sorted(set(asked))

    def test_questions_on_one_prefix_see_the_same_events(self, default_session):
        class SameVector:
            """Every question embeds alike, so every question splits alike."""

            provider_id = "same-vector"

            def embed(self, text):
                return np.linspace(-1.0, 1.0, 8)

        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(theta=0.0),
            frames=default_session.frames,
            providers=ProviderSet(embedder=SameVector()),
        )
        assert report.summary["failed_questions"] == 0
        keys = ("num_events", "cluster_iterations", "cluster_delta", "compression_ratio",
                "preserved_events", "visual_tokens")
        ratios = set()
        for group in self._by_prefix(report).values():
            assert len({tuple(rec[key] for key in keys) for rec in group}) == 1
            ratios.add(group[0]["compression_ratio"])
        assert len(ratios) > 1  # the split is not trivially all-preserved or all-pooled

    def test_units_are_built_once_per_prefix_and_turns_encoded_once(
        self, surviving_events, calls, monkeypatch
    ):
        module = importlib.import_module("streamctx.assembly")
        encoded, encode = Counter(), module._encode_unit
        monkeypatch.setattr(
            module, "_encode_unit", lambda unit: encoded.update([id(unit)]) or encode(unit)
        )
        session = surviving_events
        report = simulate(session.manifest, 0, EngineConfig(retrieval_mode="oracle", theta=0.0),
                          frames=session.frames)
        assert report.summary["failed_questions"] == 0

        by_prefix = defaultdict(list)
        for (_, _, units), rec in zip(calls["compress_stream"], report.records):
            by_prefix[rec["num_frames"]].append(units)
        assert any(len(group) > 1 for group in by_prefix.values())
        for group in by_prefix.values():
            seen = {}
            for units in group:
                for unit in units:
                    assert seen.setdefault((unit.event_id, unit.kind), unit) is unit

        selected = [turn for args, _, _ in calls["assemble"] for turn in args[1]]
        assert len(selected) > len({turn.qa_id for turn in selected})  # turns picked again
        packaged = [unit for _, _, package in calls["assemble"] for unit in package.units]
        assert set(encoded.values()) == {1}
        assert set(encoded) == {id(unit) for unit in packaged}

    def test_a_surviving_event_keeps_its_units_on_the_next_prefix(
        self, surviving_events, calls, monkeypatch
    ):
        module = importlib.import_module("streamctx.assembly")
        encoded, encode = [], module._encode_unit
        monkeypatch.setattr(
            module, "_encode_unit", lambda unit: encoded.append(unit) or encode(unit)
        )
        session = surviving_events
        report = simulate(session.manifest, 0, EngineConfig(retrieval_mode="oracle", theta=0.0),
                          frames=session.frames)
        assert report.summary["failed_questions"] == 0

        units, prefixes = {}, defaultdict(set)  # by (members, rank, kind)
        for (table, _, _, _), _, out in calls["compress_stream"]:
            members = {event.event_id: event.frame_indices for event in table}
            for unit in out:
                key = (members[unit.event_id], unit.event_id, unit.kind)
                assert units.setdefault(key, unit) is unit
                prefixes[key].add(len(table[0].prefix))
        assert any(len(seen) > 1 for seen in prefixes.values())  # some unit outlives its prefix
        visual = [unit for unit in encoded if isinstance(unit, VisualUnit)]
        assert len(visual) == len({id(unit) for unit in visual}) == len(units)

    @pytest.mark.parametrize("role", ["summarizer", "generator"])
    def test_failed_question_caches_nothing(self, default_session, calls, role):
        class FailsOnce:
            """Raises on its first call, then works like the offline fallback."""

            provider_id = "fails-once"

            def __init__(self):
                self.calls = 0

            def _first_call_fails(self):
                self.calls += 1
                if self.calls == 1:
                    raise ProviderError(f"{role} down")

            def hidden_states(self, features, prompt):
                self._first_call_fails()
                return features

            def generate(self, payload):
                self._first_call_fails()
                return EchoGenerator().generate(payload)

        report = simulate(
            default_session.manifest,
            0,
            EngineConfig(),
            frames=default_session.frames,
            providers=ProviderSet(**{role: FailsOnce()}),
        )
        first, second = report.records[:2]
        assert first["error"]["type"] == "ProviderError"
        assert "error" not in second
        assert report.summary["failed_questions"] == 1
        # both questions share a prefix, which clustered again for the second
        frame_counts = [len(args[0]) for args, _, _ in calls["cluster"]]
        assert frame_counts[:2] == [second["num_frames"]] * 2
        assert len(frame_counts) == len(set(frame_counts)) + 1 == 6

    def test_a_stream_that_skips_prefixes_clusters_them_as_one_that_asks_at_each(self, calls):
        # no workload skips a prefix, so only here does a frozen clustering
        # have to be computed for a prefix nobody asked about
        session = build_synthetic(SyntheticSpec(segments=10, frames_per_segment=15))
        manifest, ends = session.manifest, [seg.end_s for seg in session.manifest.segments]
        full = simulate(manifest, 0, EngineConfig(), frames=session.frames)
        assert {rec["num_frames"] // 15 for rec in full.records} == set(range(1, 11))
        asked, entries = {3, 8, 9, 10}, []
        for entry in manifest.dialogue_streams[0].entries:
            if sum(end <= entry.ask_time for end in ends) in asked:
                kept = {e.qa_id for e in entries}
                entries.append(replace(entry, gold_relevant=entry.gold_relevant & kept))
        skipping = replace(manifest, dialogue_streams=(DialoguePath(tuple(entries)),))
        calls.clear()
        report = simulate(skipping, 0, EngineConfig(), frames=session.frames)
        # 8 froze 4, 9 froze 5 and so 1, 10 froze 6 and so 2
        assert {len(args[0]) // 15 for args, _, _ in calls["cluster"]} == {1, 2, 3, 4, 5, 6,
                                                                           8, 9, 10}
        keys = ("num_frames", "k", "num_events", "cluster_iterations", "cluster_delta",
                "preserved_events", "visual_tokens")
        want = {rec["qa_id"]: [rec[key] for key in keys] for rec in full.records}
        assert len(report.records) == len(entries) > len(asked)
        for rec in report.records:
            assert [rec[key] for key in keys] == want[rec["qa_id"]]

    def test_each_member_set_is_summarized_once_per_stream(self, surviving_events, calls):
        summarizer = CountingSummarizer()
        report = simulate(
            surviving_events.manifest,
            0,
            EngineConfig(),
            frames=surviving_events.frames,
            providers=ProviderSet(summarizer=summarizer),
        )
        assert report.summary["failed_questions"] == 0
        events = [event for _, _, result in calls["events_from"] for event in result]
        member_sets = {event.frame_indices for event in events}
        assert len(summarizer.payloads) == len(set(summarizer.payloads)) == len(member_sets)
        assert len(member_sets) < len(events)
        # every question scores the embeddings a fresh summary gives
        for args, _, _ in calls["compress_stream"]:
            for event, embedding in zip(args[0], args[1]):
                fresh = embed_event(event, CountingSummarizer())
                assert np.array_equal(embedding.vector, fresh.vector)

    def test_a_failed_question_keeps_no_summary(self, surviving_events, calls):
        def run(summarizer):
            return simulate(
                surviving_events.manifest,
                0,
                EngineConfig(),
                frames=surviving_events.frames,
                providers=ProviderSet(summarizer=summarizer),
            )

        clean = CountingSummarizer()
        run(clean)
        first = len(calls["events_from"][0][2])  # member sets of the first prefix
        # the second prefix's first summary succeeds, its second one fails
        failing = CountingSummarizer(fail_on=first + 2)
        report = run(failing)
        assert report.summary["failed_questions"] == 1
        # the next question summarizes the failed question's events again
        assert failing.payloads == clean.payloads[: first + 1] + clean.payloads[first:]

    def test_events_hold_the_visible_prefix_and_copy_no_frame(self, default_session, calls):
        simulate(default_session.manifest, 0, EngineConfig(), frames=default_session.frames)
        assert calls["events_from"]
        for (_, visible), _, events in calls["events_from"]:
            for arr in (visible.timestamps, visible.features):
                assert arr.flags.writeable is False
                with pytest.raises(ValueError):
                    arr[0] = 0
            for event in events:
                assert event.prefix is visible
                assert event.num_frames == len(event.frame_indices)
                assert not any(isinstance(getattr(event, f.name), np.ndarray) for f in fields(event))

    def test_one_question_embedder_per_run(self, default_session, calls):
        report = simulate(
            default_session.manifest, 0, EngineConfig(), frames=default_session.frames
        )
        embedders = {id(args[1]) for args, _, _ in calls["embed_question"]}
        assert len(embedders) == 1
        assert isinstance(calls["embed_question"][0][0][1], HashingQuestionEmbedder)
        # the same vectors as a fresh embedder per question
        for args, _, vec in calls["embed_question"]:
            fresh = HashingQuestionEmbedder(8).embed(args[0])
            assert np.array_equal(vec, fresh)
        assert report.summary["failed_questions"] == 0


    def test_a_failed_question_keeps_no_question_vector(self, default_session):
        class CountingEmbedder(HashingQuestionEmbedder):
            def __init__(self):
                super().__init__(8)
                self.texts = Counter()

            def embed(self, text):
                self.texts[text] += 1
                return super().embed(text)

        class FailsOnSecond:
            provider_id = "fails-on-second"

            def __init__(self):
                self.calls = 0

            def generate(self, payload):
                self.calls += 1
                if self.calls == 2:
                    raise ProviderError("generator down")
                return EchoGenerator().generate(payload)

        def run(generator):
            embedder = CountingEmbedder()
            report = simulate(default_session.manifest, 0, EngineConfig(),
                              frames=default_session.frames,
                              providers=ProviderSet(embedder=embedder, generator=generator))
            return report, embedder.texts

        texts = {qa.qa_id: qa.question for qa in default_session.manifest.qa_pool}
        clean, counted = run(None)
        asked = [texts[rec["qa_id"]] for rec in clean.records]
        assert asked.count(asked[1]) == 2  # the second question is asked again later
        assert counted == Counter(set(asked))

        report, counted = run(FailsOnSecond())
        assert [rec.get("error", {}).get("type") for rec in report.records[:3]] == [
            None, "ProviderError", None,
        ]
        assert counted == Counter(set(asked)) + Counter([asked[1]])


def test_replay_from_disk_builds_no_per_frame_objects(tmp_path, monkeypatch):
    session = make_synthetic(SyntheticSpec(), out_dir=tmp_path)
    built = []
    original = FrameFeature.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FrameFeature, "__init__", counting)
    frames = load_session_frames(session.manifest, tmp_path)
    report = simulate(session.manifest, 0, EngineConfig(), frames=frames)
    assert report.summary["failed_questions"] == 0
    assert len(built) == 0


def test_norm_expanded_seeding_replays_like_the_exact_expression(monkeypatch):
    session = build_synthetic(
        SyntheticSpec(segments=4, frames_per_segment=30, patches=4, dim=16, num_streams=2, seed=3)
    )

    def replay():
        return [
            simulate(session.manifest, i, EngineConfig(), frames=session.frames).canonical_bytes()
            for i in (0, 1)
        ]

    guarded = replay()
    monkeypatch.setattr(
        clustering, "_kmeanspp_indices", lambda x, k, rng, x_sq=None: _kmeanspp_reference(x, k, rng)
    )
    assert replay() == guarded
