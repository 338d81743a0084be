"""Tests for the benchmark's own code: ARI, the output checks, tracing, smoke runs.

    python3 -m pytest replaybench
"""

import copy
import importlib
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import replay
import tracing
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent


class TestAdjustedRandIndex:
    def test_relabelled_partition_scores_one(self):
        assert checks.adjusted_rand_index([0, 0, 1, 1, 2], [7, 7, 3, 3, 5]) == 1.0

    def test_hand_computed_value(self):
        # Pairs together in both: 1; in a: 2; in b: 1; of 6 pairs.
        # expected = 2 * 1 / 6, maximum = 1.5, so ARI = (1 - 1/3) / (1.5 - 1/3) = 4/7.
        assert checks.adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4 / 7)

    def test_trivial_partitions_agree(self):
        assert checks.adjusted_rand_index([4, 4, 4], [1, 1, 1]) == 1.0
        assert checks.adjusted_rand_index([0, 1, 2], [2, 0, 1]) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            checks.adjusted_rand_index([0, 1], [0, 1, 1])


@pytest.fixture(scope="module")
def smoke_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    out = {}
    for name, workload in WORKLOADS.items():
        out[name] = base / name
        generate(workload.smoke(), 1, out[name])
    return out


@pytest.fixture(scope="module")
def stream_replay(smoke_inputs):
    _, session = replay.set_up(smoke_inputs["long-stream"])
    _, reports = replay.replay_pass(session, WORKLOADS["long-stream"].smoke())
    return session, reports


def doctored(report, **changes):
    """A copy of ``report`` whose last record has ``changes`` applied."""
    records = copy.deepcopy(list(report.records))
    for key, value in changes.items():
        target = records[-1]
        *path, leaf = key.split("__")
        for part in path:
            target = target[part]
        target[leaf] = value(target[leaf]) if callable(value) else value
    return replace(report, records=tuple(records))


class TestOutputChecks:
    def test_honest_replay_passes(self, stream_replay):
        session, reports = stream_replay
        for report in reports:
            checks.check_report(report, session.facts)

    @pytest.mark.parametrize("check, change", [
        pytest.param(lambda r, f: checks.check_schema(r), {"k": 0}, id="schema"),
        pytest.param(checks.check_frames_and_k, {"num_frames": lambda n: n + 1}, id="frames"),
        pytest.param(checks.check_frames_and_k, {"k": lambda k: k + 1}, id="k"),
        pytest.param(checks.check_visual_tokens, {"visual_tokens": lambda v: v + 1}, id="tokens"),
        pytest.param(checks.check_visual_tokens, {"retrieval__delta": 1}, id="text-only"),
        pytest.param(lambda r, f: checks.check_confusion(r),
                     {"retrieval_confusion__tp": lambda v: v + 1}, id="tp"),
        pytest.param(lambda r, f: checks.check_confusion(r),
                     {"history_size": lambda v: v + 1}, id="tn"),
    ])
    def test_doctored_record_rejected(self, stream_replay, check, change):
        session, reports = stream_replay
        with pytest.raises(checks.CheckFailure):
            check(doctored(reports[0], **change), session.facts)

    def test_leakage_rejected(self, stream_replay):
        _, reports = stream_replay
        leaky = replace(reports[0], summary={**reports[0].summary, "leakage_violations": 1})
        with pytest.raises(checks.CheckFailure, match="leakage"):
            checks.check_schema(leaky)

    def test_changed_bytes_rejected(self, stream_replay):
        _, reports = stream_replay
        reference = [report.canonical_bytes() for report in reports]
        checks.check_same_bytes(reference, reports)
        bad = [doctored(reports[0], answer="something else"), *reports[1:]]
        with pytest.raises(checks.CheckFailure, match="canonical bytes"):
            checks.check_same_bytes(reference, bad)

    def test_lossy_wire_rejected(self, smoke_inputs):
        workload = WORKLOADS["provider-wire"].smoke()
        _, session = replay.set_up(smoke_inputs["provider-wire"])
        _, wire = replay.replay_pass(session, workload)
        _, oracle = replay.replay_pass(session, workload, oracle=True)
        checks.check_lossless_wire(wire, oracle)
        bad = [doctored(wire[0], compression_ratio=lambda r: r / 2), *wire[1:]]
        with pytest.raises(checks.CheckFailure, match="compression_ratio"):
            checks.check_lossless_wire(bad, oracle)


class TestTracing:
    def test_missing_name_fails(self, monkeypatch):
        sim = importlib.import_module("streamctx.simulate")
        monkeypatch.delattr(sim, "events_from")
        with pytest.raises(tracing.TraceError, match="events_from"):
            with tracing.Tracer().installed():
                pass

    def test_uncalled_name_fails(self):
        with pytest.raises(tracing.TraceError, match="never called"):
            tracing.pass_metrics([tracing.Span("cluster", None)], {})

    def test_originals_restored(self):
        sim = importlib.import_module("streamctx.simulate")
        before = sim.cluster
        with tracing.Tracer().installed():
            assert sim.cluster is not before
        assert sim.cluster is before

    def test_self_time_excludes_children(self):
        spans = [tracing.Span("retrieve", None, 0.0, 0.010),
                 tracing.Span("transport", 0, 0.002, 0.006)]
        assert tracing.self_ms(spans) == pytest.approx([6.0, 4.0])


class TestSmokeRuns:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("trace", [False, True])
    def test_finishes_in_seconds(self, smoke_inputs, name, trace):
        started = time.perf_counter()
        outcome = replay.run_workload(WORKLOADS[name].smoke(), smoke_inputs[name], 0.1, trace)
        assert time.perf_counter() - started < 30
        assert outcome.correct, outcome.notes
        assert outcome.failed == 0 and outcome.attempted > 0
        units = replay.PER_LAYER if trace else replay.END_TO_END
        line = json.loads(outcome.result_line(units))
        assert set(line["metrics"]) == set(units)
        if not trace:
            assert line["metrics"]["event_ari"]["value"] > 0.9
        elif WORKLOADS[name].wire:
            assert line["metrics"]["providers.retries"]["value"] > 0


def test_full_workloads_ask_at_least_100_questions(tmp_path):
    for name, workload in WORKLOADS.items():
        generate(workload, 0, tmp_path / name)
        _, session = replay.set_up(tmp_path / name)
        asked = sum(len(stream) for stream in session.manifest.dialogue_streams)
        assert asked >= 100, name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == replay.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == replay.PER_LAYER
