import builtins
import json

import numpy as np
import pytest

from streamctx import cli, errors
from streamctx.cli import build_parser, main
from streamctx.paths import RELEVANCE_THRESHOLD, PathConfig
from streamctx.simulate import simulate
from streamctx.store import FrameFeature, load_manifest, load_session_frames, save_embeddings
from streamctx.synthetic import SyntheticSpec, build_synthetic, make_synthetic


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(["make-synthetic", "--out-dir", str(out), "--segments", "3"])
    assert code == 0
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMakeSynthetic:
    def test_reports_what_it_wrote(self, corpus, capsys, tmp_path):
        code, out, err = run(
            capsys, "make-synthetic", "--out-dir", str(tmp_path), "--segments", "2",
            "--global-count", "1",
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["segments"] == 2
        assert obj["qa_pool"] == 2 * 4 + 1
        assert obj["streams"] == 1

    def test_files_exist_and_load(self, corpus):
        manifest = load_manifest(corpus / "manifest.json")
        assert len(manifest.segments) == 3
        for seg in manifest.segments:
            assert (corpus / seg.embedding_ref).is_file()

    def test_seed_changes_the_corpus(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "make-synthetic", "--out-dir", str(a), "--segments", "1")
        run(capsys, "make-synthetic", "--out-dir", str(b), "--segments", "1", "--seed", "7")
        bin_a = (a / "embeddings" / "segment_001.bin").read_bytes()
        bin_b = (b / "embeddings" / "segment_001.bin").read_bytes()
        assert bin_a != bin_b


class TestCluster:
    def test_clusters_one_segment(self, corpus, capsys):
        code, out, err = run(
            capsys, "cluster", "--embeddings", str(corpus / "embeddings" / "segment_001.bin"),
            "--k", "2",
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert len(obj["assignments"]) == 10
        assert set(obj["assignments"]) == {0, 1}
        assert obj["iterations"] >= 1

    def test_k_defaults_to_ratio_rule(self, corpus, capsys):
        code, out, _ = run(
            capsys, "cluster", "--embeddings", str(corpus / "embeddings" / "segment_001.bin")
        )
        assert code == 0
        # 10 frames at ratio 1/15 clamps up to a single cluster
        assert set(json.loads(out)["assignments"]) == {0}

    def test_out_writes_file_instead_of_stdout(self, corpus, capsys, tmp_path):
        target = tmp_path / "clusters.json"
        code, out, _ = run(
            capsys, "cluster", "--embeddings", str(corpus / "embeddings" / "segment_001.bin"),
            "--k", "2", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert len(json.loads(target.read_text())["assignments"]) == 10

    def test_alpha_time_flag_matches_the_config_key(self, corpus, capsys, tmp_path):
        embeddings = str(corpus / "embeddings" / "segment_001.bin")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha_time": 0.0}))
        _, from_flag, _ = run(capsys, "cluster", "--embeddings", embeddings, "--k", "3",
                              "--alpha-time", "0")
        _, from_file, _ = run(capsys, "cluster", "--embeddings", embeddings, "--k", "3",
                              "--config", str(config))
        _, default, _ = run(capsys, "cluster", "--embeddings", embeddings, "--k", "3")
        assert from_flag == from_file
        assert json.loads(from_flag)["k"] == json.loads(default)["k"] == 3

    def test_missing_file_is_a_json_error(self, capsys):
        code, out, err = run(capsys, "cluster", "--embeddings", "/no/such/file.bin")
        assert code == 1 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "FileNotFoundError"
        assert "message" in obj


class TestCompress:
    def test_units_and_ratio(self, corpus, capsys):
        code, out, err = run(
            capsys, "compress",
            "--embeddings", str(corpus / "embeddings" / "segment_001.bin"),
            "--question", "what is the red mug doing", "--k", "2",
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["theta"] == 0.45
        assert len(obj["units"]) == 2
        assert 0 < obj["compression_ratio"] <= 1
        for unit in obj["units"]:
            assert unit["kind"] in ("preserved", "pooled")

    def test_theta_floor_preserves_everything(self, corpus, capsys):
        code, out, _ = run(
            capsys, "compress",
            "--embeddings", str(corpus / "embeddings" / "segment_001.bin"),
            "--question", "anything", "--k", "2", "--theta", "-1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["compression_ratio"] == 1.0
        assert all(u["kind"] == "preserved" for u in obj["units"])


class TestRetrieve:
    def test_retrieves_for_a_stream_question(self, corpus, capsys):
        manifest = load_manifest(corpus / "manifest.json")
        entry = manifest.dialogue_streams[0].entries[-1]
        code, out, err = run(
            capsys, "retrieve", "--manifest", str(corpus / "manifest.json"),
            "--qa-id", str(entry.qa_id),
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["qa_id"] == entry.qa_id
        assert obj["history_size"] == len(manifest.dialogue_streams[0].entries) - 1
        assert obj["delta"] in (0, 1)
        assert isinstance(obj["selected_ids"], list)

    def test_provider_mode_is_a_json_error(self, corpus, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval_mode": "provider"}))
        entry = load_manifest(corpus / "manifest.json").dialogue_streams[0].entries[-1]
        code, out, err = run(
            capsys, "retrieve", "--manifest", str(corpus / "manifest.json"),
            "--qa-id", str(entry.qa_id), "--config", str(config),
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InvalidConfigError"

    def test_unknown_qa_id_fails_cleanly(self, corpus, capsys):
        code, _, err = run(
            capsys, "retrieve", "--manifest", str(corpus / "manifest.json"), "--qa-id", "999"
        )
        assert code == 1
        assert json.loads(err)["error"] == "InvalidConfigError"


class TestScoreAndPaths:
    def test_score_relevance_writes_updated_manifest(self, corpus, capsys, tmp_path):
        target = tmp_path / "scored.json"
        code, out, err = run(
            capsys, "score-relevance", "--manifest", str(corpus / "manifest.json"),
            "--out", str(target),
        )
        assert code == 0 and err == ""
        assert json.loads(out)["pairs_scored"] > 0
        scored = load_manifest(target)
        later = [qa for qa in scored.qa_pool if qa.segment_id > 1]
        assert any(qa.relevance_scores for qa in later)

    def test_build_paths_attaches_streams(self, corpus, capsys, tmp_path):
        target = tmp_path / "with_paths.json"
        code, out, err = run(
            capsys, "build-paths", "--manifest", str(corpus / "manifest.json"),
            "--num-paths", "2", "--out", str(target),
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["paths"] == 2 and len(obj["lengths"]) == 2
        assert len(load_manifest(target).dialogue_streams) == 2


class TestSimulateAndEval:
    def test_simulate_streams_jsonl_to_stdout(self, corpus, capsys):
        code, out, err = run(capsys, "simulate", "--manifest", str(corpus / "manifest.json"))
        assert code == 0 and err == ""
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[-1]["kind"] == "summary"
        assert lines[-1]["failed_questions"] == 0
        assert lines[-1]["leakage_violations"] == 0
        assert all(obj["kind"] == "record" for obj in lines[:-1])

    def test_simulate_out_writes_report(self, corpus, capsys, tmp_path):
        report = tmp_path / "report.jsonl"
        code, out, _ = run(
            capsys, "simulate", "--manifest", str(corpus / "manifest.json"),
            "--out", str(report),
        )
        assert code == 0
        assert json.loads(out)["questions"] >= 1
        assert report.is_file()

    def test_eval_pools_reports(self, corpus, capsys, tmp_path):
        report = tmp_path / "report.jsonl"
        run(capsys, "simulate", "--manifest", str(corpus / "manifest.json"), "--out", str(report))
        code, out, err = run(capsys, "eval", str(report), str(report))
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["questions"] == 2 * json.loads(report.read_text().splitlines()[-1])["questions"]
        assert obj["retrieval"]["tp"] >= 0

    def test_config_file_and_seed_override(self, corpus, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"theta": 0.9, "seed": 1}))
        code, out, _ = run(
            capsys, "simulate", "--manifest", str(corpus / "manifest.json"),
            "--config", str(config), "--seed", "5",
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["config"]["theta"] == 0.9
        assert summary["config"]["seed"] == 5

    def test_segments_that_disagree_on_shape_are_one_json_error_line(self, capsys, tmp_path):
        session = make_synthetic(SyntheticSpec(), out_dir=tmp_path)
        last = session.manifest.segments[-1]
        frames = [
            FrameFeature(np.ones((2, 9), dtype=np.float32), last.start_s + i) for i in range(10)
        ]
        save_embeddings(tmp_path / last.embedding_ref, frames)
        code, out, err = run(capsys, "simulate", "--manifest", str(tmp_path / "manifest.json"))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "DimensionMismatchError"

    def test_a_wrongly_typed_manifest_value_is_one_json_error_line(self, capsys, tmp_path):
        make_synthetic(SyntheticSpec(), out_dir=tmp_path)
        manifest = tmp_path / "manifest.json"
        obj = json.loads(manifest.read_text())
        obj["segments"][0]["embedding_ref"] = 5
        manifest.write_text(json.dumps(obj))
        code, out, err = run(capsys, "simulate", "--manifest", str(manifest))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ManifestError"
        assert "embedding_ref" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "bad",
        [
            {"retrieval_threshold": "x"},
            {"theta": "x"},
            {"alpha_len": 0.3},
            {"retrieval_mode": "provider"},
        ],
    )
    def test_bad_config_is_one_json_error_line(self, corpus, capsys, tmp_path, bad):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bad))
        code, out, err = run(
            capsys, "simulate", "--manifest", str(corpus / "manifest.json"),
            "--config", str(config),
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "InvalidConfigError"


@pytest.fixture(scope="module")
def report_file(corpus, tmp_path_factory):
    """A good report of the corpus's first stream."""
    manifest = load_manifest(corpus / "manifest.json")
    path = tmp_path_factory.mktemp("report") / "report.jsonl"
    simulate(manifest, 0, frames=load_session_frames(manifest, corpus)).write(path)
    return path


def _file(directory, name, content) -> str:
    path = directory / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def _segment(corpus) -> str:
    return str(corpus / "embeddings" / "segment_001.bin")


def _manifest(corpus) -> str:
    return str(corpus / "manifest.json")


#: Every subcommand fed bad input: (command, case, expected error, the
#: arguments after the command, built from the corpus, a good report and a
#: scratch directory).
BAD_INPUT = [
    ("eval", "line-not-an-object", "ValueError",
     lambda c, r, t: [_file(t, "r.jsonl", "[1]\n")]),
    ("eval", "incomplete-record", "ValueError",
     lambda c, r, t: [_file(t, "r.jsonl", '{"kind": "record", "qa_id": 1}\n')]),
    ("eval", "stray-summary-line", "ValueError",
     lambda c, r, t: [_file(t, "r.jsonl", r.read_text() + '{"kind": "summary"}\n')]),
    ("eval", "line-not-json", "ValueError",
     lambda c, r, t: [_file(t, "r.jsonl", r.read_text() + "not json\n")]),
    ("compress", "question-without-a-word", "ValueError",
     lambda c, r, t: ["--embeddings", _segment(c), "--question", "???"]),
    ("compress", "truncated-file", "TruncatedPayloadError",
     lambda c, r, t: [
         "--question", "what", "--embeddings",
         _file(t, "cut.bin", (c / "embeddings" / "segment_001.bin").read_bytes()[:-7]),
     ]),
    ("cluster", "not-a-cgse-file", "BadMagicError",
     lambda c, r, t: ["--embeddings", _file(t, "x.bin", b"NOPE" + bytes(40))]),
    ("cluster", "k-above-frame-count", "InvalidConfigError",
     lambda c, r, t: ["--embeddings", _segment(c), "--k", "11"]),
    ("simulate", "manifest-is-a-list", "ManifestError",
     lambda c, r, t: ["--manifest", _file(t, "manifest.json", "[]")]),
    ("simulate", "config-is-a-list", "InvalidConfigError",
     lambda c, r, t: ["--manifest", _manifest(c), "--config", _file(t, "c.json", "[]")]),
    ("simulate", "config-value-of-wrong-type", "InvalidConfigError",
     lambda c, r, t: [
         "--manifest", _manifest(c), "--config", _file(t, "c.json", '{"max_iters": "9"}'),
     ]),
    ("simulate", "stream-out-of-range", "InvalidConfigError",
     lambda c, r, t: ["--manifest", _manifest(c), "--stream", "9"]),
    ("retrieve", "qa-id-not-on-stream", "InvalidConfigError",
     lambda c, r, t: ["--manifest", _manifest(c), "--qa-id", "999"]),
    ("score-relevance", "manifest-is-a-list", "ManifestError",
     lambda c, r, t: ["--manifest", _file(t, "manifest.json", "[]")]),
    ("build-paths", "zero-paths", "InvalidConfigError",
     lambda c, r, t: ["--manifest", _manifest(c), "--num-paths", "0", "--out", str(t / "m.json")]),
    ("make-synthetic", "zero-segments", "InvalidConfigError",
     lambda c, r, t: ["--out-dir", str(t / "s"), "--segments", "0"]),
]


class TestBadInput:
    @pytest.mark.parametrize(
        "command,case,error,args", BAD_INPUT, ids=[f"{cmd}-{case}" for cmd, case, *_ in BAD_INPUT]
    )
    def test_bad_input_is_one_json_error_line(
        self, corpus, report_file, capsys, tmp_path, command, case, error, args
    ):
        code, out, err = run(capsys, command, *args(corpus, report_file, tmp_path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        obj = json.loads(err)
        assert set(obj) == {"error", "message"} and obj["message"]
        cls = getattr(errors, obj["error"], None) or getattr(builtins, obj["error"])
        assert issubclass(cls, (errors.StreamContextError, ValueError, OSError))
        assert obj["error"] == error


class TestParser:
    def test_defaults_come_from_their_sources(self, monkeypatch, tmp_path):
        parser = build_parser()
        args = parser.parse_args(["score-relevance", "--manifest", "m.json"])
        assert args.threshold == RELEVANCE_THRESHOLD
        args = parser.parse_args(["build-paths", "--manifest", "m.json"])
        paths = PathConfig()
        assert args.complex_per_segment == paths.complex_per_segment
        assert (args.num_paths, args.alpha_len, args.seed) == (
            paths.num_paths, paths.alpha_len, paths.seed,
        )
        args = parser.parse_args(["make-synthetic", "--out-dir", str(tmp_path)])
        assert args.seed == SyntheticSpec().seed
        specs = []

        def build_only(spec, out_dir):
            specs.append(spec)
            return build_synthetic(spec)

        monkeypatch.setattr(cli, "make_synthetic", build_only)
        assert main(["make-synthetic", "--out-dir", str(tmp_path)]) == 0
        assert specs == [SyntheticSpec()]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("streamctx ")

    def test_unknown_command_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["score-relevance", "--manifest", "m.json", "--config", "c.json"],
            ["score-relevance", "--manifest", "m.json", "--seed", "1"],
            ["eval", "r.jsonl", "--config", "c.json"],
            ["eval", "r.jsonl", "--seed", "1"],
            ["make-synthetic", "--out-dir", "d", "--config", "c.json"],
            # not an abbreviation of --out-dir
            ["make-synthetic", "--out-dir", "d", "--out", "y"],
            ["build-paths", "--manifest", "m.json", "--config", "c.json"],
            ["retrieve", "--manifest", "m.json", "--qa-id", "1", "--seed", "1"],
        ],
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
