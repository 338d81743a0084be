import json
import urllib.request

import numpy as np
import pytest

from streamctx import providers
from streamctx.errors import ProviderError
from streamctx.providers import (
    SUMMARY_PROMPT,
    EchoGenerator,
    Generator,
    HashingQuestionEmbedder,
    JsonProviderClient,
    RelevanceScorer,
    Retriever,
    Summarizer,
    TextEmbedder,
    embed_request,
    generate_request,
    score_request,
    summarize_request,
)

from conftest import cosine


class TestHashingEmbedder:
    def test_unit_norm_and_dim(self):
        emb = HashingQuestionEmbedder(32)
        v = emb.embed("where is the red ball")
        assert v.shape == (32,)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_deterministic_across_instances(self):
        a = HashingQuestionEmbedder(16).embed("the cat sat")
        b = HashingQuestionEmbedder(16).embed("the cat sat")
        assert np.array_equal(a, b)

    def test_punctuation_and_case_invariant(self):
        emb = HashingQuestionEmbedder(16)
        assert np.array_equal(emb.embed("Red Ball!"), emb.embed("red ball"))

    def test_term_frequency_matters(self):
        emb = HashingQuestionEmbedder(16)
        once = emb.embed("red ball")
        doubled = emb.embed("red red ball")
        assert not np.array_equal(once, doubled)
        # doubling every term only rescales the sum, so the direction holds
        assert cosine(emb.embed("red ball red ball"), once) == pytest.approx(1.0)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            HashingQuestionEmbedder(8).embed("  !!  ")
        with pytest.raises(ValueError):
            HashingQuestionEmbedder(0)

    def test_shared_vocabulary_scores_higher(self):
        emb = HashingQuestionEmbedder(64)
        anchor = emb.embed("the red ball rolled under the couch")
        near = emb.embed("where did the red ball roll")
        far = emb.embed("quarterly tax filings were submitted")
        assert cosine(anchor, near) > cosine(anchor, far)

    def test_disjoint_vocabulary_is_nearly_orthogonal_in_aggregate(self):
        # individual pairs can stray (|cos| up to ~0.4 at dim 64), so the
        # check is on the mean magnitude over many disjoint pairs
        emb = HashingQuestionEmbedder(64)
        rng = np.random.default_rng(0)
        mags = []
        for i in range(200):
            a = " ".join(f"lefta{i}w{j}" for j in range(rng.integers(2, 6)))
            b = " ".join(f"rightb{i}w{j}" for j in range(rng.integers(2, 6)))
            mags.append(abs(cosine(emb.embed(a), emb.embed(b))))
        assert np.mean(mags) < 0.2


class TestEchoGenerator:
    def test_digest_shape(self):
        payload = json.dumps(
            {
                "question": "what moved?",
                "delta": 0,
                "blocks": [
                    {"kind": "visual", "event_id": 2},
                    {"kind": "text", "qa_id": 7},
                    {"kind": "visual", "event_id": 1},
                ],
            }
        )
        out = EchoGenerator().generate(payload)
        assert out == "echo(question='what moved?'; delta=0; visual_events=[1, 2]; text_qas=[7])"

    def test_rejects_non_json(self):
        with pytest.raises(ProviderError):
            EchoGenerator().generate("not json")


class TestWireFormat:
    def test_summarize_request(self):
        req = summarize_request(np.asarray([[1.0, 2.0]]), SUMMARY_PROMPT)
        assert req == {"kind": "summarize", "features": [[1.0, 2.0]], "prompt": SUMMARY_PROMPT}
        with pytest.raises(ProviderError):
            summarize_request(np.asarray([1.0, 2.0]), "p")

    def test_embed_request(self):
        assert embed_request("hi") == {"kind": "embed", "text": "hi"}

    def test_score_request_keeps_only_question_and_answer(self):
        cur = {"question": "q2", "answer": "a2", "qa_id": 9}
        pri = {"question": "q1", "answer": "a1", "extra": True}
        assert score_request(cur, pri) == {
            "kind": "score",
            "current": {"question": "q2", "answer": "a2"},
            "prior": {"question": "q1", "answer": "a1"},
        }

    def test_generate_request(self):
        assert generate_request("{}") == {"kind": "generate", "payload": "{}"}


class _ScriptedTransport:
    """Canned responses keyed by request kind; records every call."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def __call__(self, url, body):
        self.calls.append((url, body))
        return self.responses[body["kind"]]


class TestHttpTransport:
    def test_timeout_is_passed_to_urlopen(self, monkeypatch):
        seen = {}

        class Reply:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return b'{"vector": [1.0]}'

        def fake_urlopen(req, timeout=None):
            seen["timeout"] = timeout
            return Reply()

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert JsonProviderClient("http://unit.test/v1").embed("q").tolist() == [1.0]
        assert seen["timeout"] == providers.HTTP_TIMEOUT_S > 0

    def test_timeout_surfaces_as_provider_error(self, monkeypatch):
        def hung(req, timeout=None):
            raise TimeoutError("timed out")

        monkeypatch.setattr(urllib.request, "urlopen", hung)
        with pytest.raises(ProviderError, match="timed out"):
            JsonProviderClient("http://unit.test/v1").embed("q")


class TestJsonProviderClient:
    def make(self, responses):
        transport = _ScriptedTransport(responses)
        return JsonProviderClient("http://unit.test/v1", transport=transport), transport

    def test_protocol_conformance(self):
        client, _ = self.make({})
        for proto in (Summarizer, TextEmbedder, Retriever, RelevanceScorer, Generator):
            assert isinstance(client, proto)
        assert isinstance(HashingQuestionEmbedder(4), TextEmbedder)
        assert isinstance(EchoGenerator(), Generator)

    def test_provider_id_defaults_to_endpoint(self):
        client, _ = self.make({})
        assert client.provider_id == "json:http://unit.test/v1"
        named = JsonProviderClient("http://x", transport=lambda u, b: {}, provider_id="prod-a")
        assert named.provider_id == "prod-a"

    def test_hidden_states_round_trip(self):
        client, transport = self.make({"summarize": {"hidden_states": [[0.0, 1.0], [2.0, 3.0]]}})
        out = client.hidden_states(np.ones((2, 3)), SUMMARY_PROMPT)
        assert out.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert transport.calls[0][1]["prompt"] == SUMMARY_PROMPT

    def test_embed_round_trip(self):
        client, _ = self.make({"embed": {"vector": [0.6, 0.8]}})
        assert client.embed("q").tolist() == [0.6, 0.8]

    def test_select_round_trip(self):
        client, transport = self.make({"retrieve": {"reply": "delta=0;selected=1"}})
        assert client.select({"kind": "retrieve", "question": "?"}) == "delta=0;selected=1"
        assert transport.calls[0][0] == "http://unit.test/v1"

    def test_score_round_trip(self):
        client, _ = self.make({"score": {"score": "6.5"}})
        qa = {"question": "q", "answer": "a"}
        assert client.score(qa, qa) == 6.5

    def test_generate_round_trip(self):
        client, _ = self.make({"generate": {"answer": "it moved left"}})
        assert client.generate("{}") == "it moved left"

    @pytest.mark.parametrize(
        "kind,call",
        [
            ("summarize", lambda c: c.hidden_states(np.ones((1, 2)), "p")),
            ("embed", lambda c: c.embed("q")),
            ("retrieve", lambda c: c.select({"kind": "retrieve"})),
            ("score", lambda c: c.score({"question": "q", "answer": "a"}, {"question": "q", "answer": "a"})),
            ("generate", lambda c: c.generate("{}")),
        ],
    )
    def test_missing_field_raises_provider_error(self, kind, call):
        client, _ = self.make({kind: {"unexpected": 1}})
        with pytest.raises(ProviderError):
            call(client)

    def test_malformed_shapes_raise(self):
        # a summarize reply's shape is checked by embed_event, for every summarizer
        client, _ = self.make({"embed": {"vector": []}})
        with pytest.raises(ProviderError):
            client.embed("q")
        client, _ = self.make({"retrieve": {"reply": 7}})
        with pytest.raises(ProviderError):
            client.select({"kind": "retrieve"})
        client, _ = self.make({"score": {"score": "not-a-number"}})
        with pytest.raises(ProviderError):
            client.score({"question": "q", "answer": "a"}, {"question": "q", "answer": "a"})

    def test_transport_exception_wrapped(self):
        def boom(url, body):
            raise OSError("connection refused")

        client = JsonProviderClient("http://down", transport=boom)
        with pytest.raises(ProviderError, match="transport failed"):
            client.embed("q")
