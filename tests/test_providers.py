import json
import urllib.request
from collections import Counter

import numpy as np
import pytest

from streamctx import providers
from streamctx.assembly import answer, assemble
from streamctx.clustering import Event
from streamctx.compression import embed_event, embed_question
from streamctx.errors import ProviderError, StreamContextError
from streamctx.paths import score_relevance
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
)
from streamctx.retrieval import DialogueHistory, HistoryItem, retrieve
from streamctx.simulate import EngineConfig, ProviderSet, simulate
from streamctx.store import FrameBlock, QARecord

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


class _ScriptedTransport:
    """Canned responses keyed by request kind; records every call."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def __call__(self, url, body):
        self.calls.append((url, body))
        return self.responses[body["kind"]]


class TestWireFormat:
    """Each role method sends the documented body, and nothing else."""

    @pytest.mark.parametrize(
        "call,body",
        [
            (
                lambda c: c.hidden_states(np.asarray([[1, 2]]), SUMMARY_PROMPT),
                {"kind": "summarize", "features": [[1.0, 2.0]], "prompt": SUMMARY_PROMPT},
            ),
            (lambda c: c.embed("hi"), {"kind": "embed", "text": "hi"}),
            (
                lambda c: c.select({"kind": "retrieve", "history": [], "question": "?"}),
                {"kind": "retrieve", "history": [], "question": "?"},
            ),
            (
                lambda c: c.score(
                    {"question": "q2", "answer": "a2", "qa_id": 9},
                    {"question": "q1", "answer": "a1", "extra": True},
                ),
                {
                    "kind": "score",
                    "current": {"question": "q2", "answer": "a2"},
                    "prior": {"question": "q1", "answer": "a1"},
                },
            ),
            (lambda c: c.generate("{}"), {"kind": "generate", "payload": "{}"}),
        ],
        ids=["summarize", "embed", "retrieve", "score", "generate"],
    )
    def test_request_body(self, call, body):
        transport = _ScriptedTransport({
            "summarize": {"hidden_states": [[0.0]]},
            "embed": {"vector": [1.0]},
            "retrieve": {"reply": "delta=0;selected="},
            "score": {"score": 1.0},
            "generate": {"answer": "a"},
        })
        call(JsonProviderClient("http://unit.test/v1", transport=transport))
        assert transport.calls == [("http://unit.test/v1", body)]


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
        client, _ = self.make({"score": {"score": 6.5}})
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

    def test_a_large_reply_missing_its_key_gives_a_short_message(self):
        # a failed record stores this message, so the reply is cut, not dumped
        client, _ = self.make({"embed": {"vec": list(range(5000))}})
        with pytest.raises(ProviderError) as info:
            client.embed("q")
        message = str(info.value)
        assert message.startswith("provider response is missing 'vector': {'vec': [0, 1, 2")
        assert len(message) < 200


# ---------------------------------------------------------------------------
# one rule per role, whichever transport carries the reply


class _Roles:
    """All five roles in-process: ``role`` replies ``bad`` (raising it, if it
    is an exception) where ``spoils(question, call)`` holds, and every other
    reply is a good one.  Replies are JSON values, so a wire carries them as
    they are.  ``question`` is the one the call is for (None for the
    summarizer, which never sees it); ``call`` counts the role's calls from 1.
    """

    provider_id = "in-process"

    def __init__(self, role, bad, dim=4, spoils=lambda question, call: True):
        self.role, self.bad, self.spoils = role, bad, spoils
        self.embedder = HashingQuestionEmbedder(dim)
        self.calls = Counter()

    def _reply(self, role, question, good):
        self.calls[role] += 1
        if role != self.role or not self.spoils(question, self.calls[role]):
            return good()
        if isinstance(self.bad, Exception):
            raise self.bad
        return self.bad

    def hidden_states(self, features, prompt):
        return self._reply("summarize", None, lambda: np.asarray(features, dtype=float).tolist())

    def embed(self, text):
        return self._reply("embed", text, lambda: self.embedder.embed(text).tolist())

    def select(self, request):
        return self._reply("retrieve", request["question"], lambda: "delta=0;selected=")

    def score(self, current, prior):
        return self._reply("score", current["question"], lambda: 5.0)

    def generate(self, payload):
        return self._reply("generate", json.loads(payload)["question"], lambda: "an answer")


#: Per request kind: the reply's key, and how the far side serves the body.
_SERVE = {
    "summarize": (
        "hidden_states", lambda roles, b: roles.hidden_states(b["features"], b["prompt"])
    ),
    "embed": ("vector", lambda roles, b: roles.embed(b["text"])),
    "retrieve": ("reply", lambda roles, b: roles.select(b)),
    "score": ("score", lambda roles, b: roles.score(b["current"], b["prior"])),
    "generate": ("answer", lambda roles, b: roles.generate(b["payload"])),
}


def _over_the_wire(roles):
    """``roles`` behind a ``JsonProviderClient`` whose transport JSON-encodes
    the request and the reply, as a socket would."""

    def transport(url, body):
        body = json.loads(json.dumps(body))
        key, serve = _SERVE[body["kind"]]
        return json.loads(json.dumps({key: serve(roles, body)}))

    return JsonProviderClient("inproc://roles", transport, provider_id="json-wire")


_QUESTION = "where is the red ball"
_PRIOR = QARecord(1, 1, "attributes", "what rolled", "the red ball")
_CURRENT = QARecord(2, 2, "attributes", _QUESTION, "under the couch")
_EVENT = Event(
    event_id=0, frame_indices=(0, 1), prefix=FrameBlock([0.0, 1.0], np.arange(16).reshape(2, 2, 4)),
    time_centroid=0.5, start_s=0.0, end_s=1.0,
)

#: Per role, the stage that asks it.
_STAGES = {
    "summarize": lambda p: embed_event(_EVENT, p),
    "embed": lambda p: embed_question(_QUESTION, p),
    "retrieve": lambda p: retrieve(
        DialogueHistory([HistoryItem(1, _PRIOR.question, _PRIOR.answer, 0.0)]), _QUESTION, p
    ),
    "score": lambda p: score_relevance(_CURRENT, _PRIOR, p),
    "generate": lambda p: answer(assemble([], [], 0, _QUESTION), p),
}

_BOOM = RuntimeError("the model is down")
_NAN, _INF = float("nan"), float("inf")

#: Per role, replies that role's rule refuses: a wrong rank, empty, NaN or
#: inf, a wrong JSON type, and a provider that raises.
_BAD = {
    "summarize": {
        "rank-1": [1.0, 2.0], "rank-3": [[[1.0, 2.0]]], "empty": [], "no-column": [[]],
        "nan": [[_NAN, 1.0]], "inf": [[1.0, _INF]], "string": "abc", "true": True,
        "object": {"a": 1}, "raises": _BOOM,
    },
    "embed": {
        "rank-0": 1.0, "rank-2": [[1.0, 2.0], [3.0, 4.0]], "empty": [], "nan": [_NAN, 1.0],
        "inf": [-_INF, 1.0], "string": "abc", "true": True, "null": None, "raises": _BOOM,
    },
    "retrieve": {
        "rank-1": ["delta=0;selected="], "empty": "", "nan": _NAN, "int": 7, "true": True,
        "null": None, "raises": _BOOM,
    },
    "score": {
        "rank-1": [5.0], "nan": _NAN, "inf": _INF, "numeric-string": "6.5", "true": True,
        "string": "abc", "null": None, "raises": _BOOM,
    },
    "generate": {
        "rank-1": ["an answer"], "empty": "", "nan": _NAN, "int": 7, "true": True,
        "null": None, "raises": _BOOM,
    },
}

_CASES = [(role, name) for role, replies in _BAD.items() for name in replies]


def _outcome(role, provider, roles):
    """The error the stage raises with ``provider`` (normalized to name no
    provider), and how many calls ``roles`` took for it."""
    with pytest.raises(StreamContextError) as err:
        _STAGES[role](provider)
    message = str(err.value).replace(provider.provider_id, "<provider>")
    return type(err.value), message, roles.calls[role]


@pytest.mark.parametrize("role,name", _CASES, ids=[f"{r}-{n}" for r, n in _CASES])
def test_a_bad_reply_fails_alike_in_process_and_on_the_wire(role, name):
    in_process, behind_wire = _Roles(role, _BAD[role][name]), _Roles(role, _BAD[role][name])
    assert _outcome(role, in_process, in_process) == _outcome(
        role, _over_the_wire(behind_wire), behind_wire
    )


_SIMULATED = [case for case in _CASES if case[0] != "score"]  # simulate asks no scorer


@pytest.mark.parametrize("role,name", _SIMULATED, ids=[f"{r}-{n}" for r, n in _SIMULATED])
def test_a_bad_reply_fails_only_its_own_question(default_session, role, name):
    manifest, frames = default_session.manifest, default_session.frames
    asked = {qa.qa_id: qa.question for qa in manifest.qa_pool}
    questions = [asked[entry.qa_id] for entry in manifest.dialogue_streams[0].entries]
    assert questions.count(questions[0]) == 1

    def spoils(question, call):
        # the summarizer cannot see the question: its first call is the first question's
        return question == questions[0] if question is not None else call == 1

    errors = []
    for wire in (False, True):
        roles = _Roles(role, _BAD[role][name], next(iter(frames.values())).dim, spoils)
        provider = _over_the_wire(roles) if wire else roles
        report = simulate(
            manifest, 0, EngineConfig(retrieval_mode="provider"), frames=frames,
            providers=ProviderSet(summarizer=provider, embedder=provider, retriever=provider,
                                  generator=provider),
        )
        first, *rest = report.records
        assert not any("error" in record for record in rest)
        errors.append({**first["error"], "message": first["error"]["message"].replace(
            provider.provider_id, "<provider>")})
    assert errors[0] == errors[1]
    assert errors[0]["type"] in ("ProviderError", "RetrievalParseError")
