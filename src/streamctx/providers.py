"""Provider interfaces, their JSON wire format, and offline fallbacks.

Five provider roles exist: event summarizer, question embedder, dialogue
retriever, relevance scorer, and answer generator.  Each request is a JSON
object carrying a ``kind`` discriminator:

    {"kind": "summarize", "features": [[...], ...], "prompt": "..."}
        -> {"hidden_states": [[...], ...]}
    {"kind": "embed", "text": "..."}
        -> {"vector": [...]}
    {"kind": "retrieve", "history": [{"qa_id": 1, "question": "...",
        "answer": "..."}, ...], "question": "..."}
        -> {"reply": "delta=0;selected=1,2"}
    {"kind": "score", "current": {"question": "...", "answer": "..."},
        "prior": {...}}
        -> {"score": 5.5}
    {"kind": "generate", "payload": "<rendered context JSON>"}
        -> {"answer": "..."}

``JsonProviderClient`` speaks this format over any transport callable, so
tests exercise the full encode/decode path without a network.  It checks
only that a reply holds its key.  Each role's rule for the value, and the
conversion of whatever a provider raises (``provider_call``), live once, in
the stage that asks: ``embed_event``, ``embed_question``, ``retrieve``,
``score_relevance`` and ``answer``, for in-process providers and the client
alike.
"""

from __future__ import annotations

import hashlib
import json
import urllib.request
from typing import Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from .errors import ProviderError
from .text import tokenize

#: Instruction sent alongside concatenated frame features on the summarize path.
SUMMARY_PROMPT = (
    "Condense the visual content of this event into a single dense "
    "representation covering its objects, actions, and setting."
)


@runtime_checkable
class Summarizer(Protocol):
    provider_id: str

    def hidden_states(self, features: np.ndarray, prompt: str) -> np.ndarray:
        """Map (tokens, dim) features + a prompt to (tokens', hidden) states.

        The states must be a pure function of the features and the prompt:
        ``simulate`` summarizes each set of event members once per stream.
        """


@runtime_checkable
class TextEmbedder(Protocol):
    provider_id: str

    def embed(self, text: str) -> np.ndarray:
        """A 1-D vector that must be a pure function of the text: ``simulate``
        embeds each distinct question once per stream."""


@runtime_checkable
class Retriever(Protocol):
    provider_id: str

    def select(self, request: Mapping) -> str:
        """Return the raw constrained-grammar reply for a retrieve request."""


@runtime_checkable
class RelevanceScorer(Protocol):
    provider_id: str

    def score(self, current: Mapping, prior: Mapping) -> float: ...


@runtime_checkable
class Generator(Protocol):
    provider_id: str

    def generate(self, payload: str) -> str: ...


# ---------------------------------------------------------------------------
# offline fallbacks


class HashingQuestionEmbedder:
    """Deterministic bag-of-terms embedding, no model required.

    Every vocabulary term hashes (stably, via blake2b) to a fixed pseudo-
    random Gaussian direction in R^dim; a text embeds as the term-frequency
    weighted sum, L2-normalized.  Texts differing only in whitespace or
    punctuation embed identically; disjoint vocabularies land on nearly
    orthogonal vectors for reasonably large dim.
    """

    provider_id = "fallback-hashing-embedder"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._cache: dict[str, np.ndarray] = {}

    def _term_vector(self, term: str) -> np.ndarray:
        vec = self._cache.get(term)
        if vec is None:
            seed = int.from_bytes(hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest(), "little")
            vec = np.random.default_rng(seed).standard_normal(self.dim)
            self._cache[term] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        terms = tokenize(text)
        if not terms:
            raise ValueError("cannot embed text with no alphanumeric tokens")
        out = np.zeros(self.dim)
        for term in terms:
            out += self._term_vector(term)
        norm = np.linalg.norm(out)
        if norm > 0:
            out /= norm
        return out


class EchoGenerator:
    """Offline answer generator: a deterministic digest of the context package."""

    provider_id = "fallback-echo"

    def generate(self, payload: str) -> str:
        try:
            obj = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ProviderError(f"echo generator expects the rendered JSON payload: {exc}") from exc
        visual_ids = sorted(
            b["event_id"] for b in obj.get("blocks", ()) if b.get("kind") == "visual"
        )
        text_ids = sorted(b["qa_id"] for b in obj.get("blocks", ()) if b.get("kind") == "text")
        return (
            f"echo(question={obj.get('question', '')!r}; delta={obj.get('delta', 0)}; "
            f"visual_events={visual_ids}; text_qas={text_ids})"
        )


# ---------------------------------------------------------------------------
# the call boundary and the JSON client


def _require(response: Mapping, key: str):
    if not isinstance(response, Mapping) or key not in response:
        raise ProviderError(f"provider response is missing {key!r}: {response!r:.80}")
    return response[key]


class provider_call:
    """A block whose failures are raised as ``ProviderError(f"{what}: {exc}")``.

    Providers are code outside the engine: whatever one raises is a provider
    failure, which ``simulate`` contains per question, not an engine bug.
    """

    def __init__(self, what: str):
        self.what = what

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, Exception) and not isinstance(exc, ProviderError):
            raise ProviderError(f"{self.what}: {exc}") from exc
        return False


Transport = Callable[[str, dict], Mapping]

#: Seconds an HTTP provider call may block on connect or on one read before
#: it fails as a ProviderError, so a hung endpoint cannot stall a replay.
HTTP_TIMEOUT_S = 60.0


def _http_post_json(url: str, body: dict) -> Mapping:
    data = json.dumps(body).encode("utf-8")
    req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    with provider_call(f"provider request to {url} failed"):
        with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT_S) as resp:
            return json.loads(resp.read().decode("utf-8"))


class JsonProviderClient:
    """All five provider roles over one endpoint speaking the wire format.

    A plain codec: each role method sends its request through
    ``transport(url, body) -> response`` (an HTTP POST by default; tests and
    embedded deployments can pass any callable) and returns the reply's key,
    arrays decoded as float64.  A reply without the key is a
    ``ProviderError``; every other check is the asking stage's.
    """

    def __init__(self, endpoint: str, transport: Transport | None = None, provider_id: str | None = None):
        self.endpoint = endpoint
        self.provider_id = provider_id or f"json:{endpoint}"
        self._transport = transport or _http_post_json

    def hidden_states(self, features: np.ndarray, prompt: str) -> np.ndarray:
        body = {"kind": "summarize", "features": np.asarray(features, dtype=np.float64).tolist(),
                "prompt": prompt}
        return np.asarray(_require(self._transport(self.endpoint, body), "hidden_states"),
                          dtype=np.float64)

    def embed(self, text: str) -> np.ndarray:
        body = {"kind": "embed", "text": text}
        return np.asarray(_require(self._transport(self.endpoint, body), "vector"),
                          dtype=np.float64)

    def select(self, request: Mapping) -> str:
        return _require(self._transport(self.endpoint, dict(request)), "reply")

    def score(self, current: Mapping, prior: Mapping) -> float:
        body = {
            "kind": "score",
            "current": {"question": current["question"], "answer": current["answer"]},
            "prior": {"question": prior["question"], "answer": prior["answer"]},
        }
        return _require(self._transport(self.endpoint, body), "score")

    def generate(self, payload: str) -> str:
        body = {"kind": "generate", "payload": payload}
        return _require(self._transport(self.endpoint, body), "answer")
