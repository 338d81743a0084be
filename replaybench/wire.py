"""A deterministic stand-in model behind ``JsonProviderClient``.

The transport is in-process but JSON-encodes every request and every reply,
as a socket would, so the provider path pays its encode and decode costs.
"""

from __future__ import annotations

import json
from typing import Callable

from streamctx.providers import EchoGenerator, HashingQuestionEmbedder, JsonProviderClient
from streamctx.simulate import ProviderSet
from streamctx.store import DialoguePath

#: The retriever's first reply at every MALFORMED_EVERY-th history position
#: breaks the grammar, so the client's single retry runs.
MALFORMED_EVERY = 10

ENDPOINT = "inproc://stand-in"


class StandInModel:
    """Serves every provider role for one dialogue stream.

    The summarizer returns its features unchanged, the embedder is
    ``HashingQuestionEmbedder``, the retriever returns the gold set of the
    stream entry at history position ``len(history)``, and the generator is
    ``EchoGenerator``.
    """

    def __init__(self, stream: DialoguePath, dim: int):
        self._gold = [sorted(entry.gold_relevant) for entry in stream.entries]
        self._embedder = HashingQuestionEmbedder(dim)
        self._echo = EchoGenerator()
        self._spoiled: set[int] = set()

    def handle(self, request: dict) -> dict:
        kind = request["kind"]
        if kind == "summarize":
            return {"hidden_states": request["features"]}
        if kind == "embed":
            return {"vector": self._embedder.embed(request["text"]).tolist()}
        if kind == "retrieve":
            position = len(request["history"])
            if position % MALFORMED_EVERY == 0 and position not in self._spoiled:
                self._spoiled.add(position)
                return {"reply": "the turns about the lamp, I think"}
            return {"reply": "delta=0;selected=" + ",".join(map(str, self._gold[position]))}
        if kind == "generate":
            return {"answer": self._echo.generate(request["payload"])}
        raise ValueError(f"stand-in model has no role {kind!r}")


class WireTransport:
    """``transport(url, body)`` that round-trips both directions through JSON."""

    def __init__(self, model: StandInModel):
        self.model = model
        self.last_request = ""
        self.last_reply = ""

    def __call__(self, url: str, body: dict) -> dict:
        request = json.dumps(body)
        reply = json.dumps(self.model.handle(json.loads(request)))
        self.last_request, self.last_reply = request, reply
        return json.loads(reply)


def wire_providers(
    stream: DialoguePath, dim: int, wrap: Callable[[WireTransport], Callable] | None = None
) -> ProviderSet:
    """Every provider role served by one client over a fresh stand-in."""
    transport = WireTransport(StandInModel(stream, dim))
    client = JsonProviderClient(ENDPOINT, transport=wrap(transport) if wrap else transport)
    return ProviderSet(summarizer=client, embedder=client, retriever=client, generator=client)
