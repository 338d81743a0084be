"""Assembles compressed visual units and retrieved dialogue into one context.

Units interleave on a single timeline: visual units sort by their event's
start time, text units by the time their question was asked, and on an exact
tie the visual unit comes first (what was seen precedes what was said about
it).  When retrieval raised the text-only flag (delta=1) the visual stream is
dropped entirely — the question is about the conversation, not the video.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .compression import VisualUnit, token_count
from .errors import ProviderError
from .providers import EchoGenerator, Generator, provider_call
from .retrieval import HistoryItem

ContextUnit = Union[VisualUnit, HistoryItem]

PAYLOAD_SCHEMA = "context-payload/1"

#: Format strings for the human-readable rendering inside the payload.
DEFAULT_TEMPLATE: Mapping[str, str] = {
    "visual": "[{time:.3f}s] <event {event_id}: {tokens} visual tokens over {frames} frames, {mode}>",
    "text": "[{time:.3f}s] Q{qa_id}: {question} | A: {answer}",
    "question": "CURRENT QUESTION: {question}",
}


def _sort_key(unit: ContextUnit) -> tuple[float, int, int]:
    if isinstance(unit, VisualUnit):
        return (unit.start_s, 0, unit.event_id)
    return (unit.ask_time, 1, unit.qa_id)


@dataclass(frozen=True, eq=False)
class ContextPackage:
    """Everything the generator sees for one question, already ordered."""

    units: tuple[ContextUnit, ...]
    delta: int
    current_question: str

    def __post_init__(self):
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        if self.delta == 1 and any(isinstance(u, VisualUnit) for u in self.units):
            raise ValueError("a delta=1 package must not contain visual units")
        keys = [_sort_key(u) for u in self.units]
        if keys != sorted(keys):
            raise ValueError("package units must be in timeline order")

    @property
    def visual_units(self) -> tuple[VisualUnit, ...]:
        return tuple(u for u in self.units if isinstance(u, VisualUnit))

    @property
    def text_units(self) -> tuple[HistoryItem, ...]:
        return tuple(u for u in self.units if isinstance(u, HistoryItem))


def assemble(
    visual: Sequence[VisualUnit],
    retrieved: Sequence[HistoryItem],
    delta: int,
    question: str,
) -> ContextPackage:
    """Merge the compressed stream and the retrieved turns into one package.

    The output order depends only on the units' own times and ids, never on
    input order; delta=1 drops every visual unit.
    """
    units: list[ContextUnit] = list(retrieved)
    if delta == 0:
        units.extend(visual)
    units.sort(key=_sort_key)
    return ContextPackage(units=tuple(units), delta=int(delta), current_question=question)


def render_layout(package: ContextPackage) -> str:
    """Serialize a package to the canonical generator payload (a JSON string).

    The payload carries both structured ``blocks`` and a rendered ``layout``
    built from ``DEFAULT_TEMPLATE``; identical packages render byte-identically.
    """
    blocks = []
    for unit in package.units:
        if isinstance(unit, VisualUnit):
            blocks.append(
                {
                    "kind": "visual",
                    "time": unit.start_s,
                    "event_id": unit.event_id,
                    "mode": unit.kind,
                    "frames": unit.num_frames,
                    "tokens": unit.tokens,
                }
            )
        else:
            blocks.append(
                {
                    "kind": "text",
                    "time": unit.ask_time,
                    "qa_id": unit.qa_id,
                    "question": unit.question,
                    "answer": unit.answer,
                }
            )
    lines = [DEFAULT_TEMPLATE[block["kind"]].format(**block) for block in blocks]
    lines.append(DEFAULT_TEMPLATE["question"].format(question=package.current_question))
    payload = {
        "schema": PAYLOAD_SCHEMA,
        "delta": package.delta,
        "question": package.current_question,
        "blocks": blocks,
        "layout": "\n".join(lines),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class AnswerRecord:
    """A generated answer plus the token accounting of the context it saw."""

    qa_id: int | None
    answer: str
    visual_tokens: int
    text_tokens: int
    provider_id: str


def answer(
    package: ContextPackage,
    generator: Generator | None = None,
    *,
    qa_id: int | None = None,
) -> AnswerRecord:
    """Render the package and ask the generator (echo fallback) for an answer.

    A provider failure surfaces as a ProviderError that names the package
    shape, so streaming callers can log what was being answered; a reply
    that is not a non-empty string is a ProviderError too.
    """
    payload = render_layout(package)
    gen = generator if generator is not None else EchoGenerator()
    visual, text_units = package.visual_units, package.text_units
    with provider_call(
        f"generator {getattr(gen, 'provider_id', '?')} failed on a package with "
        f"{len(visual)} visual / {len(text_units)} text units"
    ):
        text = gen.generate(payload)
    if not isinstance(text, str) or not text:
        raise ProviderError(f"generator must reply with a non-empty string, got {text!r:.80}")
    return AnswerRecord(
        qa_id=qa_id,
        answer=text,
        visual_tokens=token_count(visual),
        text_tokens=sum(len(u.question.split()) + len(u.answer.split()) for u in text_units),
        provider_id=getattr(gen, "provider_id", "unknown"),
    )
