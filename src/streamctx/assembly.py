"""Assembles compressed visual units and retrieved dialogue into one context.

Units interleave on a single timeline: visual units sort by their event's
start time, text units by the time their question was asked, and on an exact
tie the visual unit comes first (what was seen precedes what was said about
it).  When retrieval raised the text-only flag (delta=1) the visual stream is
dropped entirely — the question is about the conversation, not the video.

A unit never changes once built, so its JSON block and its escaped layout
line are encoded once, on first use, and kept on the unit itself; a
rendering joins them.  A history turn is thus encoded once per stream, its
fragment living with the turn in the stream's ``DialogueHistory``, and a
visual unit once for as long as its event survives from prefix to prefix.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from typing import Mapping, NamedTuple, Sequence, Union

from .compression import VisualUnit
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

#: The payload's encoding: sorted keys, no whitespace, ASCII escapes.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Fragment(NamedTuple):
    """A unit's encoded JSON block, its layout line encoded as the inside of a
    JSON string, and its tokens: a visual unit's, or a turn's word count."""

    block: str
    line: str
    visual: bool
    tokens: int


def _fragment(unit: ContextUnit) -> _Fragment:
    """The unit's fragment, encoded on first use and kept in the unit's
    ``__dict__`` as a ``cached_property`` keeps its value."""
    held = vars(unit)
    fragment = held.get("_fragment")
    if fragment is None:
        fragment = held["_fragment"] = _encode_unit(unit)
    return fragment


def _encode_unit(unit: ContextUnit) -> _Fragment:
    visual = isinstance(unit, VisualUnit)
    if visual:
        block = {
            "kind": "visual",
            "time": unit.start_s,
            "event_id": unit.event_id,
            "mode": unit.kind,
            "frames": unit.num_frames,
            "tokens": unit.tokens,
        }
        tokens = unit.tokens
    else:
        block = {
            "kind": "text",
            "time": unit.ask_time,
            "qa_id": unit.qa_id,
            "question": unit.question,
            "answer": unit.answer,
        }
        tokens = len(unit.question.split()) + len(unit.answer.split())
    line = DEFAULT_TEMPLATE[block["kind"]].format(**block)
    return _Fragment(_encode(block), _encode(line)[1:-1], visual, tokens)


def _sort_key(unit: ContextUnit) -> tuple[float, int, int]:
    if isinstance(unit, VisualUnit):
        return (unit.start_s, 0, unit.event_id)
    return (unit.ask_time, 1, unit.qa_id)


@dataclass(frozen=True, eq=False)
class ContextPackage:
    """Everything the generator sees for one question, already ordered.

    ``sort_keys`` takes the units' timeline keys from a caller that already
    computed them, as ``assemble`` does; otherwise they are computed here.
    """

    units: tuple[ContextUnit, ...]
    delta: int
    current_question: str
    sort_keys: InitVar[Sequence[tuple] | None] = field(default=None, kw_only=True)

    def __post_init__(self, sort_keys):
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        if self.delta == 1 and any(isinstance(u, VisualUnit) for u in self.units):
            raise ValueError("a delta=1 package must not contain visual units")
        keys = [_sort_key(u) for u in self.units] if sort_keys is None else list(sort_keys)
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
    keys = list(map(_sort_key, units))
    order = sorted(range(len(units)), key=keys.__getitem__)
    return ContextPackage(tuple([units[i] for i in order]), int(delta), question,
                          sort_keys=[keys[i] for i in order])


def render_layout(package: ContextPackage) -> str:
    """Serialize a package to the canonical generator payload (a JSON string).

    The payload carries both structured ``blocks`` and a rendered ``layout``
    built from ``DEFAULT_TEMPLATE``, encoded with sorted keys and no
    whitespace; identical packages render byte-identically.  It is built
    from the units' cached fragments: JSON escapes each character on its
    own, so the encoded ``"\\n".join`` of the lines is the join of the
    encoded lines with an escaped newline.
    """
    return _payload(package, [_fragment(unit) for unit in package.units])


def _payload(package: ContextPackage, fragments: list[_Fragment]) -> str:
    question = package.current_question
    lines = [fragment.line for fragment in fragments]
    lines.append(_encode(DEFAULT_TEMPLATE["question"].format(question=question))[1:-1])
    return (
        '{"blocks":[' + ",".join(fragment.block for fragment in fragments)
        + '],"delta":' + _encode(package.delta)
        + ',"layout":"' + "\\n".join(lines)
        + '","question":' + _encode(question)
        + ',"schema":' + _encode(PAYLOAD_SCHEMA) + "}"
    )


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
    fragments = [_fragment(unit) for unit in package.units]
    payload = _payload(package, fragments)
    gen = generator if generator is not None else EchoGenerator()
    visual = [fragment.tokens for fragment in fragments if fragment.visual]
    turns = [fragment.tokens for fragment in fragments if not fragment.visual]
    with provider_call(
        f"generator {getattr(gen, 'provider_id', '?')} failed on a package with "
        f"{len(visual)} visual / {len(turns)} text units"
    ):
        text = gen.generate(payload)
    if not isinstance(text, str) or not text:
        raise ProviderError(f"generator must reply with a non-empty string, got {text!r:.80}")
    return AnswerRecord(
        qa_id=qa_id,
        answer=text,
        visual_tokens=sum(visual),
        text_tokens=sum(turns),
        provider_id=getattr(gen, "provider_id", "unknown"),
    )
