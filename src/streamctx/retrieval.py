"""Selective retrieval over the dialogue history.

Given the history so far and the current question, retrieval produces the
subset of past QA turns worth re-reading plus a text-only flag ``delta``:
when ``delta`` is 1 the question is about the conversation itself and the
visual context should be dropped entirely.

Provider replies are restricted to the grammar

    delta=<0|1>;selected=<id(,id)*>          (selected may be empty)

which ``parse_constrained`` enforces; the offline fallback ranks history
items by term-frequency cosine overlap instead of calling any model.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Collection, Iterable, Sequence, Set
from dataclasses import dataclass

import numpy as np

from .errors import RetrievalParseError
from .providers import Retriever, provider_call
from .text import term_frequencies, tokenize

logger = logging.getLogger(__name__)

DEFAULT_OVERLAP_THRESHOLD = 0.3

#: Overlap a history item must exceed before a recall cue can set delta=1.
DELTA_OVERLAP = 0.8

#: Phrases that mark a question as being about the dialogue itself.
RECALL_CUES = ("what did i ask", "how did you respond", "you said")


@dataclass(frozen=True, eq=False)
class HistoryItem:
    """One past turn: the question, the answer it got, and when it was asked.

    Turns hash by identity, as events and units do: a turn is one entry of
    one log, and caches keyed on it stay cheap to look up.
    """

    qa_id: int
    question: str
    answer: str
    ask_time: float


class DialogueHistory:
    """The append-only log of a replay's past turns.

    Turns are unique by ``qa_id`` and in non-decreasing ask time; ``append``
    holds both rules.  Each turn's ``question + " " + answer`` is counted
    once, on append, into one sparse term row.  The nonzero counts of all
    rows sit end to end in three arrays (column, count, row) that grow by
    doubling; ``_ends[r]`` is where row ``r``'s entries stop.
    """

    def __init__(self, items: Iterable[HistoryItem] = ()):
        self._items: list[HistoryItem] = []
        self._row_of: dict[int, int] = {}
        self._columns: dict[str, int] = {}
        self._cols = np.empty(64, dtype=np.int64)
        self._counts = np.empty(64, dtype=np.int64)
        self._rows = np.empty(64, dtype=np.int64)
        self._ends: list[int] = []
        self._norms_sq = np.empty(16, dtype=np.int64)
        for item in items:
            self.append(item)

    @property
    def items(self) -> tuple[HistoryItem, ...]:
        return tuple(self._items)

    @property
    def ids(self) -> Set[int]:
        """The turns' ids: a live, read-only set view, so reading it is O(1)."""
        return self._row_of.keys()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, row: int) -> HistoryItem:
        return self._items[row]

    def append(self, item: HistoryItem) -> None:
        """Add ``item`` as the latest turn; a refused turn changes nothing."""
        if item.qa_id in self._row_of:
            raise ValueError("dialogue history repeats a qa_id")
        if self._items and item.ask_time < self._items[-1].ask_time:
            raise ValueError("dialogue history ask times must be non-decreasing")
        terms = term_frequencies(f"{item.question} {item.answer}")
        row, start = len(self._items), self._ends[-1] if self._ends else 0
        stop = start + len(terms)
        if stop > len(self._cols):
            size = max(stop, 2 * len(self._cols))
            self._cols, self._counts, self._rows = (
                np.resize(a, size) for a in (self._cols, self._counts, self._rows)
            )
        if row == len(self._norms_sq):
            self._norms_sq = np.resize(self._norms_sq, 2 * row)
        self._cols[start:stop] = [self._columns.setdefault(t, len(self._columns)) for t in terms]
        self._counts[start:stop] = list(terms.values())
        self._rows[start:stop] = row
        self._norms_sq[row] = sum(c * c for c in terms.values())
        self._ends.append(stop)
        self._items.append(item)
        self._row_of[item.qa_id] = row

    def turns(self, qa_ids: Iterable[int]) -> list[HistoryItem]:
        """The turns with these ids, in log order, looked up by row."""
        return [self._items[row] for row in sorted(self._row_of[i] for i in qa_ids)]

    def overlaps(self, question: str) -> np.ndarray:
        """``tf_cosine(question, item text)`` for every item, bitwise.

        The dot over the question's known terms and both squared norms are
        integers.  The dot sums in float64 (``bincount``), which is exact
        while every partial sum stays below 2**53; the norm product is an
        exact int64.  Each becomes a float64 once, followed by one correctly
        rounded square root and one division, the same operations
        ``tf_cosine`` performs.  An item or question without terms scores 0.
        """
        asked = term_frequencies(question)
        weights = np.zeros(len(self._columns), dtype=np.int64)
        for term, count in asked.items():
            if term in self._columns:
                weights[self._columns[term]] = count
        n = len(self._items)
        stop = self._ends[-1] if n else 0
        products = self._counts[:stop] * weights[self._cols[:stop]]
        dots = np.bincount(self._rows[:stop], weights=products, minlength=n)
        norms_sq = self._norms_sq[:n] * sum(c * c for c in asked.values())
        norms = np.sqrt(norms_sq.astype(np.float64))
        return np.divide(dots, norms, out=np.zeros(n), where=norms > 0)


@dataclass(frozen=True)
class RetrievalOutput:
    selected_ids: frozenset[int]
    delta: int

    def __post_init__(self):
        object.__setattr__(self, "selected_ids", frozenset(int(i) for i in self.selected_ids))
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")


#: ASCII only: a Unicode digit (``٣``, ``１``) or space is not the grammar's.
_GRAMMAR = re.compile(
    r"\s*delta\s*=\s*([01])\s*;\s*selected\s*=\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\s*",
    re.ASCII,
)


def render_constrained(output: RetrievalOutput) -> str:
    """The canonical grammar string for an output; inverse of parse_constrained."""
    ids = ",".join(str(i) for i in sorted(output.selected_ids))
    return f"delta={output.delta};selected={ids}"


def parse_constrained(text: str, valid_ids: Collection[int] | None = None) -> RetrievalOutput:
    """Parse a provider reply against the constrained grammar.

    ASCII whitespace around tokens is tolerated, ids are ASCII digits,
    duplicate ids collapse, and when ``valid_ids`` is given any id outside
    it is rejected.  Anything else — prose, missing fields, stray
    characters — is a parse error carrying the raw reply.
    """
    if not isinstance(text, str):
        raise RetrievalParseError(f"reply must be a string, got {type(text).__name__}")
    m = _GRAMMAR.fullmatch(text)
    if m is None:
        raise RetrievalParseError(f"reply does not match the constrained grammar: {text!r}",
                                  raw_reply=text)
    delta = int(m.group(1))
    id_part = m.group(2).strip()
    ids = frozenset(int(tok) for tok in id_part.split(",")) if id_part else frozenset()
    if valid_ids is not None:
        stray = [i for i in ids if i not in valid_ids]
        if stray:
            raise RetrievalParseError(
                f"reply selects ids outside the history: {sorted(stray)}", raw_reply=text
            )
    return RetrievalOutput(selected_ids=ids, delta=delta)


def build_retrieval_request(history: DialogueHistory, question: str) -> dict:
    """The documented JSON body for the retrieve provider call."""
    return {
        "kind": "retrieve",
        "history": [
            {"qa_id": item.qa_id, "question": item.question, "answer": item.answer}
            for item in history
        ],
        "question": question,
    }


def lexical_fallback(
    history: DialogueHistory,
    question: str,
    threshold: float = DEFAULT_OVERLAP_THRESHOLD,
) -> RetrievalOutput:
    """Model-free retrieval from term overlap.

    A history item is selected when the term-frequency cosine between the
    question and the item's combined question+answer text reaches
    ``threshold``.  ``delta`` flips to 1 only when the best overlap exceeds
    DELTA_OVERLAP *and* the question contains one of the fixed recall cues —
    near-verbatim repetition alone is not treated as dialogue recall.
    """
    overlaps = history.overlaps(question)
    selected = frozenset(history[i].qa_id for i in np.flatnonzero(overlaps >= threshold).tolist())
    delta = 0
    if len(history) and overlaps.max() > DELTA_OVERLAP:  # only then are the cues read
        normalized = " ".join(tokenize(question))
        delta = int(any(cue in normalized for cue in RECALL_CUES))
    return RetrievalOutput(selected_ids=selected, delta=delta)


def retrieve(
    history: DialogueHistory,
    question: str,
    provider: Retriever | None = None,
    *,
    threshold: float = DEFAULT_OVERLAP_THRESHOLD,
) -> RetrievalOutput:
    """Select past turns for the current question.

    With no provider this is ``lexical_fallback``.  With one, the documented
    request goes out, the reply must parse under the constrained grammar
    (ids restricted to the actual history), and a single retry is attempted
    on a malformed reply before the parse error is surfaced.
    """
    if provider is None:
        return lexical_fallback(history, question, threshold)
    request = build_retrieval_request(history, question)
    last_error: RetrievalParseError | None = None
    for attempt in range(2):
        with provider_call("retrieval provider failed"):
            reply = provider.select(request)
        try:
            return parse_constrained(reply, valid_ids=history.ids)
        except RetrievalParseError as exc:
            logger.warning("unparseable retrieval reply (attempt %d): %r", attempt + 1, reply)
            last_error = exc
    assert last_error is not None
    raise last_error


# ---------------------------------------------------------------------------
# scoring


@dataclass(frozen=True)
class RetrievalMetrics:
    """Confusion counts over a history of N items; metrics derive from them.

    With nothing to find and nothing found (tp+fp == 0 or tp+fn == 0) the
    corresponding precision/recall is defined as 1, so an empty gold set
    matched by an empty prediction scores a perfect 1/1/1.
    """

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def history_size(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.history_size if self.history_size else 1.0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0

    def to_dict(self) -> dict:
        """The counts, then the metrics derived from them."""
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "f1": self.f1,
        }


def score_retrieval(
    predicted: RetrievalOutput | Iterable[int],
    gold: Iterable[int],
    history_ids: Iterable[int],
) -> RetrievalMetrics:
    """Confusion of one retrieval decision against its gold set.

    Every one of the N history items counts: selected-and-gold is a true
    positive, unselected-and-not-gold a true negative, and so on.  Predicted
    or gold ids outside the history are an error, not a silent drop.
    """
    pred = frozenset(predicted.selected_ids if isinstance(predicted, RetrievalOutput) else predicted)
    gold_set = frozenset(gold)
    ids = history_ids if isinstance(history_ids, Set) else frozenset(history_ids)
    if not pred <= ids:
        raise ValueError(f"predicted ids outside the history: {sorted(pred - ids)}")
    if not gold_set <= ids:
        raise ValueError(f"gold ids outside the history: {sorted(gold_set - ids)}")
    tp = len(pred & gold_set)
    fp = len(pred - gold_set)
    fn = len(gold_set - pred)
    return RetrievalMetrics(tp=tp, fp=fp, fn=fn, tn=len(ids) - tp - fp - fn)


def micro_metrics(per_question: Sequence[RetrievalMetrics]) -> RetrievalMetrics:
    """Micro-aggregation: confusion counts summed across questions."""
    return RetrievalMetrics(
        tp=sum(m.tp for m in per_question),
        fp=sum(m.fp for m in per_question),
        fn=sum(m.fn for m in per_question),
        tn=sum(m.tn for m in per_question),
    )
