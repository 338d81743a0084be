import math
from collections.abc import Set

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamctx import retrieval
from streamctx.errors import ProviderError, RetrievalParseError
from streamctx.retrieval import (
    DEFAULT_OVERLAP_THRESHOLD,
    DELTA_OVERLAP,
    RECALL_CUES,
    DialogueHistory,
    HistoryItem,
    RetrievalMetrics,
    RetrievalOutput,
    build_retrieval_request,
    lexical_fallback,
    micro_metrics,
    parse_constrained,
    render_constrained,
    retrieve,
    score_retrieval,
)
from streamctx.text import tf_cosine, tokenize


def make_history(*triples):
    return DialogueHistory(
        tuple(
            HistoryItem(qa_id=i + 1, question=q, answer=a, ask_time=float(t))
            for i, (q, a, t) in enumerate(triples)
        )
    )


class TestHistory:
    def test_ids_and_append(self):
        h = make_history(("q1", "a1", 10), ("q2", "a2", 20))
        ids = h.ids
        assert ids == {1, 2} and isinstance(ids, Set) and not hasattr(ids, "add")
        h.append(HistoryItem(3, "q3", "a3", 30.0))
        assert len(h) == 3 and h.ids == {1, 2, 3} and ids == {1, 2, 3}  # a live view
        assert isinstance(h.items, tuple) and [i.qa_id for i in h] == [1, 2, 3]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            DialogueHistory((HistoryItem(1, "q", "a", 0.0), HistoryItem(1, "q", "a", 1.0)))

    def test_time_order_enforced(self):
        with pytest.raises(ValueError):
            make_history(("q1", "a1", 20), ("q2", "a2", 10))

    def test_append_checks_the_new_turn(self):
        h = make_history(("q1", "a1", 10), ("q2", "a2", 20))
        for refused, match in [
            (HistoryItem(1, "q3", "a3", 30.0), "repeats a qa_id"),
            (HistoryItem(3, "q3", "a3", 19.0), "non-decreasing"),
        ]:
            with pytest.raises(ValueError, match=match):
                h.append(refused)
            assert [i.qa_id for i in h] == [1, 2] and h.ids == {1, 2}
            assert h.overlaps("q1 a1").tolist() == [1.0, 0.0]
        h.append(HistoryItem(3, "q3", "a3", 20.0))
        assert h.ids == {1, 2, 3}


class TestGrammar:
    def test_render_parse_round_trip(self):
        out = RetrievalOutput(frozenset({5, 2}), 1)
        text = render_constrained(out)
        assert text == "delta=1;selected=2,5"
        assert parse_constrained(text) == out

    def test_empty_selection(self):
        assert render_constrained(RetrievalOutput(frozenset(), 0)) == "delta=0;selected="
        out = parse_constrained("delta=0;selected=")
        assert out.selected_ids == frozenset() and out.delta == 0

    def test_whitespace_tolerated(self):
        out = parse_constrained("  delta = 1 ;  selected = 3 , 5  ")
        assert out == RetrievalOutput(frozenset({3, 5}), 1)

    def test_duplicates_collapse(self):
        assert parse_constrained("delta=0;selected=2,2,2").selected_ids == {2}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "delta=2;selected=",
            "delta=0;selected=1,",
            "delta=0;selected=,1",
            "delta=0 selected=1",
            "delta=0;selected=1;note=done",
            "Sure!  delta=0;selected=1",
            "delta=0;selected=one",
            "selected=1;delta=0",
            "delta=0;selected=\u0663",  # Arabic-Indic digit three
            "delta=0;selected=\uff11",  # full-width digit one
            "delta=\uff11;selected=",
            "delta=0;selected=1,\u00a02",  # no-break space
            "\u3000delta=0;selected=1",  # ideographic space
        ],
    )
    def test_malformed_replies_rejected(self, bad):
        with pytest.raises(RetrievalParseError) as err:
            parse_constrained(bad)
        assert err.value.raw_reply == bad

    def test_non_string_rejected(self):
        with pytest.raises(RetrievalParseError):
            parse_constrained(None)

    def test_out_of_history_ids_rejected(self):
        with pytest.raises(RetrievalParseError) as err:
            parse_constrained("delta=0;selected=1,9", valid_ids={1, 2, 3})
        assert "9" in str(err.value)
        assert err.value.raw_reply == "delta=0;selected=1,9"

    def test_valid_ids_accepts_subset(self):
        out = parse_constrained("delta=1;selected=1,3", valid_ids={1, 2, 3})
        assert out.selected_ids == {1, 3}

    def test_delta_validation_on_output(self):
        with pytest.raises(ValueError):
            RetrievalOutput(frozenset(), 2)


# Overlap fixture with hand-checked term arithmetic.  The question shares
# 9 of item 1's terms (cosine exactly 11/12), almost nothing with item 2,
# and a middling amount with item 3 (6 / sqrt(9 * 24)).
OVERLAP_HISTORY = make_history(
    ("how many copper kettles sit on the kitchen shelf", "two copper kettles", 10),
    ("did the kitchen door stay open", "yes it stayed open", 20),
    ("where is the copper pot", "the copper pot is on the stove", 30),
)
OVERLAP_QUESTION = "how many copper kettles sit on the kitchen shelf"


class TestLexicalFallback:
    def test_threshold_splits_selection(self):
        out = lexical_fallback(OVERLAP_HISTORY, OVERLAP_QUESTION)
        assert out.selected_ids == {1, 3}

    def test_high_overlap_without_cue_keeps_delta_zero(self):
        # item 1 overlaps at 11/12 > DELTA_OVERLAP, but the question has no
        # recall cue, so this is an ordinary (if repetitive) question
        out = lexical_fallback(OVERLAP_HISTORY, OVERLAP_QUESTION)
        assert out.delta == 0

    def test_tight_threshold_narrows_selection(self):
        out = lexical_fallback(OVERLAP_HISTORY, OVERLAP_QUESTION, threshold=0.5)
        assert out.selected_ids == {1}

    def test_recall_cue_with_high_overlap_flips_delta(self):
        history = make_history(
            ("what did i ask you to buy at the market", "you asked about fresh bread", 5),
        )
        out = lexical_fallback(history, "what did i ask you to buy at the market")
        assert out.delta == 1
        assert out.selected_ids == {1}

    def test_cue_without_overlap_keeps_delta_zero(self):
        history = make_history(("is the oven hot", "yes very", 5))
        out = lexical_fallback(history, "what did i ask about the telescope lens")
        assert out.delta == 0

    def test_near_verbatim_without_cue_is_not_recall(self):
        history = make_history(
            ("what did i ask you to buy at the market", "you asked about fresh bread", 5),
        )
        out = lexical_fallback(history, "did i ask you to buy fresh bread at the market")
        assert out.selected_ids == {1}
        assert out.delta == 0

    def test_empty_history(self):
        out = lexical_fallback(DialogueHistory(), "anything at all")
        assert out == RetrievalOutput(frozenset(), 0)

    def test_index_counts_each_item_once_along_a_stream(self, monkeypatch):
        counted = []
        original = retrieval.term_frequencies
        monkeypatch.setattr(
            retrieval, "term_frequencies", lambda text: counted.append(text) or original(text)
        )
        history = DialogueHistory()
        for item in OVERLAP_HISTORY:
            lexical_fallback(history, OVERLAP_QUESTION)
            history.append(item)
        lexical_fallback(history, OVERLAP_QUESTION)
        item_texts = [f"{item.question} {item.answer}" for item in OVERLAP_HISTORY]
        assert [text for text in counted if text != OVERLAP_QUESTION] == item_texts
        assert counted.count(OVERLAP_QUESTION) == 4

    def test_overlaps_equal_text_cosine_bitwise(self):
        # selection at a threshold equal to each item's own overlap keeps it
        for item in OVERLAP_HISTORY:
            overlap = tf_cosine(OVERLAP_QUESTION, f"{item.question} {item.answer}")
            picked = lexical_fallback(OVERLAP_HISTORY, OVERLAP_QUESTION, threshold=overlap)
            assert item.qa_id in picked.selected_ids
            above = lexical_fallback(
                OVERLAP_HISTORY, OVERLAP_QUESTION, threshold=math.nextafter(overlap, 2.0)
            )
            assert item.qa_id not in above.selected_ids

    def test_constants(self):
        assert DEFAULT_OVERLAP_THRESHOLD == 0.3
        assert DELTA_OVERLAP == 0.8
        assert RECALL_CUES == ("what did i ask", "how did you respond", "you said")


class _ScriptedRetriever:
    provider_id = "scripted"

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def select(self, request):
        self.requests.append(request)
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


class TestRetrieve:
    def test_no_provider_uses_fallback(self):
        direct = lexical_fallback(OVERLAP_HISTORY, OVERLAP_QUESTION)
        assert retrieve(OVERLAP_HISTORY, OVERLAP_QUESTION) == direct

    def test_provider_reply_parsed(self):
        provider = _ScriptedRetriever(["delta=1;selected=2"])
        out = retrieve(OVERLAP_HISTORY, OVERLAP_QUESTION, provider)
        assert out == RetrievalOutput(frozenset({2}), 1)
        req = provider.requests[0]
        assert req == build_retrieval_request(OVERLAP_HISTORY, OVERLAP_QUESTION)
        assert req["kind"] == "retrieve"
        assert [h["qa_id"] for h in req["history"]] == [1, 2, 3]

    def test_single_retry_on_parse_error(self):
        provider = _ScriptedRetriever(["I think items 1 and 3", "delta=0;selected=1,3"])
        out = retrieve(OVERLAP_HISTORY, OVERLAP_QUESTION, provider)
        assert out.selected_ids == {1, 3}
        assert len(provider.requests) == 2

    def test_two_bad_replies_surface_the_parse_error(self):
        provider = _ScriptedRetriever(["nope", "delta=0;selected=99"])
        with pytest.raises(RetrievalParseError) as err:
            retrieve(OVERLAP_HISTORY, OVERLAP_QUESTION, provider)
        assert err.value.raw_reply == "delta=0;selected=99"
        assert len(provider.requests) == 2

    def test_transport_failure_is_not_retried(self):
        provider = _ScriptedRetriever([OSError("boom")])
        with pytest.raises(ProviderError):
            retrieve(OVERLAP_HISTORY, OVERLAP_QUESTION, provider)
        assert len(provider.requests) == 1


class TestMetrics:
    def test_reference_confusion(self):
        # predicted {1,2} against gold {2,3} in a 5-item history
        m = score_retrieval([1, 2], [2, 3], history_ids=range(1, 6))
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 2)
        assert m.accuracy == 0.6
        assert m.precision == 0.5
        assert m.recall == 0.5
        assert m.f1 == 0.5

    def test_perfect_and_empty_cases(self):
        perfect = score_retrieval([4], [4], history_ids=range(1, 5))
        assert perfect.f1 == 1.0 and perfect.accuracy == 1.0
        both_empty = score_retrieval([], [], history_ids=range(1, 5))
        assert (both_empty.precision, both_empty.recall, both_empty.f1) == (1.0, 1.0, 1.0)
        assert both_empty.accuracy == 1.0

    def test_one_sided_empties(self):
        no_pred = score_retrieval([], [1], history_ids=range(1, 4))
        assert no_pred.precision == 1.0 and no_pred.recall == 0.0 and no_pred.f1 == 0.0
        no_gold = score_retrieval([1], [], history_ids=range(1, 4))
        assert no_gold.precision == 0.0 and no_gold.recall == 1.0 and no_gold.f1 == 0.0

    def test_accepts_retrieval_output(self):
        out = RetrievalOutput(frozenset({1, 2}), 0)
        m = score_retrieval(out, [2, 3], history_ids=range(1, 6))
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 2)

    def test_out_of_history_ids_rejected(self):
        with pytest.raises(ValueError):
            score_retrieval([9], [1], history_ids=range(1, 4))
        with pytest.raises(ValueError):
            score_retrieval([1], [9], history_ids=range(1, 4))

    def test_micro_aggregation_sums_counts(self):
        a = score_retrieval([1, 2], [2, 3], history_ids=range(1, 6))
        b = score_retrieval([1], [1], history_ids=range(1, 3))
        total = micro_metrics([a, b])
        assert (total.tp, total.fp, total.fn, total.tn) == (2, 1, 1, 3)
        assert total.precision == 2 / 3
        assert total.recall == 2 / 3
        assert total.history_size == 7

    def test_to_dict_round_numbers(self):
        m = score_retrieval([1, 2], [2, 3], history_ids=range(1, 6))
        d = m.to_dict()
        assert d["tp"] == 1 and d["f1"] == 0.5 and d["accuracy"] == 0.6


def test_overlap_values_match_hand_arithmetic():
    # the fixture's three overlaps, recomputed from raw term counts
    from streamctx.text import tf_cosine

    assert tf_cosine(OVERLAP_QUESTION, "how many copper kettles sit on the kitchen shelf two copper kettles") == 11 / 12
    mid = tf_cosine(OVERLAP_QUESTION, "where is the copper pot the copper pot is on the stove")
    assert mid == 6 / math.sqrt(9 * 24)
    low = tf_cosine(OVERLAP_QUESTION, "did the kitchen door stay open yes it stayed open")
    assert 0 < low < DEFAULT_OVERLAP_THRESHOLD


# Few words, so random texts share terms and repeat them; "" and "?!" have none.
_TEXTS = st.lists(st.sampled_from(["red", "Kettle", "on", "the", "stove", "9"]), max_size=6).map(
    " ".join
) | st.sampled_from(["", "?!", "you said red, RED red", "what did i ask"])


def _reference_fallback(history, question, threshold):
    """The per-item loop the term rows replaced, one ``tf_cosine`` per item."""
    overlaps = {i.qa_id: tf_cosine(question, f"{i.question} {i.answer}") for i in history}
    normalized = " ".join(tokenize(question))
    delta = int(
        bool(overlaps)
        and max(overlaps.values()) > DELTA_OVERLAP
        and any(cue in normalized for cue in RECALL_CUES)
    )
    selected = frozenset(qa_id for qa_id, ov in overlaps.items() if ov >= threshold)
    return RetrievalOutput(selected, delta)


def _check_index(history, question, threshold):
    overlaps = history.overlaps(question)
    assert overlaps.tolist() == [
        tf_cosine(question, f"{item.question} {item.answer}") for item in history
    ]
    got = lexical_fallback(history, question, threshold)
    assert got == _reference_fallback(history, question, threshold)
    assert got == lexical_fallback(DialogueHistory(history.items), question, threshold)


@given(
    turns=st.lists(st.tuples(_TEXTS, _TEXTS), max_size=8),
    questions=st.lists(_TEXTS, min_size=1, max_size=3),
    threshold=st.floats(0.0, 1.0),
)
def test_index_overlaps_are_bitwise_tf_cosine_on_every_prefix(turns, questions, threshold):
    history = DialogueHistory()
    for qa_id, (question, answer) in enumerate(turns):
        for asked in questions:
            _check_index(history, asked, threshold)
        history.append(HistoryItem(qa_id, question, answer, float(qa_id)))
    for asked in questions:
        _check_index(history, asked, threshold)

