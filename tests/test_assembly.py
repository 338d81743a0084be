import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctx.assembly import (
    DEFAULT_TEMPLATE,
    PAYLOAD_SCHEMA,
    AnswerRecord,
    ContextPackage,
    answer,
    assemble,
    render_layout,
)
from streamctx.compression import POOLED, PRESERVED, VisualUnit
from streamctx.errors import ProviderError
from streamctx.retrieval import HistoryItem


def visual_unit(event_id, start_s, *, kind=PRESERVED, n_frames=2, patches=3):
    return VisualUnit(
        kind=kind,
        event_id=event_id,
        num_frames=n_frames,
        patch_count=patches,
        start_s=start_s,
        time_centroid=start_s + (n_frames - 1) / 2,
    )


def text_item(qa_id, ask_time, question="earlier q", answer_="earlier a"):
    return HistoryItem(qa_id=qa_id, question=question, answer=answer_, ask_time=ask_time)


class TestAssemble:
    def test_interleaves_by_time(self):
        v1 = visual_unit(1, 0.0)
        v2 = visual_unit(2, 30.0)
        t1 = text_item(5, 10.0)
        pkg = assemble([v2, v1], [t1], delta=0, question="now?")
        assert [getattr(u, "event_id", None) or u.qa_id for u in pkg.units] == [1, 5, 2]

    def test_text_breaks_time_ties_after_visual(self):
        v = visual_unit(1, 10.0)
        t = text_item(9, 10.0)
        pkg = assemble([v], [t], delta=0, question="q")
        assert isinstance(pkg.units[0], VisualUnit)
        assert isinstance(pkg.units[1], HistoryItem)

    def test_delta_one_drops_visuals(self):
        pkg = assemble([visual_unit(1, 0.0)], [text_item(2, 5.0)], delta=1, question="q")
        assert pkg.visual_units == ()
        assert [u.qa_id for u in pkg.text_units] == [2]

    def test_input_order_is_irrelevant(self):
        units = [visual_unit(i, float(i * 10)) for i in (3, 1, 2)]
        texts = [text_item(7, 15.0), text_item(6, 5.0)]
        a = assemble(units, texts, 0, "q")
        b = assemble(list(reversed(units)), list(reversed(texts)), 0, "q")
        assert render_layout(a) == render_layout(b)

    def test_package_validation(self):
        with pytest.raises(ValueError):
            ContextPackage(units=(visual_unit(1, 0.0),), delta=1, current_question="q")
        with pytest.raises(ValueError):
            ContextPackage(units=(), delta=2, current_question="q")
        out_of_order = (text_item(1, 20.0), text_item(2, 10.0))
        with pytest.raises(ValueError):
            ContextPackage(units=out_of_order, delta=0, current_question="q")


class TestRenderLayout:
    def test_canonical_json_shape(self):
        pkg = assemble(
            [visual_unit(1, 0.0, kind=POOLED, n_frames=2, patches=3)],
            [text_item(4, 5.0, "what was there", "a chair")],
            delta=0,
            question="and now?",
        )
        payload = render_layout(pkg)
        obj = json.loads(payload)
        assert obj["schema"] == PAYLOAD_SCHEMA == "context-payload/1"
        assert obj["delta"] == 0
        assert obj["question"] == "and now?"
        assert obj["blocks"] == [
            {"kind": "visual", "time": 0.0, "event_id": 1, "mode": "pooled", "frames": 2, "tokens": 2},
            {"kind": "text", "time": 5.0, "qa_id": 4, "question": "what was there", "answer": "a chair"},
        ]
        assert obj["layout"].split("\n") == [
            "[0.000s] <event 1: 2 visual tokens over 2 frames, pooled>",
            "[5.000s] Q4: what was there | A: a chair",
            "CURRENT QUESTION: and now?",
        ]
        # canonical encoding: sorted keys, no whitespace
        assert payload == json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def test_render_is_deterministic(self):
        pkg = assemble([visual_unit(1, 0.0)], [text_item(2, 3.0)], 0, "q")
        assert render_layout(pkg) == render_layout(pkg)

    def test_preserved_token_accounting_in_blocks(self):
        pkg = assemble([visual_unit(3, 1.0, n_frames=4, patches=5)], [], 0, "q")
        block = json.loads(render_layout(pkg))["blocks"][0]
        assert block["tokens"] == 20 and block["frames"] == 4 and block["mode"] == "preserved"


def reference_render(package):
    """The whole-payload encoding ``render_layout``'s fragment join must equal."""
    blocks = []
    for unit in package.units:
        if isinstance(unit, VisualUnit):
            blocks.append({"kind": "visual", "time": unit.start_s, "event_id": unit.event_id,
                           "mode": unit.kind, "frames": unit.num_frames, "tokens": unit.tokens})
        else:
            blocks.append({"kind": "text", "time": unit.ask_time, "qa_id": unit.qa_id,
                           "question": unit.question, "answer": unit.answer})
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


#: Text that JSON escapes, that str.format could misread, or that spans code units.
_texts = st.lists(
    st.one_of(
        st.characters(codec=None, exclude_categories=()),  # lone surrogates included
        st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x7f", "\u2028", "\u2029",
                         "\ud800", "\udfff", "\U0001f600", "{", "}", "{question}", "é", "\u00a0"]),
    ),
    max_size=12,
).map("".join)
_times = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-7, 1e16, 5e-324, 1.7976931348623157e308, 0.0005, 0.0015]),
)
_visual_units = st.builds(
    VisualUnit,
    kind=st.sampled_from([PRESERVED, POOLED]),
    event_id=st.integers(1, 10**6),
    num_frames=st.integers(1, 10**4),
    patch_count=st.integers(1, 10**4),
    start_s=_times,
    time_centroid=_times,
)
_text_items = st.builds(HistoryItem, qa_id=st.integers(0, 10**9), question=_texts,
                        answer=_texts, ask_time=_times)


class TestFragmentJoin:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_visual_units, max_size=6),
        st.lists(_text_items, max_size=6),
        st.sampled_from([0, 1]),
        _texts,
        _texts,
    )
    def test_render_equals_the_whole_payload_encoding(self, visual, texts, delta, q1, q2):
        first = assemble(visual, texts, delta, q1)
        # the same units again, so the second rendering reads cached fragments
        second = assemble(visual[::2], texts[1::2], 1 - delta, q2)
        for package in (first, second, first):
            assert render_layout(package) == reference_render(package)

    def test_an_empty_package_renders_only_the_question(self):
        package = assemble([], [], 1, 'say "\u2028"')
        assert render_layout(package) == reference_render(package)
        assert json.loads(render_layout(package))["blocks"] == []


class _FailingGenerator:
    provider_id = "failing"

    def generate(self, payload):
        raise RuntimeError("model crashed")


class _EmptyGenerator:
    provider_id = "empty"

    def generate(self, payload):
        return ""


class TestAnswer:
    def _package(self):
        return assemble(
            [visual_unit(1, 0.0, n_frames=2, patches=3)],
            [text_item(4, 5.0, "what was there", "a chair and a lamp")],
            delta=0,
            question="and now?",
        )

    def test_echo_fallback_answers(self):
        record = answer(self._package(), qa_id=9)
        assert record.qa_id == 9
        assert record.answer == (
            "echo(question='and now?'; delta=0; visual_events=[1]; text_qas=[4])"
        )
        assert record.provider_id == "fallback-echo"

    def test_token_accounting(self):
        record = answer(self._package())
        assert record.visual_tokens == 6  # 2 frames x 3 patches
        assert record.text_tokens == 8  # "what was there" (3) + "a chair and a lamp" (5)

    def test_provider_failure_names_package_shape(self):
        with pytest.raises(ProviderError, match="1 visual / 1 text"):
            answer(self._package(), _FailingGenerator())

    def test_empty_answer_rejected(self):
        with pytest.raises(ProviderError, match="empty"):
            answer(self._package(), _EmptyGenerator())

    def test_answer_record_is_plain_data(self):
        record = AnswerRecord(qa_id=None, answer="x", visual_tokens=0, text_tokens=0, provider_id="p")
        assert record.qa_id is None
