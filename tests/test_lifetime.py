"""Nothing a replay builds outlives its ``simulate`` call.

``simulate`` carries the joined frame block, the events, the visual units
and question vectors from prefix to prefix, and a unit or turn keeps its
encoded fragment in its own ``__dict__``.  All of it belongs to the call:
once the caller drops the session and the report, weak references to every
piece are dead, even while a log handler keeps the record of a failed
question.
"""

import gc
import importlib
import weakref

from streamctx.errors import ProviderError
from streamctx.providers import EchoGenerator
from streamctx.simulate import EngineConfig, ProviderSet, simulate
from streamctx.synthetic import SyntheticSpec, build_synthetic


class FailsOnThird:
    """A generator that fails its third question, so a failed question is replayed too."""

    provider_id = "fails-on-third"

    def __init__(self):
        self.calls = 0

    def generate(self, payload):
        self.calls += 1
        if self.calls == 3:
            raise ProviderError("generator down")
        return EchoGenerator().generate(payload)


def test_nothing_of_a_session_outlives_simulate(monkeypatch, caplog):
    module = importlib.import_module("streamctx.simulate")
    held: list[tuple[str, weakref.ref]] = []
    alive: set[str] = set()  # kinds seen alive at an answer

    def watch(name, pick):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            held.extend((kind, weakref.ref(obj)) for kind, obj in pick(args, result))
            alive.update(kind for kind, ref in held if ref() is not None)
            return result

        monkeypatch.setattr(module, name, wrapper)

    def prefix(args, result):
        return [("joined block", args[0].features.base)]

    def package(args, result):
        for unit in args[0].units:
            assert "_fragment" in vars(unit)  # the fragment lives on its unit
            yield type(unit).__name__, unit

    watch("cluster", prefix)
    watch("events_from", lambda args, result: [("event", ev) for ev in result])
    watch("embed_question", lambda args, result: [("question vector", result)])
    watch("compress_stream", lambda args, result: [("visual unit", u) for u in result])
    watch("generate_answer", lambda args, result: package(args, result))

    session = build_synthetic(SyntheticSpec(segments=4, frames_per_segment=30))
    report = simulate(session.manifest, 0, EngineConfig(retrieval_mode="oracle", theta=0.0),
                      frames=session.frames, providers=ProviderSet(generator=FailsOnThird()))
    assert report.summary["failed_questions"] == 1
    (failed,) = [rec for rec in report.records if "error" in rec]
    failures = [rec for rec in caplog.records if rec.name == "streamctx.simulate"]
    assert [rec.getMessage() for rec in failures] == [
        f"question {failed['qa_id']} failed (ProviderError: generator down); continuing the stream"
    ]
    assert alive == {"joined block", "event", "question vector", "visual unit", "VisualUnit",
                     "HistoryItem"}

    del session, report, failed
    gc.collect()
    assert caplog.records[-1] is failures[-1]  # the handler still holds the record
    assert [kind for kind, ref in held if ref() is not None] == []
