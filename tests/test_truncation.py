"""A replay cut after any segment keeps the full replay's record of every question it asks.

A question sees the segments finished when it is asked and the turns before
it, nothing else.  Cutting a session after segment c keeps its first c
segments, the QAs attached to them, and each stream's questions up to the
first one asked once segment c + 1 has finished or about a later segment.
Every record of the cut replay must then equal, in canonical bytes, the full
replay's record of the same question.  A seed, cache or count keyed on the
whole session instead of the visible prefix breaks this.
"""

import itertools
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from streamctx.simulate import ProviderSet, simulate
from streamctx.store import DialoguePath
from streamctx.synthetic import build_synthetic

from test_reference_replay import _CONFIGS, _SPECS, FaultyGenerator, FaultySummarizer, HashRetriever


def _cut(session, c):
    """The session's manifest and frames cut after its first ``c`` segments."""
    manifest = session.manifest
    segments = manifest.segments[:c]
    kept = {seg.segment_id for seg in segments}
    pool = tuple(qa for qa in manifest.qa_pool if qa.segment_id in kept)
    known = {qa.qa_id for qa in pool}
    closes = manifest.segments[c].end_s  # when segment c + 1 finishes
    streams = tuple(
        DialoguePath(tuple(itertools.takewhile(
            lambda e: e.ask_time < closes and e.qa_id in known, path.entries
        )))
        for path in manifest.dialogue_streams
    )
    cut = replace(manifest, segments=segments, qa_pool=pool, dialogue_streams=streams)
    return cut, {segment_id: session.frames[segment_id] for segment_id in kept}


def _records(manifest, frames, stream, config, salt):
    providers = ProviderSet(
        summarizer=FaultySummarizer(salt, 6),
        retriever=HashRetriever(salt),
        generator=FaultyGenerator(salt, 8),
    )
    report = simulate(manifest, stream, config, frames=frames, providers=providers)
    return report.lines(canonical=True)[:-1]  # the summary counts the questions


@settings(max_examples=30, deadline=None)
@given(spec=_SPECS, config=_CONFIGS, salt=st.integers(0, 2**32))
def test_a_cut_replay_keeps_every_record_of_the_full_replay(spec, config, salt):
    session = build_synthetic(spec)
    for stream in range(spec.num_streams):
        full = _records(session.manifest, session.frames, stream, config, salt)
        for c in range(1, spec.segments):
            manifest, frames = _cut(session, c)
            cut = _records(manifest, frames, stream, config, salt)
            assert len(cut) == len(manifest.dialogue_streams[stream])
            assert cut == full[: len(cut)]
