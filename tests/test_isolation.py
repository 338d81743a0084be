"""One replay's reports do not depend on what ran before it in the process.

Everything ``simulate`` carries from prefix to prefix lives in a state
object owned by the call, and a unit's fragment lives on the unit, so no
replay can see another's.  Replaying a session's streams in reverse order,
with a stream of another session between each two, must give every stream
the canonical bytes of an in-order replay.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from streamctx.simulate import ProviderSet, simulate
from streamctx.synthetic import build_synthetic

from test_reference_replay import _CONFIGS, _SPECS, HashRetriever


def _replay(session, stream, config, salt):
    report = simulate(session.manifest, stream, config, frames=session.frames,
                      providers=ProviderSet(retriever=HashRetriever(salt)))
    return report.canonical_bytes()


def _in_order(session, config, salt):
    streams = range(len(session.manifest.dialogue_streams))
    return [_replay(session, i, config, salt) for i in streams]


@settings(max_examples=25, deadline=None)
@given(spec=_SPECS, other_spec=_SPECS, config=_CONFIGS, salt=st.integers(0, 2**32))
def test_reverse_order_with_another_session_between_gives_the_same_bytes(
    spec, other_spec, config, salt
):
    session, other = build_synthetic(spec), build_synthetic(other_spec)
    want = _in_order(session, config, salt)
    want_other = _in_order(other, config, salt)[0]

    got = {}
    for stream in reversed(range(len(want))):
        got[stream] = _replay(session, stream, config, salt)
        assert _replay(other, 0, config, salt) == want_other
    assert [got[i] for i in range(len(want))] == want
