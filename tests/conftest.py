import numpy as np
import pytest
from hypothesis import strategies as st

from streamctx.errors import DimensionMismatchError
from streamctx.store import FrameFeature
from streamctx.synthetic import SyntheticSpec, build_synthetic


@pytest.fixture(scope="session")
def default_session():
    """The default synthetic session: 5 segments, 20 QAs, 1 dialogue stream."""
    return build_synthetic(SyntheticSpec())


def cosine(a, b) -> float:
    """Cosine similarity of two equal-length 1-D vectors, clipped to [-1, 1].

    The reference that compression relevances and embedder checks compare
    against.  A zero-norm vector has no cosine and raises ``ValueError``.
    """
    va = np.asarray(a, dtype=np.float64).reshape(-1)
    vb = np.asarray(b, dtype=np.float64).reshape(-1)
    if va.shape != vb.shape:
        raise DimensionMismatchError(f"cosine: shapes {va.shape} and {vb.shape} differ")
    norm_a = float(np.linalg.norm(va))
    norm_b = float(np.linalg.norm(vb))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    return float(np.clip(float(va @ vb) / (norm_a * norm_b), -1.0, 1.0))


def make_frames(n, patches=2, dim=4, seed=0, t0=0.0, dt=1.0):
    """n random frames with evenly spaced timestamps."""
    rng = np.random.default_rng(seed)
    return [
        FrameFeature(rng.normal(size=(patches, dim)).astype(np.float32), t0 + i * dt)
        for i in range(n)
    ]


_JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers() | st.text(max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=3),
}


def _json_kinds(value) -> set[str]:
    """The JSON kinds ``value`` is accepted as: an int is a float too."""
    if value is None:
        return {"null"}
    if isinstance(value, bool):
        return {"bool"}
    if isinstance(value, (int, float)):
        return {"int", "float"} if isinstance(value, float) else {"int"}
    if isinstance(value, str):
        return {"string"}
    return {"array"} if isinstance(value, list) else {"object"}


def other_json_type(value):
    """A strategy for JSON values of a type ``value`` does not have."""
    kinds = _json_kinds(value)
    return st.one_of(*(strategy for kind, strategy in _JSON_KINDS.items() if kind not in kinds))
