"""Compressing an event stream differently for different questions.

Every event is scored against the current question (``event_relevance``);
relevant events keep their full patch tokens while the rest collapse to one
token per frame.  The same stream therefore compresses differently depending
on what is being asked -- that is the whole trick.  The events and their
units are built once; each question only picks a unit per event.
"""

import numpy as np

from streamctx import (
    ClusterConfig,
    CompressionConfig,
    cluster,
    compress_stream,
    compression_ratio,
    embed_question,
    event_relevance,
    events_from,
    token_count,
)
from streamctx.compression import EventEmbedding, original_token_count
from streamctx.providers import HashingQuestionEmbedder
from streamctx.store import FrameFeature

rng = np.random.default_rng(1)

# Three events, five frames each, four patches per frame.  Each event gets a
# caption; captions and questions share one embedding space (the hashing
# text embedder), so relevance is readable straight off the vocabulary.
CAPTIONS = {
    1: "a red kettle boils on the kitchen stove",
    2: "a grey cat sleeps on the windowsill",
    3: "someone lifts the red kettle off the stove",
}

frames = []
for event_index in range(3):
    center = rng.normal(0.0, 5.0, size=(4, 16))
    for j in range(5):
        feats = center + rng.normal(0.0, 0.05, size=(4, 16))
        frames.append(FrameFeature(feats.astype(np.float32), float(event_index * 5 + j)))

result = cluster(frames, ClusterConfig(k=3, seed=0))
events = events_from(result, frames)

embedder = HashingQuestionEmbedder(dim=256)
embeddings = [EventEmbedding(embedder.embed(CAPTIONS[ev.event_id]), "demo-caption")
              for ev in events]

for question in (
    "what is happening with the red kettle on the stove",
    "where is the grey cat sleeping",
):
    qvec = embed_question(question, embedder)
    units = compress_stream(events, embeddings, qvec, CompressionConfig(theta=0.45))
    relevance = dict(zip([ev.event_id for ev in events], event_relevance(embeddings, qvec)))
    print(f"\nQ: {question}")
    for unit in units:
        print(
            f"  event {unit.event_id} ({CAPTIONS[unit.event_id]}): "
            f"relevance {relevance[unit.event_id]:+.2f} -> {unit.kind}, {unit.tokens} tokens"
        )
    print(
        f"  stream: {token_count(units)}/{original_token_count(units)} tokens, "
        f"ratio {compression_ratio(units):.3f}"
    )

print("\nsame events, different question, different compression.")
