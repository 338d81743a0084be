"""Annotating a QA pool with relevance and sampling dialogue paths.

A dialogue path is one plausible conversation over a video: basic questions
drawn per segment, harder ones drawn with probability rising in the composite
score of how well the path so far supports them.  Every entry carries its
gold relevant set -- the earlier turns a model should retrieve.
"""

from dataclasses import replace

import numpy as np

from streamctx import (
    PathConfig,
    build_relevant_sets,
    composite_score,
    generate_paths,
    score_all_pairs,
    selection_probabilities,
)
from streamctx.paths import _rs_table
from streamctx.synthetic import SyntheticSpec, build_synthetic

session = build_synthetic(SyntheticSpec(segments=3, seed=4)).manifest

print("QA pool (3 segments, 4 questions each):")
for qa in session.qa_pool:
    print(f"  Q{qa.qa_id:>2} seg {qa.segment_id} [{qa.tier:9}] {qa.question}")

# score every (current, earlier) pair with the offline lexical scorer, then
# threshold (strictly above 4) into relevant sets; the session's planted
# annotation gets replaced so the paths below sample from what we just built
pool = build_relevant_sets(score_all_pairs(session.qa_pool))
session = replace(session, qa_pool=pool)
with_deps = [qa for qa in pool if qa.relevant_ids]
print(f"\n{len(with_deps)} questions depend on earlier ones after thresholding:")
for qa in with_deps:
    shown = {k: round(v, 2) for k, v in sorted(qa.relevance_scores.items()) if v > 4}
    print(f"  Q{qa.qa_id} <- {shown}")

print("\n--- how one draw is weighted ---")
rs_table = _rs_table(pool)
sizes = {qa.qa_id: len(qa.relevant_ids) for qa in pool}
path_so_far = [1, 2, 5]
candidates = [qa.qa_id for qa in pool if qa.segment_id == 2 and qa.tier == "streaming"]
scores = [composite_score(c, path_so_far, rs_table, sizes) for c in candidates]
for c, s, p in zip(candidates, scores, selection_probabilities(scores)):
    print(f"  candidate Q{c}: composite {s:.2f} -> probability {p:.2f}")

print("\n--- sampled paths ---")
for i, path in enumerate(generate_paths(session, PathConfig(num_paths=3, seed=0))):
    ids = "->".join(f"Q{e.qa_id}" for e in path.entries)
    golds = {e.qa_id: sorted(e.gold_relevant) for e in path.entries if e.gold_relevant}
    print(f"  path {i}: {ids}")
    if golds:
        print(f"          gold retrieval targets: {golds}")
print("\nthree different conversations over the same video, each self-consistent.")
