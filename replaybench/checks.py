"""Output checks run on every replay, and the adjusted Rand index.

Each check recomputes what a record must hold from the inputs or from a
property of the method, never from a stored copy of an earlier report, and
raises ``CheckFailure`` on the first record that disagrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from jsonschema import ValidationError

from streamctx.simulate import SimulationReport, validate_report
from workloads import FRAMES_PER_EVENT


class CheckFailure(AssertionError):
    """A replay produced output the method does not allow."""


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index of two partitions of the same items (Hubert & Arabie).

    Two partitions that are both a single cluster, or both all singletons,
    agree perfectly and score 1.0.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"label arrays differ in shape: {a.shape} vs {b.shape}")
    _, a_codes = np.unique(a, return_inverse=True)
    _, b_codes = np.unique(b, return_inverse=True)
    table = np.zeros((a_codes.max() + 1, b_codes.max() + 1), dtype=np.int64)
    np.add.at(table, (a_codes, b_codes), 1)

    def pairs(counts):
        return float((counts * (counts - 1) // 2).sum())

    index = pairs(table)
    sum_a, sum_b = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = sum_a * sum_b / pairs(np.array([a.size]))
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


@dataclass(frozen=True)
class SessionFacts:
    """What the benchmark knows about a session without running the engine."""

    segment_frames: tuple[tuple[float, int], ...]  # (end_s, frames) per segment
    patches: int

    def frames_until(self, ask_time: float) -> int:
        return sum(count for end_s, count in self.segment_frames if end_s <= ask_time)


def _answered(report: SimulationReport):
    return [rec for rec in report.records if "error" not in rec]


def check_schema(report: SimulationReport) -> None:
    try:
        validate_report(report)
    except ValidationError as exc:
        raise CheckFailure(f"report fails validate_report: {exc.message}") from exc
    if report.summary["leakage_violations"] != 0:
        raise CheckFailure(f"{report.summary['leakage_violations']} leakage violations")


def check_frames_and_k(report: SimulationReport, facts: SessionFacts) -> None:
    for rec in _answered(report):
        frames = facts.frames_until(rec["ask_time"])
        if rec["num_frames"] != frames:
            raise CheckFailure(
                f"qa {rec['qa_id']}: num_frames {rec['num_frames']}, segments ended by "
                f"{rec['ask_time']} hold {frames}"
            )
        k = max(1, frames // FRAMES_PER_EVENT)
        if rec["k"] != k:
            raise CheckFailure(f"qa {rec['qa_id']}: k is {rec['k']}, floor({frames}/15) is {k}")


def check_visual_tokens(report: SimulationReport, facts: SessionFacts) -> None:
    for rec in _answered(report):
        if rec["retrieval"]["delta"] == 1:
            expected = 0.0
        else:
            expected = rec["compression_ratio"] * rec["num_frames"] * facts.patches
        if not math.isclose(rec["visual_tokens"], expected, rel_tol=1e-9, abs_tol=1e-9):
            raise CheckFailure(
                f"qa {rec['qa_id']}: visual_tokens {rec['visual_tokens']}, "
                f"compression ratio x frames x patches gives {expected}"
            )


def check_confusion(report: SimulationReport) -> None:
    for rec in _answered(report):
        selected = set(rec["retrieval"]["selected_ids"])
        gold = set(rec["gold_relevant"])
        tp, fp, fn = len(selected & gold), len(selected - gold), len(gold - selected)
        recount = {"tp": tp, "fp": fp, "fn": fn, "tn": rec["history_size"] - tp - fp - fn}
        stated = {key: rec["retrieval_confusion"][key] for key in recount}
        if stated != recount:
            raise CheckFailure(f"qa {rec['qa_id']}: confusion {stated}, recount {recount}")


def check_report(report: SimulationReport, facts: SessionFacts) -> None:
    check_schema(report)
    check_frames_and_k(report, facts)
    check_visual_tokens(report, facts)
    check_confusion(report)


def check_same_bytes(reference: list[bytes], reports: list[SimulationReport]) -> None:
    for stream, (expected, report) in enumerate(zip(reference, reports, strict=True)):
        if report.canonical_bytes() != expected:
            raise CheckFailure(f"stream {stream}: canonical bytes differ between passes")


def check_lossless_wire(wire: list[SimulationReport], oracle: list[SimulationReport]) -> None:
    """Every provider-wire record equals the in-process oracle replay's.

    Only ``answer_provider`` (which names the client) and the wall time may
    differ; retrieval must then score F1 1.0.
    """
    ignored = ("answer_provider", "wall_ms")
    for stream, (ours, theirs) in enumerate(zip(wire, oracle, strict=True)):
        for rec, ref in zip(ours.records, theirs.records, strict=True):
            a = {k: v for k, v in rec.items() if k not in ignored}
            b = {k: v for k, v in ref.items() if k not in ignored}
            if a != b:
                diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
                raise CheckFailure(
                    f"stream {stream} qa {rec['qa_id']}: wire and oracle replays differ in {diff}"
                )
        if ours.summary["retrieval"]["f1"] != 1.0:
            raise CheckFailure(f"stream {stream}: wire retrieval F1 is not 1.0")
