"""Command-line entry point.

Each subcommand declares only the flags it reads.  The engine commands
(``cluster``, ``compress``, ``retrieve``, ``simulate``) take ``--config
<json>`` (an EngineConfig file), and those that cluster also take ``--seed``
(overrides the config seed); every command but ``make-synthetic`` takes
``--out`` (output file; stdout otherwise).  Results are JSON; bad input
prints ``{"error": ..., "message": ...}`` to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .clustering import ClusterResult, choose_k, cluster, events_from
from .compression import (
    compress_stream,
    compression_ratio,
    embed_event,
    embed_question,
    event_relevance,
    token_count,
)
from .errors import InvalidConfigError, StreamContextError
from .paths import RELEVANCE_THRESHOLD, PathConfig, attach_streams, build_relevant_sets, score_all_pairs
from .providers import HashingQuestionEmbedder
from .retrieval import DialogueHistory, HistoryItem
from .simulate import EngineConfig, evaluate, load_report_records, retrieval_policy, simulate
from .store import FrameBlock, load_embeddings, load_manifest, load_session_frames, save_manifest
from .synthetic import SyntheticSpec, make_synthetic


def _engine_config(args: argparse.Namespace, **overrides) -> EngineConfig:
    """The ``--config`` file (or the defaults) with every override that was given applied."""
    config = EngineConfig.from_file(args.config) if args.config else EngineConfig()
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _emit(args: argparse.Namespace, payload) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _say(payload) -> None:
    """``payload`` as one JSON line on stdout."""
    sys.stdout.write(json.dumps(payload) + "\n")


def _cluster_file(args, config: EngineConfig) -> tuple[FrameBlock, ClusterResult]:
    """The frames of ``--embeddings`` and their clustering (``--k`` or the ratio rule)."""
    frames = load_embeddings(args.embeddings)
    k = args.k if args.k is not None else choose_k(len(frames), config.cluster_ratio)
    return frames, cluster(frames, config.cluster_config(k, config.seed))


def _cmd_cluster(args) -> None:
    config = _engine_config(args, alpha_time=args.alpha_time, seed=args.seed)
    _, result = _cluster_file(args, config)
    _emit(args, result.to_dict())


def _cmd_compress(args) -> None:
    config = _engine_config(args, theta=args.theta, seed=args.seed)
    frames, result = _cluster_file(args, config)
    events = events_from(result, frames)
    embeddings = [embed_event(ev) for ev in events]
    qvec = embed_question(args.question, HashingQuestionEmbedder(frames.dim))
    units = compress_stream(events, embeddings, qvec, config.compression_config())
    relevance = {ev.event_id: r for ev, r in zip(events, event_relevance(embeddings, qvec))}
    _emit(
        args,
        {
            "question": args.question,
            "theta": config.theta,
            "token_count": token_count(units),
            "compression_ratio": compression_ratio(units),
            "units": [
                {
                    "event_id": u.event_id,
                    "kind": u.kind,
                    "relevance": relevance[u.event_id],
                    "frames": u.num_frames,
                    "tokens": u.tokens,
                    "start_s": u.start_s,
                }
                for u in units
            ],
        },
    )


def _cmd_retrieve(args) -> None:
    # the CLI injects no retriever, so provider mode fails here
    select = retrieval_policy(_engine_config(args), None)
    manifest = load_manifest(args.manifest)
    if not 0 <= args.stream < len(manifest.dialogue_streams):
        raise InvalidConfigError(
            f"stream {args.stream} out of range ({len(manifest.dialogue_streams)} streams)"
        )
    path = manifest.dialogue_streams[args.stream]
    qa_by_id = {qa.qa_id: qa for qa in manifest.qa_pool}
    items = []
    target = None
    for entry in path.entries:
        if entry.qa_id == args.qa_id:
            target = entry
            break
        qa = qa_by_id[entry.qa_id]
        items.append(HistoryItem(qa.qa_id, qa.question, qa.answer, entry.ask_time))
    if target is None:
        raise InvalidConfigError(f"qa_id {args.qa_id} is not on stream {args.stream}")
    history = DialogueHistory(tuple(items))
    question = qa_by_id[args.qa_id].question
    output = select(history, question, target.gold_relevant)
    _emit(
        args,
        {
            "qa_id": args.qa_id,
            "question": question,
            "history_size": len(history),
            "selected_ids": sorted(output.selected_ids),
            "delta": output.delta,
        },
    )


def _cmd_score_relevance(args) -> None:
    manifest = load_manifest(args.manifest)
    pool = build_relevant_sets(score_all_pairs(manifest.qa_pool), threshold=args.threshold)
    updated = dataclasses.replace(manifest, qa_pool=pool)
    save_manifest(args.out or args.manifest, updated)
    scored = sum(len(qa.relevance_scores) for qa in pool)
    _say({"pairs_scored": scored, "threshold": args.threshold})


def _cmd_build_paths(args) -> None:
    manifest = load_manifest(args.manifest)
    path_config = PathConfig(
        alpha_len=args.alpha_len,
        num_paths=args.num_paths,
        complex_per_segment=args.complex_per_segment,
        force_include_global=args.force_include_global,
        seed=args.seed,
    )
    updated = attach_streams(manifest, path_config)
    save_manifest(args.out or args.manifest, updated)
    streams = updated.dialogue_streams
    _say({"paths": len(streams), "lengths": [len(p) for p in streams]})


def _cmd_simulate(args) -> None:
    config = _engine_config(args, seed=args.seed)
    manifest_path = Path(args.manifest)
    manifest = load_manifest(manifest_path)
    frames = load_session_frames(manifest, manifest_path.parent)
    report = simulate(manifest, args.stream, config, frames=frames)
    if args.out:
        report.write(args.out)
        _say(report.summary)
    else:
        sys.stdout.write("\n".join(report.lines()) + "\n")


def _cmd_eval(args) -> None:
    record_sets = [load_report_records(path) for path in args.reports]
    _emit(args, evaluate(record_sets))


#: The ``SyntheticSpec`` fields ``make-synthetic`` sets by flag.
_SPEC_FLAGS = (
    "segments", "frames_per_segment", "patches", "dim", "events_per_segment",
    "basic_per_segment", "streaming_per_segment", "global_count", "num_streams", "seed",
)


def _cmd_make_synthetic(args) -> None:
    spec = SyntheticSpec(**{name: getattr(args, name) for name in _SPEC_FLAGS})
    session = make_synthetic(spec, args.out_dir)
    _say({
        "out_dir": str(session.out_dir),
        "segments": len(session.manifest.segments),
        "qa_pool": len(session.manifest.qa_pool),
        "streams": len(session.manifest.dialogue_streams),
    })


def build_parser() -> argparse.ArgumentParser:
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--config", help="EngineConfig JSON file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="override the config seed")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the result here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="streamctx",
        description="Streaming video QA context engine.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "cluster", parents=[engine, seed, out], help="cluster a frame stream into events"
    )
    p.add_argument("--embeddings", required=True, help="binary frame-embedding file")
    p.add_argument("--k", type=int, default=None, help="cluster count (default: ratio rule)")
    p.add_argument("--alpha-time", type=float, default=None, dest="alpha_time")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser(
        "compress", parents=[engine, seed, out], help="compress events against a question"
    )
    p.add_argument("--embeddings", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("retrieve", parents=[engine, out], help="retrieve history for one question")
    p.add_argument("--manifest", required=True)
    p.add_argument("--qa-id", type=int, required=True, dest="qa_id")
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser(
        "score-relevance", parents=[out],
        help="fill relevance scores and relevant sets in a manifest",
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold", type=float, default=RELEVANCE_THRESHOLD)
    p.set_defaults(func=_cmd_score_relevance)

    p = sub.add_parser("build-paths", parents=[out], help="sample dialogue streams")
    p.add_argument("--manifest", required=True)
    p.add_argument("--num-paths", type=int, default=PathConfig.num_paths, dest="num_paths")
    p.add_argument("--alpha-len", type=float, default=PathConfig.alpha_len, dest="alpha_len")
    p.add_argument(
        "--complex-per-segment", type=int, default=PathConfig.complex_per_segment,
        dest="complex_per_segment",
    )
    p.add_argument("--force-include-global", action="store_true", dest="force_include_global")
    p.add_argument("--seed", type=int, default=PathConfig.seed)
    p.set_defaults(func=_cmd_build_paths)

    p = sub.add_parser("simulate", parents=[engine, seed, out], help="replay a dialogue stream")
    p.add_argument("--manifest", required=True)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("eval", parents=[out], help="corpus metrics over report files")
    p.add_argument("reports", nargs="+", help="JSON-lines report files")
    p.set_defaults(func=_cmd_eval)

    # no abbreviations, so "--out" is an error, not "--out-dir"
    p = sub.add_parser("make-synthetic", allow_abbrev=False, help="generate a synthetic session")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    for name in _SPEC_FLAGS:
        p.add_argument(
            "--" + name.replace("_", "-"), type=int, default=getattr(SyntheticSpec, name), dest=name
        )
    p.set_defaults(func=_cmd_make_synthetic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (StreamContextError, ValueError, OSError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
