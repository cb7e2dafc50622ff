"""Command-line front end: generate, evaluate, ablate, kb-validate.

Exit codes: 0 on success, 1 on configuration or I/O errors, 2 when the batch
finished but some indicators failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .knowledge import KnowledgeBaseError, KnowledgeStore
from .pipeline import (
    ABLATION_MODES,
    ConfigError,
    PipelineConfig,
    run_evaluate,
    run_generate,
    run_ablation,
)

logger = logging.getLogger("ioc2regex")


def _add_generate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="JSON list of raw IOC strings")
    parser.add_argument("--output", required=True, help="product file to write")
    parser.add_argument("--kb", action="append", default=[],
                        help="knowledge-base definition file (repeatable; default: bundled)")
    parser.add_argument("--expansions", default="",
                        help="environment-variable expansion table override")
    parser.add_argument("--registry-roots", default="",
                        help="registry root abbreviation map override")
    parser.add_argument("--backend", default="template",
                        choices=["template", "scripted", "remote"])
    parser.add_argument("--replay", default="", help="emission file for the scripted backend")
    parser.add_argument("--endpoint", default="", help="remote backend URL")
    parser.add_argument("--model", default="", help="remote backend model name")
    parser.add_argument("--temperature", type=float, default=0.2)
    parser.add_argument("--api-key-env", default="IOC2REGEX_API_KEY",
                        help="environment variable holding the remote credential")
    parser.add_argument("--candidates", "-k", type=int, default=5,
                        help="candidate regexes per IOC (default 5)")
    parser.add_argument("--max-iterations", type=int, default=10,
                        help="per-loop attempt cap (default 10)")
    parser.add_argument("--restart-cap", type=int, default=5,
                        help="workflow restarts per IOC (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="indicator threads; only speeds up the remote backend")
    parser.add_argument("--dump-annotations", default="",
                        help="also write the per-IOC keep/discard annotation dump")


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        input_path=args.input,
        output_path=args.output,
        kb_paths=args.kb,
        expansions_path=args.expansions,
        registry_roots_path=args.registry_roots,
        backend=args.backend,
        replay_path=args.replay,
        endpoint=args.endpoint,
        model=args.model,
        temperature=args.temperature,
        api_key_env=args.api_key_env,
        candidates=args.candidates,
        max_iterations=args.max_iterations,
        restart_cap=args.restart_cap,
        seed=args.seed,
        workers=args.workers,
        annotations_path=args.dump_annotations,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ioc2regex",
        description="Generate and evaluate regexes for structured IOC strings.",
    )
    parser.add_argument("--verbose", "-v", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="run the full generation pipeline")
    _add_generate_flags(p_gen)

    p_eval = sub.add_parser("evaluate", help="score a product file against ground truth")
    p_eval.add_argument("--products", required=True)
    p_eval.add_argument("--truths", required=True)
    p_eval.add_argument("--output", required=True)
    p_eval.add_argument("--kb", action="append", default=[])
    p_eval.add_argument("--dump-matches", default="",
                        help="also write the per-regex match/false-positive dump")

    p_abl = sub.add_parser("ablate", help="generate under an ablation mode, then evaluate")
    _add_generate_flags(p_abl)
    p_abl.add_argument("--mode", required=True, choices=list(ABLATION_MODES),
                       help="use --mode=-CR to pass modes starting with a dash")
    p_abl.add_argument("--truths", required=True)
    p_abl.add_argument("--report", required=True)

    p_kb = sub.add_parser("kb-validate", help="check knowledge-base files")
    p_kb.add_argument("files", nargs="+")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        if args.command == "generate":
            summary = run_generate(_config_from(args))
            return 2 if summary["failed"] else 0
        if args.command == "evaluate":
            run_evaluate(args.products, args.truths, args.output,
                         kb_paths=args.kb, dump_matches=args.dump_matches)
            return 0
        if args.command == "ablate":
            run_ablation(_config_from(args), args.mode, args.truths, args.report)
            return 0
        if args.command == "kb-validate":
            store = KnowledgeStore.ingest(args.files)
            print(json.dumps(store.stats(), indent=2, sort_keys=True))
            return 0
    except (ConfigError, KnowledgeBaseError, OSError) as exc:
        logger.error("%s", exc)
        return 1
    except Exception as exc:  # noqa: BLE001 - fatal, but with a readable message
        logger.error("unexpected failure: %s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
