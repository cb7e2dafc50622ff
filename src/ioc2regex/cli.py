"""Command-line front end: generate, evaluate, ablate, kb-validate.

Exit codes: 0 on success, 1 on configuration or I/O errors, 2 when the batch
finished but some indicators failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields

from .knowledge import KnowledgeStore
from .pipeline import (
    ABLATION_MODES,
    BACKENDS,
    ConfigError,
    PipelineConfig,
    run_evaluate,
    run_generate,
    run_ablation,
)

logger = logging.getLogger("ioc2regex")


def _add_generate_flags(parser: argparse.ArgumentParser) -> None:
    defaults = PipelineConfig()

    def flag(field: str, *names: str, **kwargs) -> None:
        """A flag stored under a config field, with that field's default."""
        parser.add_argument(*names, dest=field, default=getattr(defaults, field), **kwargs)

    flag("input_path", "--input", required=True, help="JSON list of raw IOC strings")
    flag("output_path", "--output", required=True, help="product file to write")
    flag("kb_paths", "--kb", action="append",
         help="knowledge-base definition file (repeatable; default: bundled)")
    flag("expansions_path", "--expansions",
         help="environment-variable expansion table override")
    flag("registry_roots_path", "--registry-roots",
         help="registry root abbreviation map override")
    flag("backend", "--backend", choices=BACKENDS,
         help="candidate generator (default %(default)s)")
    flag("replay_path", "--replay", help="emission file for the scripted backend")
    flag("endpoint", "--endpoint", help="remote backend URL")
    flag("model", "--model", help="remote backend model name")
    flag("temperature", "--temperature", type=float,
         help="remote backend sampling temperature (default %(default)s)")
    flag("api_key_env", "--api-key-env",
         help="environment variable holding the remote credential (default %(default)s)")
    flag("candidates", "--candidates", "-k", type=int,
         help="candidate regexes per IOC (default %(default)s)")
    flag("max_iterations", "--max-iterations", type=int,
         help="per-loop attempt cap (default %(default)s)")
    flag("restart_cap", "--restart-cap", type=int,
         help="workflow restarts per IOC (default %(default)s)")
    flag("seed", "--seed", type=int,
         help="base seed of the over-generalization probe (default %(default)s)")
    flag("workers", "--workers", type=int,
         help="indicator threads; only speeds up the remote backend (default %(default)s)")
    flag("annotations_path", "--dump-annotations",
         help="also write the per-IOC keep/discard annotation dump")


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    """The config a generate or ablate command line sets, field by field."""
    return PipelineConfig(
        **{f.name: getattr(args, f.name) for f in fields(PipelineConfig) if hasattr(args, f.name)}
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
    p_abl.add_argument("--mode", dest="ablation", required=True, choices=list(ABLATION_MODES),
                       help="use --mode=-CR to pass modes starting with a dash")
    p_abl.add_argument("--truths", required=True)
    p_abl.add_argument("--report", required=True)

    p_kb = sub.add_parser("kb-validate", help="check knowledge-base files")
    p_kb.add_argument("files", nargs="+")

    args = parser.parse_args(argv)
    level = logging.DEBUG if args.verbose else logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    # basicConfig does nothing when the root logger already has a handler
    logger.setLevel(level)

    try:
        if args.command == "generate":
            summary = run_generate(_config_from(args))
            return 2 if summary["failed"] else 0
        if args.command == "evaluate":
            payload = run_evaluate(args.products, args.truths, args.output,
                                   kb_paths=args.kb, dump_matches=args.dump_matches)
            return 2 if "invalid" in payload else 0
        if args.command == "ablate":
            run_ablation(_config_from(args), args.truths, args.report)
            return 0
        if args.command == "kb-validate":
            store = KnowledgeStore.ingest(args.files)
            print(json.dumps(store.stats(), indent=2, sort_keys=True))
            return 0
    except (ConfigError, OSError) as exc:
        logger.error("%s", exc)
        return 1
    except Exception as exc:  # noqa: BLE001 - fatal, but with a readable message
        logger.error("unexpected failure: %s", exc)
        logger.debug("traceback of the unexpected failure", exc_info=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
