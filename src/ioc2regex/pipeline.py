"""Batch orchestration: raw indicator lists in, graded regex products out.

Stages per indicator: classify/preprocess/segment, capture-group finding,
k-candidate generation with grading, then optional evaluation against
ground-truth files.  Each indicator yields one outcome: its status, its
product record or rejection entry, and its annotation dump entry, if it was
annotated.  Ablation modes disable the capture-finding step ("-CR"), the
reasoning workflow ("C-R"), or both ("-C-R").  All file artifacts are JSON
with sorted keys so identical config + seed + deterministic backend
reproduce byte-identical outputs.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import evaluation
from .capture import GroupAnnotation, annotate, KEEP
from .generation import (
    MAX_ITERATIONS,
    REMOTE_API_KEY_ENV,
    REMOTE_TEMPERATURE,
    RESTART_CAP,
    GeneratorBackend,
    RemoteBackend,
    ScriptedBackend,
    TemplateBackend,
)
from .grading import CANDIDATES, select_best
from .knowledge import KnowledgeStore, default_store
from .normalize import (
    ClassificationError,
    IocKind,
    IocRecord,
    TokenizationError,
    check_table,
    load_expansions,
    load_registry_roots,
    make_record,
)

logger = logging.getLogger(__name__)

ABLATION_MODES = ("-CR", "C-R", "-C-R")
BACKENDS = ("template", "scripted", "remote")

# deterministic gap between per-indicator base seeds
_SEED_STRIDE = 1009


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    input_path: str = ""
    output_path: str = ""
    kb_paths: list[str] = field(default_factory=list)
    expansions_path: str = ""
    registry_roots_path: str = ""
    backend: str = "template"
    replay_path: str = ""
    endpoint: str = ""
    model: str = ""
    temperature: float = REMOTE_TEMPERATURE
    api_key_env: str = REMOTE_API_KEY_ENV
    candidates: int = CANDIDATES
    max_iterations: int = MAX_ITERATIONS
    restart_cap: int = RESTART_CAP
    seed: int = 0
    workers: int = 1
    ablation: str = ""
    annotations_path: str = ""

    def validate(self) -> None:
        if not self.input_path or not self.output_path:
            raise ConfigError("input and output paths are required")
        if self.candidates < 1:
            raise ConfigError("candidate count must be >= 1")
        if self.max_iterations < 1 or self.restart_cap < 1:
            raise ConfigError("iteration and restart caps must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.ablation and self.ablation not in ABLATION_MODES:
            raise ConfigError(f"unknown ablation mode {self.ablation!r}")
        for p in [self.input_path, self.replay_path, self.expansions_path,
                  self.registry_roots_path, *self.kb_paths]:
            if p and not Path(p).exists():
                raise ConfigError(f"file not found: {p}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == "scripted" and not self.replay_path:
            raise ConfigError("scripted backend needs --replay")
        if self.backend == "remote" and not self.endpoint:
            raise ConfigError("remote backend needs --endpoint")


def make_backend(config: PipelineConfig) -> GeneratorBackend:
    if config.backend == "template":
        return TemplateBackend()
    if config.backend == "scripted":
        try:
            return ScriptedBackend.from_file(config.replay_path)
        except ValueError as exc:  # malformed JSON included
            raise ConfigError(f"{config.replay_path}: {exc}") from exc
    return RemoteBackend(
        endpoint=config.endpoint,
        model=config.model,
        temperature=config.temperature,
        api_key_env=config.api_key_env,
    )


def load_store(kb_paths: list[str] | None) -> KnowledgeStore:
    """The knowledge store the files define, else the bundled one."""
    return KnowledgeStore.ingest(list(kb_paths)) if kb_paths else default_store()


def load_tables(config: PipelineConfig) -> tuple[dict | None, dict | None]:
    """The expansion and registry-root tables the config names, or None; a
    malformed one is a ConfigError that names its file."""
    try:
        expansions = (
            load_expansions(config.expansions_path) if config.expansions_path else None
        )
        roots = (
            load_registry_roots(config.registry_roots_path)
            if config.registry_roots_path
            else None
        )
    except ValueError as exc:  # malformed JSON included
        raise ConfigError(str(exc)) from exc
    return expansions, roots


def _read_json(path: str | Path):
    """A JSON file's content; malformed JSON or UTF-8 is a ConfigError that
    names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_iocs(path: str | Path) -> list[tuple[str, str]]:
    """Input list: JSON array of strings or ``{"text", "source_id"}`` objects."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a JSON list")
    out: list[tuple[str, str]] = []
    for i, entry in enumerate(data):
        if isinstance(entry, str):
            out.append((f"ioc-{i:04d}", entry))
        elif isinstance(entry, dict) and isinstance(entry.get("text"), str):
            out.append((str(entry.get("source_id") or f"ioc-{i:04d}"), entry["text"]))
        else:
            raise ConfigError(f"{path}[{i}]: expected a string or an object with 'text'")
    return out


def unfiltered_annotation(record: IocRecord) -> GroupAnnotation:
    """Ablation '-CR': skip capture finding, treat every component as keep."""
    sequences = [list(record.components)] if record.components else []
    return GroupAnnotation(
        record=record,
        labels=[KEEP] * len(record.components),
        capture_sequences=sequences,
    )


def _process_one(
    index: int,
    source_id: str,
    raw: str,
    store: KnowledgeStore,
    config: PipelineConfig,
    backend: GeneratorBackend,
    expansions: dict | None,
    registry_roots: dict | None,
) -> tuple[str, dict, tuple[GroupAnnotation, str | None] | None]:
    """One indicator's outcome: its status, its product record or rejection
    entry, and its annotation dump entry (the annotation and its rejection
    reason), None when normalization or an internal error left no
    annotation.  Any exception after normalization becomes a ``failed``
    outcome, so one indicator never ends the batch."""
    rejection = {"ioc_id": source_id, "raw": raw}
    try:
        record = make_record(
            raw,
            store,
            source_id=source_id,
            expansions=expansions,
            registry_roots=registry_roots,
        )
    except (ClassificationError, TokenizationError) as exc:
        return "failed", {**rejection, "reason": f"normalization error: {exc}"}, None
    if record.kind is IocKind.OTHER:
        reason = "classified other"
        return "other", {**rejection, "reason": reason}, (GroupAnnotation(record), reason)
    rejection["kind"] = record.kind.value
    bypass_capture = config.ablation in ("-CR", "-C-R")
    try:
        annotation = (
            unfiltered_annotation(record) if bypass_capture else annotate(record, store)
        )
        if not annotation.has_capture_groups:
            reason = "no capture group"
            return "rejected", {**rejection, "reason": reason}, (annotation, reason)
        best, candidates = select_best(
            annotation,
            backend,
            k=config.candidates,
            rng_seed=config.seed + index * _SEED_STRIDE,
            max_iterations=config.max_iterations,
            restart_cap=config.restart_cap,
            validate_groups=not bypass_capture,
            workflow="single_shot" if config.ablation in ("C-R", "-C-R") else "full",
        )
        if best is None:
            return "failed", {**rejection, "reason": "generation failed"}, (annotation, None)
        return "generated", {
            "ioc_id": source_id,
            "raw": record.raw,
            "kind": record.kind.value,
            "normalized": record.normalized,
            "capture_groups": sorted(c.casefold() for c in annotation.keep_components),
            "capture_sequences": [list(s) for s in annotation.capture_sequences],
            "pattern": best.pattern,
            "score": best.score,
            "n_cg": best.n_cg,
            "n_wc": best.n_wc,
            "candidates_considered": len(candidates),
        }, (annotation, None)
    except Exception as exc:  # noqa: BLE001 - one indicator's fault must not end the batch
        logger.warning("%s: internal error", source_id, exc_info=True)
        reason = f"internal error: {type(exc).__name__}: {exc}"
        return "failed", {**rejection, "reason": reason}, None


def run_generate(config: PipelineConfig) -> dict:
    """Process every input indicator; write the product file; return the summary."""
    config.validate()
    store = load_store(config.kb_paths)
    expansions, registry_roots = load_tables(config)
    backend = make_backend(config)
    iocs = load_iocs(config.input_path)

    workers = config.workers
    if isinstance(backend, ScriptedBackend) and workers != 1:
        logger.warning("scripted backend is stateful; forcing workers=1")
        workers = 1

    def work(item: tuple[int, tuple[str, str]]) -> tuple:
        index, (source_id, raw) = item
        return _process_one(
            index, source_id, raw, store, config, backend, expansions, registry_roots
        )

    if workers == 1:
        outcomes = [work(item) for item in enumerate(iocs)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(work, enumerate(iocs)))

    statuses = Counter(status for status, _entry, _dump in outcomes)
    records = [entry for status, entry, _dump in outcomes if status == "generated"]
    rejections = [entry for status, entry, _dump in outcomes if status != "generated"]
    if config.annotations_path:
        dumps = [dump for _status, _entry, dump in outcomes if dump]
        _write_json(
            config.annotations_path,
            [{**ann.to_dict(), "rejection_reason": reason} for ann, reason in dumps],
        )
    summary = {
        "inputs": len(iocs),
        "generated": statuses["generated"],
        "rejected_no_capture": statuses["rejected"],
        "classified_other": statuses["other"],
        "failed": statuses["failed"],
        "backend": backend.kind,
        "seed": config.seed,
        "candidates": config.candidates,
        "ablation": config.ablation or "full",
    }
    # Tables other than the bundled ones, for evaluate to normalize truths with.
    for key, table in (("expansions", expansions), ("registry_roots", registry_roots)):
        if table is not None:
            summary[key] = table
    product = {"records": records, "rejections": rejections, "summary": summary}
    _write_json(config.output_path, product)
    logger.info(
        "generate: %d inputs -> %d records, %d rejected, %d other, %d failed",
        summary["inputs"], summary["generated"], summary["rejected_no_capture"],
        summary["classified_other"], summary["failed"],
    )
    return summary


def run_evaluate(
    products_path: str | Path,
    truths_path: str | Path,
    output_path: str | Path,
    kb_paths: list[str] | None = None,
    dump_matches: str | Path = "",
) -> dict:
    """Score a product file against a ground-truth file; write the report.
    The truths are normalized with the expansion and registry-root tables
    the product's summary records, else with the bundled ones."""
    store = load_store(kb_paths)
    product = _read_json(products_path)
    if not isinstance(product, dict) or not isinstance(product.get("records"), list):
        raise ConfigError(f"{products_path}: not a product file (missing 'records')")
    for i, record in enumerate(product["records"]):
        _check_product_record(record, f"{products_path}: record {i}")
    summary = product.get("summary")
    summary = summary if isinstance(summary, dict) else {}
    expansions = _recorded_table(summary, "expansions", products_path)
    registry_roots = _recorded_table(summary, "registry_roots", products_path)
    try:
        truths = evaluation.load_truths(truths_path, store, expansions, registry_roots)
    except evaluation.GroundTruthError as exc:
        raise ConfigError(str(exc)) from exc

    match_log: list | None = [] if dump_matches else None
    try:
        reports = evaluation.evaluate_by_dataset(product["records"], truths, match_log)
    except evaluation.ProductPatternError as exc:
        raise ConfigError(f"{products_path}: {exc}") from exc
    payload = {"reports": [r.to_dict() for r in reports]}
    _write_json(output_path, payload)
    if dump_matches:
        _write_json(dump_matches, match_log)
    return payload


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_nonempty_str(value) -> bool:
    return isinstance(value, str) and value != ""


def _is_finite_number(value) -> bool:
    """A number that is a finite float: not NaN or an infinity, which
    ``json.loads`` reads but JSON lacks, nor an integer too large for the
    score statistics."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# What evaluation reads from a product record: key -> (description, check).
_PRODUCT_RECORD_SCHEMA = {
    "ioc_id": ("a string", _is_str),
    "pattern": ("a string of one or more characters", _is_nonempty_str),
    "capture_groups": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(map(_is_str, v)),
    ),
    "normalized": ("a string of one or more characters", _is_nonempty_str),
    "score": (
        "a number in the float range, not NaN or an infinity",
        _is_finite_number,
    ),
}


def _recorded_table(summary: dict, key: str, where) -> dict | None:
    table = summary.get(key)
    try:
        return None if table is None else check_table(table, f"{where}: summary {key!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_product_record(record, where: str) -> None:
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: not an object")
    for key, (what, ok) in _PRODUCT_RECORD_SCHEMA.items():
        if key not in record:
            raise ConfigError(f"{where}: missing {key!r}")
        if not ok(record[key]):
            raise ConfigError(f"{where}: {key!r} must be {what}")


def run_ablation(config: PipelineConfig, mode: str, truths_path: str | Path,
                 report_path: str | Path) -> dict:
    """Generate under an ablation mode, then evaluate the products normally,
    normalizing the truths with the tables the products record.  ``config``
    itself is left as it is."""
    if mode not in ABLATION_MODES:
        raise ConfigError(f"unknown ablation mode {mode!r}")
    run_generate(replace(config, ablation=mode))
    return run_evaluate(
        config.output_path, truths_path, report_path, kb_paths=config.kb_paths
    )


def _write_json(path: str | Path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
