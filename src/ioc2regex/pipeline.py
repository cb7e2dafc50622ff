"""Batch orchestration: raw indicator lists in, graded regex products out.

Stages per indicator: classify/preprocess/segment, capture-group finding,
k-candidate generation with grading, then optional evaluation against
ground-truth files.  Each indicator yields one outcome: its status, its
product record or rejection entry, and its annotation dump entry, if it was
annotated.  Ablation modes disable the capture-finding step ("-CR"), the
reasoning workflow ("C-R"), or both ("-C-R").  ``json_text`` writes every
file (``docs/formats.md#output-files``).
"""

from __future__ import annotations

import logging
import sys
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
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
from .inputs import INTEGER, STRING, STRINGS, ConfigError, check_object, read_json
from .knowledge import KnowledgeStore, default_store
from .normalize import (
    ClassificationError,
    IocKind,
    IocRecord,
    Tables,
    TokenizationError,
    make_record,
)

logger = logging.getLogger(__name__)

ABLATION_MODES = ("-CR", "C-R", "-C-R")
BACKENDS = ("template", "scripted", "remote")

# deterministic gap between per-indicator base seeds
_SEED_STRIDE = 1009


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
        return ScriptedBackend.from_file(config.replay_path)
    return RemoteBackend(
        endpoint=config.endpoint,
        model=config.model,
        temperature=config.temperature,
        api_key_env=config.api_key_env,
    )


def load_store(kb_paths: list[str] | None) -> KnowledgeStore:
    """The knowledge store the files define, else the bundled one."""
    return KnowledgeStore.ingest(list(kb_paths)) if kb_paths else default_store()


def _table_files(config: PipelineConfig) -> dict[str, str]:
    """The table files the config names, by ``Tables`` field."""
    named = {
        "expansions": config.expansions_path,
        "registry_roots": config.registry_roots_path,
    }
    return {key: path for key, path in named.items() if path}


def load_tables(config: PipelineConfig) -> Tables:
    """The tables in the files the config names, the bundled one for a table
    it does not name; a malformed one is a ConfigError that names its file."""
    files = _table_files(config)
    values = {key: read_json(path) for key, path in files.items()}
    return Tables.from_json(values, files.get)


# What an input-list object may hold.
_INPUT_FIELDS = {
    "text": STRING,
    "source_id": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def load_iocs(path: str | Path) -> list[tuple[str, str]]:
    """Input list: JSON array of strings or ``{"text", "source_id"}`` objects;
    a ``source_id`` that is present and not null must be a string, and no
    two entries may get one id."""
    data = read_json(path)
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a JSON list")
    out: list[tuple[str, str]] = []
    for i, entry in enumerate(data):
        entry = {"text": entry} if isinstance(entry, str) else entry
        check_object(entry, _INPUT_FIELDS, f"{path}[{i}]", required=("text",))
        out.append((entry.get("source_id") or f"ioc-{i:04d}", entry["text"]))
    _check_unique([ioc_id for ioc_id, _text in out], lambda i: f"{path}[{i}]")
    return out


def _check_unique(ids: list[str], name) -> None:
    """A ConfigError naming both entries, by ``name(index)``, when an id repeats."""
    first_with_id: dict[str, int] = {}
    for i, ioc_id in enumerate(ids):
        first = first_with_id.setdefault(ioc_id, i)
        if first != i:
            raise ConfigError(f"{name(first)} and {name(i)} share the id {ioc_id!r}")


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
    tables: Tables,
) -> tuple[str, dict, tuple[GroupAnnotation, str | None] | None]:
    """One indicator's outcome: its status, its product record or rejection
    entry, and its annotation dump entry (the annotation and its rejection
    reason), None when normalization or an internal error left no
    annotation.  Any exception after normalization becomes a ``failed``
    outcome, so one indicator never ends the batch."""
    rejection = {"ioc_id": source_id, "raw": raw}
    try:
        record = make_record(raw, store, source_id=source_id, tables=tables)
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
    tables = load_tables(config)
    backend = make_backend(config)
    iocs = load_iocs(config.input_path)

    workers = config.workers
    if isinstance(backend, ScriptedBackend) and workers != 1:
        logger.warning("scripted backend is stateful; forcing workers=1")
        workers = 1

    def work(item: tuple[int, tuple[str, str]]) -> tuple:
        index, (source_id, raw) = item
        return _process_one(index, source_id, raw, store, config, backend, tables)

    if workers == 1:
        outcomes = [work(item) for item in enumerate(iocs)]
    else:
        # imported here, so that a run with one worker does not pay for it
        from concurrent.futures import ThreadPoolExecutor

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
    for key in _table_files(config):
        summary[key] = getattr(tables, key)
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
    the product's summary records, else with the bundled ones.  The report
    names the records whose patterns are outside the dialect under
    ``invalid`` (``docs/formats.md#evaluation-report``)."""
    store = load_store(kb_paths)
    product = read_json(products_path)
    check_object(product, _PRODUCT_FIELDS, str(products_path), required=("records",))
    for i, record in enumerate(product["records"]):
        check_object(record, _RECORD_FIELDS, f"{products_path}: record {i}",
                     required=_RECORD_REQUIRED)
    # per-regex results are keyed by ioc_id
    _check_unique(
        [record["ioc_id"] for record in product["records"]],
        lambda i: f"{products_path}: record {i}",
    )
    summary = check_object(product.get("summary", {}), _SUMMARY_FIELDS,
                           f"{products_path}: summary")
    tables = Tables.from_json(summary, lambda key: f"{products_path}: summary {key!r}")
    truths = evaluation.load_truths(truths_path, store, tables)

    match_log: list | None = [] if dump_matches else None
    invalid: list = []
    reports = evaluation.evaluate_by_dataset(product["records"], truths, match_log, invalid)
    payload: dict = {"reports": [r.to_dict() for r in reports]}
    for entry in invalid:
        logger.warning("%s: record %r: %s", products_path, entry["ioc_id"], entry["reason"])
    if invalid:
        payload["invalid"] = invalid
    _write_json(output_path, payload)
    if dump_matches:
        _write_json(dump_matches, match_log)
    return payload


# What a product file may hold: every key ``run_generate`` writes, where
# ``_RECORD_REQUIRED`` names what evaluation reads of a record.
_PRODUCT_FIELDS = {
    "records": ("a list", lambda v: isinstance(v, list)),
    "rejections": ("a list", lambda v: isinstance(v, list)),
    "summary": ("an object", lambda v: isinstance(v, dict)),
}
_NONEMPTY = ("a string of one or more characters", lambda v: isinstance(v, str) and v != "")
_RECORD_FIELDS = {
    "ioc_id": STRING,
    "raw": STRING,
    "kind": STRING,
    "normalized": _NONEMPTY,
    "capture_groups": STRINGS,
    "capture_sequences": (
        "a list of lists of strings",
        lambda v: isinstance(v, list) and all(map(STRINGS[1], v)),
    ),
    "pattern": _NONEMPTY,
    # not NaN or an infinity, which ``json.loads`` reads but JSON lacks, nor
    # an integer too large for the score statistics
    "score": (
        "a number in the float range, not NaN or an infinity",
        lambda v: type(v) in (int, float) and -sys.float_info.max <= v <= sys.float_info.max,
    ),
    "n_cg": INTEGER,
    "n_wc": INTEGER,
    "candidates_considered": INTEGER,
}
_RECORD_REQUIRED = ("ioc_id", "pattern", "capture_groups", "normalized", "score")
_SUMMARY_FIELDS = {
    **dict.fromkeys(
        ("inputs", "generated", "rejected_no_capture", "classified_other", "failed",
         "seed", "candidates"),
        INTEGER,
    ),
    "backend": STRING,
    "ablation": STRING,
    # the tables ``Tables.from_json`` checks
    **dict.fromkeys(("expansions", "registry_roots"), ("a table", lambda v: True)),
}


def run_ablation(config: PipelineConfig, truths_path: str | Path,
                 report_path: str | Path) -> dict:
    """Generate under ``config.ablation``, then evaluate the products
    normally, normalizing the truths with the tables the products record;
    ``run_generate`` rejects an unknown mode."""
    run_generate(config)
    return run_evaluate(
        config.output_path, truths_path, report_path, kb_paths=config.kb_paths
    )


def _write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json_text(payload), encoding="utf-8")


_INF = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


# The text of each scalar type, as ``json.dumps`` writes it.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    float: _float_text,
    type(None): lambda _: "null",
}


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` and a newline, byte
    for byte, at about half the cost: the stdlib writes ``indent=`` output
    with its pure-Python encoder, while this escapes strings with its C one
    and joins each container's items with their indentation.  A value
    outside JSON, such as a set or a dict key that is not a string, raises
    TypeError."""
    out: list[str] = []
    _put_json(value, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _put_json(value, pad: str, put) -> None:
    """Put the text of a value whose lines are indented by ``pad``, a newline
    and spaces; the items of a container are indented two spaces more."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        put(scalar(value))
        return
    inner = pad + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key in sorted(value):
            put(sep + encode_basestring_ascii(key) + ": ")
            _put_json(value[key], inner, put)
            sep = "," + inner
        put(pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        sep = "[" + inner
        for item in value:
            put(sep)
            _put_json(item, inner, put)
            sep = "," + inner
        put(pad + "]" if value else "[]")
    else:  # an instance of a subclass of a scalar type, or outside JSON
        for kind, scalar in _SCALAR_TEXT.items():
            if isinstance(value, kind):
                put(scalar(value))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
