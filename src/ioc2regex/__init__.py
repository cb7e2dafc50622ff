"""ioc2regex: turn structured IOC strings into precise, validated regexes."""

from .capture import (
    GroupAnnotation,
    annotate,
    find_command_groups,
    find_path_groups,
)
from .dialect import DialectError, compile_pattern
from .evaluation import (
    GroundTruthString,
    UndefinedMetricError,
    fpr,
    hit_rate,
    levenshtein,
    load_truths,
    mean_fpr,
    score_distribution,
    similarity,
    structural_similarity,
)
from .generation import (
    BackendError,
    GeneratorBackend,
    IndicatorMemo,
    RemoteBackend,
    ScriptedBackend,
    TemplateBackend,
    WorkflowTrace,
    build_prompt,
    debug_check,
    generate,
    noncapture_check,
    overgen_check,
)
from .grading import RegexCandidate, grade, select_best
from .knowledge import (
    KnowledgeStore,
    NodeLabel,
    default_store,
)
from .normalize import (
    ClassificationError,
    IocKind,
    IocRecord,
    Tables,
    TokenizationError,
    classify,
    make_record,
    preprocess,
    segment,
)
from .pipeline import PipelineConfig, run_ablation, run_evaluate, run_generate

__version__ = "0.1.0"
