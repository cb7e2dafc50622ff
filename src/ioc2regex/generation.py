"""Iterative regex generation with staged validation.

A pluggable backend proposes candidate patterns, and ``generate`` runs each
through the debug check, the group audit and the over-generalization probe
as one stage list, by ``docs/formats.md#generation-workflow``.

The debug and audit verdicts and their diagnostics depend only on the
pattern and the indicator, and so does a probe verdict that drew no probe
string; every prompt opens with the same indicator head.  So one
``IndicatorMemo`` holds an indicator's verdicts in one table keyed by
(stage, pattern), which all its runs and their grading read, and computes
each verdict once (``docs/formats.md#best-of-k-and-reuse``).
``WorkflowTrace.probed`` records for ``grading.select_best`` whether a run
drew a probe string.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import dialect
from .capture import KEEP, GroupAnnotation
from .inputs import STRINGS, ConfigError, check_object, read_json
from .normalize import IocKind, separators

STAGE_DEBUG = "debug"
STAGE_NONCAPTURE = "noncapture"
STAGE_OVERGEN = "overgen"

# The workflow's caps, which ``grading.select_best`` and
# ``pipeline.PipelineConfig`` read too.
MAX_ITERATIONS = 10  # attempts per debug and audit stage
RESTART_CAP = 5  # passes of the whole workflow

RANDOM_PROBE_COUNT = 10
_PROBE_ALPHABET = "".join(c for c in string.printable if not c.isspace())
# Rejected draws in a row after which the one-character keeps leave the alphabet.
_PROBE_REJECTS = 1000
_HOLDS_KEEP = "every match holds a keep component"
_NO_PROBE_ALPHABET = "every probe character is a keep component"


class BackendError(RuntimeError):
    """Transport or protocol failure while asking a backend for a candidate."""


# -- validation checks ---------------------------------------------------


@dataclass(slots=True)
class DebugResult:
    ok: bool
    syntax_error: str = ""
    matched_prefix: str = ""
    failing_token: str = ""
    target_offset: int = 0

    def describe(self) -> str:
        if self.ok:
            return "match ok"
        if self.syntax_error:
            return self.syntax_error
        return (
            "pattern does not match the indicator; "
            f"longest matching pattern prefix: {self.matched_prefix!r} "
            f"(reaches target offset {self.target_offset}); "
            f"first failing pattern token: {self.failing_token!r}"
        )


def debug_check(pattern: str, target: str) -> DebugResult:
    """Does the pattern match the indicator?  On failure, report the longest
    compilable token-prefix that still matches and the first failing token
    (``dialect.Analysis.explain``)."""
    analysis = dialect.analysis_or_error(pattern)
    if isinstance(analysis, dialect.DialectError):
        return DebugResult(ok=False, syntax_error=str(analysis))
    miss = analysis.explain(target)
    if miss is None:
        return DebugResult(ok=True)
    prefix, offset, failing = miss
    return DebugResult(
        ok=False, matched_prefix=prefix, failing_token=failing, target_offset=offset
    )


@dataclass(slots=True)
class NoncaptureResult:
    ok: bool
    missing_keep: list[str] = field(default_factory=list)
    present_discard: list[str] = field(default_factory=list)
    # per literal run, the spans of its keep occurrences in its case fold
    found: list[list[tuple[int, int]]] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return "group audit ok"
        parts = []
        if self.missing_keep:
            parts.append(
                "capture components missing from the pattern: "
                + ", ".join(repr(c) for c in self.missing_keep)
            )
        if self.present_discard:
            parts.append(
                "mutable components still present literally: "
                + ", ".join(repr(c) for c in self.present_discard)
            )
        return "; ".join(parts)


def noncapture_check(pattern: str, annotation: GroupAnnotation) -> NoncaptureResult:
    """The group audit, by the coverage rule (``docs/formats.md#scores``),
    of an annotation with keep components: the keep components in no
    required literal run, the discard components in some run, and per run
    the spans of the keep occurrences in the run's case fold, where text is
    compared (the grader maps them back to the run's characters).  It is
    the audit's one entry, and ``IndicatorMemo.verdict`` calls it for the
    score too.  Raises DialectError."""
    if not annotation.keep_components:
        raise ValueError("noncapture_check requires an annotation with keep components")
    runs = dialect.analyze(pattern).runs
    folded = [run.text.casefold() for run in runs]
    spans: list[list[tuple[int, int]]] = [[] for _ in runs]  # in the folds
    missing = []
    for comp in annotation.keep_components:
        needle = comp.casefold()
        pinned = False
        for run, text, found in zip(runs, folded, spans):
            at = text.find(needle)
            while at != -1:
                found.append((at, at + len(needle)))
                pinned = pinned or run.required
                at = text.find(needle, at + 1)
        if not pinned:
            missing.append(comp)
    present = [
        comp
        for comp in annotation.discard_components
        if any(comp.casefold() in text for text in folded)
    ]
    return NoncaptureResult(not missing and not present, missing, present, spans)


@dataclass(slots=True)
class OvergenResult:
    ok: bool
    probes: list[str] = field(default_factory=list)
    unprobed: str = _HOLDS_KEEP  # why a pass with no probe drew none

    def describe(self) -> str:
        if self.ok and not self.probes:
            return f"over-generalization probe ok (no probe drawn: {self.unprobed})"
        if self.ok:
            return (
                f"over-generalization probe ok (probe {len(self.probes)} of "
                f"{RANDOM_PROBE_COUNT} unmatched)"
            )
        return (
            "pattern is overly generic: it matches all "
            f"{len(self.probes)} random probe strings"
        )


def _folded_keeps(keep_components) -> list[str]:
    return [c.casefold() for c in keep_components if c]


def _probe_stream(
    rng_seed: int, keep_components: list[str] | tuple[str, ...] = ()
) -> Iterator[str]:
    """The seed's probe strings (``docs/formats.md#generation-workflow``);
    the stream ends when the one-character keeps leave no character, and is
    endless otherwise."""
    rng = random.Random(rng_seed)
    folded = _folded_keeps(keep_components)
    alphabet = _PROBE_ALPHABET
    rejects = 0
    while True:
        length = rng.randint(8, 64)
        candidate = "".join(rng.choice(alphabet) for _ in range(length))
        if not any(comp in candidate.casefold() for comp in folded):
            rejects = 0
            yield candidate
        elif (rejects := rejects + 1) == _PROBE_REJECTS:
            alphabet = "".join(c for c in _PROBE_ALPHABET if c.casefold() not in folded)
            if not alphabet:
                return


def random_probe_strings(
    rng_seed: int, keep_components: list[str] | tuple[str, ...] = ()
) -> list[str]:
    """The ten probe strings of a seed: the first ten of its probe stream
    (fewer when it ends)."""
    return list(
        itertools.islice(_probe_stream(rng_seed, keep_components), RANDOM_PROBE_COUNT)
    )


def overgen_check(
    pattern: str,
    rng_seed: int,
    keep_components: list[str] | tuple[str, ...] = (),
) -> OvergenResult:
    """The over-generalization probe (``docs/formats.md#generation-workflow``).

    A needle that holds a keep is in every match, and the ASCII probe
    strings hold none, so such a pattern passes with no probe drawn.  A
    passing result holds only the strings drawn up to the first one the
    pattern does not match.
    """
    folded = _folded_keeps(keep_components)
    analysis = dialect.analyze(pattern)
    if any(comp in needle for needle in analysis.needles for comp in folded):
        return OvergenResult(ok=True, unprobed=_HOLDS_KEEP)
    # _probe_stream yields nothing only when every probe character is a keep
    if all(c.casefold() in folded for c in _PROBE_ALPHABET):
        return OvergenResult(ok=True, unprobed=_NO_PROBE_ALPHABET)
    probes: list[str] = []
    for probe in itertools.islice(
        _probe_stream(rng_seed, keep_components), RANDOM_PROBE_COUNT
    ):
        probes.append(probe)
        if not analysis.matches(probe):
            return OvergenResult(ok=True, probes=probes)
    return OvergenResult(ok=False, probes=probes)


# -- prompt construction -------------------------------------------------


def build_prompt(
    annotation: GroupAnnotation,
    previous_pattern: str = "",
    diagnostic: str = "",
    prior_failures: int = 0,
) -> str:
    """Deterministic prompt text for a backend; byte-stable for golden tests
    (``IndicatorMemo.prompt``)."""
    return IndicatorMemo(annotation).prompt(previous_pattern, diagnostic, prior_failures)


# The close of every prompt head: the dialect rules, the same for every indicator.
_RULES_BLOCK = "\n\nAllowed regex syntax:\n" + "\n".join(
    f"  {rule}" for rule in dialect.DIALECT_RULES
)


def _prompt_head(annotation: GroupAnnotation) -> str:
    """The part of every prompt for an indicator that no attempt changes:
    the indicator, its keep and discard components and the dialect rules."""
    rec = annotation.record
    lines = [
        "Generate one regular expression for the following indicator string.",
        "",
        "Indicator (the regex must match it):",
        f"  {rec.normalized}",
        "",
        "Invariant components (each must appear literally in the regex):",
    ]
    lines += [f"  - {comp}" for comp in annotation.keep_components]
    lines += ["", "Mutable components (none of these may appear literally):"]
    discards = annotation.discard_components
    lines += [f"  - {comp}" for comp in discards] if discards else ["  (none)"]
    return "\n".join(lines) + _RULES_BLOCK


# -- backends -------------------------------------------------------------


class GeneratorBackend:
    """One candidate pattern per call, from (annotation, prompt).

    ``deterministic`` says that ``propose`` is a pure function of
    (annotation, prompt): the same reply, or the same error, every call."""

    kind = "abstract"
    deterministic = False

    def propose(self, annotation: GroupAnnotation, prompt: str) -> str:
        raise NotImplementedError


def render_template(annotation: GroupAnnotation) -> str:
    """Deterministic fallback pattern built from the capture sequences.

    A path or registry key's keeps join with the delimiters that separate
    them in the normalized indicator, and with a gap between two
    separators where the run skips a component; the separator after the
    last keep follows it when further components do
    (``docs/formats.md#generation-workflow``).  Command sequences join with
    ``.*`` since argument values may sit between parameters.
    """
    rec = annotation.record
    if rec.kind is IocKind.COMMAND_LINE:
        bodies = [
            ".*".join(re.escape(comp) for comp in seq)
            for seq in annotation.capture_sequences
        ]
        return "(?i).*" + ".*".join(bodies) + ".*"

    comps = rec.components
    keeps = [i for i, label in enumerate(annotation.labels) if label == KEEP]
    seps = separators(rec.normalized)
    runs = [comps[keeps[0]]]  # the literal texts between gaps
    for i, j in zip(keeps, keeps[1:]):
        if j == i + 1:
            runs[-1] += seps[j] + comps[j]
        else:
            runs[-1] += seps[i + 1]
            runs.append(seps[j] + comps[j])
    if keeps[-1] < len(comps) - 1:
        runs[-1] += seps[keeps[-1] + 1]
    return "(?i).*" + ".*".join(map(re.escape, runs)) + ".*"


class TemplateBackend(GeneratorBackend):
    """Offline deterministic backend emitting the template pattern.

    It renders an indicator's template once: it keeps the last annotation
    it was asked about with its pattern, as one tuple, so threads that share
    the backend can at most render one again."""

    kind = "template_fallback"
    deterministic = True
    _last: tuple[GroupAnnotation | None, str] = (None, "")

    def propose(self, annotation: GroupAnnotation, prompt: str) -> str:
        last = self._last
        if last[0] is not annotation:
            last = self._last = (annotation, render_template(annotation))
        return last[1]


# What a replay object may hold.
_REPLAY_FIELDS = {
    "emissions": STRINGS,
    "per_record": ("true or false", lambda value: isinstance(value, bool)),
    "fallback": ('null or "template"', lambda value: value in (None, "template")),
}


class ScriptedBackend(GeneratorBackend):
    """Replays a fixed list of emissions, for tests and offline dry-runs, as
    ``docs/formats.md#scripted-replay-file`` states; under ``per_record`` a
    record is keyed by its ``source_id``."""

    kind = "scripted_mock"

    def __init__(
        self,
        emissions: list[str],
        per_record: bool = False,
        fallback: GeneratorBackend | None = None,
    ):
        if not emissions and fallback is None:
            raise ValueError("scripted backend needs at least one emission")
        self.emissions = list(emissions)
        self.per_record = per_record
        self.fallback = fallback
        self._cursors: dict[str, int] = {}  # by record under per_record, else ""
        self.calls = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """The backend a replay file describes; a file of any other shape
        raises ConfigError."""
        data = read_json(path)
        data = {"emissions": data} if isinstance(data, list) else data
        check_object(data, _REPLAY_FIELDS, str(path), required=("emissions",))
        fallback = TemplateBackend() if data.get("fallback") else None
        if not data["emissions"] and fallback is None:
            raise ConfigError(f"{path}: 'emissions' must not be empty without a fallback")
        return cls(data["emissions"], data.get("per_record", False), fallback)

    def propose(self, annotation: GroupAnnotation, prompt: str) -> str:
        self.calls += 1
        record = annotation.record
        key = (record.source_id or record.raw) if self.per_record else ""
        index = self._cursors.get(key, 0)
        self._cursors[key] = index + 1
        if index < len(self.emissions):
            return self.emissions[index]
        if self.fallback is not None:
            return self.fallback.propose(annotation, prompt)
        return self.emissions[-1]


# The remote backend's defaults, which ``pipeline.PipelineConfig`` reads too.
REMOTE_TEMPERATURE = 0.2
REMOTE_API_KEY_ENV = "IOC2REGEX_API_KEY"


class RemoteBackend(GeneratorBackend):
    """HTTP backend: POSTs the prompt, expects ``{"pattern": "..."}`` back.

    The credential is read from the environment, never from config files.
    """

    kind = "remote_llm"

    def __init__(
        self,
        endpoint: str,
        model: str = "",
        temperature: float = REMOTE_TEMPERATURE,
        api_key_env: str = REMOTE_API_KEY_ENV,
        timeout: float = 60.0,
    ):
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.api_key_env = api_key_env
        self.timeout = timeout

    def propose(self, annotation: GroupAnnotation, prompt: str) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model,
            "prompt": prompt,
            "temperature": self.temperature,
        }
        try:
            resp = requests.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout
            )
            resp.raise_for_status()
            data = resp.json()
        except (requests.RequestException, ValueError) as exc:
            raise BackendError(f"remote backend failure: {exc}") from exc
        if not isinstance(data, dict):
            raise BackendError("remote backend reply is not a JSON object")
        pattern = data.get("pattern")
        if not isinstance(pattern, str) or not pattern:
            raise BackendError("remote backend returned no pattern")
        return pattern.strip()


# -- workflow --------------------------------------------------------------


@dataclass(slots=True)
class Attempt:
    restart: int
    stage: str
    pattern: str
    verdict: str  # "pass" | "fail" | "error"
    diagnostic: str = ""


@dataclass(slots=True)
class WorkflowTrace:
    attempts: list[Attempt] = field(default_factory=list)
    restarts: int = 0
    probed: bool = False  # did an over-generalization check draw a probe?


class IndicatorMemo:
    """The one handle on an indicator: its annotation, one table of its
    verdicts, keyed by (stage, pattern), and ``prompt``, the one prompt
    builder (``docs/formats.md#best-of-k-and-reuse``).  Make one per
    indicator and pass it to each ``generate`` or ``single_shot`` call and
    to the grading of its runs."""

    def __init__(self, annotation: GroupAnnotation):
        self.annotation = annotation
        self.head = _prompt_head(annotation)
        self._verdicts: dict[tuple[str, str], tuple] = {}

    def verdict(self, stage: str, pattern: str, rng_seed: int = 0) -> tuple:
        """The ``stage`` check's result on the pattern and its diagnostic.

        The check is looked up at call time, so a patched module attribute
        takes effect.  Every verdict is kept but a probe verdict that drew
        probes: that one depends on ``rng_seed``, while one that drew none
        returned before the seed was read and holds for every seed.
        """
        verdict = self._verdicts.get((stage, pattern))
        if verdict is None:
            if stage == STAGE_DEBUG:
                result = debug_check(pattern, self.annotation.record.normalized)
            elif stage == STAGE_NONCAPTURE:
                result = noncapture_check(pattern, self.annotation)
            else:
                result = overgen_check(pattern, rng_seed, self.annotation.keep_components)
            verdict = (result, result.describe())
            if stage != STAGE_OVERGEN or not result.probes:
                self._verdicts[stage, pattern] = verdict
        return verdict

    def prompt(self, previous_pattern: str = "", diagnostic: str = "",
               prior_failures: int = 0) -> str:
        """The prompt for an attempt: the head, a note on the earlier passes
        that validation discarded, feedback on the previous pattern when a
        check failed it, and the reply instruction."""
        note = (
            f"\n\nNote: {prior_failures} earlier attempt(s) were discarded by validation;"
            " start fresh." if prior_failures else ""
        )
        feedback = (
            "\n\nFeedback on the previous attempt:"
            f"\n  pattern: {previous_pattern}\n  problem: {diagnostic}"
            if diagnostic else ""
        )
        reply = "\n\nRespond with the regular expression only."
        return f"{self.head}{note}{feedback}{reply}"


def _propose(
    backend: GeneratorBackend, annotation: GroupAnnotation, prompt: str,
    trace: WorkflowTrace, restart: int, stage: str, pattern: str = "",
) -> str | None:
    """One backend call.  A ``BackendError`` or an empty reply becomes an
    ``error`` attempt of ``stage`` on ``pattern`` (the candidate the prompt
    was about) and None."""
    try:
        reply = backend.propose(annotation, prompt)
    except BackendError as exc:
        error = f"backend error: {exc}"
    else:
        if reply:
            return reply
        error = "backend error: empty pattern"
    trace.attempts.append(Attempt(restart, stage, pattern, "error", error))
    return None


def generate(
    memo: IndicatorMemo,
    backend: GeneratorBackend,
    rng_seed: int = 0,
    max_iterations: int = MAX_ITERATIONS,
    restart_cap: int = RESTART_CAP,
    validate_groups: bool = True,
) -> tuple[str | None, WorkflowTrace]:
    """Run the staged workflow on ``memo.annotation``; returns the first
    pattern passing all gates.

    Each pass runs the stages (debug, the group audit if ``validate_groups``,
    overgen) in order; each of the first two checks at most ``max_iterations``
    candidates.  The whole workflow runs at most ``restart_cap`` passes.
    """
    annotation = memo.annotation
    if not annotation.has_capture_groups:
        raise ValueError("generate() requires an annotation with capture groups")
    verdict_of = memo.verdict

    stages = [(STAGE_DEBUG, max_iterations)]
    if validate_groups:
        stages.append((STAGE_NONCAPTURE, max_iterations))
    stages.append((STAGE_OVERGEN, 1))

    trace = WorkflowTrace()
    add_attempt = trace.attempts.append
    for restart in range(restart_cap):
        trace.restarts = restart
        opening = memo.prompt(prior_failures=restart)
        pattern = _propose(backend, annotation, opening, trace, restart, STAGE_DEBUG)
        if pattern is None:
            continue
        for stage, attempts in stages:
            ok = False
            for attempt in range(1, attempts + 1):
                if stage == STAGE_DEBUG:
                    result, diagnostic = verdict_of(stage, pattern)
                elif stage == STAGE_NONCAPTURE:
                    # a pattern fed back by the audit must still match the indicator
                    result, diagnostic = verdict_of(STAGE_DEBUG, pattern)
                    if result.ok:
                        result, diagnostic = verdict_of(stage, pattern)
                else:
                    result, diagnostic = verdict_of(stage, pattern, rng_seed)
                    if result.probes:
                        trace.probed = True
                ok = result.ok
                add_attempt(Attempt(restart, stage, pattern, "pass" if ok else "fail", diagnostic))
                if ok or attempt == attempts:
                    break
                feedback = memo.prompt(pattern, diagnostic, restart)
                pattern = _propose(
                    backend, annotation, feedback, trace, restart, stage, pattern
                )
                if pattern is None:
                    break
            if not ok:
                break
        else:
            return pattern, trace
    return None, trace


def single_shot(
    memo: IndicatorMemo, backend: GeneratorBackend
) -> tuple[str | None, WorkflowTrace]:
    """Ablation variant: one backend call, no validation loops.

    An emission outside the dialect yields no pattern, since no debug loop
    can repair it.  The run draws no probe, so its seed never matters.
    """
    trace = WorkflowTrace()
    pattern = _propose(backend, memo.annotation, memo.prompt(), trace, 0, STAGE_DEBUG)
    if pattern is None:
        return None, trace
    try:
        dialect.analyze(pattern)
    except dialect.DialectError as exc:
        trace.attempts.append(Attempt(0, STAGE_DEBUG, pattern, "fail", str(exc)))
        return None, trace
    trace.attempts.append(Attempt(0, STAGE_DEBUG, pattern, "pass", "single shot"))
    return pattern, trace
