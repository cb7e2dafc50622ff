"""Iterative regex generation with staged validation.

A pluggable backend proposes candidate patterns; each candidate runs through
three gates in order: a match debug check against the source indicator, a
group audit that every keep component appears literally on every match path
while no discard component appears in any literal run (``coverage``, by the
coverage rule of ``grading``, which the score reads too), and an
over-generalization probe with ten seeded random strings.  The probe
rejects a pattern only when it matches all ten, so it draws and searches
the strings one at a time and stops at the first one the pattern misses;
the verdict is that of checking all ten.  The probe strings are ASCII and
hold no keep component, so a pattern one of whose needles
(``dialect.Analysis.needles``) contains a keep (case-folded) can match none
of them: the probe passes it without drawing a string, with the same
verdict.
The strings are drawn by rejection; after 1,000 rejected draws in a row the
rest are drawn without the one-character keeps, and when every probe
character is a one-character keep, no probe string exists and the probe
passes without drawing one.
``generate`` runs the gates as one stage list: debug and the audit get up to
``max_iterations`` (ten) attempts, each failure but the last fed back to the
backend; the probe gets one.  A stage's last failure or a backend error (an
empty reply is one) restarts the whole workflow, up to a configurable number
of passes.

The gates decide "match or not", and the debug diagnostic explains a miss,
by the match rules of ``dialect`` (``Analysis.matches`` and
``Analysis.explain``).

The debug and audit results depend only on the pattern and the indicator,
and every prompt opens with the same indicator head, so one
``IndicatorMemo`` computes each of them once for all the workflow runs of an
indicator.

A backend whose ``deterministic`` attribute is true answers a prompt the same
way every time.  The run's seed reaches the workflow only through the probe,
so when no over-generalization check of a run drew a probe, a run with any
other seed takes the same path: ``grading.select_best`` reuses it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import dialect
from .capture import GroupAnnotation
from .normalize import IocKind

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


@dataclass
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
    try:
        analysis = dialect.analyze(pattern)
    except dialect.DialectError as exc:
        return DebugResult(ok=False, syntax_error=str(exc))
    miss = analysis.explain(target)
    if miss is None:
        return DebugResult(ok=True)
    prefix, offset, failing = miss
    return DebugResult(
        ok=False, matched_prefix=prefix, failing_token=failing, target_offset=offset
    )


@dataclass
class NoncaptureResult:
    ok: bool
    missing_keep: list[str] = field(default_factory=list)
    present_discard: list[str] = field(default_factory=list)
    # per literal run, its text and the spans of its keep occurrences in its
    # case fold
    found: list[tuple[str, list[tuple[int, int]]]] = field(default_factory=list)

    @property
    def covered(self) -> list[list[tuple[int, int]]]:
        """Per literal run, the (start, end) character spans of its keep
        occurrences, unfolded on each read; only the grader reads them."""
        return [_unfold(text, spans) for text, spans in self.found]

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


def coverage(pattern: str, annotation: GroupAnnotation) -> NoncaptureResult:
    """What the pattern's literal runs pin of the annotation, by the coverage
    rule of ``grading``: the keep components in no required run, the discard
    components in some run, and per run the character spans of the keep
    occurrences.  Text is compared case-folded; a span covers each run
    character whose fold it touches, and is mapped back from the fold only
    when read (``NoncaptureResult.covered``).  Raises DialectError."""
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
    found = [(run.text, in_fold) for run, in_fold in zip(runs, spans)]
    return NoncaptureResult(not missing and not present, missing, present, found)


def _unfold(text: str, spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Non-empty spans of ``text.casefold()`` as spans of the characters of
    ``text`` whose folds they touch, folding one character at a time."""
    owner = [i for i, c in enumerate(text) for _ in c.casefold()]
    return [(owner[start], owner[end - 1] + 1) for start, end in spans if end > start]


def noncapture_check(pattern: str, annotation: GroupAnnotation) -> NoncaptureResult:
    """Every keep component must be in a required run, i.e. literally on
    every match path, and no discard component in any literal run
    (``coverage``)."""
    if not annotation.keep_components:
        raise ValueError("noncapture_check requires an annotation with keep components")
    return coverage(pattern, annotation)


@dataclass
class OvergenResult:
    ok: bool
    probes: list[str] = field(default_factory=list)
    matched: list[str] = field(default_factory=list)
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


def _probe_alphabet(folded: list[str]) -> str:
    """The probe alphabet without the one-character keeps (case-folded)."""
    return "".join(c for c in _PROBE_ALPHABET if c.casefold() not in folded)


def _probe_stream(
    rng_seed: int, keep_components: list[str] | tuple[str, ...] = ()
) -> Iterator[str]:
    """Seeded random strings (8-64 printable non-whitespace chars) that
    contain no keep component, by rejection sampling.  After
    ``_PROBE_REJECTS`` rejected draws in a row, the rest are drawn without
    the one-character keeps; the stream ends there if that leaves no
    character, and is endless otherwise."""
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
            alphabet = _probe_alphabet(folded)
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


def unprobed_pass(
    pattern: str, keep_components: list[str] | tuple[str, ...] = ()
) -> str:
    """Why ``overgen_check`` passes ``pattern`` without drawing a probe, for
    every seed; "" when it draws probes.

    A needle of the pattern (``dialect.Analysis.needles``) that contains a
    non-empty keep component (case-folded) puts that keep in every match,
    and the ASCII probes hold none.  When every probe character is a
    one-character keep, no probe string exists."""
    folded = _folded_keeps(keep_components)
    needles = dialect.analyze(pattern).needles
    if any(comp in needle for needle in needles for comp in folded):
        return _HOLDS_KEEP
    return "" if _probe_alphabet(folded) else _NO_PROBE_ALPHABET


def overgen_check(
    pattern: str,
    rng_seed: int,
    keep_components: list[str] | tuple[str, ...] = (),
) -> OvergenResult:
    """Fail only when the pattern matches every one of the ten random strings.

    The check passes with no probe drawn when ``unprobed_pass`` says why.
    Otherwise the strings are drawn one at a time, and the check passes at
    the first one the pattern does not match; a passing result holds only
    the strings drawn up to that one.
    """
    unprobed = unprobed_pass(pattern, keep_components)
    if unprobed:
        return OvergenResult(ok=True, unprobed=unprobed)
    matches = dialect.analyze(pattern).matches
    probes: list[str] = []
    for probe in itertools.islice(
        _probe_stream(rng_seed, keep_components), RANDOM_PROBE_COUNT
    ):
        probes.append(probe)
        if not matches(probe):
            return OvergenResult(ok=True, probes=probes, matched=probes[:-1])
    return OvergenResult(ok=False, probes=probes, matched=list(probes))


# -- prompt construction -------------------------------------------------


def build_prompt(
    annotation: GroupAnnotation,
    previous_pattern: str = "",
    diagnostic: str = "",
    prior_failures: int = 0,
) -> str:
    """Deterministic prompt text for a backend; byte-stable for golden tests."""
    return _prompt_head(annotation) + _prompt_tail(
        previous_pattern, diagnostic, prior_failures
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
    lines += ["", "Allowed regex syntax:"]
    lines += [f"  {rule}" for rule in dialect.DIALECT_RULES]
    return "\n".join(lines)


def _prompt_tail(previous_pattern: str, diagnostic: str, prior_failures: int) -> str:
    """The per-attempt rest of a prompt, to append to its head."""
    lines = [""]
    if prior_failures:
        lines += [
            "",
            f"Note: {prior_failures} earlier attempt(s) were discarded by validation; start fresh.",
        ]
    if diagnostic:
        lines += [
            "",
            "Feedback on the previous attempt:",
            f"  pattern: {previous_pattern}",
            f"  problem: {diagnostic}",
        ]
    lines += ["", "Respond with the regular expression only."]
    return "\n".join(lines)


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

    Path/registry sequences join with an escaped backslash (plus a trailing
    one when the run is followed by further components); command sequences
    join with ``.*`` since argument values may sit between parameters.
    """
    rec = annotation.record
    if rec.kind is IocKind.COMMAND_LINE:
        bodies = [
            ".*".join(re.escape(comp) for comp in seq)
            for seq in annotation.capture_sequences
        ]
        return "(?i).*" + ".*".join(bodies) + ".*"

    seq = annotation.capture_sequences[0]
    body = "\\\\".join(re.escape(comp) for comp in seq)
    last_keep = max(
        (i for i, label in enumerate(annotation.labels) if label == "keep"),
        default=-1,
    )
    if last_keep != -1 and last_keep < len(rec.components) - 1:
        body += "\\\\"
    return "(?i).*" + body + ".*"


class TemplateBackend(GeneratorBackend):
    """Offline deterministic backend emitting the template pattern."""

    kind = "template_fallback"
    deterministic = True

    def propose(self, annotation: GroupAnnotation, prompt: str) -> str:
        return render_template(annotation)


class ScriptedBackend(GeneratorBackend):
    """Replays a fixed list of emissions; for tests and offline dry-runs.

    With ``per_record`` the script restarts for every distinct record (keyed
    by its source_id).  When the script is exhausted, delegates to ``fallback``
    if given, otherwise repeats the last emission.
    """

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
        self._cursor = 0
        self._cursors: dict[str, int] = {}
        self.calls = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """A replay file holds a JSON list of strings, or an object whose
        ``emissions`` is one, with an optional boolean ``per_record`` and a
        ``fallback`` of null or ``"template"``; anything else raises ValueError."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        emissions = data.get("emissions") if isinstance(data, dict) else data
        if not isinstance(emissions, list) or not all(
            isinstance(e, str) for e in emissions
        ):
            raise ValueError(
                "expected a list of strings or an object whose 'emissions' is one"
            )
        if isinstance(data, list):
            return cls(data)
        per_record = data.get("per_record", False)
        if not isinstance(per_record, bool):
            raise ValueError("'per_record' must be true or false")
        if data.get("fallback") not in (None, "template"):
            raise ValueError("'fallback' must be null or \"template\"")
        fallback = TemplateBackend() if data.get("fallback") else None
        return cls(emissions, per_record=per_record, fallback=fallback)

    def propose(self, annotation: GroupAnnotation, prompt: str) -> str:
        self.calls += 1
        if self.per_record:
            key = annotation.record.source_id or annotation.record.raw
            index = self._cursors.get(key, 0)
            self._cursors[key] = index + 1
        else:
            index = self._cursor
            self._cursor += 1
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


@dataclass
class Attempt:
    restart: int
    stage: str
    pattern: str
    verdict: str  # "pass" | "fail" | "error"
    diagnostic: str = ""


@dataclass
class WorkflowTrace:
    attempts: list[Attempt] = field(default_factory=list)
    restarts: int = 0


class IndicatorMemo:
    """The pure results of one indicator's workflow runs, each computed once:
    the debug and audit verdicts per pattern and the prompt head.  Make one
    per indicator and pass it to each ``generate`` call.  Each verdict looks
    up the check it caches at call time, so a patched module attribute takes
    effect.  The audit's verdict is the pattern's ``coverage``; the
    ``coverage`` method hands it to the score."""

    def __init__(self, annotation: GroupAnnotation):
        self.annotation = annotation
        self.head = _prompt_head(annotation)
        self._debug: dict[str, DebugResult] = {}
        self._noncapture: dict[str, NoncaptureResult] = {}

    def debug(self, pattern: str) -> DebugResult:
        result = self._debug.get(pattern)
        if result is None:
            result = debug_check(pattern, self.annotation.record.normalized)
            self._debug[pattern] = result
        return result

    def noncapture(self, pattern: str) -> NoncaptureResult:
        result = self._noncapture.get(pattern)
        if result is None:
            result = noncapture_check(pattern, self.annotation)
            self._noncapture[pattern] = result
        return result

    def coverage(self, pattern: str) -> NoncaptureResult:
        """The audit's result for the pattern if the audit ran on it, else
        its ``coverage``, computed and not kept."""
        result = self._noncapture.get(pattern)
        return result if result is not None else coverage(pattern, self.annotation)

    def prompt(self, previous_pattern: str = "", diagnostic: str = "",
               prior_failures: int = 0) -> str:
        """``build_prompt`` for this indicator."""
        return self.head + _prompt_tail(previous_pattern, diagnostic, prior_failures)


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
    annotation: GroupAnnotation,
    backend: GeneratorBackend,
    rng_seed: int = 0,
    max_iterations: int = MAX_ITERATIONS,
    restart_cap: int = RESTART_CAP,
    validate_groups: bool = True,
    memo: IndicatorMemo | None = None,
) -> tuple[str | None, WorkflowTrace]:
    """Run the staged workflow; returns the first pattern passing all gates.

    Each pass runs the stages (debug, the group audit if ``validate_groups``,
    overgen) in order; each of the first two checks at most ``max_iterations``
    candidates.  The whole workflow runs at most ``restart_cap`` passes.
    ``memo`` must belong to ``annotation``; without one, the call makes its own.
    """
    if not annotation.has_capture_groups:
        raise ValueError("generate() requires an annotation with capture groups")
    if memo is None:
        memo = IndicatorMemo(annotation)
    keeps = annotation.keep_components

    def audit(pattern: str):
        # A pattern fed back by the audit must still match the indicator.
        regression = memo.debug(pattern)
        return regression if not regression.ok else memo.noncapture(pattern)

    stages = [(STAGE_DEBUG, memo.debug, max_iterations)]
    if validate_groups:
        stages.append((STAGE_NONCAPTURE, audit, max_iterations))
    stages.append((STAGE_OVERGEN, lambda p: overgen_check(p, rng_seed, keeps), 1))

    trace = WorkflowTrace()
    for restart in range(restart_cap):
        trace.restarts = restart
        opening = memo.prompt(prior_failures=restart)
        pattern = _propose(backend, annotation, opening, trace, restart, STAGE_DEBUG)
        if pattern is None:
            continue
        for stage, check, attempts in stages:
            ok = False
            for attempt in range(1, attempts + 1):
                result = check(pattern)
                ok, diagnostic = result.ok, result.describe()
                verdict = "pass" if ok else "fail"
                trace.attempts.append(Attempt(restart, stage, pattern, verdict, diagnostic))
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
    annotation: GroupAnnotation, backend: GeneratorBackend
) -> tuple[str | None, WorkflowTrace]:
    """Ablation variant: one backend call, no validation loops.

    An emission ``dialect.analyze`` rejects, like an empty reply or a backend
    error, yields no pattern, since there is no debug loop to repair it.  The
    run draws no probe, so its seed never matters.
    """
    trace = WorkflowTrace()
    pattern = _propose(backend, annotation, build_prompt(annotation), trace, 0, STAGE_DEBUG)
    if pattern is None:
        return None, trace
    try:
        dialect.analyze(pattern)
    except dialect.DialectError as exc:
        trace.attempts.append(Attempt(0, STAGE_DEBUG, pattern, "fail", str(exc)))
        return None, trace
    trace.attempts.append(Attempt(0, STAGE_DEBUG, pattern, "pass", "single shot"))
    return pattern, trace
