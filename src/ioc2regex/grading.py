"""Score candidate patterns and pick the best of several generation runs.

The score is ``n_cg - n_wc``.  The coverage rule below decides what a
pattern's literal runs pin of an indicator, for the group audit
(``generation.noncapture_check``) and for the score alike; one function,
``generation.coverage``, applies it.

- A keep component counts when it is in a required literal run: literally
  on every match path, not in an alternation branch or a group that may
  match zero times.  ``n_cg`` counts those; the audit needs all of them.
- A discard component is present when it is in any literal run; the audit
  needs none.
- ``n_wc`` counts wildcard constructs (``dialect.wildcard_units``) and stray
  literals: stretches of three or more characters of a run that no keep
  occurrence covers and that are not glue (``\\``, ``/``, space, tab).  One
  leading and one trailing bare ``.*`` only say that the pattern may match
  anywhere in a string, so they are exempt.
- All comparisons are case-folded, with the marks of a keep occurrence on
  the run's original characters (``ß``, which folds to ``ss``, is one
  character).

``select_best`` runs the workflow ``k`` times with seeds ``rng_seed + i``.
The seed reaches a run only through the over-generalization probe, so when
the backend is deterministic and the first run drew no probe (every one of
its overgen attempts passed by ``generation.unprobed_pass``; a
``single_shot`` run has none), every other run would take the same path:
the first run stands for all ``k``, and the workflow, its backend calls and
the probe gate run once per indicator.  A run that drew a probe keeps ``k``
separately seeded runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import dialect, generation
from .capture import GroupAnnotation

# Workflow runs per indicator, which ``pipeline.PipelineConfig`` reads too.
CANDIDATES = 5

# A stray literal: three or more characters that are not glue between
# components (covered characters are made glue first).
_STRAY_RE = re.compile(r"[^\\/ \t]{3,}")


class GradingError(ValueError):
    pass


@dataclass(frozen=True)
class RegexCandidate:
    pattern: str
    n_cg: int
    n_wc: int
    score: int


def grade(
    pattern: str,
    annotation: GroupAnnotation,
    pinned: generation.NoncaptureResult | None = None,
) -> RegexCandidate:
    """Score = n_cg - n_wc for one candidate pattern, by the coverage rule
    (module docstring).  ``pinned`` is the pattern's ``generation.coverage``
    of ``annotation`` when it is already known (the group audit's result),
    else it is computed here."""
    try:
        analysis = dialect.analyze(pattern)
    except dialect.DialectError as exc:
        raise GradingError(f"cannot grade non-compiling pattern: {exc}") from exc

    if pinned is None:
        pinned = generation.coverage(pattern, annotation)
    n_cg = len(annotation.keep_components) - len(pinned.missing_keep)
    # a bare ".*" that opens or closes the body is exempt (module docstring)
    head = next((t.pos for t in analysis.tokens if t.kind != dialect.FLAGS), 0)
    n_wc = sum(
        text != ".*" or head < start and end < len(pattern)
        for start, end, text in dialect.wildcard_units(analysis.tokens)
    )
    for run, spans in zip(analysis.runs, pinned.covered):
        chars = list(run.text)
        for start, end in spans:
            chars[start:end] = "/" * (end - start)
        n_wc += len(_STRAY_RE.findall("".join(chars)))

    return RegexCandidate(pattern=pattern, n_cg=n_cg, n_wc=n_wc, score=n_cg - n_wc)


def select_best(
    annotation: GroupAnnotation,
    backend: generation.GeneratorBackend,
    k: int = CANDIDATES,
    rng_seed: int = 0,
    max_iterations: int = generation.MAX_ITERATIONS,
    restart_cap: int = generation.RESTART_CAP,
    validate_groups: bool = True,
    workflow: str = "full",
) -> tuple[RegexCandidate | None, list[RegexCandidate]]:
    """Run the workflow ``k`` times and keep the top-scoring graded
    candidate; a ``k`` below one is a ValueError.

    The runs share one ``generation.IndicatorMemo``, and each distinct
    pattern is graded once, from the memo's coverage (the group audit's,
    when it ran): runs that yield the same pattern share its candidate.  A
    deterministic backend's first run stands for all ``k`` when it drew no
    probe (module docstring).  Ties break toward the shorter pattern, then
    lexicographic order.  Returns (best or None, one graded candidate per
    successful run).
    """
    if k < 1:
        raise ValueError("select_best() requires k >= 1")
    memo = generation.IndicatorMemo(annotation)

    def run(i: int) -> tuple[str | None, generation.WorkflowTrace]:
        if workflow == "single_shot":
            return generation.single_shot(annotation, backend)
        return generation.generate(
            annotation,
            backend,
            rng_seed=rng_seed + i,
            max_iterations=max_iterations,
            restart_cap=restart_cap,
            validate_groups=validate_groups,
            memo=memo,
        )

    first, trace = run(0)
    if backend.deterministic and all(
        generation.unprobed_pass(attempt.pattern, annotation.keep_components)
        for attempt in trace.attempts
        if attempt.stage == generation.STAGE_OVERGEN
    ):
        patterns = [first] * k
    else:
        patterns = [first] + [run(i)[0] for i in range(1, k)]

    grades: dict[str, RegexCandidate] = {}
    candidates: list[RegexCandidate] = []
    for pattern in patterns:
        if pattern is not None:
            if pattern not in grades:
                grades[pattern] = grade(pattern, annotation, memo.coverage(pattern))
            candidates.append(grades[pattern])

    if not candidates:
        return None, []
    best = min(candidates, key=lambda c: (-c.score, len(c.pattern), c.pattern))
    return best, candidates
