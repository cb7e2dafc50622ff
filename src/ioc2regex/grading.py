"""Score candidate patterns and pick the best of several generation runs.

``grade`` scores ``n_cg - n_wc`` by the coverage rule of
``docs/formats.md#scores``, which ``generation.noncapture_check`` applies for
the group audit and the score alike: ``grade`` reads it from the
indicator's ``generation.IndicatorMemo``.  One leading and one trailing bare
``.*`` only say that a pattern may match anywhere in a string, which is why
they are exempt from ``n_wc``.  ``grade`` reads the wildcard units and the
start of the body from the pattern's analysis, which holds them whether or
not it has tokenized the pattern, and maps the keep marks from each run's
case fold back to the run's characters (``_unfold``).

``select_best`` runs the workflow ``k`` times, seeding run ``i`` with
``rng_seed + i``.  The seed reaches a run only through the probe, so when
the backend is deterministic and the first run drew no probe string, every
other run would take the same path, and the first run stands for all ``k``
(``docs/formats.md#best-of-k-and-reuse``).
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


@dataclass(frozen=True, slots=True)
class RegexCandidate:
    pattern: str
    n_cg: int
    n_wc: int
    score: int


def grade(pattern: str, memo: generation.IndicatorMemo) -> RegexCandidate:
    """Score = n_cg - n_wc for one candidate pattern of ``memo``'s indicator,
    by the coverage rule (``docs/formats.md#scores``), which the memo's
    audit verdict on the pattern holds.  A pattern outside the dialect is
    ``dialect.analyze``'s DialectError."""
    analysis = dialect.analyze(pattern)

    pinned = memo.verdict(generation.STAGE_NONCAPTURE, pattern)[0]
    n_cg = len(memo.annotation.keep_components) - len(pinned.missing_keep)
    # a bare ".*" that opens or closes the body is exempt (module docstring)
    n_wc = sum(
        text != ".*" or analysis.body_start < start and end < len(pattern)
        for start, end, text in analysis.wildcards
    )
    for run, spans in zip(analysis.runs, pinned.found):
        chars = list(run.text)
        for start, end in _unfold(run.text, spans):
            chars[start:end] = "/" * (end - start)
        n_wc += len(_STRAY_RE.findall("".join(chars)))

    return RegexCandidate(pattern=pattern, n_cg=n_cg, n_wc=n_wc, score=n_cg - n_wc)


def _unfold(text: str, spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Non-empty spans of ``text.casefold()`` as spans of the characters of
    ``text`` whose folds they touch, folding one character at a time.  An
    ASCII character folds to one, so ASCII text keeps its spans."""
    if text.isascii():
        return [span for span in spans if span[1] > span[0]]
    owner = [i for i, c in enumerate(text) for _ in c.casefold()]
    return [(owner[start], owner[end - 1] + 1) for start, end in spans if end > start]


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
    candidate, as ``docs/formats.md#best-of-k-and-reuse`` states; a ``k``
    below one is a ValueError.

    The runs share one ``generation.IndicatorMemo``, and each distinct
    pattern is graded once, from the memo's audit verdict on it: the one
    the group audit computed, or else one that grading computes and the
    memo keeps.  Returns (best or None, one graded candidate per
    successful run).
    """
    if k < 1:
        raise ValueError("select_best() requires k >= 1")
    memo = generation.IndicatorMemo(annotation)

    def run(i: int) -> tuple[str | None, generation.WorkflowTrace]:
        if workflow == "single_shot":
            return generation.single_shot(memo, backend)
        return generation.generate(
            memo,
            backend,
            rng_seed=rng_seed + i,
            max_iterations=max_iterations,
            restart_cap=restart_cap,
            validate_groups=validate_groups,
        )

    first, trace = run(0)
    if backend.deterministic and not trace.probed:
        patterns = [first] * k
    else:
        patterns = [first] + [run(i)[0] for i in range(1, k)]

    grades: dict[str, RegexCandidate] = {}
    candidates: list[RegexCandidate] = []
    for pattern in patterns:
        if pattern is not None:
            if pattern not in grades:
                grades[pattern] = grade(pattern, memo)
            candidates.append(grades[pattern])

    if len(grades) < 2:  # no pattern, or one: nothing to choose
        return (candidates[0] if candidates else None), candidates
    best = min(candidates, key=lambda c: (-c.score, len(c.pattern), c.pattern))
    return best, candidates
