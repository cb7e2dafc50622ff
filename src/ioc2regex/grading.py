"""Score candidate patterns and pick the best of several generation runs.

The score is ``n_cg - n_wc``.  ``n_cg`` counts the keep components that
appear in a required literal run (literally on every match path, not in an
alternation branch or a group that may match zero times).  ``n_wc`` counts
wildcard constructs and stray literal stretches of at least three non-glue
characters that belong to no keep component.  One leading and one trailing
bare ``.*`` are treated as search anchors and not penalized.

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

from dataclasses import dataclass

from . import dialect, generation
from .capture import GroupAnnotation

# Characters treated as glue between components rather than content.
_GLUE_CHARS = frozenset({"\\", "/", " ", "\t"})

_FOREIGN_RUN_MIN = 3


class GradingError(ValueError):
    pass


@dataclass(frozen=True)
class RegexCandidate:
    pattern: str
    n_cg: int
    n_wc: int
    score: int


def grade(pattern: str, annotation: GroupAnnotation) -> RegexCandidate:
    """Score = n_cg - n_wc for one candidate pattern."""
    try:
        analysis = dialect.analyze(pattern)
    except dialect.DialectError as exc:
        raise GradingError(f"cannot grade non-compiling pattern: {exc}") from exc

    runs = [run.text.casefold() for run in analysis.runs]
    n_cg = 0
    covered: list[set[int]] = [set() for _ in runs]
    for comp in annotation.keep_components:
        comp = comp.casefold()
        counted = False
        for ri, text in enumerate(runs):
            start = 0
            while (idx := text.find(comp, start)) != -1:
                covered[ri].update(range(idx, idx + len(comp)))
                counted = counted or analysis.runs[ri].required
                start = idx + 1
        n_cg += counted

    n_wc = sum(
        1 for start, end, _text in analysis.wildcards
        if (start, end) not in analysis.anchors
    )

    # stray literal content: uncovered non-glue stretches of each run
    for run, marks in zip(analysis.runs, covered):
        stretch = 0
        for ci, char in enumerate(run.text):
            if ci in marks or char in _GLUE_CHARS:
                if stretch >= _FOREIGN_RUN_MIN:
                    n_wc += 1
                stretch = 0
            else:
                stretch += 1
        if stretch >= _FOREIGN_RUN_MIN:
            n_wc += 1

    return RegexCandidate(pattern=pattern, n_cg=n_cg, n_wc=n_wc, score=n_cg - n_wc)


def select_best(
    annotation: GroupAnnotation,
    backend: generation.GeneratorBackend,
    k: int = 5,
    rng_seed: int = 0,
    max_iterations: int = 10,
    restart_cap: int = 5,
    validate_groups: bool = True,
    workflow: str = "full",
) -> tuple[RegexCandidate | None, list[RegexCandidate]]:
    """Run the workflow ``k`` (at least one) times and keep the top-scoring
    graded candidate.

    The runs share one ``generation.IndicatorMemo``, and each distinct
    pattern is graded once: runs that yield the same pattern share its
    candidate.  A deterministic backend's first run stands for all ``k``
    when it drew no probe (module docstring).  Ties break toward the
    shorter pattern, then lexicographic order.  Returns (best or None, one
    graded candidate per successful run).
    """
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
                grades[pattern] = grade(pattern, annotation)
            candidates.append(grades[pattern])

    if not candidates:
        return None, []
    best = sorted(
        candidates, key=lambda c: (-c.score, len(c.pattern), c.pattern)
    )[0]
    return best, candidates
