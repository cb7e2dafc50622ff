"""Score candidate patterns and pick the best of several generation runs.

The score rewards each keep component that appears in a required literal run
(literally on every match path, not in an alternation branch or a group that
may match zero times) and penalizes wildcard constructs and stray literal runs
that belong to no keep component.  One leading and one trailing bare ``.*`` are
treated as search anchors and not penalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import dialect, generation
from .capture import GroupAnnotation

# Characters treated as glue between components rather than content.
_GLUE_CHARS = frozenset({"\\", "/", " ", "\t"})

DEFAULT_FOREIGN_RUN_MIN = 3


class GradingError(ValueError):
    pass


@dataclass
class RegexCandidate:
    pattern: str
    n_cg: int
    n_wc: int
    score: int
    trace_ref: str = ""

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "n_cg": self.n_cg,
            "n_wc": self.n_wc,
            "score": self.score,
            "trace_ref": self.trace_ref,
        }


def _anchor_exempt_spans(tokens: Sequence[dialect.Token]) -> set[tuple[int, int]]:
    """Spans of the leading and trailing bare ``.*`` anchors, if present."""
    spans: set[tuple[int, int]] = set()
    body = [t for t in tokens if t.kind != dialect.FLAGS]
    if (
        len(body) >= 2
        and body[0].kind == dialect.DOT
        and body[1].kind == dialect.QUANT
        and body[1].text == "*"
    ):
        spans.add((body[0].pos, body[1].end))
    if (
        len(body) >= 2
        and body[-1].kind == dialect.QUANT
        and body[-1].text == "*"
        and body[-2].kind == dialect.DOT
    ):
        spans.add((body[-2].pos, body[-1].end))
    return spans


def grade(
    pattern: str,
    annotation: GroupAnnotation,
    alpha: int = 1,
    beta: int = 1,
    foreign_run_min: int = DEFAULT_FOREIGN_RUN_MIN,
) -> RegexCandidate:
    """Score = alpha * n_cg - beta * n_wc for one candidate pattern."""
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

    exempt = _anchor_exempt_spans(analysis.tokens)
    n_wc = sum(
        1 for start, end, _text in dialect.wildcard_units(analysis.tokens)
        if (start, end) not in exempt
    )

    # stray literal content: uncovered non-glue stretches of each run
    for run, marks in zip(analysis.runs, covered):
        stretch = 0
        for ci, char in enumerate(run.text):
            if ci in marks or char in _GLUE_CHARS:
                if stretch >= foreign_run_min:
                    n_wc += 1
                stretch = 0
            else:
                stretch += 1
        if stretch >= foreign_run_min:
            n_wc += 1

    return RegexCandidate(
        pattern=pattern, n_cg=n_cg, n_wc=n_wc, score=alpha * n_cg - beta * n_wc
    )


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
    """Run the workflow ``k`` times and keep the top-scoring graded candidate.

    Ties break toward the shorter pattern, then lexicographic order.  Returns
    (best or None, all graded candidates).
    """
    candidates: list[RegexCandidate] = []
    for i in range(k):
        if workflow == "single_shot":
            pattern, trace = generation.single_shot(annotation, backend)
        else:
            pattern, trace = generation.generate(
                annotation,
                backend,
                rng_seed=rng_seed + i,
                max_iterations=max_iterations,
                restart_cap=restart_cap,
                validate_groups=validate_groups,
            )
        if pattern is None:
            continue
        candidate = grade(pattern, annotation)
        candidate.trace_ref = f"run-{i}"
        candidates.append(candidate)

    if not candidates:
        return None, []
    best = sorted(
        candidates, key=lambda c: (-c.score, len(c.pattern), c.pattern)
    )[0]
    return best, candidates
