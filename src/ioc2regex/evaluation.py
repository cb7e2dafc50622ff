"""Measure generated regexes against independently collected ground truth.

``docs/formats.md#evaluation-report`` states the metrics and the match
prefilter.  Every metric derives from one match row per regex (``fpr``):
the truths that pass the prefilter and that ``dialect.Analysis.matches``
matches.  The prefilter reads one haystack per text form of a truth set
(``TruthSet``), built once for every regex, and it is exact whatever the
separator between the truths: a hit counts only for the truth whose span
holds all of it, so a hit that runs into the separator counts for none.  A
needle found in many truths costs more than an ``in`` per truth, and a rare
one far less.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from . import dialect
from .inputs import NONBLANK, STRING, STRINGS, ConfigError, check_object, read_json
from .knowledge import KnowledgeStore
from .normalize import BUNDLED, IocKind, Tables, preprocess


class UndefinedMetricError(ValueError):
    """A metric was requested over an empty population."""


@dataclass
class GroundTruthString:
    text: str
    kind: IocKind
    capture_groups: frozenset[str]  # case-folded component names
    dataset_id: str
    normalized: str = ""


# What a truth entry may hold.
_KINDS = [kind.value for kind in IocKind]
_TRUTH_FIELDS = {
    "text": NONBLANK,
    "kind": ("one of " + ", ".join(map(repr, _KINDS)), lambda value: value in _KINDS),
    "capture_groups": STRINGS,
    "dataset_id": STRING,
}
_TRUTH_REQUIRED = ("text", "kind", "capture_groups")


def load_truths(
    path: str | Path,
    store: KnowledgeStore,
    tables: Tables = BUNDLED,
) -> list[GroundTruthString]:
    """Read a ground-truth JSON file and normalize each entry for matching,
    with ``store`` and the given expansion and registry-root tables
    (default: bundled).  A fault in the file is a ConfigError."""
    data = read_json(path)
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a JSON list of truth records")
    return [
        make_truth(entry, store, f"{path}[{i}]", tables) for i, entry in enumerate(data)
    ]


def make_truth(
    entry: dict,
    store: KnowledgeStore,
    where: str = "<record>",
    tables: Tables = BUNDLED,
) -> GroundTruthString:
    check_object(entry, _TRUTH_FIELDS, where, required=_TRUTH_REQUIRED)
    text, kind, groups = entry["text"], IocKind(entry["kind"]), entry["capture_groups"]
    dataset_id = entry.get("dataset_id", "default")

    normalized = preprocess(text, kind, store, tables)
    folded = [g.casefold() for g in groups]  # in order: an error names the first
    haystack = normalized.casefold()
    for g in folded:
        if g not in haystack:
            raise ConfigError(
                f"{where}: capture group {g!r} does not appear in the normalized text"
            )
    return GroundTruthString(
        text=text,
        kind=kind,
        capture_groups=frozenset(folded),
        dataset_id=dataset_id,
        normalized=normalized,
    )


# -- matching metrics ----------------------------------------------------


@dataclass
class HitRateResult:
    total: int
    matched_indices: set[int]
    rate: float
    unmatched_by_kind: dict[str, int]


def hit_rate(
    rows: Iterable[Iterable[int]], truths: list[GroundTruthString]
) -> HitRateResult:
    """Fraction of truths matched by at least one regex: the union of the
    regexes' match rows (``FprResult.matched_indices`` over ``truths``)."""
    if not truths:
        raise UndefinedMetricError("hit rate is undefined for an empty truth set")
    matched: set[int] = set().union(*rows)
    unmatched: dict[str, int] = {k.value: 0 for k in IocKind if k is not IocKind.OTHER}
    for i, truth in enumerate(truths):
        if i not in matched:
            unmatched[truth.kind.value] = unmatched.get(truth.kind.value, 0) + 1
    return HitRateResult(
        total=len(truths),
        matched_indices=matched,
        rate=len(matched) / len(truths),
        unmatched_by_kind=unmatched,
    )


@dataclass
class FprResult:
    value: float | None
    matched_indices: list[int]
    false_positive_indices: list[int]


def _fpr_result(matched: list[int], false_pos: list[int]) -> FprResult:
    value = len(false_pos) / len(matched) if matched else None
    return FprResult(value, matched, false_pos)


# Joins the truths' texts in a haystack; any character keeps the prefilter exact.
SEPARATOR = "\x00"


class _Haystack:
    """One text form of a truth set: the texts (None for a truth not in this
    form, which always passes), their join with ``SEPARATOR``, the offset
    where each starts (and one past the end), and the indices of the None
    texts."""

    def __init__(self, texts: list[str | None]):
        parts = [(t or "") + SEPARATOR for t in texts]
        self.texts = texts
        self.joined = "".join(parts)
        self.starts = list(itertools.accumulate(map(len, parts), initial=0))
        self.unformed = [i for i, t in enumerate(texts) if t is None]

    def holding(self, needle: str) -> list[int]:
        """The indices, ascending, of the texts that contain ``needle``: a
        ``str.find`` loop over the join maps each hit to its text by
        bisection over the offsets and resumes at the next text."""
        joined, starts = self.joined, self.starts
        found = []
        at = joined.find(needle)
        while at >= 0:
            i = bisect.bisect_right(starts, at) - 1
            end = starts[i + 1]
            if at + len(needle) < end:  # not into the separator or beyond
                found.append(i)
            at = joined.find(needle, end)
        return found

    def candidates(self, needles: tuple[str, ...]) -> Iterable[int]:
        """The indices, ascending, of the truths whose text is None or holds
        every needle; every truth when there is no needle."""
        if not needles:
            return range(len(self.texts))
        longest, *rest = sorted(needles, key=len, reverse=True)  # longest: rarest
        found = self.holding(longest)
        if self.unformed:
            found = sorted(found + self.unformed)
        texts = self.texts
        for needle in rest:
            found = [i for i in found if texts[i] is None or needle in texts[i]]
        return found


class TruthSet(list):
    """A list of truths with the prefilter's two haystacks (module
    docstring), each built on first use: ``folded`` over the
    ``dialect.fold`` of the truths' normalized texts, read under ``(?i)``,
    and ``exact`` over those texts.  Do not change the list once a haystack is built."""

    @functools.cached_property
    def folded(self) -> _Haystack:
        return _Haystack([dialect.fold(t.normalized) for t in self])

    @functools.cached_property
    def exact(self) -> _Haystack:
        return _Haystack([t.normalized for t in self])


def fpr(
    pattern: str,
    source_groups: list[str] | frozenset[str],
    truths: list[GroundTruthString],
) -> FprResult:
    """The regex's match row over ``truths`` and, among the truths it
    matches, the fraction whose annotated capture groups differ from the
    source indicator's; None if it matches nothing.

    ``pattern`` must be in the dialect.  Pass a ``TruthSet`` to build the
    prefilter's haystacks once for many regexes (a plain list gets its own).
    """
    analysis = dialect.analyze(pattern)
    if not isinstance(truths, TruthSet):
        truths = TruthSet(truths)
    if "i" in analysis.flags:
        needles, hay = analysis.needles, truths.folded
    else:
        needles = tuple(run.text for run in analysis.runs if run.required)
        hay = truths.exact
    matches = analysis.matches
    matched = [i for i in hay.candidates(needles) if matches(truths[i].normalized)]
    g_k = frozenset(g.casefold() for g in source_groups)
    return _fpr_result(matched, [i for i in matched if truths[i].capture_groups != g_k])


def _mean(values: list[float]) -> float:
    """Summed left to right (``docs/formats.md#evaluation-report``)."""
    return functools.reduce(operator.add, values) / len(values)


def mean_fpr(values: list[float]) -> float:
    """Arithmetic mean over regexes that matched at least one truth."""
    if not values:
        raise UndefinedMetricError("mean FPR is undefined with no matching regexes")
    return _mean(values)


# -- similarity ------------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insert/delete/substitute).

    Myers' bit-parallel algorithm in Hyyrö's form for the global distance:
    one column of the DP matrix over the longer string is held as two bit
    vectors (its vertical +1 and -1 deltas) in Python ints, so each
    character of the shorter string costs a few integer operations instead
    of one update per cell.  The vectors stay non-negative (a complement is
    an xor with the mask), and the distance is read once, at the end: the
    last column's top cell, ``len(b)``, plus its vertical deltas.
    """
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a  # one loop step per character of the shorter string
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    pv, mv = mask, 0
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | mask ^ (xh | pv)) << 1 | 1
        mh = (pv & xh) << 1
        pv = (mh | mask ^ (xv | ph)) & mask
        mv = ph & xv
    return len(b) + pv.bit_count() - mv.bit_count()


def similarity(pattern: str, source_ioc: str) -> float:
    """Normalized edit-distance similarity in [0, 1]."""
    if not pattern or not source_ioc:
        raise ValueError("similarity requires two non-empty strings")
    return 1.0 - levenshtein(pattern, source_ioc) / max(len(pattern), len(source_ioc))


def structural_similarity(pattern_a: str, pattern_b: str) -> float:
    """Cosine similarity of the two patterns' structural feature vectors."""
    va = dialect.feature_vector(pattern_a)
    vb = dialect.feature_vector(pattern_b)
    sq_a = sum(x * x for x in va)
    sq_b = sum(x * x for x in vb)
    if sq_a == 0 or sq_b == 0:
        return 0.0
    dot = sum(x * y for x, y in zip(va, vb))
    return dot / math.sqrt(sq_a * sq_b)


# -- distributions -----------------------------------------------------------


@dataclass
class Stats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    def to_dict(self) -> dict:
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "mean": self.mean,
        }


def _quantile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (the R-7 rule)."""
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    h = (n - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def score_distribution(scores: list[float]) -> Stats:
    """Five-number summary plus mean."""
    if not scores:
        raise UndefinedMetricError("score distribution requires at least one value")
    ordered = sorted(float(s) for s in scores)
    return Stats(
        minimum=ordered[0],
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
        maximum=ordered[-1],
        mean=_mean(ordered),
    )


# -- report assembly ---------------------------------------------------------


@dataclass
class EvaluationReport:
    dataset_id: str
    total: int
    matched: int
    hit_rate: float
    unmatched_by_kind: dict[str, int]
    per_regex_fpr: list[tuple[str, float | None]]
    mean_fpr: float | None
    score_stats: Stats | None
    similarity_stats: Stats | None

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "total": self.total,
            "matched": self.matched,
            "hit_rate": self.hit_rate,
            "unmatched_by_kind": dict(sorted(self.unmatched_by_kind.items())),
            "per_regex_fpr": [[rid, value] for rid, value in self.per_regex_fpr],
            "mean_fpr": self.mean_fpr,
            "score_stats": self.score_stats.to_dict() if self.score_stats else None,
            "similarity_stats": (
                self.similarity_stats.to_dict() if self.similarity_stats else None
            ),
        }


def evaluate_by_dataset(
    products: list[dict],
    truths: list[GroundTruthString],
    match_log: list | None = None,
    invalid: list | None = None,
) -> list[EvaluationReport]:
    """One report per dataset_id found in the truth set, sorted by id
    (``docs/formats.md#evaluation-report``), and the match dump's entries
    appended to ``match_log``.  A record whose pattern is outside the
    dialect is scored as a regex that matches nothing, and appended to
    ``invalid`` as ``{"ioc_id", "reason"}``.
    """
    truths = TruthSet(truths)  # one pair of haystacks for every regex
    datasets: dict[str, list[int]] = {}
    for i, truth in enumerate(truths):
        datasets.setdefault(truth.dataset_id, []).append(i)
    rows = []
    for p in products:
        try:
            rows.append(fpr(p["pattern"], p["capture_groups"], truths))
        except dialect.DialectError as exc:
            rows.append(_fpr_result([], []))
            if invalid is not None:
                reason = f"pattern outside the dialect: {exc}"
                invalid.append({"ioc_id": p["ioc_id"], "reason": reason})
    similarities: dict[int, float] = {}  # by product position, across datasets
    reports = []
    for ds, members in sorted(datasets.items()):
        local = {g: n for n, g in enumerate(members)}
        ds_truths = [truths[i] for i in members]
        ds_rows = [
            _fpr_result(
                [local[i] for i in row.matched_indices if i in local],
                [local[i] for i in row.false_positive_indices if i in local],
            )
            for row in rows
        ]
        hits = hit_rate([row.matched_indices for row in ds_rows], ds_truths)
        matching = [k for k, row in enumerate(ds_rows) if row.value is not None]
        if match_log is not None:
            match_log.extend(
                {
                    "ioc_id": product["ioc_id"],
                    "matched": [ds_truths[i].text for i in row.matched_indices],
                    "false_positives": [
                        ds_truths[i].text for i in row.false_positive_indices
                    ],
                }
                for product, row in zip(products, ds_rows)
            )
        for k in matching:
            if k not in similarities:
                similarities[k] = similarity(products[k]["pattern"], products[k]["normalized"])
        reports.append(EvaluationReport(
            dataset_id=ds,
            total=hits.total,
            matched=len(hits.matched_indices),
            hit_rate=hits.rate,
            unmatched_by_kind=hits.unmatched_by_kind,
            per_regex_fpr=[(p["ioc_id"], row.value) for p, row in zip(products, ds_rows)],
            mean_fpr=mean_fpr([ds_rows[k].value for k in matching]) if matching else None,
            score_stats=(
                score_distribution([products[k]["score"] for k in matching])
                if matching
                else None
            ),
            similarity_stats=(
                score_distribution([similarities[k] for k in matching]) if matching else None
            ),
        ))
    return reports
