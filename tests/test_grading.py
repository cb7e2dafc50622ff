import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioc2regex import generation
from ioc2regex.capture import GroupAnnotation
from ioc2regex.dialect import DialectError
from ioc2regex.generation import (
    GeneratorBackend,
    IndicatorMemo,
    ScriptedBackend,
    TemplateBackend,
    overgen_check,
)
from ioc2regex.grading import grade, select_best
from ioc2regex.normalize import IocKind, IocRecord

from oracles import recount_score

STARTUP_EXEMPLAR = (
    r"(?i).*ProgramData\\Microsoft\\Windows\\StartMenu\\Programs\\StartUp.*"
)


def annotation_for(components, keep_mask, kind=IocKind.FILE_PATH):
    joiner = " " if kind is IocKind.COMMAND_LINE else "\\"
    rec = IocRecord(
        raw=joiner.join(components),
        kind=kind,
        normalized=joiner.join(components),
        components=list(components),
    )
    labels = ["keep" if m else "discard" for m in keep_mask]
    seq = [c for c, m in zip(components, keep_mask) if m]
    return GroupAnnotation(
        record=rec, labels=labels, capture_sequences=[seq] if seq else []
    )


def record_runs(monkeypatch, name):
    """Record the ``rng_seed`` of every call of ``generation.<name>``."""
    seeds = []
    fn = getattr(generation, name)

    def recording(*args, **kwargs):
        seeds.append(kwargs.get("rng_seed"))
        return fn(*args, **kwargs)

    monkeypatch.setattr(generation, name, recording)
    return seeds


class TestGrade:
    def test_startup_exemplar_scores_six(self, store):
        from ioc2regex import annotate, make_record

        rec = make_record(
            r"ProgramData\Microsoft\Windows\StartMenu\Programs\StartUp", store
        )
        ann = annotate(rec, store)
        assert len(ann.keep_components) == 6
        cand = grade(STARTUP_EXEMPLAR, IndicatorMemo(ann))
        assert (cand.n_cg, cand.n_wc, cand.score) == (6, 0, 6)

    def test_optional_group_occurrence_not_counted(self):
        ann = annotation_for(["Users", "Public"], [True, True])
        cand = grade(r"(?:Users)?\\Public", IndicatorMemo(ann))
        assert cand.n_cg == 1

    def test_interior_wildcard_penalty(self):
        ann = annotation_for(["Keep1"], [True])
        cand = grade(r"(?i).*xy.*ab.*", IndicatorMemo(ann))
        assert (cand.n_cg, cand.n_wc, cand.score) == (0, 1, -1)

    def test_foreign_literal_run_penalty(self):
        ann = annotation_for(["Users"], [True])
        cand = grade(r"(?i).*Users\\evilpayload.*", IndicatorMemo(ann))
        assert cand.n_cg == 1
        assert cand.n_wc == 1  # "evilpayload" is a foreign literal run
        assert cand.score == 0

    def test_short_glue_not_penalized(self):
        ann = annotation_for(["Users", "Public"], [True, True])
        cand = grade(r"(?i).*Users\\Public\\.*", IndicatorMemo(ann))
        assert (cand.n_cg, cand.n_wc, cand.score) == (2, 0, 2)

    def test_non_compiling_pattern_rejected(self):
        ann = annotation_for(["Users"], [True])
        with pytest.raises(DialectError):
            grade("(open", IndicatorMemo(ann))

    def test_adding_keep_literal_raises_score_by_one(self):
        ann = annotation_for(["Users", "Public"], [True, True])
        without = grade(r"(?i).*Users\\.*", IndicatorMemo(ann))
        with_both = grade(r"(?i).*Users\\Public.*", IndicatorMemo(ann))
        assert with_both.score == without.score + 1

    def test_wrapping_keep_in_optional_drops_ncg_by_one(self):
        ann = annotation_for(["Users", "Public"], [True, True])
        plain = grade(r"Users\\Public", IndicatorMemo(ann))
        wrapped = grade(r"(?:Users)?\\Public", IndicatorMemo(ann))
        assert wrapped.n_cg == plain.n_cg - 1

    def test_ncg_bounded_by_keep_count(self):
        ann = annotation_for(["Users"], [True])
        cand = grade(r"Users.*Users.*Users", IndicatorMemo(ann))
        assert cand.n_cg == 1

    def test_overlapping_keep_occurrences_all_cover(self):
        ann = annotation_for(["abcabc"], [True])
        cand = grade("(?i).*ABCabcabc.*", IndicatorMemo(ann))  # occurrences at 0 and 3
        assert (cand.n_cg, cand.n_wc) == (1, 0)

    @pytest.mark.parametrize("char", ["ß", "İ", "ﬁ"])  # each folds to two
    @pytest.mark.parametrize(
        "template, n_wc",
        [
            ("(?i).*x{c}abcde.*", 0),
            ("(?i).*deabc{c}x.*", 0),
            ("(?i).*x{c}abc{c}x.*", 0),
            ("(?i).*{c}{c}abc{c}{c}.*", 0),
            ("(?i).*{c}{c}{c}abcde.*", 1),
            ("(?i).*x{c}abcd{c}{c}.*", 1),
        ],
    )
    def test_stray_literal_marks_fall_on_the_run_characters(self, char, template, n_wc):
        ann = annotation_for(["abc"], [True])
        pattern = template.format(c=char)
        cand = grade(pattern, IndicatorMemo(ann))
        assert (cand.n_cg, cand.n_wc) == (1, n_wc)
        assert recount_score(pattern, ann.keep_components) == (1, n_wc)


SYSTEM32_IOC = r"C:\Windows\System32\abcd.exe"
HONEST_SYSTEM32 = r"(?i).*Windows\\System32\\[a-z]{4}\.exe"
# The keeps Windows and System32 written literally, but off some match path.
UNSOUND_SYSTEM32 = [
    r"(?i).*(?:Windows\\System32)*\\[a-z]{4}\.exe",
    r"(?i).*(?:Windows\\System32){0,1}\\[a-z]{4}\.exe",
    r"(?i).*(?:Windows\\System32)?\\[a-z]{4}\.exe",
    r"(?i).*(?:Windows\\System32|zz)\\[a-z]{4}\.exe",
    r"(?i).*Windows\\System32\\[a-z]{4}\.exe|x",
]
NO_INVARIANT = r"D:\junk\abcd.exe"


@pytest.fixture(scope="module")
def system32_annotation(store):
    from ioc2regex import annotate, make_record

    ann = annotate(make_record(SYSTEM32_IOC, store), store)
    assert ann.keep_components == ["Windows", "System32"]
    return ann


class TestRequiredLiteralRule:
    @pytest.mark.parametrize("pattern", UNSOUND_SYSTEM32)
    def test_unsound_forms_score_no_keep(self, pattern, system32_annotation):
        assert grade(pattern, IndicatorMemo(system32_annotation)).n_cg == 0

    @pytest.mark.parametrize(
        "pattern",
        [r"(?i).*(Windows\\System32)\\.*", r"(?i).*(?:Windows\\System32)+\\.*"],
    )
    def test_required_groups_still_count(self, pattern, system32_annotation):
        assert grade(pattern, IndicatorMemo(system32_annotation)).n_cg == 2

    def test_keep_in_optional_group_still_covers_its_literals(self, system32_annotation):
        # "Windows" is no stray literal, so no foreign-run penalty either way
        cand = grade(r"(?i).*(?:Windows)?\\System32\\.*", IndicatorMemo(system32_annotation))
        assert (cand.n_cg, cand.n_wc) == (1, 0)

    @pytest.mark.parametrize("unsound", UNSOUND_SYSTEM32)
    def test_select_best_ships_the_honest_pattern(self, unsound, system32_annotation):
        backend = ScriptedBackend([unsound, HONEST_SYSTEM32])
        best, _candidates = select_best(
            system32_annotation, backend, k=2, rng_seed=0, restart_cap=1
        )
        assert best.pattern == HONEST_SYSTEM32
        assert re.search(best.pattern, NO_INVARIANT) is None

    def test_unsound_forms_match_without_the_invariant(self):
        matching = [u for u in UNSOUND_SYSTEM32 if re.search(u, NO_INVARIANT)]
        assert len(matching) == 4  # all but the '|zz' branch


# Non-ASCII literals whose case folding differs from ASCII lowercasing:
# "ß" folds to "ss", "İ" to "i" plus a combining dot, "ſ" to "s" and the
# Kelvin sign to "k".
FOLDING = "ßİſ\u212a"
LETTERS = string.ascii_lowercase + FOLDING


def random_annotation_and_pattern(rng):
    words = [
        "Users", "Public", "Windows", "System32", "Temp", "Run",
        "Straße", "İmages", "ſetup", "\u212aeys",
    ]
    keeps = rng.sample(words, rng.randint(1, 4))
    discards = ["".join(rng.choices(LETTERS, k=5)) for _ in range(2)]
    components = keeps + discards
    rng.shuffle(components)
    mask = [c in keeps for c in components]
    return annotation_for(components, mask), random_pattern(rng, keeps)


def random_pattern(rng, keeps):
    """A pattern that holds some of ``keeps``, each required, optional,
    repeated or in an alternation, among wildcards and stray literals."""
    parts = ["(?i)"] if rng.random() < 0.7 else []
    if rng.random() < 0.8:
        parts.append(".*")
    for comp in rng.sample(keeps, rng.randint(0, len(keeps))):
        body = re.escape(comp)
        roll = rng.random()
        if roll < 0.1:
            parts.append(f"(?:{body})?")
        elif roll < 0.15:
            parts.append(f"(?:{body})*")
        elif roll < 0.2:
            parts.append(f"(?:{body}){{0,2}}")
        elif roll < 0.25:
            parts.append(f"(?:{body}|zz)")
        elif roll < 0.3:
            parts.append(f"(?:{body})+")
        elif roll < 0.4:
            parts.append(f"({body})")
        else:
            parts.append(body)
        parts.append(rng.choice([r"\\", ".*", r"\w+", "", r"[a-z]+", r"\d{1,3}"]))
    if rng.random() < 0.3:
        parts.append("".join(rng.choices(LETTERS, k=rng.randint(2, 6))))
    if rng.random() < 0.8:
        parts.append(".*")
    if rng.random() < 0.05:
        parts.append("|x")
    return "".join(parts)


def test_score_matches_independent_recount():
    rng = random.Random(1234)
    checked = 0
    for _ in range(200):
        ann, pattern = random_annotation_and_pattern(rng)
        try:
            cand = grade(pattern, IndicatorMemo(ann))
        except DialectError:
            continue
        n_cg, n_wc = recount_score(pattern, ann.keep_components)
        assert (cand.n_cg, cand.n_wc) == (n_cg, n_wc), pattern
        assert cand.score == n_cg - n_wc
        checked += 1
    assert checked >= 150


def test_audit_and_grade_agree_on_keeps():
    """The audit and the grader read one coverage: n_cg counts the keeps the
    audit does not miss, an audited pattern pins every keep, and a pattern
    the probe passes with no probe drawn because every match holds a keep
    pins one."""
    rng = random.Random(4321)
    checked = audited = unprobed = 0
    for _ in range(400):
        ann, pattern = random_annotation_and_pattern(rng)
        try:
            cand = grade(pattern, IndicatorMemo(ann))
        except DialectError:
            continue
        keeps = ann.keep_components
        audit = generation.noncapture_check(pattern, ann)
        assert cand.n_cg == len(keeps) - len(audit.missing_keep), pattern
        if audit.ok:
            assert cand.n_cg == len(keeps), pattern
            audited += 1
        probe = overgen_check(pattern, 0, keeps)
        # ``unprobed`` reads the keep reason on a result that drew probes too
        if not probe.probes and probe.unprobed == generation._HOLDS_KEEP:
            assert probe.ok, pattern
            assert cand.n_cg >= 1, pattern
            unprobed += 1
        checked += 1
    assert checked >= 300 and audited >= 30 and unprobed >= 100, (
        checked, audited, unprobed
    )


# Replies that draw probes (no required run is ASCII and holds a keep) and
# replies that do not, for the Fig. 1 path, whose keeps are Users and Public.
FIXED_REPLIES = [
    r"(?i).*Pub[l]ic.*", "(?i).*U\u017fers\\\\Public\\\\.*", ".*", r"(?i).*[0-9].*",
    r"(?i).*Users\\Public\\.*", r"(?i).*[U]sers\\Public\\.*", r"(?i).*Users\\.*",
    "(bad",
]


class FixedReply(GeneratorBackend):
    """A deterministic backend that always replies ``pattern``."""

    deterministic = True

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def propose(self, annotation, prompt):
        self.calls += 1
        return self.pattern


class TestSelectBest:
    def test_highest_score_wins(self, path_annotation):
        # scores: the discard literal pattern scores lower than the clean one
        backend = ScriptedBackend(
            [
                r"(?i).*Users\\.*",            # n_cg 1
                r"(?i).*Users\\Public\\.*",    # n_cg 2  <- winner
                r"(?i).*Public.*",             # missing Users, dies in audit
                r"(?i).*Users\\Public.*",      # n_cg 2, longer? same len comparison
                r"(?i).*Users\\Public\\.*",
            ]
        )
        best, candidates = select_best(
            path_annotation, backend, k=5, rng_seed=0, restart_cap=1
        )
        assert best is not None
        assert best.score == max(c.score for c in candidates)

    def test_tie_breaks_shorter_then_lexicographic(self, path_annotation):
        backend = ScriptedBackend(
            [
                r"(?i).*Users\\Public\\.*",
                r"(?i).*Public\\.*Users\\.*",  # same n_cg, extra wildcard
            ]
        )
        best, candidates = select_best(
            path_annotation, backend, k=2, rng_seed=0, restart_cap=1
        )
        top = max(c.score for c in candidates)
        tied = [c for c in candidates if c.score == top]
        assert best.pattern == sorted(tied, key=lambda c: (len(c.pattern), c.pattern))[0].pattern

    def test_all_failures_give_none(self, path_annotation):
        best, candidates = select_best(
            path_annotation,
            ScriptedBackend(["(bad"]),
            k=3,
            rng_seed=0,
            max_iterations=2,
            restart_cap=1,
        )
        assert best is None
        assert candidates == []

    def test_deterministic_backend_collapses(self, path_annotation):
        best, candidates = select_best(
            path_annotation, TemplateBackend(), k=5, rng_seed=3
        )
        assert len({c.pattern for c in candidates}) == 1
        assert best.pattern == candidates[0].pattern
        assert len(candidates) == 5

    def test_seed_free_deterministic_run_stands_for_all(
        self, path_annotation, monkeypatch
    ):
        seeds = record_runs(monkeypatch, "generate")
        best, candidates = select_best(path_annotation, TemplateBackend(), k=5, rng_seed=3)
        assert seeds == [3]
        assert candidates == [best] * 5

    def test_scripted_backend_still_runs_k_times(self, path_annotation, monkeypatch):
        seeds = record_runs(monkeypatch, "generate")
        backend = ScriptedBackend([r"(?i).*Users\\Public\\.*"])  # stateful
        _best, candidates = select_best(path_annotation, backend, k=5, rng_seed=3)
        assert seeds == [3, 4, 5, 6, 7]
        assert backend.calls == 5 and len(candidates) == 5

    def test_run_that_drew_a_probe_still_runs_k_times(self, path_annotation, monkeypatch):
        pattern = r"(?i).*Pub[l]ic.*"  # no run holds a keep: the probe runs
        assert overgen_check(pattern, 3, path_annotation.keep_components).probes
        seeds = record_runs(monkeypatch, "generate")
        _best, candidates = select_best(
            path_annotation, FixedReply(pattern), k=5, rng_seed=3, validate_groups=False
        )
        assert seeds == [3, 4, 5, 6, 7]
        assert [c.pattern for c in candidates] == [pattern] * 5

    @given(
        pattern=st.sampled_from(FIXED_REPLIES),
        validate_groups=st.booleans(),
        rng_seed=st.integers(0, 50),
    )
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_equals_k_seeded_runs(self, path_annotation, pattern, validate_groups, rng_seed):
        keeps = path_annotation.keep_components
        options = dict(validate_groups=validate_groups, max_iterations=2, restart_cap=2)
        runs = []
        for i in range(5):
            backend = FixedReply(pattern)
            seed = rng_seed + i
            found, trace = generation.generate(
                IndicatorMemo(path_annotation), backend, rng_seed=seed, **options
            )
            drew = [
                overgen_check(a.pattern, seed, keeps).probes
                for a in trace.attempts if a.stage == generation.STAGE_OVERGEN
            ]
            assert trace.probed == any(drew), (pattern, seed)
            runs.append((found, trace.probed, backend.calls))
        backend = FixedReply(pattern)
        best, candidates = select_best(
            path_annotation, backend, k=5, rng_seed=rng_seed, **options
        )
        memo = IndicatorMemo(path_annotation)
        assert candidates == [grade(p, memo) for p, _, _ in runs if p is not None]
        assert best == min(
            candidates, key=lambda c: (-c.score, len(c.pattern), c.pattern), default=None
        )
        # the first run stands for all five exactly when it drew no probe
        probed = runs[0][1]
        assert backend.calls == sum(c for _, _, c in (runs if probed else runs[:1]))

    @pytest.mark.parametrize(
        "options",
        [{}, {"validate_groups": False}, {"workflow": "single_shot"}],
        ids=["audited", "no-audit", "single-shot"],
    )
    def test_coverage_computed_once_per_shipped_pattern(
        self, path_annotation, monkeypatch, options
    ):
        # the score reads the audit's coverage; with no audit, grading
        # computes it once
        calls = []
        noncapture_check = generation.noncapture_check

        def counting(pattern, annotation):
            calls.append(pattern)
            return noncapture_check(pattern, annotation)

        monkeypatch.setattr(generation, "noncapture_check", counting)
        best, candidates = select_best(path_annotation, TemplateBackend(), k=5, **options)
        assert calls == [best.pattern]
        assert candidates == [best] * 5
        assert best == grade(best.pattern, IndicatorMemo(path_annotation))

    @pytest.mark.parametrize("deterministic, runs", [(True, 1), (False, 5)])
    def test_single_shot_runs_once_for_a_deterministic_backend(
        self, path_annotation, monkeypatch, deterministic, runs
    ):
        calls = record_runs(monkeypatch, "single_shot")
        backend = TemplateBackend()
        backend.deterministic = deterministic
        best, candidates = select_best(path_annotation, backend, k=5, workflow="single_shot")
        assert len(calls) == runs
        assert candidates == [best] * 5

    @pytest.mark.parametrize(
        "make_backend",
        [TemplateBackend, lambda: ScriptedBackend([r"(?i).*Users\\Public\\.*"])],
        ids=["template", "scripted"],
    )
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected(self, path_annotation, make_backend, k):
        with pytest.raises(ValueError, match="k >= 1"):
            select_best(path_annotation, make_backend(), k=k)

    def test_best_score_at_least_every_candidate(self, path_annotation):
        backend = ScriptedBackend(
            [r"(?i).*Users\\Public\\.*", r"(?i).*Users\\.*"]
        )
        best, candidates = select_best(
            path_annotation, backend, k=2, rng_seed=0, restart_cap=1
        )
        assert all(best.score >= c.score for c in candidates)
