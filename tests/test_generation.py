import http.server
import inspect
import json
import random
import re
import signal
import string
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ioc2regex import annotate, dialect, generation, grading, make_record
from ioc2regex.capture import GroupAnnotation, find_path_groups
from ioc2regex.generation import (
    BackendError,
    DebugResult,
    IndicatorMemo,
    NoncaptureResult,
    OvergenResult,
    RemoteBackend,
    ScriptedBackend,
    TemplateBackend,
    build_prompt,
    debug_check,
    generate,
    noncapture_check,
    overgen_check,
    random_probe_strings,
    render_template,
    single_shot,
)
from ioc2regex.normalize import IocKind, IocRecord
from ioc2regex.pipeline import PipelineConfig
from conftest import FUZZ_WORDS
from oracles import (
    reference_debug_check,
    reference_generate,
    reference_overgen_ok,
    reference_probe_strings,
    reference_prompt,
)

GOLDEN = Path(__file__).parent / "data" / "golden_prompt.txt"

GOOD_PATH_PATTERN = r"(?i).*Users\\Public\\.*"

# The fuzz corpus's path words, and store nodes with one child among them
# (``user`` under ``Users``, ``Roaming`` under ``AppData``) together with
# words the store lacks, which a keep run may skip.
TEMPLATE_WORDS = (
    *(word for words in FUZZ_WORDS[:4] for word in words),
    "AppData", "Roaming", "etc", "cron.d", "x", "x", "a.exe",
)

# Three ``.*`` and a text of 11,203 characters that holds every literal, but
# ``-w`` only before the others: backtracking takes seconds to miss it.
CHAIN_PATTERN = "(?i).*-enc.*-nop.*-w.*"
CHAIN_TEXT = "-w " + "-enc x -nop y " * 800


# Emissions shaped like the benchmark's scripted bad ones: syntax errors,
# literal chains that match no indicator, over-broad patterns; plus forms
# whose prefix matches are not monotone (``xa*y``, a top-level ``|``) and
# chains that miss deep into an indicator.
BAD_EMISSIONS = [
    "(?i).*(unclosed", "[a-z", "\\", "*lead", r"(?i).*\q", "(?P<n>x)",
    ".*", "(?i).+", ".+", r"(?i).*\\.*",
    r"(?i).*Windows\\System32\\drivers\\qzxv\.exe",
    r"(?i).*Users\\Public\\Documents\\tmp42\.exe",
    r"(?i).*schtasks.*/create.*/tn.*nothere",
    "Users/Public", "xa*y", r"Users\\Pub|lic/11", r"C:\\Users\\(Pub|Priv)x",
    r"(?i)^c:\\users\\public\\[0-9]+\.exe$", r"(?:Users)\\Nope\\.*",
    # chains that share 20 or more characters with the Fig. 1 path
    r"(?i).*C:\\Users\\Public\\11\.bax", r"C:\\Users\\Public\\11\.bat.*\\x",
]
DEBUG_ALPHABET = "abx.\\/"

# Prompt inputs: previous patterns that are empty, quoted, multi-line or not
# ASCII, and the text of every ``describe()`` shape.
PROMPT_TEXT = st.text("a'\"\\\n.*é\u212a ", max_size=6)
PROMPT_PATTERNS = st.one_of(
    st.sampled_from(["", "'(?i).*\"x\"'", "a\nb", "(?i).*Usérs\\\\.*", "\n"]),
    PROMPT_TEXT,
)
DIAGNOSTICS = st.one_of(
    st.sampled_from(["", "backend error: empty pattern"]),
    st.builds(
        DebugResult,
        ok=st.booleans(),
        syntax_error=st.sampled_from(["", "syntax error at offset 1: unbalanced '('"]),
        matched_prefix=PROMPT_TEXT,
        failing_token=PROMPT_TEXT,
        target_offset=st.integers(0, 40),
    ).map(DebugResult.describe),
    st.builds(
        NoncaptureResult,
        ok=st.booleans(),
        missing_keep=st.lists(PROMPT_TEXT, max_size=2),
        present_discard=st.lists(PROMPT_TEXT, max_size=2),
    ).map(NoncaptureResult.describe),
    st.builds(
        OvergenResult,
        ok=st.booleans(),
        probes=st.lists(PROMPT_TEXT, max_size=10),
        unprobed=st.sampled_from(["every match holds a keep component",
                                  "every probe character is a keep component"]),
    ).map(OvergenResult.describe),
)
DEBUG_ELEMENTS = st.one_of(
    st.text(DEBUG_ALPHABET, min_size=1, max_size=4).map(re.escape),
    st.sampled_from(
        [".*", "a*", "x+", "b?", "(?:ab|x)", "(ab)", "[a-c]+", "|", "^", "$", "(", ")"]
    ),
)


class TestDebugCheck:
    def test_direct_match(self, path_record):
        assert debug_check(r"(?i).*Users\\Public.*", path_record.normalized).ok

    def test_failing_token_and_prefix(self, path_record):
        res = debug_check("Users/Public", path_record.normalized)
        assert not res.ok
        assert res.matched_prefix == "Users"
        assert res.failing_token == "/"
        assert res.target_offset == len(r"C:\Users")

    def test_syntax_diagnostic(self):
        res = debug_check("(unclosed", "anything")
        assert not res.ok
        assert "syntax error at offset" in res.describe()

    def test_bad_emission_diagnostics_equal_eager_reference(
        self, path_record, schtasks_record
    ):
        for target in (path_record.normalized, schtasks_record.normalized):
            for pattern in BAD_EMISSIONS:
                res = debug_check(pattern, target)
                ref = reference_debug_check(pattern, target)
                assert res == ref, pattern
                assert res.describe() == ref.describe(), pattern

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        flags=st.sampled_from(["", "(?s)", "(?m)"]),
        elements=st.lists(DEBUG_ELEMENTS, max_size=6),
        target=st.text(DEBUG_ALPHABET + "\n", max_size=10),
    )
    @example(flags="(?m)", elements=[".*", "b", "$"], target="xa\n\nxb")
    @example(flags="", elements=[".*", "a", ".*", "b"], target="xa")  # fails at "."
    @example(flags="(?i)", elements=["A", ".*", "b"], target="a\nb")  # a line break
    # the text ends where a run ends, and a "." before the next run fails
    @example(flags="", elements=[".*", "ab", ".*", "x"], target="bab")
    @example(flags="", elements=["ab", ".*", "x"], target="xba")  # opening run missing
    @example(flags="", elements=[".*", "a", ".*", ".*", "b"], target="xa")  # the first "."
    @example(flags="", elements=[".*", "a", ".*", ".*", "b"], target="ax")  # then "b"
    @example(flags="", elements=[".*", "a", r"\\", "b"], target="xa/b")  # fails at \\
    @example(flags="(?s)", elements=[".*", "a", r"\.", "b"], target="a\naxb")  # at \.
    @example(flags="(?i)", elements=[".*", "ab", ".*", "xb"], target="XABAX")  # folded
    def test_diagnostic_equals_eager_reference(self, flags, elements, target):
        pattern = flags + "".join(elements)
        res = debug_check(pattern, target)
        assert res == reference_debug_check(pattern, target)

    def test_leading_wildcard_miss_on_long_path_is_fast(self):
        # a search from every offset would redo the backtracking at each one
        with hard_timeout(0.5):
            res = debug_check(ADVERSARIAL_PATTERN, ADVERSARIAL_PATH)
        assert not res.ok
        assert res.failing_token == r"\."

    @pytest.mark.parametrize(
        "pattern, target, prefix, failing",
        [
            (CHAIN_PATTERN, CHAIN_TEXT, "(?i).*-enc.*-nop.*-", "w"),
            # -w only at the very end: the prefix ending in its "." fails
            ("(?i).*-enc.*-nop.*-w.*x", CHAIN_TEXT[3:] + "-w", "(?i).*-enc.*-nop.*-w", "."),
        ],
    )
    def test_find_chain_miss_on_long_text_is_fast(self, pattern, target, prefix, failing):
        with hard_timeout(0.5):
            res = debug_check(pattern, target)
        assert (res.ok, res.matched_prefix, res.failing_token) == (False, prefix, failing)
        assert res.target_offset == re.match(prefix, target).end()

    def test_agrees_with_engine(self, path_record, schtasks_record):
        patterns = [
            r"(?i).*Users\\Public\\.*",
            r"(?i).*schtasks.*",
            r"NoSuchLiteral",
            r"(?i)11\.bat$",
            r"[a-z]+\\",
        ]
        for target in (path_record.normalized, schtasks_record.normalized):
            for pattern in patterns:
                assert debug_check(pattern, target).ok == bool(
                    re.search(pattern, target)
                )


class TestNoncaptureCheck:
    def test_pass_on_clean_pattern(self, path_annotation):
        assert noncapture_check(GOOD_PATH_PATTERN, path_annotation).ok

    def test_discard_literal_flagged(self, path_annotation):
        res = noncapture_check(r"(?i).*Users\\Public\\11\.bat", path_annotation)
        assert not res.ok
        assert res.present_discard == ["11.bat"]

    def test_missing_keep_flagged(self, path_annotation):
        res = noncapture_check(r"(?i).*Public.*", path_annotation)
        assert not res.ok
        assert res.missing_keep == ["Users"]

    def test_keep_off_some_match_path_flagged(self, store):
        from test_grading import SYSTEM32_IOC, UNSOUND_SYSTEM32

        ann = annotate(make_record(SYSTEM32_IOC, store), store)
        target = ann.record.normalized
        for pattern in UNSOUND_SYSTEM32:
            # the match and the probe gates cannot see the difference
            assert debug_check(pattern, target).ok, pattern
            assert overgen_check(pattern, 0, ann.keep_components).ok, pattern
            res = noncapture_check(pattern, ann)
            assert res.missing_keep == ["Windows", "System32"], pattern

    def test_keep_in_plain_or_repeated_group_passes(self, path_annotation):
        for pattern in (r"(?i).*(Users\\Public)\\.*", r"(?i).*(?:Users)+\\Public.*"):
            assert noncapture_check(pattern, path_annotation).ok, pattern

    def test_discard_in_optional_group_still_flagged(self, path_annotation):
        res = noncapture_check(r"(?i).*Users\\Public\\(?:11\.bat)?", path_annotation)
        assert res.present_discard == ["11.bat"]

    def test_components_compared_case_folded(self):
        from test_grading import annotation_for

        ann = annotation_for(["Users", "Straße", "Evil.EXE"], [True, True, False])
        assert noncapture_check(r"(?i).*USERS\\STRASSE\\.*", ann).ok
        res = noncapture_check(r"(?i).*users\\strasse\\evil\.exe", ann)
        assert (res.missing_keep, res.present_discard) == ([], ["Evil.EXE"])
        # the spans are in the run's fold, "users\\strasse\\"
        res = noncapture_check(r"(?i).*Users\\Straße\\.*", ann)
        assert res.found == [[(0, 5), (6, 13)]]
        assert grading._unfold("Users\\Straße\\", res.found[0]) == [(0, 5), (6, 12)]

    def test_audit_keeps_fold_spans_for_the_grader(self, path_annotation, monkeypatch):
        unfolded = []
        unfold = grading._unfold
        monkeypatch.setattr(
            grading, "_unfold",
            lambda text, spans: unfolded.append(text) or unfold(text, spans),
        )
        pattern = r"(?i).*USERS\\Public\\.*"
        res = noncapture_check(pattern, path_annotation)
        assert res.ok and unfolded == []
        assert res.found == [[(0, 5), (6, 12)]]  # "USERS", "Public"
        # the grader maps the audit's spans, or its own, to the run's characters
        audited = IndicatorMemo(path_annotation)
        assert audited.verdict(generation.STAGE_NONCAPTURE, pattern)[0].ok
        assert grading.grade(pattern, audited) == grading.grade(
            pattern, IndicatorMemo(path_annotation)
        )
        assert unfolded == ["USERS\\Public\\"] * 2

    @given(text=st.text("aB\\.\u00df\u0130\u017f\u212a", max_size=12), data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_unfold_maps_fold_spans_to_the_characters(self, text, data):
        # each character of the fold belongs to the character it came from
        owner = [i for i, c in enumerate(text) for _ in c.casefold()]
        bound = st.integers(0, len(owner))
        spans = data.draw(st.lists(st.tuples(bound, bound).map(sorted), max_size=4))
        assert grading._unfold(text, [tuple(s) for s in spans]) == [
            (owner[start], owner[end - 1] + 1) for start, end in spans if end > start
        ]

    def test_empty_keep_set_rejected(self):
        rec = IocRecord(raw="x", kind=IocKind.FILE_PATH, normalized="x", components=["x"])
        ann = GroupAnnotation(record=rec, labels=["discard"], capture_sequences=[])
        with pytest.raises(ValueError):
            noncapture_check(".*", ann)


PROBE_KEEPS = ["Users", "Public", "schtasks", "/create", "abc", "Q", "7"]
PROBE_PATTERNS = [
    ".*", "(?i).+", "template", "[a-z]", r"\d", "[A-Z]{2}", r"(?i)[a-f]{3}", r"\w{5}",
    "[!-/]", r"(?i).*Users\\Public.*",
]


def assert_passes_audit(pattern, keeps):
    """The pattern passes the group audit of an indicator whose components
    are all ``keeps``."""
    rec = IocRecord(raw="x", kind=IocKind.FILE_PATH, normalized="x", components=list(keeps))
    ann = GroupAnnotation(
        record=rec, labels=["keep"] * len(keeps), capture_sequences=[list(keeps)]
    )
    assert noncapture_check(pattern, ann).ok, pattern


# Five overlapping ``.*`` runs against a 122-character path with 38
# backslashes whose only ``.exe`` follows the first one: no match.
ADVERSARIAL_PATTERN = r"(?i).*\\.*\\.*\\.*\\.*\\.*\.exe"
ADVERSARIAL_PATH = ("c:\\setup.exe\\" + "ab\\" * 40)[:122]


@contextmanager
def hard_timeout(seconds):
    """Abort the block with TimeoutError after ``seconds`` of wall time."""

    def expire(_signum, _frame):
        raise TimeoutError(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# (pattern, keeps, whether the probe must run): a run that is not ASCII never
# decides the verdict statically, since (?i) matches ASCII letters to it.
FOLDING_CASES = [
    ("(?i).*\u017ftart.*", ["\u017ftart"], True),  # long s
    ("(?i).*\u017ftart.*", ["start"], True),
    ("(?i).*start.*", ["\u017ftart"], False),
    ("(?i).*\u212aey.*", ["\u212aey"], True),  # Kelvin sign
    ("(?i).*key.*", ["\u212aey"], False),
    ("(?i).*s.*", ["\u017f"], False),
    ("(?i).*\u0131.*", ["\u0131"], True),  # dotless i
    ("(?i).*w\u0131ndows.*", ["w\u0131ndows"], True),
]


# Indicators shaped like the benchmark corpus's: paths and registry keys
# under knowledge-base chains, with a random mutable tail, and commands with
# some of their parameters.
BENCH_SHAPED_IOCS = [
    r"C:\Users\jdoe\AppData\Roaming\Microsoft\Windows\Start Menu\Programs\Startup\x1.lnk",
    r"%APPDATA%\Microsoft\Windows\Start Menu\Programs\Startup\k3v.lnk",
    r"C:\Windows\System32\drivers\qzxv.sys",
    r"C:\ProgramData\Microsoft\Windows\Start Menu\Programs\StartUp\a9.exe",
    r"HKEY_CURRENT_USER\Software\Microsoft\Windows\CurrentVersion\Run\updater",
    r"HKLM\SYSTEM\CurrentControlSet\Services\evilsvc\ImagePath",
    r"C:\Users\Public\11.bat",
    'schtasks /create /tn upd /tr "c:\\users\\public\\11.bat" /sc DAILY',
    "cmd.exe /c whoami",
    "reg add HKCU\\Software\\x /v y /d z",
    "powershell -nop -w hidden -enc AAAA",
]


class TestOvergenCheck:
    def test_universal_pattern_fails(self):
        res = overgen_check(".*", 0)
        assert not res.ok
        assert res.probes == random_probe_strings(0)

    def test_specific_pattern_passes(self):
        res = overgen_check(r"(?i).*Users\\Public.*", 0, ["Users", "Public"])
        assert res.ok
        assert res.probes == []

    def test_required_ascii_keep_decides_without_a_probe(self):
        res = overgen_check(r"(?i).*Users\\Public.*", 0, ["Users", "Public"])
        assert res == generation.OvergenResult(ok=True)
        assert res.describe() == (
            "over-generalization probe ok (no probe drawn: every match holds a"
            " keep component)"
        )

    def test_dotless_i_keep_still_fails(self):
        # a rule that also accepted non-ASCII runs would pass this pattern
        res = overgen_check("(?i).*\u0131.*", 1596, ["\u0131"])
        assert not res.ok
        assert len(res.probes) == 10

    def test_audit_implies_an_unprobed_pass(self, store):
        """In the full workflow the audit implies the probe: a pattern that
        passes the audit and whose required runs are all ASCII passes the
        probe with no probe drawn.  Over the grader's pattern draws, on
        their own annotations and on bench-shaped ones, and the templates."""
        from test_grading import random_annotation_and_pattern, random_pattern

        rng = random.Random(1717)
        bench = [annotate(make_record(raw, store), store) for raw in BENCH_SHAPED_IOCS]
        cases = [(ann, render_template(ann)) for ann in bench]
        cases += [random_annotation_and_pattern(rng) for _ in range(600)]
        cases += [(ann, random_pattern(rng, ann.keep_components)) for ann in bench * 60]
        implied = 0
        for ann, pattern in cases:
            analysis = dialect.analysis_or_error(pattern)
            if isinstance(analysis, dialect.DialectError):
                continue
            if noncapture_check(pattern, ann).ok and all(
                run.text.isascii() for run in analysis.runs if run.required
            ):
                res = overgen_check(pattern, rng.randrange(2**32), ann.keep_components)
                assert res.ok and res.probes == [], pattern
                implied += 1
        assert implied >= 60, implied

    def test_dotted_capital_i_keep_can_fail_after_the_audit(self):
        # the one exception: (?i) matches "İ" to ASCII "i", and the probes'
        # keep filter keeps every "i", since the fold of "İ" is not ASCII
        from test_grading import annotation_for

        ann = annotation_for(["C:", "\u0130", "evil.exe"], [False, True, False])
        pattern = "(?i).*\u0130.*"
        assert debug_check(pattern, ann.record.normalized).ok
        assert noncapture_check(pattern, ann).ok
        keeps = ann.keep_components
        assert len(overgen_check(pattern, 0, keeps).probes) == 4
        assert [s for s in range(5000) if not overgen_check(pattern, s, keeps).ok] == [
            1596, 4180
        ]

    def test_empty_keep_never_decides(self):
        res = overgen_check("(?i).*q.*", 0, ["", "Users"])
        assert res.probes
        assert res.ok == reference_overgen_ok("(?i).*q.*", 0, ["", "Users"])

    @pytest.mark.parametrize("pattern, keeps, probed", FOLDING_CASES)
    def test_folding_keeps_match_reference(self, pattern, keeps, probed):
        assert_passes_audit(pattern, keeps)
        for seed in (0, 1, 7, 1596):
            res = overgen_check(pattern, seed, keeps)
            assert res.ok == reference_overgen_ok(pattern, seed, keeps), seed
            assert bool(res.probes) == probed, seed

    def test_many_one_letter_keeps_decided_fast(self):
        # under -CR every component is a keep; rejection sampling ten probes
        # that avoid all 26 letters takes seconds
        keeps = list(string.ascii_lowercase)
        pattern = "(?i).*" + "\\\\".join(keeps) + ".*"
        with hard_timeout(1.0):
            res = overgen_check(pattern, 0, keeps)
        assert res.ok and res.probes == []

    def test_keeps_only_under_wildcards_bounded(self):
        # no run holds a keep, so the probe runs; rejection sampling ten
        # strings that avoid all 26 letters took 3.2 s
        keeps = list(string.ascii_lowercase)
        with hard_timeout(0.5):
            res = overgen_check("(?i).*[a-z]?.*", 0, keeps)
            probes = random_probe_strings(0, keeps)
        assert res.ok == reference_overgen_ok("(?i).*[a-z]?.*", 0, keeps)
        assert not res.ok  # it matches every string
        assert len(probes) == 10
        assert not any(c in probe.casefold() for probe in probes for c in keeps)

    def test_every_probe_character_a_keep_passes_unprobed(self):
        keeps = list(generation._PROBE_ALPHABET)
        with hard_timeout(0.5):
            res = overgen_check(".*", 0, keeps)
            probes = random_probe_strings(0, keeps)
        assert res.ok and res.probes == [] and probes == []
        assert res.describe() == (
            "over-generalization probe ok (no probe drawn: every probe"
            " character is a keep component)"
        )

    @pytest.mark.parametrize(
        "keeps", [[], ["abc", "Q"], ["Users", "Public"], list("aeiou"), ["\u212a", "7"]]
    )
    def test_stream_unchanged_below_the_redraw_bound(self, keeps):
        # none of these seeds rejects 1,000 draws in a row
        for seed in range(20):
            assert random_probe_strings(seed, keeps) == reference_probe_strings(seed, keeps)

    def test_bound_counts_rejects_in_a_row(self):
        # with 12 one-letter keeps these seeds reject 1,043 to 1,981 draws in
        # all, but at most 766 in a row
        keeps = list("abcdefghijkl")
        for seed in range(6):
            assert random_probe_strings(seed, keeps) == reference_probe_strings(seed, keeps)

    def test_nine_of_ten_passes(self):
        probes = random_probe_strings(0)
        pattern = "|".join(re.escape(s) for s in probes[:9])
        res = overgen_check(pattern, 0)
        assert res.probes == probes
        assert res.ok

    def test_probes_avoid_keep_components(self):
        probes = random_probe_strings(3, ["abc", "Q"])
        assert len(probes) == 10
        for probe in probes:
            assert 8 <= len(probe) <= 64
            assert "abc" not in probe.casefold()
            assert "q" not in probe.casefold()

    def test_deterministic(self):
        assert random_probe_strings(5) == random_probe_strings(5)
        assert random_probe_strings(5) != random_probe_strings(6)

    def test_stops_at_first_unmatched_probe(self):
        probes = random_probe_strings(0)
        pattern = "|".join(re.escape(s) for s in probes[:3])
        res = overgen_check(pattern, 0)
        assert res.ok
        assert res.probes == probes[:4]
        assert res.describe() == "over-generalization probe ok (probe 4 of 10 unmatched)"

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32),
        keeps=st.lists(st.sampled_from(PROBE_KEEPS), max_size=3),
        shape=st.one_of(st.sampled_from(PROBE_PATTERNS), st.integers(0, 10)),
    )
    def test_lazy_verdict_equals_ten_probe_reference(self, seed, keeps, shape):
        probes = random_probe_strings(seed, keeps)
        if shape == "template":
            pattern = "(?i).*" + "\\\\".join(map(re.escape, keeps)) + ".*"
        elif isinstance(shape, int):  # alternation of the first j probes
            pattern = "|".join(re.escape(s) for s in probes[:shape])
        else:
            pattern = shape
        res = overgen_check(pattern, seed, keeps)
        assert res.ok == reference_overgen_ok(pattern, seed, keeps)
        assert res.probes == probes[: len(res.probes)]
        if res.ok and not res.probes:  # decided without drawing a probe
            assert not any(re.search(pattern, s) for s in probes)
        elif res.ok:
            assert all(re.search(pattern, s) for s in res.probes[:-1])
            assert not re.search(pattern, res.probes[-1])
        else:
            assert res.probes == probes
            assert all(re.search(pattern, s) for s in probes)


class TestBuildPrompt:
    def test_first_attempt_has_no_feedback(self, path_annotation):
        prompt = build_prompt(IndicatorMemo(path_annotation))
        assert "C:\\Users\\Public\\11.bat" in prompt
        assert "- Users" in prompt and "- Public" in prompt
        assert "- 11.bat" in prompt
        assert "Feedback" not in prompt

    def test_debug_diagnostic_included_verbatim(self, path_annotation, path_record):
        diag = debug_check("Users/Public", path_record.normalized).describe()
        prompt = build_prompt(
            IndicatorMemo(path_annotation), previous_pattern="Users/Public", diagnostic=diag
        )
        assert diag in prompt

    def test_noncapture_violations_listed(self, path_annotation):
        diag = noncapture_check(
            r"(?i).*Users\\Public\\11\.bat", path_annotation
        ).describe()
        prompt = build_prompt(IndicatorMemo(path_annotation), diagnostic=diag)
        assert "'11.bat'" in prompt

    def test_golden_bytes(self, path_annotation):
        assert build_prompt(IndicatorMemo(path_annotation)) == GOLDEN.read_text(
            encoding="utf-8"
        )

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        schtasks=st.booleans(),
        previous=PROMPT_PATTERNS,
        diagnostic=DIAGNOSTICS,
        prior_failures=st.integers(0, 5),
    )
    def test_equals_reference_prompt(
        self, path_annotation, schtasks_annotation, schtasks, previous, diagnostic,
        prior_failures,
    ):
        annotation = schtasks_annotation if schtasks else path_annotation
        want = reference_prompt(annotation, previous, diagnostic, prior_failures)
        memo = IndicatorMemo(annotation)
        for _ in range(2):  # and again from the same memo
            assert build_prompt(memo, previous, diagnostic, prior_failures) == want


class TestTemplateBackend:
    def test_path_template(self, path_annotation):
        assert render_template(path_annotation) == GOOD_PATH_PATTERN

    def test_template_passes_all_stages(self, path_annotation):
        pattern, trace = generate(
            IndicatorMemo(path_annotation), TemplateBackend(), rng_seed=0
        )
        assert pattern == GOOD_PATH_PATTERN
        assert [a.stage for a in trace.attempts] == ["debug", "noncapture", "overgen"]
        assert trace.restarts == 0

    def test_trailing_delimiter_only_when_run_is_interior(self, store):
        from ioc2regex import annotate, make_record

        rec = make_record(
            r"ProgramData\Microsoft\Windows\StartMenu\Programs\StartUp", store
        )
        ann = annotate(rec, store)
        pattern = render_template(ann)
        assert pattern.endswith("StartUp.*")
        assert debug_check(pattern, rec.normalized).ok

    @pytest.mark.parametrize(
        "raw, pattern",
        [
            ("/etc/cron.d/evil", r"(?i).*etc/.*"),
            ("C:/Windows/System32/evil.dll", r"(?i).*Windows/System32/.*"),
            # x, between the keeps user and AppData, is not in the store
            (r"C:\Users\ab\x\AppData\Roaming\y.exe",
             r"(?i).*Users\\user\\.*\\AppData\\Roaming\\.*"),
        ],
        ids=["slash-root", "slash-drive", "skipped-component"],
    )
    def test_template_keeps_the_indicator_separators(self, store, raw, pattern):
        ann = annotate(make_record(raw, store), store)
        assert render_template(ann) == pattern
        shipped, trace = generate(IndicatorMemo(ann), TemplateBackend(), rng_seed=0)
        assert shipped == pattern
        assert trace.restarts == 0

    @given(
        pieces=st.lists(
            st.tuples(
                st.sampled_from(["\\", "/", "\\\\", "/\\", "\\/"]),
                st.sampled_from(TEMPLATE_WORDS),
            ),
            min_size=1,
            max_size=7,
        ),
        lead=st.booleans(),
    )
    @settings(derandomize=True, deadline=None, max_examples=500)
    @example(pieces=[("/", "Users"), ("/", "pam"), ("\\", "x"), ("/", "AppData")], lead=True)
    @example(pieces=[("\\", "Windows"), ("//", "x"), ("\\/", "System32"), ("/", "a.exe")],
             lead=False)
    def test_template_matches_its_own_indicator(self, store, pieces, lead):
        """For every path and registry-key annotation of the fuzz corpus's
        words, and of words that stand between a keep and its child, with
        ``\\``, ``/`` and mixed delimiters."""
        raw = "".join(sep + word for sep, word in pieces)[0 if lead else 1 :]
        if not raw.strip():
            return
        record = make_record(raw, store)
        if record.kind not in (IocKind.FILE_PATH, IocKind.REGISTRY_KEY):
            return
        ann = find_path_groups(record, store)
        if ann.has_capture_groups:
            assert debug_check(render_template(ann), record.normalized).ok

    def test_command_template(self, schtasks_annotation, schtasks_record):
        pattern = render_template(schtasks_annotation)
        assert pattern.startswith("(?i).*schtasks.*")
        assert debug_check(pattern, schtasks_record.normalized).ok
        assert noncapture_check(pattern, schtasks_annotation).ok

    def test_shared_by_threads_answers_each_its_own(
        self, path_annotation, schtasks_annotation
    ):
        # the backend keeps its last reply; threads that share it must
        # each get the template of the annotation they ask about
        backend = TemplateBackend()
        anns = [path_annotation, schtasks_annotation]
        expected = [render_template(ann) for ann in anns]
        wrong = []

        def ask(offset):
            for i in range(300):
                k = (i + offset) % 2
                if backend.propose(anns[k], "") != expected[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(n,)) for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestWorkflow:
    def test_broken_then_fixed(self, path_annotation):
        backend = ScriptedBackend(["Users/Public", GOOD_PATH_PATTERN])
        pattern, trace = generate(IndicatorMemo(path_annotation), backend, rng_seed=0)
        assert pattern == GOOD_PATH_PATTERN
        debug_attempts = [a for a in trace.attempts if a.stage == "debug"]
        assert [a.verdict for a in debug_attempts] == ["fail", "pass"]
        assert trace.restarts == 0

    def test_universal_forever_never_finalizes(self, path_annotation):
        backend = ScriptedBackend([".*"])
        pattern, trace = generate(
            IndicatorMemo(path_annotation), backend, rng_seed=0, restart_cap=5
        )
        assert pattern is None
        assert trace.restarts == 4  # five passes, four returns to the start
        # ".*" matches the indicator, so it dies in the group audit: it carries
        # no keep literal; it never reaches the overgen stage
        audits = [a for a in trace.attempts if a.stage == "noncapture"]
        assert audits and all(a.verdict == "fail" for a in audits)
        assert not any(a.stage == "overgen" for a in trace.attempts)

    def test_universal_forever_without_group_audit_fails_overgen(self, path_annotation):
        # with the audit stage disabled (the '-CR' ablation), the same backend
        # is caught by the ten-random-string probe instead
        backend = ScriptedBackend([".*"])
        pattern, trace = generate(
            IndicatorMemo(path_annotation), backend, rng_seed=0, restart_cap=3,
            validate_groups=False,
        )
        assert pattern is None
        overgens = [a for a in trace.attempts if a.stage == "overgen"]
        assert len(overgens) == 3 and all(a.verdict == "fail" for a in overgens)

    def test_eventually_correct_at_tenth_attempt(self, path_annotation):
        backend = ScriptedBackend(["(bad"] * 9 + [GOOD_PATH_PATTERN])
        pattern, trace = generate(
            IndicatorMemo(path_annotation), backend, rng_seed=0, max_iterations=10
        )
        assert pattern == GOOD_PATH_PATTERN
        assert trace.restarts == 0
        assert Counter(a.stage for a in trace.attempts if a.restart == 0)["debug"] == 10

    def test_correct_after_restart(self, path_annotation):
        backend = ScriptedBackend(["(bad"] * 10 + [GOOD_PATH_PATTERN])
        pattern, trace = generate(IndicatorMemo(path_annotation), backend, rng_seed=0)
        assert pattern == GOOD_PATH_PATTERN
        assert trace.restarts == 1
        assert Counter(a.stage for a in trace.attempts if a.restart == 0) == {"debug": 10}

    def test_backend_error_recorded_and_restarts(self, path_annotation):
        class Flaky(ScriptedBackend):
            def __init__(self):
                super().__init__([GOOD_PATH_PATTERN])
                self.first = True

            def propose(self, annotation, prompt):
                if self.first:
                    self.first = False
                    raise BackendError("boom")
                return super().propose(annotation, prompt)

        pattern, trace = generate(IndicatorMemo(path_annotation), Flaky(), rng_seed=0)
        assert pattern == GOOD_PATH_PATTERN
        assert trace.attempts[0].verdict == "error"
        assert "boom" in trace.attempts[0].diagnostic
        assert trace.restarts == 1

    @pytest.mark.parametrize(
        "bad, error",
        [
            (r"(?i).*(?:\w+\\)+11\.bat", "nested repetition"),
            (r"(?i).*(?:users\\|public\\)+11\.bat", "alternation inside a repeated group"),
        ],
        ids=["nested-repetition", "repeated-alternation"],
    )
    def test_backtracking_form_fed_back_for_repair(self, path_annotation, bad, error):
        prompts = []

        class Recording(ScriptedBackend):
            def propose(self, annotation, prompt):
                prompts.append(prompt)
                return super().propose(annotation, prompt)

        assert re.search(bad, path_annotation.record.normalized)  # valid Python re
        backend = Recording([bad, GOOD_PATH_PATTERN])
        pattern, trace = generate(IndicatorMemo(path_annotation), backend, rng_seed=0)
        assert pattern == GOOD_PATH_PATTERN
        first = trace.attempts[0]
        assert (first.pattern, first.verdict) == (bad, "fail")
        assert error in first.diagnostic
        assert f"pattern: {bad}" in prompts[1]
        assert first.diagnostic in prompts[1]

    def test_loop_and_call_bounds(self, path_annotation):
        cap, iters = 4, 7
        backend = ScriptedBackend(["(never"])
        pattern, trace = generate(
            IndicatorMemo(path_annotation), backend, rng_seed=0, max_iterations=iters,
            restart_cap=cap,
        )
        assert pattern is None
        for restart in range(cap):
            stages = Counter(a.stage for a in trace.attempts if a.restart == restart)
            for stage, count in stages.items():
                assert count <= iters, (restart, stage)
        assert trace.restarts <= cap
        assert backend.calls <= cap * (1 + iters + iters) + cap

    def test_deterministic_for_fixed_seed(self, path_annotation):
        runs = [
            generate(IndicatorMemo(path_annotation), TemplateBackend(), rng_seed=42)
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_final_pattern_invariants(self, path_annotation, schtasks_annotation):
        for ann in (path_annotation, schtasks_annotation):
            pattern, _ = generate(IndicatorMemo(ann), TemplateBackend(), rng_seed=1)
            assert pattern is not None
            assert debug_check(pattern, ann.record.normalized).ok
            assert noncapture_check(pattern, ann).ok
            assert overgen_check(pattern, 1, ann.keep_components).ok

    def test_requires_capture_groups(self):
        rec = IocRecord(raw="x", kind=IocKind.FILE_PATH, normalized="x", components=["x"])
        ann = GroupAnnotation(record=rec, labels=["discard"], capture_sequences=[])
        with pytest.raises(ValueError):
            generate(IndicatorMemo(ann), TemplateBackend())

    def test_first_try_valid_candidate_debugged_once(self, path_annotation, monkeypatch):
        calls = []

        def counting(pattern, target):
            calls.append(pattern)
            return debug_check(pattern, target)

        monkeypatch.setattr(generation, "debug_check", counting)
        pattern, trace = generate(
            IndicatorMemo(path_annotation), TemplateBackend(), rng_seed=0
        )
        assert pattern is not None
        assert calls == [pattern]
        assert [(a.stage, a.verdict) for a in trace.attempts] == [
            ("debug", "pass"), ("noncapture", "pass"), ("overgen", "pass"),
        ]

    def test_audit_feedback_pattern_debugged_again(self, path_annotation):
        # passes the debug stage, fails the audit (no keep literal), then the
        # audit's feedback yields a pattern that no longer matches the indicator
        backend = ScriptedBackend([".*", "nomatch", GOOD_PATH_PATTERN])
        pattern, trace = generate(IndicatorMemo(path_annotation), backend, rng_seed=0)
        assert pattern == GOOD_PATH_PATTERN
        audits = [a for a in trace.attempts if a.stage == "noncapture"]
        assert [(a.pattern, a.verdict) for a in audits] == [
            (".*", "fail"), ("nomatch", "fail"), (GOOD_PATH_PATTERN, "pass"),
        ]
        assert "does not match the indicator" in audits[1].diagnostic


class TestIndicatorMemo:
    @pytest.mark.parametrize(
        "scripted, options",
        [(False, {}), (True, {}), (True, {"validate_groups": False}),
         (True, {"workflow": "single_shot"})],
        ids=["template", "scripted", "no-audit", "single-shot"],
    )
    def test_best_of_five_runs_each_pure_gate_once(
        self, path_annotation, schtasks_annotation, monkeypatch, scripted, options
    ):
        calls = {"debug": [], "noncapture": [], "grade": []}
        runs = []

        def counting(name, fn):
            def wrapper(pattern, *args, **kwargs):
                calls[name].append(pattern)
                return fn(pattern, *args, **kwargs)
            return wrapper

        def recording(memo, backend, **kwargs):
            result = generate(memo, backend, **kwargs)
            runs.append((kwargs["rng_seed"], result))
            return result

        monkeypatch.setattr(generation, "debug_check", counting("debug", debug_check))
        monkeypatch.setattr(
            generation, "noncapture_check", counting("noncapture", noncapture_check)
        )
        monkeypatch.setattr(grading, "grade", counting("grade", grading.grade))
        monkeypatch.setattr(generation, "generate", recording)
        for ann in (path_annotation, schtasks_annotation):
            for patterns in calls.values():
                patterns.clear()
            runs.clear()
            # a scripted backend is not deterministic, so all five runs go
            backend = (
                ScriptedBackend(["(bad", ".*"], fallback=TemplateBackend())
                if scripted else TemplateBackend()
            )
            best, candidates = grading.select_best(ann, backend, k=5, rng_seed=3, **options)
            graded = sorted({c.pattern for c in candidates})
            # per distinct pattern: debug at most once, the audit and the grade once
            assert sorted(set(calls["debug"])) == sorted(calls["debug"])
            assert sorted(set(calls["noncapture"])) == sorted(calls["noncapture"])
            assert set(graded) <= set(calls["noncapture"])
            assert sorted(calls["grade"]) == graded
            if scripted:
                continue
            assert len(candidates) == 5
            assert calls == {"debug": [best.pattern], "noncapture": [best.pattern],
                             "grade": [best.pattern]}
            assert all(c is best for c in candidates)
            # the template backend is deterministic and its run drew no
            # probe, so one workflow run stands for all five
            ((seed, (pattern, trace)),) = runs
            assert seed == 3
            for other in range(3, 8):
                fresh_pattern, fresh_trace = generate(
                    IndicatorMemo(ann), TemplateBackend(), rng_seed=other
                )
                assert pattern == fresh_pattern == best.pattern
                assert trace == fresh_trace

    def test_shared_memo_repair_runs_append_the_same_attempts(self, path_annotation):
        script = ["(bad", ".*", "nomatch", "Users/Public", GOOD_PATH_PATTERN]
        memo = IndicatorMemo(path_annotation)
        for seed in range(3):
            shared = generate(memo, ScriptedBackend(script), rng_seed=seed)
            fresh = generate(
                IndicatorMemo(path_annotation), ScriptedBackend(script), rng_seed=seed
            )
            assert shared[0] == fresh[0] == GOOD_PATH_PATTERN
            assert shared[1] == fresh[1]

    @pytest.mark.parametrize(
        "pattern, probed, checks",
        [(GOOD_PATH_PATTERN, False, 1), (r"(?i).*Pub[l]ic.*", True, 5)],
    )
    def test_only_unprobed_overgen_verdicts_reused(
        self, path_annotation, monkeypatch, pattern, probed, checks
    ):
        calls = []
        runs = []

        def counting(*args):
            calls.append(args[0])
            return overgen_check(*args)

        def recording(memo, backend, **kwargs):
            result = generate(memo, backend, **kwargs)
            runs.append((kwargs["rng_seed"], result))
            return result

        monkeypatch.setattr(generation, "overgen_check", counting)
        monkeypatch.setattr(generation, "generate", recording)
        script = ["(bad", pattern]
        backend = ScriptedBackend(script)  # not deterministic: k runs
        best, candidates = grading.select_best(
            path_annotation, backend, k=5, rng_seed=3, validate_groups=False
        )
        assert calls == [pattern] * checks
        monkeypatch.undo()
        assert [seed for seed, _ in runs] == [3, 4, 5, 6, 7]
        # each run equals a separately seeded run with its own memo
        alone = ScriptedBackend(script)
        for seed, (shared_pattern, trace) in runs:
            fresh = generate(
                IndicatorMemo(path_annotation), alone, rng_seed=seed, validate_groups=False
            )
            assert (shared_pattern, trace) == fresh
            assert trace.probed is probed
        assert [c.pattern for c in candidates] == [pattern] * 5
        assert best.pattern == pattern

    def test_template_rendered_once_per_indicator(
        self, path_annotation, schtasks_annotation, monkeypatch
    ):
        rendered = []

        def counting(annotation):
            rendered.append(annotation)
            return render_template(annotation)

        monkeypatch.setattr(generation, "render_template", counting)
        backend = ScriptedBackend(["(bad"], per_record=True, fallback=TemplateBackend())
        for ann in (path_annotation, schtasks_annotation):
            rendered.clear()
            best, _ = grading.select_best(ann, backend, k=5, rng_seed=3)
            assert rendered == [ann]
            assert best.pattern == render_template(ann)
            assert backend.fallback.propose(ann, "") == best.pattern
            assert rendered == [ann]


ERROR_MARK = "<backend error>"
DISCARD_LITERAL_PATTERN = r"(?i).*Users\\Public\\11\.bat"
WORKFLOW_EMISSIONS = [
    GOOD_PATH_PATTERN, "(bad", "nomatch", ".*", DISCARD_LITERAL_PATTERN, ERROR_MARK, "",
]


class ErringScript(ScriptedBackend):
    """A scripted backend that records its prompts and raises
    ``BackendError`` for ``ERROR_MARK``."""

    def __init__(self, emissions):
        super().__init__(emissions)
        self.prompts = []

    def propose(self, annotation, prompt):
        self.prompts.append(prompt)
        pattern = super().propose(annotation, prompt)
        if pattern == ERROR_MARK:
            raise BackendError("scripted failure")
        return pattern


class TestStageLoop:
    """``generate`` against the stage-by-stage reference workflow."""

    @given(
        script=st.lists(st.sampled_from(WORKFLOW_EMISSIONS), min_size=1, max_size=8),
        validate_groups=st.booleans(),
        max_iterations=st.integers(1, 3),
        restart_cap=st.integers(1, 3),
        shared_memo=st.booleans(),
        seed=st.integers(0, 3),
    )
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_equals_reference_workflow(
        self, path_annotation, script, validate_groups, max_iterations, restart_cap,
        shared_memo, seed,
    ):
        memo = IndicatorMemo(path_annotation) if shared_memo else None
        caps = dict(max_iterations=max_iterations, restart_cap=restart_cap,
                    validate_groups=validate_groups)
        for rng_seed in (seed, seed + 1):  # a shared memo is warm on the second run
            backend, reference = ErringScript(script), ErringScript(script)
            got = generate(
                memo or IndicatorMemo(path_annotation), backend, rng_seed=rng_seed, **caps
            )
            want = reference_generate(path_annotation, reference, rng_seed=rng_seed, **caps)
            assert got == want
            assert backend.prompts == reference.prompts

    def test_feedback_backend_error_ends_the_pass(self, path_annotation):
        backend = ErringScript(["(bad", ERROR_MARK, GOOD_PATH_PATTERN])
        pattern, trace = generate(IndicatorMemo(path_annotation), backend, rng_seed=0)
        assert pattern == GOOD_PATH_PATTERN
        assert [(a.restart, a.stage, a.pattern, a.verdict) for a in trace.attempts] == [
            (0, "debug", "(bad", "fail"),
            (0, "debug", "(bad", "error"),
            (1, "debug", GOOD_PATH_PATTERN, "pass"),
            (1, "noncapture", GOOD_PATH_PATTERN, "pass"),
            (1, "overgen", GOOD_PATH_PATTERN, "pass"),
        ]
        assert trace.attempts[1].diagnostic == "backend error: scripted failure"

    def test_empty_reply_restarts_the_workflow(self, path_annotation):
        backend = ScriptedBackend(["", "(bad", "", GOOD_PATH_PATTERN])
        pattern, trace = generate(IndicatorMemo(path_annotation), backend, rng_seed=0)
        assert pattern == GOOD_PATH_PATTERN
        assert [(a.restart, a.stage, a.pattern, a.verdict) for a in trace.attempts] == [
            (0, "debug", "", "error"),
            (1, "debug", "(bad", "fail"),
            (1, "debug", "(bad", "error"),
            (2, "debug", GOOD_PATH_PATTERN, "pass"),
            (2, "noncapture", GOOD_PATH_PATTERN, "pass"),
            (2, "overgen", GOOD_PATH_PATTERN, "pass"),
        ]
        assert trace.attempts[2].diagnostic == "backend error: empty pattern"

    def test_exhausted_audit_restarts_without_overgen(self, path_annotation):
        backend = ScriptedBackend([".*", DISCARD_LITERAL_PATTERN, GOOD_PATH_PATTERN])
        pattern, trace = generate(
            IndicatorMemo(path_annotation), backend, rng_seed=0, max_iterations=2
        )
        assert pattern == GOOD_PATH_PATTERN
        assert [(a.restart, a.stage, a.pattern, a.verdict) for a in trace.attempts] == [
            (0, "debug", ".*", "pass"),
            (0, "noncapture", ".*", "fail"),
            (0, "noncapture", DISCARD_LITERAL_PATTERN, "fail"),
            (1, "debug", GOOD_PATH_PATTERN, "pass"),
            (1, "noncapture", GOOD_PATH_PATTERN, "pass"),
            (1, "overgen", GOOD_PATH_PATTERN, "pass"),
        ]
        assert "mutable components still present" in trace.attempts[2].diagnostic


class TestSingleShot:
    def test_sends_the_opening_prompt(self, path_annotation, schtasks_annotation):
        for annotation in (path_annotation, schtasks_annotation):
            backend = ErringScript([GOOD_PATH_PATTERN])
            single_shot(IndicatorMemo(annotation), backend)
            assert backend.prompts == [reference_prompt(annotation)]

    def test_non_compiling_yields_nothing(self, path_annotation):
        pattern, trace = single_shot(
            IndicatorMemo(path_annotation), ScriptedBackend(["(broken"])
        )
        assert pattern is None
        assert [(a.verdict, a.pattern) for a in trace.attempts] == [("fail", "(broken")]

    def test_backend_error_recorded(self, path_annotation):
        pattern, trace = single_shot(
            IndicatorMemo(path_annotation), ErringScript([ERROR_MARK])
        )
        assert pattern is None
        assert trace.attempts == [
            generation.Attempt(0, "debug", "", "error", "backend error: scripted failure")
        ]

    def test_empty_reply_is_backend_error(self, path_annotation):
        pattern, trace = single_shot(IndicatorMemo(path_annotation), ScriptedBackend([""]))
        assert pattern is None
        assert trace.attempts == [
            generation.Attempt(0, "debug", "", "error", "backend error: empty pattern")
        ]

    def test_compiling_emission_accepted_unvalidated(self, path_annotation):
        # single shot skips the debug/audit/overgen loops entirely
        pattern, _ = single_shot(IndicatorMemo(path_annotation), ScriptedBackend([".*"]))
        assert pattern == ".*"


class TestScriptedBackend:
    def test_repeat_last_when_exhausted(self, path_annotation):
        backend = ScriptedBackend(["a", "b"])
        out = [backend.propose(path_annotation, "") for _ in range(4)]
        assert out == ["a", "b", "b", "b"]

    def test_per_record_cursor(self, path_annotation, schtasks_annotation):
        backend = ScriptedBackend(["one", "two"], per_record=True)
        assert backend.propose(path_annotation, "") == "one"
        assert backend.propose(schtasks_annotation, "") == "one"
        assert backend.propose(path_annotation, "") == "two"

    def test_fallback_delegation(self, path_annotation):
        backend = ScriptedBackend(["(bad"], per_record=True, fallback=TemplateBackend())
        assert backend.propose(path_annotation, "") == "(bad"
        assert backend.propose(path_annotation, "") == GOOD_PATH_PATTERN

    def test_from_file(self, tmp_path, path_annotation):
        replay = tmp_path / "replay.json"
        replay.write_text('{"emissions": ["x", "y"], "per_record": true}')
        backend = ScriptedBackend.from_file(replay)
        assert backend.per_record
        assert backend.propose(path_annotation, "") == "x"


# The request body ``RemoteBackend.propose(ann, "prompt")`` sends by default.
REMOTE_REQUEST = b'{"model": "", "prompt": "prompt", "temperature": 0.2}'


def fixed_reply(body: bytes | str, status: int = 200):
    """A loopback reply with this status and body, its length declared."""
    body = body.encode() if isinstance(body, str) else body

    def reply(handler):
        handler.send_response(status)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    return reply


def trickle(handler, data: bytes):
    """Write ``data`` one byte at a time, 0.1 s apart."""
    for byte in data:
        handler.wfile.write(bytes([byte]))
        handler.wfile.flush()
        time.sleep(0.1)


def header_trickle(handler):
    trickle(handler, b"HTTP/1.0 200 OK\r\nX-Slow: " + b"a" * 60)


def body_trickle(handler):
    # a whole reply, then blanks and no Content-Length: a deadline stop that
    # read as the end of the body would ship the pattern
    handler.send_response(200)
    handler.end_headers()
    handler.wfile.write(b'{"pattern": "(?i).*Users.*"}')
    trickle(handler, b" " * 60)


@pytest.fixture
def loopback(monkeypatch):
    """``serve(reply)`` starts an HTTP server on 127.0.0.1 in a thread,
    which records each request in ``serve.received`` as (request line,
    headers, body) and answers it with ``reply(handler)``; it returns the
    URL of ``/v1`` there.  Proxy variables are cleared, so calls stay on
    loopback."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    received, servers = [], []

    def serve(reply):
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                received.append((self.requestline, self.headers, body))
                try:
                    reply(self)
                except OSError:  # the client hung up first
                    pass

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}/v1"

    serve.received = received
    yield serve
    for server in servers:
        server.shutdown()
        server.server_close()


class TestRemoteBackend:
    def test_defaults_agree_with_pipeline_config(self):
        backend, config = RemoteBackend(endpoint="http://127.0.0.1:9/none"), PipelineConfig()
        assert backend.temperature == config.temperature
        assert backend.api_key_env == config.api_key_env
        # the workflow caps, stated once in generation and grading
        caps = inspect.signature(generate).parameters
        assert caps["max_iterations"].default == config.max_iterations == 10
        assert caps["restart_cap"].default == config.restart_cap == 5
        caps = inspect.signature(grading.select_best).parameters
        assert caps["k"].default == config.candidates == 5
        assert caps["max_iterations"].default == config.max_iterations
        assert caps["restart_cap"].default == config.restart_cap

    def test_transport_failure_is_backend_error(self, path_annotation):
        backend = RemoteBackend(endpoint="http://127.0.0.1:9/none", timeout=0.2)
        with pytest.raises(BackendError):
            backend.propose(path_annotation, "prompt")

    def test_good_reply_and_request_body(self, path_annotation, loopback):
        url = loopback(fixed_reply('{"pattern": " (?i).*Users.*\\n", "note": 1}'))
        backend = RemoteBackend(endpoint=url)
        assert backend.propose(path_annotation, "prompt") == "(?i).*Users.*"
        [(line, headers, body)] = loopback.received
        assert line == "POST /v1 HTTP/1.1"
        assert headers["Content-Type"] == "application/json"
        assert body == REMOTE_REQUEST == json.dumps(
            {"model": "", "prompt": "prompt", "temperature": 0.2}
        ).encode()

    def test_authorization_only_when_the_key_is_set(
        self, path_annotation, loopback, monkeypatch
    ):
        url = loopback(fixed_reply('{"pattern": "x"}'))
        backend = RemoteBackend(endpoint=url, api_key_env="IOC2REGEX_TEST_KEY")
        monkeypatch.delenv("IOC2REGEX_TEST_KEY", raising=False)
        backend.propose(path_annotation, "prompt")
        monkeypatch.setenv("IOC2REGEX_TEST_KEY", "")
        backend.propose(path_annotation, "prompt")
        monkeypatch.setenv("IOC2REGEX_TEST_KEY", "s3cret")
        backend.propose(path_annotation, "prompt")
        assert [h["Authorization"] for _, h, _ in loopback.received] == [
            None, None, "Bearer s3cret"
        ]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("(?i).*Users.*", "remote backend failure: Expecting value"),
            ("", "remote backend failure: Expecting value"),
            ("\xff", "remote backend failure"),
            ('["(?i).*Users.*"]', "not a JSON object"),
            ('"(?i).*Users.*"', "not a JSON object"),
            ("{}", "returned no pattern"),
            ('{"pattern": ""}', "returned no pattern"),
            ('{"pattern": null}', "returned no pattern"),
            ('{"pattern": ["x"]}', "returned no pattern"),
        ],
    )
    def test_malformed_reply_is_backend_error(self, path_annotation, loopback, body, message):
        backend = RemoteBackend(endpoint=loopback(fixed_reply(body)))
        with pytest.raises(BackendError, match=re.escape(message)):
            backend.propose(path_annotation, "prompt")

    def test_non_object_reply_is_backend_error(self, path_annotation, loopback):
        backend = RemoteBackend(endpoint=loopback(fixed_reply('["(?i).*Users.*"]')))
        pattern, trace = generate(IndicatorMemo(path_annotation), backend, restart_cap=2)
        assert pattern is None
        assert [a.verdict for a in trace.attempts] == ["error", "error"]
        assert "not a JSON object" in trace.attempts[0].diagnostic
        assert trace.restarts == 1

    def test_whitespace_reply_is_an_empty_pattern(self, path_annotation, loopback):
        backend = RemoteBackend(endpoint=loopback(fixed_reply('{"pattern": " \\n"}')))
        pattern, trace = single_shot(IndicatorMemo(path_annotation), backend)
        assert pattern is None
        assert [(a.verdict, a.diagnostic) for a in trace.attempts] == [
            ("error", "backend error: empty pattern")
        ]

    @pytest.mark.parametrize("status", [400, 404, 500, 503])
    def test_http_error_status_is_backend_error(self, path_annotation, loopback, status):
        backend = RemoteBackend(endpoint=loopback(fixed_reply('{"pattern": "x"}', status)))
        with pytest.raises(BackendError, match=rf"remote backend failure: .*\b{status}\b"):
            backend.propose(path_annotation, "prompt")

    def test_redirected_post_is_backend_error(self, path_annotation, loopback):
        # the POST is not sent again to the redirect's target
        def redirect(handler):
            handler.send_response(307)
            handler.send_header("Location", "/v1")
            handler.send_header("Content-Length", "0")
            handler.end_headers()

        backend = RemoteBackend(endpoint=loopback(redirect))
        with pytest.raises(BackendError, match="HTTP Error 307"):
            backend.propose(path_annotation, "prompt")
        assert len(loopback.received) == 1

    def test_reply_body_capped(self, path_annotation, loopback):
        reply = b'{"pattern": "x"}'
        pad = generation.REMOTE_REPLY_CAP - len(reply)
        at_cap = RemoteBackend(endpoint=loopback(fixed_reply(reply + b" " * pad)))
        assert at_cap.propose(path_annotation, "prompt") == "x"
        # one byte more is refused, though it is a good reply
        over_cap = RemoteBackend(endpoint=loopback(fixed_reply(reply + b" " * (pad + 1))))
        with pytest.raises(BackendError, match="reply body over 65536 bytes"):
            over_cap.propose(path_annotation, "prompt")
        big = RemoteBackend(endpoint=loopback(fixed_reply(b" " * 2**20 + reply)))
        with pytest.raises(BackendError, match="reply body over 65536 bytes"):
            big.propose(path_annotation, "prompt")

    @pytest.mark.parametrize("reply", [header_trickle, body_trickle], ids=["headers", "body"])
    def test_one_deadline_per_call(self, path_annotation, loopback, reply):
        # each byte comes well within the timeout, but the reply takes 6 s
        backend = RemoteBackend(endpoint=loopback(reply), timeout=0.5)
        start = time.monotonic()
        with pytest.raises(BackendError, match="no complete reply within 0.5 s"):
            backend.propose(path_annotation, "prompt")
        assert time.monotonic() - start < 1.0

    def test_non_http_endpoint_is_backend_error(self, path_annotation, tmp_path):
        reply = tmp_path / "reply.json"
        reply.write_text('{"pattern": "x"}')
        backend = RemoteBackend(endpoint=reply.as_uri())
        with pytest.raises(BackendError, match="remote backend failure"):
            backend.propose(path_annotation, "prompt")

    def test_environment_proxy_is_used(self, path_annotation, loopback, monkeypatch):
        proxy = loopback(fixed_reply('{"pattern": "x"}'))
        monkeypatch.setenv("http_proxy", proxy.removesuffix("/v1"))
        # a loopback address with nothing behind it: only the proxy answers
        backend = RemoteBackend(endpoint="http://127.0.0.2:9/v1")
        assert backend.propose(path_annotation, "prompt") == "x"
        [(line, _, body)] = loopback.received
        assert line == "POST http://127.0.0.2:9/v1 HTTP/1.1"
        assert body == REMOTE_REQUEST
