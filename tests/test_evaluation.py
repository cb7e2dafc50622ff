import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ioc2regex
from ioc2regex import dialect
from ioc2regex.evaluation import (
    SEPARATOR,
    EvaluationReport,
    GroundTruthString,
    TruthSet,
    UndefinedMetricError,
    evaluate_by_dataset,
    fpr,
    hit_rate,
    levenshtein,
    load_truths,
    make_truth,
    mean_fpr,
    score_distribution,
    similarity,
    structural_similarity,
)
from ioc2regex.inputs import ConfigError
from ioc2regex.normalize import IocKind

from oracles import reference_levenshtein, reference_matches, reference_prefilter
from test_generation import (
    ADVERSARIAL_PATH,
    ADVERSARIAL_PATTERN,
    CHAIN_PATTERN,
    CHAIN_TEXT,
    hard_timeout,
)


def truth(text, kind, groups, dataset="ds", *, store):
    return make_truth(
        {"text": text, "kind": kind, "capture_groups": groups, "dataset_id": dataset},
        store,
    )


@pytest.fixture
def certutil_truths(store):
    return [
        truth(r"c:\windows\system32\pscp.exe", "file_path", ["windows", "system32"], store=store),
        truth(r"c:\users\pam\desktop\rcs.3aka3.doc", "file_path", ["users", "user", "desktop"], store=store),
        truth(r"c:\windows\system32\certutil.exe", "file_path", ["windows", "system32"], store=store),
    ]


def hits(patterns, truths):
    return hit_rate([fpr(p, (), truths).matched_indices for p in patterns], truths)


class TestHitRate:
    def test_every_truth_matched(self, store):
        truths = [
            truth(r"c:\windows\temp\a.exe", "file_path", ["windows", "temp"], store=store),
            truth(r"c:\windows\temp\b.exe", "file_path", ["windows", "temp"], store=store),
        ]
        res = hits([r"(?i).*windows\\temp\\.*"], truths)
        assert res.rate == 1.0
        assert res.matched_indices == {0, 1}

    def test_unmatched_breakdown_by_kind(self, store):
        truths = [
            truth(r"c:\windows\temp\a.exe", "file_path", ["windows", "temp"], store=store),
            truth(r"HKCU\Software\Classes", "registry_key", ["hkcu", "software", "classes"], store=store),
            truth("cmd /c ping", "command_line", ["cmd", "/c"], store=store),
        ]
        res = hits([r"(?i).*windows\\temp\\.*"], truths)
        assert res.rate == pytest.approx(1 / 3)
        assert res.unmatched_by_kind == {
            "file_path": 0,
            "registry_key": 1,
            "command_line": 1,
        }

    def test_empty_truths_error(self):
        with pytest.raises(UndefinedMetricError):
            hit_rate([], [])

    def test_monotone_in_regexes(self, store, certutil_truths):
        one = hits([r"(?i).*windows\\system32\\.*"], certutil_truths)
        two = hits(
            [r"(?i).*windows\\system32\\.*", r"(?i).*desktop.*"], certutil_truths
        )
        assert two.rate >= one.rate
        assert one.matched_indices <= two.matched_indices


class TestFpr:
    def test_certutil_worked_example(self, certutil_truths):
        # broad regex from the certutil IOC: matches all three strings
        res = fpr(r"(?i)c:\\.*\.\w+", ["windows", "system32"], certutil_truths)
        assert len(res.matched_indices) == 3
        assert res.false_positive_indices == [1]  # only the rcs document differs
        assert res.value == pytest.approx(1 / 3)

    def test_same_groups_not_fp(self, certutil_truths):
        res = fpr(
            r"(?i).*windows\\system32\\.*", ["windows", "system32"], certutil_truths
        )
        assert res.value == 0.0
        assert len(res.matched_indices) == 2

    def test_quarter(self, store):
        truths = [
            truth(rf"c:\windows\temp\{name}.exe", "file_path", ["windows", "temp"], store=store)
            for name in "abc"
        ] + [truth(r"c:\windows\other\d.exe", "file_path", ["windows"], store=store)]
        res = fpr(r"(?i).*windows\\.*", ["windows", "temp"], truths)
        assert res.value == 0.25

    def test_no_match_is_absent(self, certutil_truths):
        res = fpr("zzznope", ["windows"], certutil_truths)
        assert res.value is None

    def test_bounds(self, certutil_truths):
        for pattern, groups in [
            (r"(?i)c:\\.*", ["windows", "system32"]),
            (r"(?i).*desktop.*", ["nothing"]),
        ]:
            value = fpr(pattern, groups, certutil_truths).value
            assert value is None or 0.0 <= value <= 1.0


def raw_truth(text, groups=()):
    """A truth matched on its text as given, with no normalization."""
    return GroundTruthString(text, IocKind.OTHER, frozenset(groups), "ds", normalized=text)


# Letters re.IGNORECASE matches to each other: beside the ASCII pairs, dotless
# i, dotted capital I, long s, the Kelvin sign and sharp s, which str.lower()
# does not map to their ASCII partners.
FOLD_GROUPS = ("iIıİ", "sSſ", "kK\u212a", "ß\u1e9e")
TRICKY = "ıİſ\u212aß"
LITERAL_CHARS = "aiksKIS" + TRICKY


def spellings(ch: str) -> str:
    return next((g for g in FOLD_GROUPS if ch in g), ch + ch.swapcase())


@st.composite
def dialect_patterns(draw):
    run = st.text(LITERAL_CHARS, min_size=1, max_size=3)
    element = st.one_of(
        run,  # a required run
        run.map(lambda r: rf"\\{r}\."),  # escapes join the run
        run.map(lambda r: f"(?:{r})?"),  # optional
        st.tuples(run, run).map(lambda rs: f"(?:{rs[0]}|{rs[1]})"),  # alternation
        st.tuples(run, st.sampled_from(["+", "*", "?", "{1,3}", "{2}"])).map(
            lambda rq: rq[0] + rq[1]
        ),  # a quantified literal (its last character)
        run.map(lambda r: f"({r})+"),  # a repeated group: still required
        st.sampled_from([".*", ".", "[a-k]+", r"\w"]),
    )
    body = "".join(draw(st.lists(element, min_size=1, max_size=4)))
    if draw(st.booleans()):
        body += "|" + draw(run)
    return draw(st.sampled_from(["", "(?i)"])) + body


def texts_for(pattern: str):
    """Random texts, with the haystack separator among their characters,
    and respellings of the pattern's letters (case variants, dropped
    letters) that come close to matching it."""
    letters = [c for c in pattern.removeprefix("(?i)") if c.isalpha() or c == "\\"]
    respelled = st.tuples(*(st.sampled_from([*spellings(c), ""]) for c in letters))
    return st.one_of(
        st.text("aiksKIS\\.xz\n" + SEPARATOR + TRICKY, max_size=12),
        respelled.map("".join),
    )


PATTERN_AND_TEXTS = dialect_patterns().flatmap(
    lambda p: st.tuples(st.just(p), st.lists(texts_for(p), min_size=1, max_size=8))
)
# (pattern, truth texts) at the edges of the one-haystack prefilter
HAYSTACK_EDGES = [
    ("bc", ["ab", "cd", "xbc"]),  # in "ab" and "cd" joined; only the last holds it
    (f"(?i)b{SEPARATOR}c", ["ab", "cd", f"b{SEPARATOR}C"]),  # across the separator
    (f"a{SEPARATOR}", [SEPARATOR, f"a{SEPARATOR}", "a", "ba"]),  # separator last
    (f"{SEPARATOR}.*x", [f"{SEPARATOR}{SEPARATOR}x", "x", SEPARATOR]),
    ("(?i)ab.*c", ["abxABc", "c", "ab ab ab", "xxab"]),  # several times in one truth
    ("(?i)ab.*c", ["ABABABAB", "abab c"]),  # overlapping occurrences
    ("xyz", ["xy", "a", "bxyz"]),  # at the very end of the last truth
    ("(?i)xyz", ["z", "aXYZ"]),
    ("(?i)a.*b", ["", "ab", "", ""]),  # empty truth texts
    ("a?", ["", ""]),  # no needle: every truth is a candidate
    ("a", []),  # no truth
    ("(?i)a", []),
    ("(?i)kab", ["\u212aab", "KAB", "\u0131\u00df", "kab", "ab\u017f"]),  # non-ASCII
    ("(?i)s.*ab", ["\u017fab", "S ab", "x", "\u017f", "sab\u0130"]),
]


def haystack_edges(**others):
    """Every ``HAYSTACK_EDGES`` case as an explicit example of a property."""
    def apply(test):
        for case in HAYSTACK_EDGES:
            test = example(case=case, **others)(test)
        return test
    return apply


class TestMatchRows:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(case=PATTERN_AND_TEXTS, groups=st.lists(st.frozensets(st.sampled_from("ab"))))
    # the prefilter compares a case-sensitive pattern's runs exactly
    @example(case=("Users", ["users", "xUsers"]), groups=[])
    # non-ASCII runs included, against non-ASCII truths too
    @example(case=("k\u0131", ["k\u0131", "K\u0131", "k\u0130", "kI"]), groups=[])
    @haystack_edges(groups=[])
    def test_rows_equal_plain_search(self, case, groups):
        pattern, bodies = case
        truths = [
            raw_truth(text, groups[i] if i < len(groups) else ())
            for i, text in enumerate(bodies)
        ]
        source = ["a"]
        expected = reference_matches(pattern, truths)
        res = fpr(pattern, source, truths)
        assert res.matched_indices == expected
        assert res.false_positive_indices == [
            i for i in expected if truths[i].capture_groups != frozenset(source)
        ]

    @pytest.mark.parametrize(
        "pattern, text",
        [
            (r"(?i).*windows.*", "C:\\w\u0131ndows\\x"),  # dotless i
            (r"(?i).*start.*", "C:\\\u017ftart"),  # long s
            (r"(?i)kill", "\u212aill"),  # Kelvin sign
            ("(?i)\u0130x", "ix"),  # dotted capital I, a non-ASCII run
        ],
    )
    def test_case_insensitive_matches_beyond_str_lower(self, pattern, text):
        assert fpr(pattern, [], [raw_truth(text)]).matched_indices == [0]

    @pytest.mark.parametrize(
        "pattern, text",
        [(".*k", "x\nk"), ("(?m).*?k$", "xa\n \nxk"), ("(?s).+k", "x\nk")],
    )
    def test_match_after_a_line_break(self, pattern, text):
        assert fpr(pattern, [], [raw_truth(text)]).matched_indices == [0]

    def test_leading_wildcard_miss_past_the_prefilter_is_fast(self):
        truth = raw_truth(ADVERSARIAL_PATH)  # holds both required runs, \ and .exe
        with hard_timeout(0.5):
            assert fpr(ADVERSARIAL_PATTERN, [], [truth]).matched_indices == []

    def test_find_chain_miss_past_the_prefilter_is_fast(self):
        truth = raw_truth(CHAIN_TEXT)  # holds -enc, -nop and -w, out of order
        with hard_timeout(0.5):
            assert fpr(CHAIN_PATTERN, [], [truth]).matched_indices == []

    def test_required_literal_missing_means_no_match(self):
        truths = [raw_truth("abc"), raw_truth("ABC"), raw_truth("xbc")]
        assert fpr("a.c", [], truths).matched_indices == [0]
        assert fpr("(?i)a.c", [], truths).matched_indices == [0, 1]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(case=PATTERN_AND_TEXTS)
    @haystack_edges()
    def test_matches_sees_exactly_the_prefiltered_truths(self, case):
        # a looser prefilter would keep the rows right and cost more searches
        pattern, bodies = case
        truths = [raw_truth(text) for text in bodies]
        searched = []
        matches = dialect.Analysis.matches

        def recording(analysis, text):
            searched.append(text)
            return matches(analysis, text)

        with mock.patch.object(dialect.Analysis, "matches", recording):
            fpr(pattern, [], truths)
        assert searched == [bodies[i] for i in reference_prefilter(pattern, truths)]

    def test_one_truth_set_serves_every_pattern(self):
        bodies = ["abc", "ABC", "\u0131bc", "", "xabcx", "b"]
        truths = [raw_truth(text) for text in bodies]
        shared = TruthSet(truths)
        for pattern in ["abc", "(?i)abc", "(?i)b", "b", "x?", "(?i).*c$"]:
            assert fpr(pattern, [], shared).matched_indices == reference_matches(
                pattern, truths
            ), pattern

    def test_case_sensitive_prefilter_compares_runs_exactly(self, monkeypatch):
        # a truth that differs only in case, or is not ASCII, is not searched
        searched = []
        monkeypatch.setattr(dialect.Analysis, "matches", lambda self, text: searched.append(text))
        truths = [raw_truth("users\\x"), raw_truth("Users\\xé"), raw_truth("USERSé")]
        fpr("Users[\\\\/]", [], truths)
        assert searched == ["Users\\xé"]


class TestMeanFpr:
    def test_zeros(self):
        assert mean_fpr([0.0, 0.0]) == 0.0

    def test_mean(self):
        assert mean_fpr([0.25, 0.05]) == pytest.approx(0.15)

    def test_empty_error(self):
        with pytest.raises(UndefinedMetricError):
            mean_fpr([])

    def test_within_min_max(self):
        values = [0.2, 0.4, 0.9]
        assert min(values) <= mean_fpr(values) <= max(values)

    def test_summed_left_to_right_on_every_python(self):
        # the builtin sum gives 0.1 here on Python 3.12 and later
        assert mean_fpr([0.1] * 10) == 0.09999999999999999
        assert score_distribution([0.1] * 10).mean == 0.09999999999999999


class TestSimilarity:
    def test_identical(self):
        assert similarity("abcdef", "abcdef") == 1.0

    def test_one_edit(self):
        assert abs(similarity("abc", "abd") - 2 / 3) <= 1e-9

    def test_disjoint_equal_length(self):
        assert similarity("aaaa", "bbbb") == 0.0

    def test_symmetric(self):
        pairs = [("abc", "abcd"), ("Users", "user"), ("(?i).*x", "x")]
        for a, b in pairs:
            assert similarity(a, b) == similarity(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            similarity("", "x")

    def test_levenshtein_basics(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("flaw", "lawn") == 2

    def test_levenshtein_equals_reference_dp(self):
        rng = random.Random(0)
        pairs = [("", ""), ("", "x" * 70), ("y" * 130, ""), ("a" * 65, "a" * 64)]
        for _ in range(400):
            sizes = [rng.choice([0, 1, 5, 63, 64, 65, 150]) for _ in "ab"]
            pairs.append(tuple("".join(rng.choice("abcı") for _ in range(n)) for n in sizes))
        for a, b in pairs:
            assert levenshtein(a, b) == reference_levenshtein(a, b), (a, b)


class TestStructuralSimilarity:
    def test_identical_patterns(self):
        assert structural_similarity("(a)+", "(a)+") == 1.0

    def test_scale_invariance(self):
        p = r"(ab)+\d[xy]*"
        assert structural_similarity(p, p * 2) == pytest.approx(1.0)

    def test_hand_computed_half(self):
        assert abs(structural_similarity("(a)+", "[b]*") - 0.5) <= 1e-9

    def test_zero_vector_gives_zero(self):
        assert structural_similarity("abc", "(x)+") == 0.0
        assert structural_similarity("abc", "abc") == 0.0

    def test_sums_run_over_ints(self):
        # so they are exact, on every Python
        for pattern in ("(a)+", r"(?i).*Users\\[^\\]+\\x\.exe.*", "[b]*|c?"):
            assert all(type(x) is int for x in dialect.feature_vector(pattern))


class TestScoreDistribution:
    def test_odd_run(self):
        stats = score_distribution([2, 3, 4, 5, 6])
        assert stats.median == 4
        assert stats.mean == 4
        assert stats.minimum == 2 and stats.maximum == 6

    def test_single_element(self):
        stats = score_distribution([7])
        assert (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum) == (
            7, 7, 7, 7, 7,
        )
        assert stats.mean == 7

    def test_twenty_values_match_reference_quantiles(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4]
        stats = score_distribution(values)
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert stats.q1 == pytest.approx(q1)
        assert stats.median == pytest.approx(median)
        assert stats.q3 == pytest.approx(q3)
        assert stats.mean == pytest.approx(statistics.fmean(values))

    def test_empty_error(self):
        with pytest.raises(UndefinedMetricError):
            score_distribution([])


class TestGroundTruthLoading:
    def test_load_and_normalize(self, store, tmp_path):
        f = tmp_path / "truths.json"
        f.write_text(
            json.dumps(
                [
                    {
                        "text": r"%TEMP%\evil.exe",
                        "kind": "file_path",
                        "capture_groups": ["users", "user", "appdata", "local", "temp"],
                        "dataset_id": "d1",
                    }
                ]
            )
        )
        (loaded,) = load_truths(f, store)
        assert loaded.normalized == r"C:\Users\user\AppData\Local\Temp\evil.exe"
        assert "temp" in loaded.capture_groups

    def test_bad_kind_rejected(self, store):
        with pytest.raises(ConfigError):
            truth("x", "no_such_kind", [], store=store)

    def test_group_missing_from_text_rejected(self, store):
        with pytest.raises(ConfigError, match="does not appear"):
            truth(r"c:\windows\a.exe", "file_path", ["system32"], store=store)

    def test_first_missing_group_named_under_any_hash_seed(self):
        # a set of the groups would be iterated in an order PYTHONHASHSEED picks
        code = (
            "from ioc2regex import default_store\n"
            "from ioc2regex.evaluation import make_truth\n"
            "make_truth({'text': 'x.exe', 'kind': 'other',"
            " 'capture_groups': ['alpha', 'beta', 'gamma']}, default_store())\n"
        )
        src = str(Path(ioc2regex.__file__).parents[1])
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert "capture group 'alpha' does not appear" in run.stderr, (seed, run.stderr)

    def test_non_string_dataset_id_rejected(self, store, tmp_path):
        entry = {"text": r"c:\windows\a.exe", "kind": "file_path",
                 "capture_groups": ["windows"]}
        f = tmp_path / "truths.json"
        f.write_text(json.dumps([{**entry, "dataset_id": "a"},
                                 {**entry, "dataset_id": 1}]))
        with pytest.raises(
            ConfigError, match=r"truths\.json\[1\]: 'dataset_id' must be a string"
        ):
            load_truths(f, store)

    def test_groups_checked_after_normalization(self, store):
        # %TEMP% expands to ...AppData\Local\Temp, so "temp" does appear
        t = truth(r"%TEMP%\x.exe", "file_path", ["temp"], store=store)
        assert "temp" in t.capture_groups


class TestEvaluateProducts:
    def make_products(self):
        return [
            {
                "ioc_id": "p1",
                "pattern": r"(?i).*windows\\system32\\.*",
                "capture_groups": ["windows", "system32"],
                "normalized": r"C:\Windows\System32\certutil.exe",
                "score": 2,
            },
            {
                "ioc_id": "p2",
                "pattern": r"zzz-never-matches",
                "capture_groups": ["users"],
                "normalized": r"C:\Users\x",
                "score": 1,
            },
        ]

    def test_report_shape(self, store, certutil_truths):
        [report] = evaluate_by_dataset(self.make_products(), certutil_truths)
        assert isinstance(report, EvaluationReport)
        assert report.total == 3
        assert report.matched == 2
        assert report.hit_rate == pytest.approx(2 / 3)
        assert dict(report.per_regex_fpr) == {"p1": 0.0, "p2": None}
        assert report.mean_fpr == 0.0
        assert report.score_stats.mean == 2  # only p1 matched anything
        assert report.similarity_stats is not None

    def test_disjoint_products_and_truths(self, store, certutil_truths):
        products = [
            {
                "ioc_id": "p9",
                "pattern": "qqqq",
                "capture_groups": ["x"],
                "normalized": "qqqq",
                "score": 0,
            }
        ]
        [report] = evaluate_by_dataset(products, certutil_truths)
        assert report.hit_rate == 0.0
        assert report.mean_fpr is None
        assert report.score_stats is None
