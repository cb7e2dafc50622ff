import re
import sys
import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ioc2regex import dialect
from ioc2regex.dialect import (
    DialectError,
    LiteralRun,
    Token,
    analyze,
    compile_pattern,
    feature_vector,
    structure,
    tokenize,
    wildcard_units,
)
from ioc2regex.generation import debug_check
from oracles import reference_debug_check, reference_structure, reference_tokenize
from test_generation import hard_timeout


def kinds(pattern):
    return [t.kind for t in tokenize(pattern)]


def runs_of(pattern):
    return list(structure(tokenize(pattern))[0])


class TestTokenize:
    def test_template_shape(self):
        toks = tokenize(r"(?i).*Users\\Public\\.*")
        assert toks[0] == Token(dialect.FLAGS, "(?i)", 0)
        assert [t.kind for t in toks] == [
            "flags", "dot", "quant", "literal", "escape", "literal", "escape",
            "dot", "quant",
        ]

    def test_literal_split_before_quantifier(self):
        toks = tokenize("abc*")
        assert [(t.kind, t.text) for t in toks] == [
            ("literal", "ab"), ("literal", "c"), ("quant", "*"),
        ]

    def test_brace_quantifier(self):
        toks = tokenize("a{2,5}?b{3}")
        assert [(t.kind, t.text) for t in toks] == [
            ("literal", "a"), ("quant", "{2,5}?"), ("literal", "b"), ("quant", "{3}"),
        ]

    def test_brace_not_quantifier_is_literal(self):
        assert kinds("a{x}") == ["literal"]

    def test_class_with_escapes(self):
        toks = tokenize(r"[a\]^-]+")
        assert [(t.kind, t.text) for t in toks] == [
            ("class", r"[a\]^-]"), ("quant", "+"),
        ]

    def test_class_escapes(self):
        assert kinds(r"\w\S\d") == ["class_escape"] * 3

    def test_group_flavours(self):
        assert kinds("(a)(?:b)") == [
            "group_open", "literal", "group_close",
            "group_open", "literal", "group_close",
        ]

    def test_anchors_and_alternation(self):
        assert kinds("^a|b$") == ["anchor", "literal", "alt", "literal", "anchor"]

    def test_unterminated_class(self):
        with pytest.raises(DialectError) as err:
            tokenize("[abc")
        assert err.value.offset == 0

    def test_dangling_backslash(self):
        with pytest.raises(DialectError):
            tokenize("abc\\")

    def test_unsupported_escape(self):
        with pytest.raises(DialectError, match="unsupported escape"):
            tokenize(r"\q")

    def test_mid_pattern_flags_rejected(self):
        with pytest.raises(DialectError):
            tokenize(r"ab(?i)cd")

    def test_named_group_rejected(self):
        with pytest.raises(DialectError, match="group extension"):
            tokenize(r"(?P<x>a)")

    def test_verbose_flag_rejected(self):
        # under (?x) the space and '#' in "a b#c" would not be literal
        with pytest.raises(DialectError, match="group extension"):
            tokenize("(?x)a b#c")
        assert kinds("(?ims)a") == ["flags", "literal"]

    @pytest.mark.parametrize("pattern", ["ab{,2}c", "a{,}"])
    def test_brace_quantifier_without_lower_bound_rejected(self, pattern):
        # Python reads {,n} as a quantifier, other engines as literal text
        with pytest.raises(DialectError, match="lower bound") as err:
            tokenize(pattern)
        assert err.value.offset == pattern.index("{")

    @pytest.mark.parametrize(
        "pattern", ["a{\u0663}", "a{\u0661,\u0662}c", "{,\u0663}", ".{\u0663}"]
    )
    def test_brace_bounds_are_ascii_digits(self, pattern):
        # re, like PCRE, reads only 0-9 as a bound; other digits are text
        assert "quant" not in kinds(pattern)
        assert re.fullmatch(pattern, pattern)


class TestValidate:
    def test_unbalanced_open(self):
        with pytest.raises(DialectError, match="unbalanced"):
            structure(tokenize("(unclosed"))

    def test_unbalanced_close(self):
        with pytest.raises(DialectError, match="unbalanced"):
            structure(tokenize("a)b"))

    def test_leading_quantifier(self):
        with pytest.raises(DialectError, match="nothing to repeat"):
            structure(tokenize("*a"))

    def test_double_quantifier(self):
        with pytest.raises(DialectError, match="nothing to repeat"):
            structure(tokenize("a**"))

    def test_quantified_group_ok(self):
        structure(tokenize("(ab)+(?:cd)?"))

    @pytest.mark.parametrize(
        "pattern",
        [r"(a+)+$", r"(.*a)*b", r"(?:\w+\s?)+$", r"(a*?){2,}", r"((ab)+c){2}"],
    )
    def test_repeated_group_with_repeating_quantifier_rejected(self, pattern):
        with pytest.raises(DialectError, match="nested repetition"):
            structure(tokenize(pattern))

    @pytest.mark.parametrize(
        "pattern", [r"(a+)?", r"(a+){0,1}", r"(a?)+", r"(a{1,1})*", r"(a+)b+"]
    )
    def test_single_level_repetition_accepted(self, pattern):
        structure(tokenize(pattern))

    @pytest.mark.parametrize(
        "pattern", [r"(?:a|a)+$", r"(a|ab)*c", r"(?:ab|cd){2,}", r"(?:x(?:a|b))*?"]
    )
    def test_repeated_group_with_alternation_rejected(self, pattern):
        with pytest.raises(DialectError, match="alternation inside a repeated group"):
            analyze(pattern)

    @pytest.mark.parametrize(
        "pattern",
        [r"(?:K|zz)", r"(?:ab|cd)?", r"K|x", r"(ab)+(?:cd)?", r"(?:a|b)(c)+", r"(?:ab|cd){1}"],
    )
    def test_alternation_outside_repetition_accepted(self, pattern):
        analyze(pattern)

    @pytest.mark.parametrize(
        "pattern",
        [
            "a{4294967296}", "a{65536}", "a{1,65536}", "a{65536,}", "x(?:ab){2,70000}?",
            pytest.param("a{" + "0" * 5000 + "1}", id="a{0 x 5000, 1}"),
        ],
    )
    def test_brace_bound_above_limit_rejected(self, pattern):
        # re raises OverflowError from 2**32 - 1 on, and int() ValueError
        # for a bound of over 4,300 digits
        with pytest.raises(DialectError, match="repetition bound above 65535") as err:
            analyze(pattern)
        assert err.value.offset == pattern.index("{")

    @pytest.mark.parametrize("pattern", ["a{65535}", "a{0,65535}", "a{65535,}"])
    def test_brace_bound_at_limit_accepted(self, pattern):
        analyze(pattern)

    @pytest.mark.parametrize(
        "pattern, message, offset",
        [
            ("a{3,1}", "min repeat greater than max repeat", 2),
            ("[z-a]", "bad character range z-a", 1),
        ],
    )
    def test_rejected_by_re_compile(self, pattern, message, offset):
        structure(tokenize(pattern))
        with pytest.raises(DialectError) as err:
            analyze(pattern)
        assert (err.value.message, err.value.offset) == (message, offset)

    @pytest.mark.parametrize(
        "pattern, offset",
        [
            ("[[:alpha:]]", 1), ("x[[]", 2), ("[a--b]", 2), ("[a&&b]", 2), ("[a||b]", 2),
            ("[a~~b]", 2), ("[+--]", 2), (r"[\w--]", 3), ("[a-c--x]", 4), ("[^a&&]", 3),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_set_operation_in_class_rejected(self, pattern, offset):
        # re warns of these with a FutureWarning, an error under -W error
        with pytest.raises(DialectError, match="nested set|set operation") as err:
            structure(tokenize(pattern))
        assert err.value.offset == offset
        result = debug_check(pattern, "a")
        assert not result.ok and f"offset {offset}:" in result.syntax_error

    @pytest.mark.parametrize(
        "pattern", ["[^[:alpha:]]", "[--a]", "[a-]", "[&&]", "[a&]", r"[\[:alpha:]]", r"[a\--]"]
    )
    @pytest.mark.filterwarnings("error")
    def test_class_without_set_operation_accepted(self, pattern):
        analyze(pattern)

    @settings(derandomize=True, deadline=None, max_examples=2000)
    @given(st.text(alphabet="a0-&~|[]^:\\w", max_size=8))
    @example("[:alpha:]")
    @example("a\\---")
    def test_class_rejected_exactly_when_re_rejects_or_warns(self, body):
        pattern = f"[{body}]"
        try:
            assume(dialect._parse_class(pattern, 0) == len(pattern))  # one class
        except DialectError:
            pass  # unterminated, for re too
        re.purge()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", FutureWarning)
                re.compile(pattern)
            re_rejects = False
        except (re.error, FutureWarning):
            re_rejects = True
        analyze.cache_clear()
        try:
            analyze(pattern)
            rejected = False
        except DialectError:
            rejected = True
        assert rejected == re_rejects

    def test_unbalanced_open_names_the_unclosed_group(self):
        with pytest.raises(DialectError) as err:
            structure(tokenize("(a(b)"))
        assert err.value.offset == 0

    def test_compile_pattern_matches_re(self):
        rx = compile_pattern(r"(?i).*Users\\Public.*")
        assert rx.search(r"c:\users\public\x") is not None


class TestLiteralRuns:
    def test_escapes_join_runs(self):
        runs = runs_of(r"Users\\Public")
        assert [r.text for r in runs] == ["Users\\Public"]

    def test_non_literals_break_runs(self):
        runs = runs_of(r"ab.cd(ef)gh")
        assert [r.text for r in runs] == ["ab", "cd", "ef", "gh"]

    def test_quantified_atom_excluded(self):
        runs = runs_of("abc*d")
        assert [r.text for r in runs] == ["ab", "d"]

    def test_plain_and_repeated_groups_required(self):
        runs = runs_of(r"ab(cd)(?:ef)+(?:gh){1,3}")
        assert runs == [
            LiteralRun("ab", True),
            LiteralRun("cd", True),
            LiteralRun("ef", True),
            LiteralRun("gh", True),
        ]

    @pytest.mark.parametrize(
        "quant", ["?", "??", "*", "*?", "{0,2}", "{0,}", "{0}"]
    )
    def test_zero_repeat_group_not_required(self, quant):
        assert runs_of("x(?:K)" + quant) == [
            LiteralRun("x", True),
            LiteralRun("K", False),
        ]

    def test_alternation_branch_not_required(self):
        runs = runs_of("x(?:K|zz)y")
        assert runs == [
            LiteralRun("x", True),
            LiteralRun("K", False),
            LiteralRun("zz", False),
            LiteralRun("y", True),
        ]

    def test_top_level_alternation_nothing_required(self):
        assert [r.required for r in runs_of("ab|cd")] == [False, False]

    def test_enclosing_group_decides(self):
        runs = runs_of("((?:K)+z)?w(a|(?:b))")
        assert runs == [
            LiteralRun("K", False),
            LiteralRun("z", False),
            LiteralRun("w", True),
            LiteralRun("a", False),
            LiteralRun("b", False),
        ]


# Token soup for the comparison with the three separate scans.
STRUCTURE_SOUP = [
    "a", "K", "zz", r"\\", r"\.", ".", r"\w", "[ab]", "(", "(?:", ")", "|",
    "*", "+", "?", "??", "*?", "{0,2}", "{2,}", "{3}", "^", "$",
]
GROUP_QUANTS = ["", "*", "+", "?", "??", "*?", "{0,2}", "{2,}", "{3}"]

# Soup tokens, stray brackets and quantifiers included, strung together and
# also wrapped in quantified groups, so that valid nesting is drawn often.
soup_patterns = st.recursive(
    st.sampled_from(STRUCTURE_SOUP),
    lambda inner: st.lists(inner, min_size=2, max_size=3).map("".join)
    | st.tuples(st.sampled_from(["(", "(?:"]), inner, st.sampled_from(GROUP_QUANTS)).map(
        lambda t: f"{t[0]}{t[1]}){t[2]}"
    ),
    max_leaves=12,
)


class TestStructure:
    """``analyze`` against a validator, a literal-run scan and a top-level
    ``|`` scan that each keep their own record of group nesting."""

    @staticmethod
    def outcome(pattern, decide):
        try:
            return decide(pattern)
        except DialectError as exc:
            return exc.message, exc.offset

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(prefix=st.sampled_from(["", "(?i).*"]), soup=soup_patterns)
    @example(prefix="", soup="(((?:a|K)))+")  # '|' three groups down
    @example(prefix="(?i).*", soup="(x(?:(zz|K)a))*?|K")
    @example(prefix="", soup="((?:K)+z)?w(a|(?:b))")
    def test_equals_reference_scans(self, prefix, soup):
        def analyzed(pattern):
            analysis = analyze(pattern)
            return list(analysis.runs), analysis.leading_wildcard

        def reference(pattern):
            outcome = reference_structure(tokenize(pattern))
            re.compile(pattern)
            return outcome

        pattern = prefix + soup
        assert self.outcome(pattern, analyzed) == self.outcome(pattern, reference)


class TestAnalyze:
    def test_holds_tokens_regex_and_runs(self):
        pattern = r"(?i).*Users\\(?:Public)?.*"
        analysis = analyze(pattern)
        assert analysis.tokens == tuple(tokenize(pattern))
        assert analysis.regex.pattern == pattern
        assert analysis.runs == (LiteralRun("Users\\", True), LiteralRun("Public", False))

    def test_cached(self):
        assert analyze("abc") is analyze("abc")
        assert compile_pattern("abc") is analyze("abc").regex

    def test_invalid_pattern_raises(self):
        with pytest.raises(DialectError, match="nested repetition"):
            analyze("(a+)+$")

    def test_invalid_pattern_tokenized_once(self, monkeypatch):
        pattern = "(?i).*(unclosed"
        calls = []
        tokenize_ = dialect.tokenize

        def counting(text):
            calls.append(text)
            return tokenize_(text)

        monkeypatch.setattr(dialect, "tokenize", counting)
        analyze.cache_clear()
        errors = []
        for _ in range(3):
            with pytest.raises(DialectError) as info:
                analyze(pattern)
            errors.append(info.value)
        assert calls == [pattern]
        assert len({id(e) for e in errors}) == 3  # a fresh error each time
        assert {(str(e), e.offset) for e in errors} == {
            ("syntax error at offset 6: unbalanced '('", 6)
        }

    def test_non_ascii_brace_bound_read_as_re_reads_it(self):
        pattern = "(?i).*Users\\\\x{\u0663}"
        analysis = analyze(pattern)
        assert analysis.runs == (LiteralRun("Users\\x{\u0663}", True),)
        assert analysis.needles == ()  # the one run is not ASCII
        for text in ("Users\\x{\u0663}", "Users\\xxx"):
            assert analysis.matches(text) is (re.search(pattern, text) is not None)
        assert analysis.matches("users\\X{\u0663}")


# Fragments of the tokenizer property: flags anywhere, group extensions,
# class edge cases, brace quantifiers and near-misses, escapes of "_", of
# non-ASCII letters and digits and of a line break, and a trailing "\".
TOKEN_FRAGMENTS = [
    "(?i)", "(?x)", "(?is)", "(?:", "(?P<", "(", ")", "[]", "[^]", "[^]]", "[\\",
    "[", "]", "{2,3}", "{2,}", "{,3}", "{,}", "{}", "{2", "{\u0663}", "{", "}",
    "\\_", "\\\u00e9", "\\\u00b2", "\\\n", "\\", "\\.", "\\w", "\\q", "\\7",
    ".", "*", "+", "?", "|", "^", "$", "a", "bc", "2", ",", "\u00e9", "\n", " ",
]
# The one place where tokenize differs from the reference: a brace whose
# bounds hold a non-ASCII digit, which the reference reads with \d as a
# quantifier and tokenize, like re, as literal text.
UNICODE_BRACE = re.compile(r"\{\d*(?:,\d*)?\}")
CODE_POINTS = range(sys.maxunicode + 1)


class TestTokenizeReference:
    """``tokenize`` against the character loop it replaced."""

    @settings(derandomize=True, deadline=None, max_examples=2000)
    @given(st.lists(st.sampled_from(TOKEN_FRAGMENTS), max_size=10).map("".join))
    @example("a{\u0663}b{2}")
    @example("[^]]{,}")
    def test_equals_reference(self, pattern):
        outcome = TestStructure.outcome
        if outcome(pattern, tokenize) != outcome(pattern, reference_tokenize):
            assert any(not m[0].isascii() for m in UNICODE_BRACE.finditer(pattern))

    def test_alnum_class_is_isalnum_at_every_code_point(self):
        # The escape alternative's premise: [^\W_] is str.isalnum.
        alnum = re.compile(r"[^\W_]")
        assert [
            hex(i) for i in CODE_POINTS if bool(alnum.match(chr(i))) is not chr(i).isalnum()
        ] == []

    @pytest.mark.parametrize("head, tail", [("\\", ""), ("[", "]"), ("a", "*"), ("a{", "}")])
    def test_every_code_point(self, head, tail):
        outcome = TestStructure.outcome
        bad = []
        for i in CODE_POINTS:
            c = chr(i)
            pattern = head + c + tail
            ours = outcome(pattern, tokenize)
            if UNICODE_BRACE.fullmatch(pattern, 1) and not c.isascii():
                expected = [Token(dialect.LITERAL, pattern, 0)]
                assert re.fullmatch(pattern, pattern)
            else:
                expected = outcome(pattern, reference_tokenize)
            if ours != expected:
                bad.append(hex(i))
        assert bad == []


# Leading constructs the offset-0 rule takes (unbounded, lazy or not) and
# ones it must leave to a full search (bounded, inside a group, none).
SEARCH_LEADS = [
    ".*", ".*?", ".+", ".+?", ".{2,}", ".{2,}?", ".{0,3}", "(?:.*)", "(.*)", "",
]
SEARCH_ATOMS = [
    "a", "b", "x", ".", "b?", "a+", "[ab]", "(a)", "(b+)", r"\s", "^", "$", ".*",
    "(?:a|b)",
]


class TestSearch:
    """The offset-0 rule where it acts: ``Analysis.matches`` against
    ``re.search``, and the debug diagnostic, which searches each pattern
    prefix by the rule, against a reference that searches every offset."""

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(
        flags=st.sampled_from(["", "(?i)", "(?s)", "(?m)", "(?is)", "(?ms)"]),
        lead=st.sampled_from(SEARCH_LEADS),
        atoms=st.lists(st.sampled_from(SEARCH_ATOMS), max_size=4),
        alternative=st.sampled_from(["", "|a", "|b$", "|^x"]),
        text=st.text("abxB \n", max_size=12),
    )
    @example(flags="(?m)", lead=".*?", atoms=["b", "$"], alternative="", text="xa\n \nxb")
    @example(flags="", lead=".{0,3}", atoms=["b"], alternative="", text="xxxxb")
    def test_equals_regex_search(self, flags, lead, atoms, alternative, text):
        pattern = flags + lead + "".join(atoms) + alternative
        try:
            analysis = analyze(pattern)
        except DialectError:
            assume(False)
        assert analysis.matches(text) == (re.search(pattern, text) is not None)
        assert debug_check(pattern, text) == reference_debug_check(pattern, text)

    @pytest.mark.parametrize(
        "pattern, text, at_offset_0",
        [
            (".*a", "xa", True),
            ("(?i).*?a", "xa", True),
            (".+a", "xa", True),
            (".{2,}a", "xxa", True),
            (".*(?:a|b)", "xa", True),
            (".{0,3}a", "xa", False),
            ("(?:.*)a", "xa", False),
            (".*a|b", "xa", False),
            ("a.*", "xa", False),
            (".*a", "x\na", False),
            ("(?s).*a", "x\na", True),
            ("(?m).*a$", "x\na", False),
        ],
    )
    def test_offset_0_conditions(self, pattern, text, at_offset_0):
        analysis = analyze(pattern)
        assert analysis._at_offset_0(text) is at_offset_0
        assert analysis.matches(text)
        assert debug_check(pattern, text).ok


# Atoms of find-chain patterns, and atoms that take a pattern out of the shape.
CHAIN_ATOMS = ["a", "k", "s", "i", "ab", "K", r"\.", ".*", ".*?"]
OTHER_ATOMS = [".", ".+", "a*", "[ks]", "(a)", "^", "$", "|", r"\s", "\u0131"]
# Letters (?i) matches beyond str.lower: dotless i, dotted capital I, long s,
# the Kelvin sign.
MATCH_TEXT = "aksiAKS.\n\u0131\u0130\u017f\u212a"
# Literal characters that stay literal in the dialect, and the characters an
# escape may take: ASCII punctuation, non-ASCII symbols, space, line break.
CHAIN_LITERALS = list("aZ09{},]#-%:/ ") + ["{1,", "{2", "\u20ac", "\u00e9", "\u0131"]
ESCAPABLE = st.characters(blacklist_categories=("L", "N", "Cs"))


class TestMatches:
    """``Analysis.matches`` against ``re.search``, and the find-chain shape."""

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(
        flags=st.sampled_from(["", "(?i)", "(?s)", "(?is)", "(?m)"]),
        atoms=st.one_of(
            st.lists(st.sampled_from(CHAIN_ATOMS), max_size=5),
            st.lists(st.sampled_from(CHAIN_ATOMS + OTHER_ATOMS), max_size=5),
        ),
        text=st.text(MATCH_TEXT, max_size=10),
    )
    @example(flags="(?i)", atoms=[".*", "k", ".*"], text="\u212a")
    @example(flags="(?i)", atoms=["s"], text="x\u017f")
    @example(flags="(?i)", atoms=[".*?", "i", ".*"], text="\u0131")
    @example(flags="", atoms=[".*", "a", ".*"], text="\na")
    @example(flags="", atoms=["a", ".*", "k"], text="a\nk")
    @example(flags="(?s)", atoms=[".*", "a", ".*?", "k"], text="a\nk")
    def test_equals_regex_search(self, flags, atoms, text):
        pattern = flags + "".join(atoms)
        try:
            analysis = analyze(pattern)
        except DialectError:
            assume(False)
        assert analysis.matches(text) == (re.search(pattern, text) is not None)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(
        flags=st.sampled_from(["", "(?i)", "(?s)", "(?ims)"]),
        atoms=st.lists(
            st.one_of(
                st.sampled_from(CHAIN_LITERALS + [".*", ".*?"]),
                ESCAPABLE.map(lambda c: "\\" + c),
            ),
            max_size=6,
        ),
    )
    def test_compile_free_acceptance_compiles(self, flags, atoms):
        pattern = flags + "".join(atoms)
        try:
            analysis = analyze(pattern)
        except DialectError:
            assume(False)
        if analysis.chain is not None:  # accepted without re.compile
            assert re.compile(pattern).pattern == pattern

    @pytest.mark.parametrize(
        "pattern, chain",
        [
            ("(?i).*-enc.*-nop.*-w.*", ("-enc", "-nop", "-w")),
            (r"(?i).*Users\\Public\\.*", ("users\\public\\",)),
            ("(?s).*?a.*B", ("a", "B")),
            ("ab", ("ab",)),
            ("(?i)", ()),
            ("(?i).*\u0131.*", None),  # (?i) and a non-ASCII run
            (".+a", None),
            ("a.", None),
            (".*a?", None),
            (".{0,}a", None),
            ("^.*a", None),
            (".*a|b", None),
            ("[a].*", None),
        ],
    )
    def test_chain_shape(self, pattern, chain):
        assert analyze(pattern).chain == chain

    def test_chain_decided_without_compiling(self):
        pattern = "(?i).*-enc.*-nop.*-w.*"
        analyze.cache_clear()
        analysis = analyze(pattern)
        assert not analysis.matches("-w " + "-enc x -nop y " * 800)
        assert analysis.matches("-ENC x -Nop y -W")
        assert "regex" not in vars(analysis)
        assert analysis.regex.pattern == pattern  # compiled on first use
        assert analysis.matches("-enc x -nop y -w\n")  # a line break: re decides

    def test_error_of_a_compiled_pattern_raised_by_analyze(self):
        analyze.cache_clear()
        with pytest.raises(DialectError, match="bad character range"):
            analyze("[z-a].*")


# Literal atoms of find-chain runs: CHAIN_ATOMS without the wildcards,
# CHAIN_LITERALS and an escaped backslash.
RUN_ATOMS = [a for a in CHAIN_ATOMS if a[0] != "."] + CHAIN_LITERALS + ["\\\\"]


@st.composite
def chain_cases(draw):
    """A find-chain pattern whose runs have three or more characters, and a
    text of the runs' own characters, whole runs and their prefixes (either
    case), a line break and ``ı``."""
    flags = draw(st.sampled_from(["", "(?i)", "(?s)", "(?is)"]))
    run = st.lists(st.sampled_from(RUN_ATOMS), min_size=3, max_size=5).map("".join)
    parts = draw(st.lists(st.one_of(run, st.sampled_from([".*", ".*?"])), max_size=5))
    pattern = flags + "".join(parts)
    try:
        analysis = analyze(pattern)
    except DialectError:
        assume(False)
    assume(analysis.chain)  # a chain with no runs matches every text
    runs = [r.text for r in analysis.runs]
    pieces = sorted(
        {c for r in runs for c in r}
        | {r[:k] for r in runs for k in range(2, len(r))}
        | {"\n", "\u0131"}
    )
    word = st.one_of(st.sampled_from(runs), st.sampled_from(pieces))
    words = draw(st.lists(word, max_size=8))
    return pattern, "".join(w.upper() if draw(st.booleans()) else w for w in words)


class TestExplainChain:
    """``Analysis.explain`` of a find-chain miss, by ``str.find`` per run and
    one ``re`` call, against the reference that searches every prefix."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(case=chain_cases())
    @example(case=("(?i).*abK.*:", "xxABk"))  # a "." after a run that ends the text
    @example(case=(".*abka", "a ab abk"))  # "ab" occurs only after the first "a"
    @example(case=("(?i).*abk.*ab:", "AB:abk"))  # "ab:" occurs only before "abk"
    @example(case=(".*ka-.*ab:", "ab ka- a"))  # "ab" too
    @example(case=(r".*ab\\k", "ab/k"))  # a failing escape
    @example(case=(r"(?s).*ab\.k", "ab\nk"))  # and another
    @example(case=("(?s).*?abc.*?k", "abc\nab"))  # lazy: the offset ends at "abc"
    @example(case=("abc.*k", "xxabcab"))  # no leading wildcard: offset by search
    @example(case=("(?i).*abc", ""))  # the empty text
    @example(case=("abc", ""))
    def test_equals_reference(self, case):
        pattern, text = case
        assert debug_check(pattern, text) == reference_debug_check(pattern, text)

    def test_one_re_call_for_a_deep_prefix(self, monkeypatch):
        pattern = r"(?i).*Users\\Public\\Documents\\Reports\\2024\\q4.*\.exe"
        text = r"C:\Users\Public\Documents\Reports\2024\Q4\summary.docx"
        ref = reference_debug_check(pattern, text)
        analysis = analyze(pattern)
        compile_ = dialect.re.compile
        calls = []
        monkeypatch.setattr(
            dialect.re, "compile", lambda *args: calls.append(args) or compile_(*args)
        )
        miss = analysis.explain(text)
        monkeypatch.undo()
        assert miss == (ref.matched_prefix, ref.target_offset, ref.failing_token)
        assert len(ref.matched_prefix) >= 40
        assert len(calls) <= 1

    def test_deep_first_run_in_a_long_text_is_fast(self):
        body = "".join(f"k{i:02d}" for i in range(20))  # 60 characters
        pattern = f"(?i).*{body}z.*"
        text = "x" * 5000 + body + "y" * 4940
        assert len(text) == 10_000
        with hard_timeout(0.5):
            res = debug_check(pattern, text)
        assert (res.matched_prefix, res.failing_token) == (f"(?i).*{body}", "z")
        assert res.target_offset == 5060


class TestWildcardUnits:
    def test_dot_and_quant_merge(self):
        units = wildcard_units(tokenize(".*a.+b."))
        assert [u[2] for u in units] == [".*", ".+", "."]

    def test_class_escape_units(self):
        units = wildcard_units(tokenize(r"\w+\S"))
        assert [u[2] for u in units] == [r"\w+", r"\S"]

    def test_quantified_class_counts(self):
        units = wildcard_units(tokenize("[ab]+[cd]"))
        assert [u[2] for u in units] == ["[ab]+"]


class TestFeatureVector:
    def test_hand_computed_pair(self):
        assert feature_vector("(a)+") == (1, 0, 0, 0, 1, 0, 0)
        assert feature_vector("[b]*") == (0, 1, 0, 0, 1, 0, 0)

    def test_counts_scale_with_concatenation(self):
        single = feature_vector(r"(a)|\.[b]^")
        double = feature_vector(r"(a)|\.[b]^" * 2)
        assert double == tuple(2 * x for x in single)
