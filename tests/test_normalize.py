import logging
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ioc2regex.capture import annotate
from ioc2regex.evaluation import make_truth
from ioc2regex.knowledge import EXECUTABLE_EXTENSIONS, NodeLabel
from ioc2regex.normalize import (
    BUNDLED,
    ClassificationError,
    IocKind,
    Tables,
    TokenizationError,
    classify,
    make_record,
    preprocess,
    segment,
)

from conftest import FIG1_SCHTASKS, FUZZ_WORDS, tiny_store
from oracles import (
    reference_classify,
    reference_make_record,
    reference_preprocess,
    reference_segment,
)


# The fuzz corpus's words, with blank and ``Registry`` heads and the kernel
# names for two roots besides.
PROPERTY_WORDS = (
    " ", "Registry", "MACHINE", "User", *(w for words in FUZZ_WORDS for w in words)
)


def _registry_head_without_root(raw: str) -> bool:
    """Whether the first component of ``raw`` that is not blank is
    ``registry``, and no root, abbreviation or kernel name of a root
    (``machine``, ``user``) follows the blank and ``registry`` heads:
    normalizing drops those heads, and what is left need not read as a
    registry key."""
    components = [c.strip().casefold() for c in re.split(r"[\\/]+", raw)]
    first = next((c for c in components if c), "")
    after = next((c for c in components if c not in ("", "registry")), "")
    return first == "registry" and after not in {*BUNDLED.markers, "machine", "user"}


class TestClassify:
    def test_registry_key(self, store):
        raw = r"HKCU\Software\Microsoft\Windows\CurrentVersion\Run"
        assert classify(raw, store) is IocKind.REGISTRY_KEY

    def test_registry_full_root(self, store):
        assert classify(r"HKEY_LOCAL_MACHINE\System", store) is IocKind.REGISTRY_KEY

    def test_file_path(self, store):
        assert classify(r"C:\Users\Public\11.bat", store) is IocKind.FILE_PATH

    def test_command_line(self, store):
        assert classify(FIG1_SCHTASKS, store) is IocKind.COMMAND_LINE

    def test_command_by_option_tokens_of_an_unknown_tool(self, store):
        assert classify("unknowntool /x /y target", store) is IocKind.COMMAND_LINE

    def test_command_by_store_known_first_token(self, store):
        # no option-style tokens at all; only the store identifies it
        assert classify("wevtutil cl System", store) is IocKind.COMMAND_LINE

    def test_parameter_first_token_is_no_command(self, store):
        # ``start`` names an ``sc`` and ``net`` parameter, not a command
        assert store.label_of("start") is NodeLabel.PARAMETER
        raw = r"Start Menu\Programs\Startup\evil.lnk"
        assert classify(raw, store) is IocKind.FILE_PATH

    def test_hash_is_other(self, store):
        assert classify("d41d8cd98f00b204e9800998ecf8427e", store) is IocKind.OTHER

    def test_relative_path_two_components(self, store):
        assert classify("Users/Public", store) is IocKind.FILE_PATH

    def test_env_var_path(self, store):
        assert classify(r"%TEMP%\payload.exe", store) is IocKind.FILE_PATH

    def test_blank_heads_are_read_past(self, store):
        record = make_record(r"\ \HKEY_USERS\x", store)
        assert (record.kind, record.normalized) == (IocKind.REGISTRY_KEY, r"HKU\x")
        assert classify(r"\ \ \Users\pam", store) is IocKind.FILE_PATH

    def test_empty_raises(self, store):
        with pytest.raises(ClassificationError):
            classify("   ", store)

    @given(st.text(min_size=1, max_size=80))
    @settings(max_examples=200)
    def test_total_and_deterministic(self, store, raw):
        try:
            first = classify(raw, store)
        except ClassificationError:
            assert not raw.strip()
            return
        assert first is classify(raw, store)
        assert isinstance(first, IocKind)


class TestPreprocess:
    def test_env_expansion(self, store):
        out = preprocess(r"%USERPROFILE%\a.dll", IocKind.FILE_PATH, store)
        assert out == r"C:\Users\user\a.dll"

    def test_unknown_env_var_left_verbatim(self, store, caplog):
        with caplog.at_level(logging.WARNING, logger="ioc2regex.normalize"):
            out = preprocess(r"%NOSUCHVAR%\x.exe", IocKind.FILE_PATH, store)
        assert out == r"%NOSUCHVAR%\x.exe"
        assert any("NOSUCHVAR" in rec.message for rec in caplog.records)

    def test_registry_root_abbreviation(self, store):
        out = preprocess(r"HKEY_CURRENT_USER\Software", IocKind.REGISTRY_KEY, store)
        assert out == r"HKCU\Software"

    @pytest.mark.parametrize(
        "full,abbr",
        [
            ("HKEY_CURRENT_USER", "HKCU"),
            ("HKEY_LOCAL_MACHINE", "HKLM"),
            ("HKEY_CLASSES_ROOT", "HKCR"),
            ("HKEY_USERS", "HKU"),
            ("HKEY_CURRENT_CONFIG", "HKCC"),
        ],
    )
    def test_all_five_roots(self, store, full, abbr):
        out = preprocess(full + r"\Sub", IocKind.REGISTRY_KEY, store)
        assert out == abbr + r"\Sub"
        # identity on already-abbreviated forms
        assert preprocess(out, IocKind.REGISTRY_KEY, store) == out

    @pytest.mark.parametrize(
        "raw,normalized,captured",
        [
            ('"cmd.exe" /c whoami', '"cmd" /c whoami', [["cmd", "/c"], ["whoami"]]),
            (
                '"powershell.exe" -nop -enc AAAA',
                '"powershell" -nop -enc AAAA',
                [["powershell", "-nop", "-enc"]],
            ),
            (r'cmd /c "c:\tasks\ivory3.bat"', r'cmd /c "c:\tasks\ivory3.bat"', [["cmd", "/c"]]),
        ],
    )
    def test_quote_ends_a_token_for_the_strip(self, store, raw, normalized, captured):
        # a quoted command loses its extension and keeps its capture; a
        # quoted non-command keeps its extension
        record = make_record(raw, store)
        assert record.normalized == normalized
        assert annotate(record, store).capture_sequences == captured

    def test_bare_registry_prefix_dropped(self, store):
        out = preprocess(r"REGISTRY\MACHINE\Software", IocKind.REGISTRY_KEY, store)
        assert out == r"HKLM\Software"

    @pytest.mark.parametrize(
        "raw, normalized",
        [
            (r"\REGISTRY\MACHINE\SOFTWARE\Microsoft\Windows\CurrentVersion\Run\evil",
             r"HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Run\evil"),
            (r"\Registry\User\S-1-5-21-1\Software\x", r"HKU\S-1-5-21-1\Software\x"),
            (r"/registry/ machine/System", r"HKLM/System"),
            (r"Registry\Registry\USER", "HKU"),
        ],
    )
    def test_kernel_spelling_keeps_its_hive(self, store, raw, normalized):
        assert classify(raw, store) is IocKind.REGISTRY_KEY
        assert preprocess(raw, IocKind.REGISTRY_KEY, store) == normalized

    def test_kernel_names_are_roots_only_after_a_registry_head(self, store):
        assert classify(r"MACHINE\Software\x.exe", store) is IocKind.FILE_PATH
        for raw in (r"MACHINE\Software", r"HKU\USER\x", r"\ \USER\x"):
            assert preprocess(raw, IocKind.REGISTRY_KEY, store) == raw.lstrip("\\ ")

    def test_kernel_spelling_follows_the_root_table(self, store):
        renamed = Tables({}, {"HKEY_LOCAL_MACHINE": "Machine-Root"})
        raw = r"\REGISTRY\MACHINE\Software"
        assert preprocess(raw, IocKind.REGISTRY_KEY, store, renamed) == r"Machine-Root\Software"
        no_user_root = Tables({}, {"HKEY_LOCAL_MACHINE": "HKLM"})
        raw = r"\REGISTRY\USER\S-1-5-18"
        assert preprocess(raw, IocKind.REGISTRY_KEY, store, no_user_root) == r"USER\S-1-5-18"

    def test_command_extension_stripped(self, store):
        out = preprocess("cmd.exe /c whoami", IocKind.COMMAND_LINE, store)
        assert out == "cmd /c whoami"

    def test_parameter_extension_untouched(self, store):
        # ``create`` names a parameter, not a command
        assert store.label_of("create") is NodeLabel.PARAMETER
        out = preprocess("cmd /c create.exe", IocKind.COMMAND_LINE, store)
        assert out == "cmd /c create.exe"

    def test_payload_extension_untouched(self, store):
        out = preprocess("cmd /c 11.bat", IocKind.COMMAND_LINE, store)
        assert out == "cmd /c 11.bat"

    def test_username_normalized(self, store):
        out = preprocess(r"C:\Users\kmitnick\Desktop\a.doc", IocKind.FILE_PATH, store)
        assert out == r"C:\Users\user\Desktop\a.doc"

    def test_native_users_children_untouched(self, store):
        for child in ("Public", "Default", "user"):
            raw = rf"C:\Users\{child}\x.exe"
            assert preprocess(raw, IocKind.FILE_PATH, store) == raw

    def test_placeholder_username_component(self, store):
        out = preprocess(r"C:\Users\<username>\AppData", IocKind.FILE_PATH, store)
        assert out == r"C:\Users\user\AppData"

    def test_username_inside_command_path_argument(self, store):
        out = preprocess(
            r'schtasks /tr "c:\users\jsmith\go.bat" /f', IocKind.COMMAND_LINE, store
        )
        assert out == r'schtasks /tr "c:\users\user\go.bat" /f'

    @pytest.mark.parametrize(
        "raw, out",
        [
            (r"cmd /c C:\Users\All Users\x.bat", None),
            (r'cmd /c "C:\Users\All Users\x.bat"', None),
            (r"cmd /c dir C:\Users\Default User", None),
            (r"cmd /c C:\Users\John Smith/x.bat", None),
            (r"cmd /c C:\Users\All Users\Users\bob\x.bat",
             r"cmd /c C:\Users\All Users\Users\user\x.bat"),
            (r"cmd /c C:\Users\bob smith\x.bat", r"cmd /c C:\Users\user smith\x.bat"),
            (r"cmd /c C:\Users\All Users;x", r"cmd /c C:\Users\user Users;x"),
        ],
    )
    def test_kept_name_with_a_space_stays_whole_in_a_command_line(self, raw, out):
        # kept: "John Smith" as the store's child of Users, "all users" and
        # "default user" as built-in names; only before \, /, " or the end
        store = tiny_store(paths=["Users/John Smith"], commands=[("cmd", ["/c"])])
        want = raw if out is None else out
        assert preprocess(raw, IocKind.COMMAND_LINE, store) == want
        assert reference_preprocess(raw, IocKind.COMMAND_LINE, store) == want

    @pytest.mark.parametrize(
        "raw, out",
        [
            (r"Registry\HKEY_LOCAL_MACHINE\Software\x", r"HKLM\Software\x"),
            (r"\Registry\\hkey_current_user\x", r"HKCU\x"),
            (r"Registry\REGISTRY\HKEY_USERS\x", r"HKU\x"),
            (r"Registry\Registry", ""),
            ("Registry\\", ""),
            ("\\", "\\"),
            # what is kept after a drop loses its leading whitespace
            (r"\ hkcu\x", r"hkcu\x"),
            (r"Registry\ foo\x", r"foo\x"),
            # and a blank head is dropped
            (r"\ \HKEY_USERS\x", r"HKU\x"),
        ],
    )
    def test_registry_heads_dropped_before_the_root(self, store, raw, out):
        assert preprocess(raw, IocKind.REGISTRY_KEY, store) == out
        assert preprocess(out, IocKind.REGISTRY_KEY, store) == out

    def test_other_kind_only_stripped(self, store):
        raw = "  %TEMP%\\Users\\bob\\cmd.exe  "
        assert preprocess("  x  ", IocKind.OTHER, store) == "x"
        assert preprocess(raw, IocKind.OTHER, store) == raw.strip()
        record = make_record("  x  ", store)
        assert (record.kind, record.normalized) == (IocKind.OTHER, "x")
        truth = make_truth({"text": raw, "kind": "other", "capture_groups": []}, store)
        assert truth.normalized == raw.strip()

    def test_idempotent_on_fuzz_corpus(self, store):
        rng = random.Random(7)
        heads, drives, dirs, names, commands, flags = FUZZ_WORDS
        for _ in range(250):
            kind = rng.choice(
                [IocKind.FILE_PATH, IocKind.REGISTRY_KEY, IocKind.COMMAND_LINE]
            )
            if kind is IocKind.FILE_PATH:
                raw = "\\".join(
                    [rng.choice(drives)]
                    + rng.sample(dirs, rng.randint(1, 3))
                    + [rng.choice(names)]
                )
            elif kind is IocKind.REGISTRY_KEY:
                raw = "\\".join(
                    [rng.choice(heads)]
                    + rng.sample(dirs, rng.randint(1, 3))
                )
            else:
                raw = " ".join(
                    [rng.choice(commands)]
                    + rng.sample(flags, rng.randint(0, 3))
                    + [rng.choice(names)]
                )
            once = preprocess(raw, kind, store)
            assert preprocess(once, kind, store) == once, raw

    @given(
        pieces=st.lists(
            st.tuples(st.sampled_from(["\\", "/", " ", ""]), st.sampled_from(PROPERTY_WORDS)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(derandomize=True, deadline=None, max_examples=1000)
    @example(pieces=[("", " "), ("\\", "HKEY_USERS"), ("\\", "Public")])
    @example(pieces=[("", r"\REGISTRY\MACHINE"), ("\\", "Windows")])
    @example(pieces=[("", "Registry"), ("/", "C:"), ("\\", "a.exe")])
    def test_normalizing_keeps_the_kind(self, store, pieces):
        """A path, registry key or command line normalizes idempotently to
        a string of its kind, unless it is heads only (normalized to "") or
        a ``Registry`` head with no root after it (then of another kind)."""
        raw = "".join(sep + word for sep, word in pieces)
        if not raw.strip():
            return
        kind = classify(raw, store)
        if kind is IocKind.OTHER:
            return
        once = preprocess(raw, kind, store)
        assert preprocess(once, kind, store) == once
        if once:
            kept = classify(once, store) is kind
            assert kept is not _registry_head_without_root(raw), once


class TestSegment:
    def test_path_worked_example(self):
        assert segment(r"C:\Users\Public\11.bat", IocKind.FILE_PATH) == [
            "C:",
            "Users",
            "Public",
            "11.bat",
        ]

    def test_single_component(self):
        assert segment("a", IocKind.FILE_PATH) == ["a"]

    def test_schtasks_tokens(self, store):
        normalized = preprocess(FIG1_SCHTASKS, IocKind.COMMAND_LINE, store)
        components = segment(normalized, IocKind.COMMAND_LINE)
        assert components[:3] == ["schtasks", "/create", "/s"]
        assert "<remote_host>" in components
        assert "<username>" in components  # quotes stripped
        assert "SYSTEM" in components
        assert r"c:\users\public\11.bat" in components

    def test_mixed_delimiters_collapse(self):
        assert segment("a//b\\\\c", IocKind.FILE_PATH) == ["a", "b", "c"]

    def test_semicolon_delimiter(self):
        assert segment("cmd /c whoami;hostname", IocKind.COMMAND_LINE) == [
            "cmd",
            "/c",
            "whoami",
            "hostname",
        ]

    def test_quoted_span_kept_whole(self):
        assert segment('run "a b;c" end', IocKind.COMMAND_LINE) == [
            "run",
            "a b;c",
            "end",
        ]

    def test_unterminated_quote_errors_with_offset(self):
        with pytest.raises(TokenizationError) as err:
            segment('cmd /c "broken', IocKind.COMMAND_LINE)
        assert err.value.offset == 7

    @given(st.lists(st.text(st.characters(exclude_characters='\\/"'), min_size=1), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_path_reconstruction(self, parts):
        parts = [p for p in (q.strip("\\/") for q in parts) if p]
        if not parts:
            return
        normalized = "\\".join(parts)
        components = segment(normalized, IocKind.FILE_PATH)
        assert all(components)
        assert "\\".join(components) == normalized

    def test_no_empty_components(self):
        assert segment(";;  ;", IocKind.COMMAND_LINE) == []
        assert segment("\\\\", IocKind.FILE_PATH) == []


class TestMakeRecord:
    def test_other_has_no_components(self, store):
        rec = make_record("d41d8cd98f00b204e9800998ecf8427e", store)
        assert rec.kind is IocKind.OTHER
        assert rec.components == []

    def test_roundtrip_fields(self, store):
        rec = make_record(r"C:\Users\Public\11.bat", store, source_id="x1")
        assert rec.source_id == "x1"
        assert rec.kind is IocKind.FILE_PATH
        assert rec.normalized == r"C:\Users\Public\11.bat"
        assert rec.components == ["C:", "Users", "Public", "11.bat"]


# Pieces that reach each rewrite's trigger and the edges of its prefilter:
# case-insensitive "users" (also through U+017F), characters whose case
# folding changes length or maps onto ASCII, known and unknown variables,
# executable suffixes in every case (also through U+017F), quotes,
# separators, the ASCII and non-ASCII whitespace that str.isspace knows, and
# user names that hold a space, built in or in the tiny store.
NORMALIZE_FRAGMENTS = (
    "users\\", "users/", "USERS\\", "USERS/", "uſers\\", "u", "ſ", "ers",
    "\u212a", "İ", "ß", "%TEMP%", "%X%", "%", "cmd.exe", "x.EXE", ".exe",
    "a.exe.exe", "p.pſ1", "p.PS1", '"', ";", " ", "\t", "\x1c", "\x1d", "\x1e",
    "\x1f", "\u3000", "\n", "\\", "/", "C:", "HKEY_CURRENT_USER", "hklm",
    "registry", "MACHINE", "User", "Public", "bob", "schtasks", "/c", "-x", "a",
    "All Users", "default user", "bob smith",
)
CUSTOM_TABLES = (
    {"%TEMP%": "C:\\Users\\ſam\\Temp", "%X%": 'users/"İ x.exe'},
    {"hkey_current_user": "HKCU", "users": "U", "hklm": "HKEY_LOCAL_MACHINE"},
)
KINDS = (IocKind.FILE_PATH, IocKind.REGISTRY_KEY, IocKind.COMMAND_LINE)
TINY_STORE = tiny_store(
    paths=["C:/Users/bob", "Users/ſ", "Users/bob smith"],
    commands=[("cmd.exe", ["/c"]), ("a.exe.exe", []), ("p", ["-x"])],
)


def _outcome(fn, *args, **kwargs):
    """``fn``'s value, or its error's type, message and offset."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


class TestAgainstReference:
    """The compiled, prefiltered normalize layer against the per-call
    helpers and the character-loop segmenter (``oracles``)."""

    @pytest.mark.parametrize("store_name", ["bundled", "tiny"])
    @pytest.mark.parametrize("tables", [None, CUSTOM_TABLES],
                             ids=["default-tables", "custom-tables"])
    @given(raw=st.lists(st.sampled_from(NORMALIZE_FRAGMENTS), max_size=12).map("".join))
    @settings(derandomize=True, deadline=None, max_examples=400)
    @example(raw='cmd "a b"c" d')
    @example(raw="p.pſ1\x1ccmd.exe;x.EXE")
    @example(raw="C:\\uſers\\bob\\a.exe")
    @example(raw="\\ \\hklm/registry")
    def test_every_entry_point_agrees(self, store, store_name, tables, raw):
        any_store = {"bundled": store, "tiny": TINY_STORE}[store_name]
        # the references take the raw tables, None for the bundled ones
        expansions, roots = tables or (None, None)
        tables = Tables(*tables) if tables else BUNDLED
        assert _outcome(classify, raw, any_store, tables) == _outcome(
            reference_classify, raw, any_store, registry_roots=roots
        )
        for kind in KINDS:
            ours = _outcome(preprocess, raw, kind, any_store, tables)
            assert ours == reference_preprocess(raw, kind, any_store, expansions, roots)
            for text in (raw, ours):
                assert _outcome(segment, text, kind) == _outcome(
                    reference_segment, text, kind
                )
        assert _outcome(make_record, raw, any_store, "id", tables) == (
            _outcome(reference_make_record, raw, any_store, "id", expansions, roots)
        )

    def test_whitespace_class_is_isspace_at_every_code_point(self):
        # The segmenter's premise: its "\s" separates exactly what
        # str.isspace does.
        space = re.compile(r"\s")
        assert [
            hex(i)
            for i in range(sys.maxunicode + 1)
            if bool(space.match(chr(i))) is not chr(i).isspace()
        ] == []

    def test_users_letters_fold_to_themselves_at_every_code_point(self):
        # The username skip's premise: a character that (?i) matches to a
        # letter of "users" folds to that letter, so a string whose
        # casefold() lacks "users" cannot match the username pattern.
        letters = re.compile("[user]", re.IGNORECASE)
        assert [
            (letter, hex(i))
            for i in range(sys.maxunicode + 1)
            if letters.fullmatch(chr(i))
            for letter in "user"
            if re.fullmatch(letter, chr(i), re.IGNORECASE)
            and chr(i).casefold() != letter
        ] == []

    def test_suffix_folds_match_under_ignorecase_at_every_code_point(self):
        # The extension pattern's premise: a token whose casefold() ends in
        # an executable suffix ends in it under (?i).  A character whose
        # fold is one suffix character matches it under (?i), and no fold
        # of several characters can lie in a suffix or run into its start.
        bad = []
        for i in range(sys.maxunicode + 1):
            fold = chr(i).casefold()
            for ext in EXECUTABLE_EXTENSIONS:
                if len(fold) == 1:
                    if fold in ext and not re.fullmatch(
                        re.escape(fold), chr(i), re.IGNORECASE
                    ):
                        bad.append((ext, hex(i)))
                elif fold in ext or any(
                    fold[-k:] == ext[:k] for k in range(1, len(fold))
                ):
                    bad.append((ext, hex(i)))
        assert bad == []

    def test_markers_come_from_a_tables_roots_and_their_values(self, store):
        tables = Tables.from_json({"registry_roots": {"MyRoot": "MR"}}, str)
        assert tables.expansions == BUNDLED.expansions
        assert tables.registry_roots == {"myroot": "MR"}
        assert tables.markers == {"myroot", "mr", "registry"}
        for raw in ("MYROOT\\Run", "mr\\Run", "Registry\\x"):
            assert classify(raw, store, tables) is IocKind.REGISTRY_KEY
        assert classify("myroot\\Run", store) is IocKind.FILE_PATH
        assert preprocess("myRoot\\Run", IocKind.REGISTRY_KEY, store, tables) == "MR\\Run"
