r"""Classify raw indicator strings and normalize them into component lists.

Per indicator: classify -> preprocess -> segment.  Preprocessing covers the
four standardization cases of real threat-report strings:
environment-variable expansion, username unification, registry-root
abbreviation, and executable-extension stripping on known commands.
``_read_head`` reads a registry key's head for classifying and for the
rewrite alike (``docs/formats.md#expansion-table-and-registry-root-map``).

The expansion table and the registry-root map travel together as one
immutable ``Tables``, whose keys and registry markers are built once, when
it is made.  ``BUNDLED`` holds the shipped tables and is every entry
point's default; ``Tables.from_json`` is the one way in from JSON.

Every pattern is compiled once, at import, and each rewrite runs only when
its trigger can occur in the string.  Each skip is exact:

- ``%NAME%`` variables are looked up only when ``"%"`` is in the string.
- The component after ``users`` is rewritten only when the string's
  ``casefold()`` holds ``users``: every character that ``(?i)`` matches to
  ``u``, ``s``, ``e`` or ``r`` (their ASCII cases and ``ſ``, U+017F) folds
  to that letter.
- Only the command-line tokens that end in an executable suffix under
  ``(?i)`` are checked by their ``casefold``: every character whose fold
  lies in a suffix folds to one character that ``(?i)`` matches to it, so a
  token whose fold ends in a suffix ends in it under ``(?i)`` too.

Command lines split at whitespace and ``;`` outside double quotes, by one
pattern whose ``\s`` stands for ``str.isspace``.  For the extension strip
a double quote also ends a token, so a quoted command loses its suffix.
``tests/test_normalize.py`` checks this and both premises above at every
code point.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .inputs import ConfigError, read_json
from .knowledge import (
    EXECUTABLE_EXTENSIONS,
    KnowledgeStore,
    NodeLabel,
    strip_executable_extension,
)

logger = logging.getLogger(__name__)

_DATA_DIR = Path(__file__).parent / "data"

# Components that stay as they are after "Users", whatever the store; a
# store's children of "Users" stay too.
_BUILTIN_USERS_CHILDREN = frozenset(
    {"public", "default", "user", "all users", "default user"}
)

_ENV_VAR_RE = re.compile(r"%[A-Za-z_][A-Za-z0-9_()]*%")
_DRIVE_PREFIX_RE = re.compile(r"^[A-Za-z]:[\\/]")
_DELIMS_RE = re.compile(r"[\\/]+")
_COMPONENT_RE = re.compile(r"[^\\/]+")
# A registry key's head: its leading delimiters, then its first component
# (empty when the string holds no other character).  Matched by _read_head
# only, with a start position to read past a skipped head.
_REGISTRY_HEAD_RE = re.compile(r"([\\/]*)([^\\/]*)")
# The kernel namespace's names for two roots, read only after a Registry head.
_KERNEL_ROOTS = {"machine": "hkey_local_machine", "user": "hkey_users"}
# "Users" and the name after it, which runs to the next delimiter (in a
# command line, also to the next quote).  A command-line match ends where
# its component does, at whitespace or ";" too; a kept name stays whole.
_USERS_PREFIX = r"(?i)(?P<prefix>(?:^|[\\/\s\";])users[\\/])"
_PATH_USERS_RE = re.compile(_USERS_PREFIX + r"(?P<name>[^\\/]+)")
_COMMAND_USERS_RE = re.compile(_USERS_PREFIX + r'(?=(?P<name>[^\\/"]+))[^\\/\s;"]+')
# A whole command-line token that ends in an executable suffix after at
# least one character; a double quote ends a token too, so a quoted
# command is stripped.  The lookbehind starts a match only where a token
# starts, so each token is tried once.  No re.ASCII: "\s" must keep
# \x1c-\x1f as whitespace, as str.isspace does.
_EXECUTABLE_TOKEN_RE = re.compile(
    r'(?<![^\s;"])[^\s;"]+?(?:'
    + "|".join(re.escape(ext) for ext in EXECUTABLE_EXTENSIONS)
    + r')(?![^\s;"])',
    re.IGNORECASE,
)
# One command-line token: quoted spans and runs of unquoted non-separators.
_QUOTED_TOKEN_RE = re.compile(r'(?:"[^"]*"|[^\s;"]+)+')


class IocKind(str, Enum):
    FILE_PATH = "file_path"
    REGISTRY_KEY = "registry_key"
    COMMAND_LINE = "command_line"
    OTHER = "other"


class ClassificationError(ValueError):
    pass


class TokenizationError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass
class IocRecord:
    """One indicator string with its detected kind and component breakdown."""

    raw: str
    kind: IocKind
    normalized: str
    components: list[str] = field(default_factory=list)
    source_id: str = ""


# -- data tables -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Tables:
    """The expansion table and the registry-root map, keys folded however a
    table spells them, and ``markers``: the first components that make a
    string a registry key (the roots, their abbreviations and ``registry``,
    case-folded)."""

    expansions: dict[str, str]
    registry_roots: dict[str, str]
    markers: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        roots = {k.casefold(): v for k, v in self.registry_roots.items()}
        put = object.__setattr__
        put(self, "expansions", {k.upper(): v for k, v in self.expansions.items()})
        put(self, "registry_roots", roots)
        put(self, "markers", frozenset(
            [*roots, *(v.casefold() for v in roots.values()), "registry"]
        ))

    @classmethod
    def from_json(cls, values, where) -> Tables:
        """The tables that ``values`` holds under ``expansions`` and
        ``registry_roots``, the bundled one for a table that is absent or
        None.  A table that is not an object of strings to strings is a
        ConfigError that names it as ``where(key)``."""
        tables = []
        for key in ("expansions", "registry_roots"):
            table = values.get(key)
            if table is None:
                table = getattr(BUNDLED, key)
            elif not isinstance(table, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in table.items()
            ):
                raise ConfigError(f"{where(key)} must map strings to strings")
            tables.append(table)
        return cls(*tables)


BUNDLED = Tables(
    *(
        read_json(_DATA_DIR / name)
        for name in ("env_expansions.json", "registry_roots.json")
    )
)


# -- classification ----------------------------------------------------


def _read_head(s: str, skip: tuple[str, ...]) -> tuple[re.Match, str]:
    """The head of ``s`` after its leading delimiters and every head whose
    trimmed fold is in ``skip``, and that head's trimmed fold.  In the match,
    group 1 is the delimiters before the head and group 2 the head (empty at
    the end of the string)."""
    head = _REGISTRY_HEAD_RE.match(s)
    while (folded := head[2].strip().casefold()) in skip and head[2]:
        head = _REGISTRY_HEAD_RE.match(s, head.end())
    return head, folded


def _unquote(s: str) -> str:
    """The stripped inside of a string wrapped in one pair of double
    quotes that holds no other quote, when it is not blank; else ``s``."""
    if s[:1] == s[-1:] == '"' and s.count('"') == 2 and (inside := s[1:-1].strip()):
        return inside
    return s


def classify(raw: str, store: KnowledgeStore, tables: Tables = BUNDLED) -> IocKind:
    """Decide whether a string is a file path, registry key, or command line.

    Rule order: registry first (syntactically most distinctive), then command
    detection (a first token that, without its executable extension and its
    double quotes, names a command, as in ``"net.exe" user add``, or
    option-style tokens), then path shape; anything else is ``other``.  A
    string wrapped in one pair of double quotes is classified by its inside.
    """
    s = raw.strip()
    if not s:
        raise ClassificationError("cannot classify empty or whitespace-only string")
    s = _unquote(s)

    if _read_head(s, ("",))[1] in tables.markers:
        return IocKind.REGISTRY_KEY

    tokens = s.split()
    first_token = strip_executable_extension(tokens[0].replace('"', ""))
    if store.label_of(first_token) is NodeLabel.COMMAND:
        return IocKind.COMMAND_LINE
    if len(tokens) > 1 and any(t.startswith(("/", "-")) for t in tokens):
        return IocKind.COMMAND_LINE

    if _DELIMS_RE.search(s):
        if _DRIVE_PREFIX_RE.match(s) or _ENV_VAR_RE.search(s):
            return IocKind.FILE_PATH
        if len(_COMPONENT_RE.findall(s)) >= 2:
            return IocKind.FILE_PATH

    return IocKind.OTHER


# -- preprocessing -----------------------------------------------------


def _expand_env_vars(s: str, table: dict) -> str:
    if "%" not in s:
        return s

    def repl(m: re.Match) -> str:
        var = m.group(0)
        target = table.get(var.upper())
        if target is None:
            logger.warning("unknown environment variable %r left verbatim", var)
            return var
        return target

    return _ENV_VAR_RE.sub(repl, s)


def _rewrite_registry_root(s: str, roots: dict) -> str:
    """Drop the heads and abbreviate the root after them, by the head rule
    of ``docs/formats.md``.  Only blank and ``registry`` heads are dropped,
    so a ``registry`` fold in what precedes the head means one was."""
    head, first = _read_head(s, ("", "registry"))
    if not head.start() and not head[2]:  # delimiters alone
        return s
    if first in _KERNEL_ROOTS and "registry" in s[: head.start()].casefold():
        first = _KERNEL_ROOTS[first]
    abbrev = roots.get(first) if head[2] else None
    if abbrev is None:
        return s[head.end(1) :].lstrip() if head.end(1) else s
    return abbrev + s[head.end() :]


def _normalize_usernames(s: str, kind: IocKind, store: KnowledgeStore) -> str:
    """Rewrite the component following ``Users`` to the uniform ``user`` token."""
    if "users" not in s.casefold():
        return s
    pattern = _COMMAND_USERS_RE if kind is IocKind.COMMAND_LINE else _PATH_USERS_RE
    kept = _BUILTIN_USERS_CHILDREN | store.path_children("users")
    out, pos = [], 0
    while m := pattern.search(s, pos):
        start = m.end("prefix")
        # the whole name stays if it is kept, else the matched part if it is
        for end in (m.end("name"), m.end()):
            if s[start:end].strip().casefold() in kept:
                out.append(s[pos:end])
                break
        else:
            out.append(s[pos:start] + "user")
            end = m.end()
        pos = end
    return "".join(out) + s[pos:]


def _strip_command_extensions(s: str, store: KnowledgeStore) -> str:
    def repl(m: re.Match) -> str:
        token = m.group(0)
        stripped = strip_executable_extension(token)
        if stripped != token and store.label_of(stripped) is NodeLabel.COMMAND:
            return stripped
        return token

    return _EXECUTABLE_TOKEN_RE.sub(repl, s)


def preprocess(
    raw: str,
    kind: IocKind,
    store: KnowledgeStore,
    tables: Tables = BUNDLED,
) -> str:
    """Apply the four normalization cases of ``kind``; an ``other`` string
    is only stripped.  A path or registry key wrapped in one pair of double
    quotes is normalized as its inside, so it loses the quotes.

    Idempotent for a fixed table set as long as no table value is rewritten
    again: no abbreviation is itself a root key or ``registry``, and no
    expansion holds a variable that the table expands.  The bundled tables
    are such a set.
    """
    s = raw.strip()
    if kind is IocKind.OTHER:
        return s
    if kind is not IocKind.COMMAND_LINE:
        s = _unquote(s)
    s = _expand_env_vars(s, tables.expansions)
    if kind is IocKind.REGISTRY_KEY:
        s = _rewrite_registry_root(s, tables.registry_roots)
    s = _normalize_usernames(s, kind, store)
    if kind is IocKind.COMMAND_LINE:
        s = _strip_command_extensions(s, store)
    return s


# -- segmentation ------------------------------------------------------


def _tokenize_command_line(s: str) -> list[str]:
    if s.count('"') % 2:
        raise TokenizationError("unterminated double quote", s.rindex('"'))
    tokens = (t.replace('"', "") for t in _QUOTED_TOKEN_RE.findall(s))
    return [t for t in tokens if t]


def separators(normalized: str) -> list[str]:
    """The delimiter runs of a normalized path or registry key: the one
    before each component that ``segment`` finds, then the one after the
    last (either end may be empty)."""
    return _COMPONENT_RE.split(normalized)


def segment(normalized: str, kind: IocKind) -> list[str]:
    """Split a normalized string into its ordered components."""
    if kind is IocKind.OTHER:
        return []
    if kind is IocKind.COMMAND_LINE:
        return _tokenize_command_line(normalized)
    return _COMPONENT_RE.findall(normalized)


def make_record(
    raw: str,
    store: KnowledgeStore,
    source_id: str = "",
    tables: Tables = BUNDLED,
) -> IocRecord:
    """Classify, preprocess and segment one raw indicator string."""
    kind = classify(raw, store, tables)
    normalized = preprocess(raw, kind, store, tables)
    return IocRecord(raw, kind, normalized, segment(normalized, kind), source_id)
