"""Tokenizer, validator and analyses for the regex dialect.

``docs/formats.md#regex-dialect`` states the dialect and
``docs/formats.md#match-rules`` the match rules that ``Analysis.matches``
and ``Analysis.explain`` follow; this docstring gives the reasons.

``analyze`` reads a pattern of the find-chain shape off one ``fullmatch``
of ``_CHAIN``: such a pattern is valid, all its runs are required, and its
tokens and regex are built only if a caller needs them.  Any other pattern
is tokenized, walked once by ``structure``, which validates it and marks
its required runs, and compiled at once, so an ``re.error`` is still a
``DialectError``.  ``analysis_or_error`` caches the analysis, or the error,
for every caller, and ``analyze`` raises a fresh copy of a cached error;
analyses, tokens, runs and cached errors are never mutated, and a cached
error is never raised.  ``Token`` and ``LiteralRun`` are slotted, not
frozen, dataclasses because building one is half as costly, so nothing may
hash or change them.

Why each match rule gives what ``re.search`` gives:

- Offset 0.  The dialect has no backreferences and no lookbehind, so the
  leading ``.`` run of a match found at any offset can be stretched back to
  offset 0, and ``re.search`` tries offset 0 first with the same
  backtracking as ``match``.  Without the rule, a miss costs one attempt
  per offset, each of which may scan the rest of the text.
- Find chain.  A ``.*`` matches any text that holds no line break, so the
  pattern matches exactly when its runs occur in order without
  overlapping, and a greedy leftmost ``str.find`` chain decides that in one
  pass: the automaton simulation of Cox, "Regular Expression Matching Can
  Be Simple And Fast" (2007), reduced to literals and ``.*``.
  Backtracking takes time of the order of the text length to the number of
  ``.*``.
- ``(?i)`` and ASCII.  ``re.IGNORECASE`` also matches ASCII letters to some
  non-ASCII ones (``i`` to ``ı``, ``s`` to ``ſ``, ``k`` to the Kelvin sign)
  that ``str.lower`` does not map, so only an ASCII text's lowercase form
  (``fold``) can stand in for ``(?i)``.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

FLAGS = "flags"
GROUP_OPEN = "group_open"
GROUP_CLOSE = "group_close"
CLASS = "class"
CLASS_ESCAPE = "class_escape"
ESCAPE = "escape"
DOT = "dot"
ANCHOR = "anchor"
ALT = "alt"
QUANT = "quant"
LITERAL = "literal"

# The literal characters of the dialect, a plain one or a '{' that opens no
# quantifier, and an escape: what ``_SCANNER`` takes as literal text, and
# what the find-chain regex takes between wildcards.
_PLAIN = r"[^\\\[().^$|*+?{]"
_BRACE = r"\{(?![0-9]+(?:,[0-9]*)?\}|,[0-9]*\})"
_ESCAPE = r"\\(?![^\W_])[\s\S]"  # [^\W_] is str.isalnum

# One alternative per token kind, named after it, tried in order.  A class
# is matched up to its '[' only; ``_parse_class`` finds its end, since its
# leading-']' rule needs an atomic group, which ``re`` lacks before Python
# 3.11.  Nothing matches an unsupported escape, a dangling backslash, a group
# extension, or {,n}, which Python reads as {0,n} and other engines as
# literal text.
_SCANNER = re.compile(
    rf"""
    (?P<flags>\A\(\?[ims]+\))
    | (?P<class_escape>\\[wWsSdD])
    | (?P<escape>{_ESCAPE})
    | (?P<class>\[)
    | (?P<group_open>\((?:\?:|(?!\?)))
    | (?P<group_close>\))
    | (?P<dot>\.)
    | (?P<anchor>[\^$])
    | (?P<alt>\|)
    | (?P<quant>(?:[*+?]|\{{[0-9]+(?:,[0-9]*)?\}})\??)
    | (?P<literal>(?:{_PLAIN}|{_BRACE})+)
    """,
    re.VERBOSE,
)
# The find-chain shape (docs/formats.md#match-rules): flags (group 1), then a body
# (group 2) of literal characters, escapes and wildcards.  Each first
# character has one alternative, and plain characters run between the
# others, so a fullmatch takes time linear in the pattern.  A '.' is
# never literal in a body it accepts, nor may an escaped one be quantified,
# so every '.*' there is a wildcard: ``_WILDCARD`` splits the body at them.
_CHAIN = re.compile(
    rf"(?:\(\?([ims]+)\))?({_PLAIN}*(?:(?:{_ESCAPE}|{_BRACE}|\.\*\??){_PLAIN}*)*)"
)
_WILDCARD = re.compile(r"(\.\*\??)")
_MAX_BOUND = 65535  # the largest brace bound

# Analyses kept for reuse; one indicator's k workflows mostly repeat patterns.
_ANALYSIS_CACHE_SIZE = 64

# Tokens a quantifier may follow.
_QUANTIFIABLE = frozenset({LITERAL, ESCAPE, CLASS_ESCAPE, CLASS, DOT, GROUP_CLOSE})

DIALECT_RULES = (
    "- optional leading (?i) for case-insensitive matching",
    "- literal characters; escape regex metacharacters with a backslash"
    " (\\\\ for a backslash, \\. for a dot)",
    "- character classes like [a-z0-9]",
    "- quantifiers * + ? {m,n} (a trailing ? makes them lazy)",
    "- alternation with |, grouping with (...) or (?:...), optional groups (...)?",
    "- the wildcard . and the anchors ^ $",
    "- class shorthands \\w \\W \\s \\S \\d \\D",
)


class DialectError(ValueError):
    """Pattern outside the accepted dialect; ``offset`` points at the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.message = message
        self.offset = offset


@dataclass(slots=True)
class Token:
    """One token of a pattern: its kind, its text and its offset.

    Tokens are shared through the analysis cache and never mutated (module
    docstring); unlike a frozen dataclass, a token is not hashable."""

    kind: str
    text: str
    pos: int

    @property
    def end(self) -> int:
        return self.pos + len(self.text)


def _parse_class(pattern: str, start: int) -> int:
    """Return the index one past the closing ``]`` of a class opened at start."""
    i = start + 1
    n = len(pattern)
    if i < n and pattern[i] == "^":
        i += 1
    if i < n and pattern[i] == "]":
        i += 1
    while i < n and pattern[i] != "]":
        i += 2 if pattern[i] == "\\" else 1
    if i >= n:
        raise DialectError("unterminated character class", start)
    return i + 1


def _set_operation(text: str) -> int | None:
    """The index in a class token's text of the first construct that ``re``
    warns of as a nested set or a set operation, or None: a ``[`` right
    after the opening one, a doubled ``-``, ``&``, ``~`` or ``|`` that
    starts an item other than the first, or a range up to ``-``.  Items
    are read as ``re`` reads them, except that an escape is taken as its
    backslash and the next character: ``re`` reads on only over digits, or
    over a name in braces that a doubled character makes invalid."""
    if text.startswith("[["):
        return 1
    end = len(text) - 1  # the closing ']'
    i = first = 2 if text.startswith("[^") else 1
    while i < end:
        if i > first and text[i] in "-&~|" and text[i + 1] == text[i]:
            return i
        i += 2 if text[i] == "\\" else 1
        if text[i] == "-" and i + 1 < end:  # a range
            if text[i + 1] == "-":
                return i
            i += 3 if text[i + 1] == "\\" else 2
    return None


def _posix_bracket(text: str) -> int | None:
    """The index in a class token's text of a ``[`` that PCRE reads as the
    opening of a POSIX bracket expression, or None: an unescaped ``[c``
    after the class's opening, where ``c`` is ``:``, ``=`` or ``.`` and the
    text ends in ``c]`` later than that ``c``."""
    c = text[-2]
    if c not in ":=.":
        return None
    i = 2 if text.startswith("[^") else 1
    while i < len(text) - 3:  # the c of '[c' before the c of 'c]'
        if text[i] == "[" and text[i + 1] == c:
            return i
        i += 2 if text[i] == "\\" else 1
    return None


def tokenize(pattern: str) -> list[Token]:
    """Split a pattern into dialect tokens; raises DialectError outside it.

    A maximal literal run is one token, and a quantifier after it takes the
    run's last character.  Where no scanner alternative matches, the text
    there names the error."""
    tokens: list[Token] = []
    pos, n = 0, len(pattern)
    while pos < n:
        m = _SCANNER.match(pattern, pos)
        if m is None:
            if pattern.startswith("(?", pos):
                message = "group extension not in dialect"
            elif pattern[pos] == "{":
                message = "brace quantifier needs a lower bound: {0,n}"
            elif pos + 1 == n:
                message = "dangling backslash"
            else:
                message = f"unsupported escape \\{pattern[pos + 1]}"
            raise DialectError(message, pos)
        kind, end = m.lastgroup, m.end()
        if kind == CLASS:
            end = _parse_class(pattern, pos)
        elif kind == QUANT and tokens and tokens[-1].kind == LITERAL:
            # a quantifier binds to the last character of a literal run only
            run = tokens[-1]
            if len(run.text) > 1:
                tokens[-1] = Token(LITERAL, run.text[:-1], run.pos)
                tokens.append(Token(LITERAL, run.text[-1], run.end - 1))
        tokens.append(Token(kind, pattern[pos:end], pos))
        pos = end
    return tokens


def _quantifier_bounds(text: str) -> tuple[int, int | None]:
    """(min, max) repetitions of a quantifier token; max None is unbounded."""
    q = text.rstrip("?") or "?"  # drop the lazy marker; "?" and "??" keep one
    if q == "?":
        return 0, 1
    if q == "*":
        return 0, None
    if q == "+":
        return 1, None
    low, comma, high = q[1:-1].partition(",")
    if not comma:
        return int(low), int(low)
    return int(low), int(high) if high else None


@dataclass(slots=True)
class _Group:
    """What ``structure`` keeps about one open group."""

    pos: int  # offset of its '('
    first_run: int  # index of its first literal run
    alt: bool = False  # a '|' at its own level
    alt_any: bool = False  # a '|' at any depth
    repeats: bool = False  # a repeating quantifier at any depth


def structure(tokens: Sequence[Token]) -> tuple[tuple[LiteralRun, ...], bool]:
    """Validate a token stream and find its literal runs, in one walk.

    Returns the maximal literal runs, with unescaped text, and whether the
    pattern opens with a leading wildcard, its half of the offset-0 rule.
    Raises DialectError outside the dialect.  A quantified atom is in no
    run, and any other non-literal token ends one.
    """
    texts: list[str] = []
    required: list[bool] = []
    current: list[str] = []
    stack = [_Group(0, 0)]  # the open groups, the top level first
    closed = stack[0]  # the group the last ')' closed
    prev: Token | None = None
    second = 2 if tokens and tokens[0].kind == FLAGS else 1  # index of the 2nd body token
    leading = False

    def flush() -> None:
        if current:
            texts.append("".join(current))
            required.append(True)
            current.clear()

    def not_required(first: int) -> None:
        required[first:] = [False] * (len(texts) - first)

    for k, tok in enumerate(tokens):
        if tok.kind == LITERAL:
            current.append(tok.text)
        elif tok.kind == ESCAPE:
            current.append(tok.text[1])
        elif tok.kind == QUANT:
            if prev is None or prev.kind not in _QUANTIFIABLE:
                raise DialectError("quantifier has nothing to repeat", tok.pos)
            try:
                low, high = _quantifier_bounds(tok.text)
                too_large = max(low, high or 0) > _MAX_BOUND
            except ValueError:  # int() refuses a bound of over 4,300 digits
                too_large = True
            if too_large:
                raise DialectError(f"repetition bound above {_MAX_BOUND}", tok.pos)
            repeats = high is None or high > 1
            leading |= k == second and prev.kind == DOT and high is None
            if prev.kind == GROUP_CLOSE:
                if repeats and closed.repeats:
                    raise DialectError(
                        "nested repetition: a repeated group may not contain"
                        " a repeating quantifier",
                        tok.pos,
                    )
                if repeats and closed.alt_any:
                    raise DialectError(
                        "alternation inside a repeated group; use a character class",
                        tok.pos,
                    )
                if low == 0:
                    not_required(closed.first_run)
            elif prev.kind in (LITERAL, ESCAPE):
                current.pop()  # a quantified atom may not occur verbatim
                flush()
            stack[-1].repeats |= repeats
        else:
            flush()
            if tok.kind == CLASS and (at := _set_operation(tok.text)) is not None:
                pair = tok.text[at] * 2  # '[[' opens a nested set
                message = f"{pair!r} in a class reads as a set operation; escape it"
                raise DialectError(message, tok.pos + at)
            if tok.kind == CLASS and (at := _posix_bracket(tok.text)) is not None:
                pair = tok.text[at : at + 2]
                message = f"{pair!r} in a class reads as a POSIX bracket; escape the '['"
                raise DialectError(message, tok.pos + at)
            if tok.kind == GROUP_OPEN:
                stack.append(_Group(tok.pos, len(texts)))
            elif tok.kind == ALT:
                stack[-1].alt = stack[-1].alt_any = True
            elif tok.kind == GROUP_CLOSE:
                if len(stack) == 1:
                    raise DialectError("unbalanced ')'", tok.pos)
                closed = stack.pop()
                if closed.alt:
                    not_required(closed.first_run)
                stack[-1].alt_any |= closed.alt_any
                stack[-1].repeats |= closed.repeats
        prev = tok
    if len(stack) > 1:
        raise DialectError("unbalanced '('", stack[-1].pos)
    flush()
    if stack[0].alt:
        not_required(0)
    runs = tuple(map(LiteralRun, texts, required))
    return runs, leading and not stack[0].alt


@dataclass(slots=True)
class LiteralRun:
    """A maximal stretch of literal characters in a pattern.

    ``required`` as ``docs/formats.md#regex-dialect`` defines it.  Shared
    and never mutated, like a ``Token``.
    """

    text: str
    required: bool


def fold(text: str) -> str | None:
    """The text lowercased when it is all ASCII, else None: the one form in
    which lowercase comparison stands for ``(?i)``."""
    return text.lower() if text.isascii() else None


@dataclass(frozen=True)
class Analysis:
    """One pattern's literal runs and wildcards, its tokens and its regex.

    ``flags`` holds the letters of the inline flags token, e.g. ``"i"``.
    ``leading_wildcard`` is the pattern's half of the offset-0 rule.
    ``needles`` are in pattern order.  ``chain`` holds the runs ``matches``
    finds in order, for a pattern of the find-chain shape: under ``(?i)``
    the needles, when every run is ASCII.  It is None for any other pattern.
    ``wildcards`` are the pattern's ``wildcard_units``.  A find-chain
    pattern's tokens, and any pattern's regex, are built on first use.
    """

    pattern: str
    runs: tuple[LiteralRun, ...]
    flags: str
    leading_wildcard: bool
    needles: tuple[str, ...]
    chain: tuple[str, ...] | None
    wildcards: tuple[tuple[int, int, str], ...]

    @functools.cached_property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(tokenize(self.pattern))

    @functools.cached_property
    def regex(self) -> re.Pattern:
        return re.compile(self.pattern)

    @property
    def body_start(self) -> int:
        """The offset of the pattern's body, after its flags token."""
        return len(self.flags) + 3 if self.flags else 0

    def _at_offset_0(self, text: str) -> bool:
        """Whether a search of ``text`` finds a match at offset 0 or none
        (the offset-0 rule).  This also holds for every top-level token
        prefix of the pattern."""
        return self.leading_wildcard and ("\n" not in text or "s" in self.flags)

    def _hay(self, text: str) -> str | None:
        """The text the find chain searches for ``chain``, folded under
        ``(?i)``; None when the find-chain rule does not apply."""
        if self.chain is None or ("\n" in text and "s" not in self.flags):
            return None
        return fold(text) if "i" in self.flags else text

    def matches(self, text: str) -> bool:
        """Exactly ``self.regex.search(text) is not None``, by the match
        rules."""
        hay = self._hay(text)
        if hay is None:
            rx = self.regex
            return (rx.match if self._at_offset_0(text) else rx.search)(text) is not None
        pos = 0
        for run in self.chain:
            pos = hay.find(run, pos)
            if pos < 0:
                return False
            pos += len(run)
        return True

    def explain(self, text: str) -> tuple[str, int, str] | None:
        """None when the pattern matches ``text``.  Otherwise the longest
        top-level token prefix of the pattern that matches, the end offset
        of its match in ``text``, and the first failing token: by
        ``_explain_chain`` under the find-chain rule, else by searching
        each prefix in turn.  The scan always ends at a failing prefix: the
        last one is the whole pattern."""
        hay = self._hay(text)
        if hay is not None:
            return self._explain_chain(text, hay)
        if self.matches(text):
            return None
        offset_0 = self._at_offset_0(text)
        matched, offset = "", 0
        depth = 0
        for tok in self.tokens:
            depth += (tok.kind == GROUP_OPEN) - (tok.kind == GROUP_CLOSE)
            if depth:
                continue
            for j, piece in enumerate(tok.text if tok.kind == LITERAL else (tok.text,)):
                end = tok.pos + j + len(piece)
                rx = re.compile(self.pattern[:end])
                m = (rx.match if offset_0 else rx.search)(text)
                if m is None:
                    return matched, offset, piece
                matched, offset = self.pattern[:end], m.end()
        return matched, offset, ""

    def _explain_chain(self, text: str, hay: str) -> tuple[str, int, str] | None:
        """``explain`` under the find-chain rule, where ``hay`` is
        ``_hay(text)``, by ``str.find`` and ``str.rfind`` alone: no tokens
        and no ``re`` call.

        One search per run, from the end of the run before, decides the
        match.  On a miss, the matched prefix ends with the longest prefix
        of the first missing run that occurs after the runs found, and the
        failing token is the pattern character after it, or the ``.`` of
        the wildcard group where the runs found end the text.  The prefix's
        end offset is where backtracking leaves its pieces: with no leading
        wildcard, the first at its leftmost chain position; after a group
        that holds a greedy ``.*``, a piece at the latest offset from which
        the later pieces still fit; after a group of only ``.*?``, at its
        first occurrence after the piece before.  A prefix that ends in a
        greedy group reaches the end of the text."""
        chain = self.chain
        start = 0  # the end of the leftmost chain of the runs found
        for found, run in enumerate(chain):
            at = hay.find(run, start)
            if at < 0:
                break
            start = at + len(run)
        else:
            return None
        # the longest prefix of the first missing run that occurs after the
        # runs found, by galloping, then bisecting; a prefix occurs wherever
        # a longer one does
        missing = chain[found]
        low, high = 0, 1
        while high < len(missing) and hay.find(missing[:high], start) >= 0:
            low, high = high, 2 * high
        high = min(high, len(missing))
        while high - low > 1:
            mid = (low + high) // 2
            if hay.find(missing[:mid], start) < 0:
                high = mid
            else:
                low = mid
        # the wildcard group before each run up to the missing one: None for
        # none, else whether a ".*" in it is greedy; and the offset of the
        # missing run's raw span, and of the first "." of the group before it
        greedy: list[bool | None] = []
        group = dot = None
        pos = self.body_start
        for wild_start, wild_end, wild in self.wildcards:
            if wild_start > pos:  # the raw span of a run
                if len(greedy) == found:
                    break
                greedy.append(group)
                group = dot = None
            group = bool(group) or wild == ".*"
            dot = wild_start if dot is None else dot
            pos = wild_end
        if start == len(hay) and group is not None:
            # only a "." after the last run found can fail, since a later
            # run follows each earlier end
            return self.pattern[:dot], len(text), "."
        for _ in range(low):  # an escape is two pattern characters
            pos += 2 if self.pattern[pos] == "\\" else 1
        failing = self.pattern[pos : pos + (2 if self.pattern[pos] == "\\" else 1)]
        pieces = list(chain[:found])
        if low:
            pieces.append(missing[:low])
            greedy.append(group)
            group = None
        latest = [len(hay)] * len(pieces)
        if True in greedy:  # one backward pass, each piece ending by the next
            bound = len(hay)
            for i in reversed(range(len(pieces))):
                bound = latest[i] = hay.rfind(pieces[i], 0, bound)
        end = 0
        for piece, greedy_before, last in zip(pieces, greedy, latest):
            end = (last if greedy_before else hay.find(piece, end)) + len(piece)
        return self.pattern[:pos], len(text) if group else end, failing


def _unescape(run: str) -> str:
    """The text of a run of a find-chain body: each backslash there opens
    an escape, so a pair of them stands for one, and a lone one for the
    character after it."""
    if "\\" not in run:
        return run
    return "\\".join([part.replace("\\", "") for part in run.split("\\\\")])


@functools.lru_cache(maxsize=_ANALYSIS_CACHE_SIZE)
def analysis_or_error(pattern: str) -> Analysis | DialectError:
    """The pattern's analysis, or its DialectError, returned, not raised,
    and cached.  Every caller shares the error, so none may raise it:
    ``analyze`` raises a copy.

    A pattern the find-chain regex accepts is read off its match, split at
    its wildcards; any other is tokenized and walked by ``structure``."""
    shape = _CHAIN.fullmatch(pattern)
    if shape is not None:
        flags, pos = shape[1] or "", shape.start(2)
        texts, units = [], []
        for k, piece in enumerate(_WILDCARD.split(shape[2])):
            if k % 2:
                units.append((pos, pos + len(piece), piece))
            elif piece:
                texts.append(_unescape(piece))
            pos += len(piece)
        runs = tuple(LiteralRun(text, True) for text in texts)
        leading, chain, tokens = shape[2].startswith(".*"), tuple(texts), None
    else:
        try:
            tokens = tuple(tokenize(pattern))
            runs, leading = structure(tokens)
        except DialectError as exc:
            return DialectError(exc.message, exc.offset)  # one without frames
        flags = tokens[0].text[2:-1] if tokens and tokens[0].kind == FLAGS else ""
        units, chain = wildcard_units(tokens), None
    needles = tuple(f for r in runs if r.required and (f := fold(r.text)) is not None)
    if chain is not None and "i" in flags:
        chain = needles if len(needles) == len(chain) else None
    analysis = Analysis(pattern, runs, flags, leading, needles, chain, tuple(units))
    if tokens is not None:
        vars(analysis)["tokens"] = tokens  # the cached property, built already
    if chain is None:
        try:
            analysis.regex  # compile now: an re.error is a DialectError
        except re.error as exc:  # e.g. a{3,1} or [z-a]
            return DialectError(exc.msg, exc.pos or 0)
    return analysis


def analyze(pattern: str) -> Analysis:
    """Validate and analyze a pattern; raises DialectError.

    The outcome is ``analysis_or_error``'s: a repeated invalid pattern
    raises a new DialectError with the same message and offset, without
    tokenizing it again."""
    outcome = analysis_or_error(pattern)
    if isinstance(outcome, Analysis):
        return outcome
    raise DialectError(outcome.message, outcome.offset)


def compile_pattern(pattern: str) -> re.Pattern:
    """Validate a pattern against the dialect, then compile it."""
    return analyze(pattern).regex


def wildcard_units(tokens: Sequence[Token]) -> list[tuple[int, int, str]]:
    """Wildcard constructs as (start, end, text) spans.

    One unit per dot or class shorthand (merged with a following quantifier)
    and per quantified character class; an unquantified class is a constrained
    single-character match and is not counted.
    """
    units: list[tuple[int, int, str]] = []
    for tok, nxt in zip(tokens, [*tokens[1:], None]):
        quant = nxt.text if nxt is not None and nxt.kind == QUANT else ""
        if tok.kind in (DOT, CLASS_ESCAPE) or tok.kind == CLASS and quant:
            units.append((tok.pos, tok.end + len(quant), tok.text + quant))
    return units


# Structural features, in vector order, and the token kinds each one counts.
_FEATURES = {
    "groups": (GROUP_OPEN,),
    "classes": (CLASS,),
    "wildcards": (DOT, CLASS_ESCAPE),
    "anchors": (ANCHOR,),
    "quantifiers": (QUANT,),
    "alternations": (ALT,),
    "escapes": (ESCAPE,),
}
FEATURE_NAMES = tuple(_FEATURES)


def feature_vector(pattern: str) -> tuple[int, ...]:
    """Structural feature counts in FEATURE_NAMES order."""
    kinds = Counter(tok.kind for tok in tokenize(pattern))
    return tuple(sum(kinds[k] for k in _FEATURES[name]) for name in FEATURE_NAMES)
