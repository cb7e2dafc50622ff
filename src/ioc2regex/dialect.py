"""Tokenizer and validator for the regex dialect accepted as final output.

The dialect is a portable subset of common regex engines: a leading inline
case-insensitivity flag, escaped literals, character classes, the wildcard
dot, quantifiers (``*`` ``+`` ``?`` ``{m,n}``, optionally lazy), alternation,
plain and non-capturing groups, and the ``^``/``$`` anchors.  Everything a
pattern is allowed to contain is produced here as a typed token stream.  A
group that contains a repeating quantifier may not itself be repeated (star
height at most one, so ``(a+)+`` and ``(.*a)*`` are rejected), and a group
that contains ``|`` at any depth may not be repeated either (``(?:a|a)+`` and
``(a|ab)*c`` are rejected; a character class says the same without
backtracking): both backtrack exponentially on near-miss inputs.  The
verbose flag ``(?x)`` and a brace quantifier without a lower bound
(``{,n}``) are rejected, because they would make text that reads as literal
match something else.  A brace bound may not exceed 65,535, PCRE's limit
(``re`` itself cannot compile one from 2**32 - 1).  A character class may
not open with ``[`` (``[[:alpha:]]`` is a POSIX class in PCRE and a nested
set to come in ``re``), nor hold ``--``, ``&&``, ``~~`` or ``||`` where
``re`` reads them as a set operation to come: both draw a ``FutureWarning``
from ``re``, and both mean something else elsewhere.

``tokenize`` matches one scanner pattern at each offset of a pattern.  Its
named alternatives are the token kinds, tried in order; a maximal literal
run is one token, and a quantifier after it takes the run's last character.
Where no alternative matches, the text there names the error.  A brace bound
is made of the ASCII digits ``0-9`` only, as ``re`` and PCRE read it, so
``a{٣}`` is that literal text, not ``a`` three times.

``analyze`` tokenizes a pattern, decides in one walk of its tokens
(``structure``) whether it is valid, which of its literal runs are required,
and the two shapes the match rules below look for, and caches the result,
or the ``DialectError`` it raised; the validation gates, the grader and the
evaluation all read that one analysis.  A run is *required* when it is
literally on every match path, not in an alternation branch or a group that
may match zero times.  ``Analysis.regex`` is compiled on first use.
``analyze`` compiles every pattern outside the find-chain shape at once, so
an ``re.error`` is still a ``DialectError``; a find-chain pattern always
compiles, and is compiled only if a search needs it.

Match rules.  ``Analysis.matches`` says exactly whether ``re.search`` finds a
match, and ``Analysis.explain`` says why it does not; both follow these
rules, which hold for every pattern in the dialect.

- Offset 0.  When the pattern, after its flags, opens with ``.`` under an
  unbounded quantifier (``*``, ``+`` or ``{m,}``, lazy or not; the *leading
  wildcard*), has no top-level ``|``, and the text holds no ``\n`` or the
  pattern sets ``(?s)``, a search tries offset 0 only (``regex.match``).
  The dialect has no backreferences and no lookbehind, so the leading ``.``
  run of a match found at any offset can be stretched back to offset 0, and
  ``re.search`` tries offset 0 first with the same backtracking as
  ``match``.  Without the rule, a miss costs one attempt per offset, each of
  which may scan the rest of the text.
- Find chain.  When the pattern's body, after its flags, is only literal
  runs and ``.`` under ``*`` or ``*?`` (the *find-chain* shape,
  ``(?i).*K1.*K2.*``), and the text holds no ``\n`` or the pattern sets
  ``(?s)``, the pattern matches exactly when its runs occur in the text in
  order without overlapping.  A greedy leftmost ``str.find`` chain decides
  that in one pass over the text (the automaton simulation of Cox, "Regular
  Expression Matching Can Be Simple And Fast", 2007, reduced to literals and
  ``.*``), where backtracking takes time of the order of the text length to
  the number of ``.*``.  Any other pattern or text is decided by a search.
- ``(?i)`` and ASCII.  ``re.IGNORECASE`` also matches ASCII letters to some
  non-ASCII ones (``i`` to ``ı``, ``s`` to ``ſ``, ``k`` to the Kelvin sign),
  which ``str.lower`` does not map, so lowercase comparison stands for
  ``(?i)`` only where both sides are ASCII.  ``fold(text)`` is the text
  lowercased when it is all ASCII, else None; ``Analysis.needles`` are the
  pattern's required runs that are ASCII, lowercased, in pattern order.
  Under ``(?i)`` the find chain is the needles, searched in the text's
  fold, and applies only when every run is ASCII and the text folds.
  Whatever the flags, a text whose fold lacks a needle cannot match: the
  probe's unprobed pass and, under ``(?i)``, the evaluation's prefilter
  read the needles.

``explain`` is lazy and runs only on a miss.  It finds the longest top-level
token prefix of the pattern, with literal runs split into characters, that
matches, and the token after it.  Under the find-chain rule ``str.find``
decides every prefix: one search per run, from the end of the run before,
up to the first missing run, then a bisection over that run's prefixes
(one occurs wherever a longer one does); a ``.`` fails where the run
before it ends the text.  One ``re`` call on the matched prefix, by the
offset-0 rule of the whole pattern, gives its end offset.  Any other
pattern or text is scanned prefix by prefix, each one searched by ``re``.
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

# One alternative per token kind, named after it (module docstring).  A class
# is matched up to its '[' only; ``_parse_class`` finds its end, since its
# leading-']' rule needs an atomic group, which ``re`` lacks before Python
# 3.11.  Nothing matches an unsupported escape, a dangling backslash, a group
# extension, or {,n}, which Python reads as {0,n} and other engines as
# literal text.
_SCANNER = re.compile(
    r"""
    (?P<flags>\A\(\?[ims]+\))
    | (?P<class_escape>\\[wWsSdD])
    | (?P<escape>\\(?![^\W_])[\s\S])  # [^\W_] is str.isalnum
    | (?P<class>\[)
    | (?P<group_open>\((?:\?:|(?!\?)))
    | (?P<group_close>\))
    | (?P<dot>\.)
    | (?P<anchor>[\^$])
    | (?P<alt>\|)
    | (?P<quant>(?:[*+?]|\{[0-9]+(?:,[0-9]*)?\})\??)
    | (?P<literal>(?:[^\\\[().^$|*+?{]|\{(?![0-9]+(?:,[0-9]*)?\}|,[0-9]*\}))+)
    """,
    re.VERBOSE,
)
_MAX_BOUND = 65535  # the largest brace bound

# Analyses kept for reuse; one indicator's k workflows mostly repeat patterns.
_ANALYSIS_CACHE_SIZE = 64

# Tokens a quantifier may follow.
_QUANTIFIABLE = frozenset({LITERAL, ESCAPE, CLASS_ESCAPE, CLASS, DOT, GROUP_CLOSE})
# Tokens of a find-chain pattern besides the quantifiers of its dots.
_CHAIN_KINDS = frozenset({FLAGS, LITERAL, ESCAPE, DOT})

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


@dataclass(frozen=True)
class Token:
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


def tokenize(pattern: str) -> list[Token]:
    """Split a pattern into dialect tokens; raises DialectError outside it."""
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


def structure(
    tokens: Sequence[Token],
) -> tuple[tuple[LiteralRun, ...], bool, bool]:
    """Validate a token stream and find its literal runs, in one walk.

    Returns the maximal literal runs, with unescaped text; whether the
    pattern opens with a leading wildcard, its half of the offset-0 rule;
    and whether it has the find-chain shape (both in the module docstring).
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
    chain = True

    def flush() -> None:
        if current:
            texts.append("".join(current))
            required.append(True)
            current.clear()

    def not_required(first: int) -> None:
        required[first:] = [False] * (len(texts) - first)

    for k, tok in enumerate(tokens):
        if tok.kind != QUANT:
            chain &= tok.kind in _CHAIN_KINDS and (prev is None or prev.kind != DOT)
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
            chain &= prev.kind == DOT and tok.text in ("*", "*?")
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
    chain &= prev is None or prev.kind != DOT
    runs = tuple(map(LiteralRun, texts, required))
    return runs, leading and not stack[0].alt, chain


@dataclass(frozen=True)
class LiteralRun:
    """A maximal stretch of literal characters in a pattern.

    ``required`` runs are literally on every match path: not in an alternation
    branch and not in a group whose quantifier allows zero repetitions.
    """

    text: str
    required: bool


def fold(text: str) -> str | None:
    """The text lowercased when it is all ASCII, else None: the one form in
    which lowercase comparison stands for ``(?i)`` (module docstring)."""
    return text.lower() if text.isascii() else None


@dataclass(frozen=True)
class Analysis:
    """One pattern's tokens and literal runs, and its regex.

    ``flags`` holds the letters of the inline flags token, e.g. ``"i"``.
    ``leading_wildcard`` is the pattern's half of the offset-0 rule in the
    module docstring.  ``needles`` are the ``fold`` of the required runs
    that are ASCII, in pattern order.  ``chain`` holds the runs ``matches``
    finds in order, for a pattern of the find-chain shape: under ``(?i)``
    the needles, when every run is ASCII.  It is None for any other pattern.
    The regex is compiled on first use.
    """

    pattern: str
    tokens: tuple[Token, ...]
    runs: tuple[LiteralRun, ...]
    flags: str
    leading_wildcard: bool
    needles: tuple[str, ...]
    chain: tuple[str, ...] | None

    @functools.cached_property
    def regex(self) -> re.Pattern:
        return re.compile(self.pattern)

    def _at_offset_0(self, text: str) -> bool:
        """Whether a search of ``text`` finds a match at offset 0 or none
        (the module docstring's offset-0 rule).  This also holds for every
        top-level token prefix of the pattern."""
        return self.leading_wildcard and ("\n" not in text or "s" in self.flags)

    def _hay(self, text: str) -> str | None:
        """The text the find chain searches for ``chain``, folded under
        ``(?i)``; None when the find-chain rule does not apply."""
        if self.chain is None or ("\n" in text and "s" not in self.flags):
            return None
        return fold(text) if "i" in self.flags else text

    def matches(self, text: str) -> bool:
        """Exactly ``self.regex.search(text) is not None``, by the module
        docstring's match rules."""
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
        compilable top-level token prefix of the pattern that matches, the
        end offset of its match in ``text``, and the first failing token,
        as the module docstring describes: by ``str.find`` under the
        find-chain rule, else by searching each prefix in turn.  The scan
        always ends at a failing prefix: the last one is the whole
        pattern."""
        if self.matches(text):
            return None
        hay = self._hay(text)
        if hay is not None:
            return self._explain_chain(text, hay)
        offset_0 = self._at_offset_0(text)
        matched, offset = "", 0
        depth = 0
        for tok in self.tokens:
            depth += (tok.kind == GROUP_OPEN) - (tok.kind == GROUP_CLOSE)
            if depth:
                continue
            for j, piece in enumerate(tok.text if tok.kind == LITERAL else (tok.text,)):
                end = tok.pos + j + len(piece)
                try:
                    rx = re.compile(self.pattern[:end])
                except re.error:
                    continue
                m = (rx.match if offset_0 else rx.search)(text)
                if m is None:
                    return matched, offset, piece
                matched, offset = self.pattern[:end], m.end()
        return matched, offset, ""

    def _explain_chain(self, text: str, hay: str) -> tuple[str, int, str]:
        """``explain`` of a miss under the find-chain rule, where ``hay`` is
        ``_hay(text)``; the runs are found, and the failing token named, by
        ``str.find`` alone."""
        ends = [0]  # 0, then the end of each run of the leftmost chain found
        for run in self.chain:
            at = hay.find(run, ends[-1])
            if at < 0:
                break
            ends.append(at + len(run))
        # the longest prefix of the first missing run that occurs after the
        # runs found; a prefix occurs wherever a longer one does
        found = len(ends) - 1
        missing = self.chain[found]
        low, high = 0, len(missing)
        while high - low > 1:
            mid = (low + high) // 2
            if hay.find(missing[:mid], ends[-1]) < 0:
                high = mid
            else:
                low = mid
        # one walk to the failing token: a "." with nothing left to match,
        # else the character after that prefix
        done = cut = 0  # runs the walk has passed, characters of the next one
        for tok in self.tokens:
            if tok.kind == DOT:
                done, cut = done + (cut > 0), 0
                if ends[done] == len(hay):
                    end, failing = tok.pos, tok.text
                    break
            elif tok.kind in (LITERAL, ESCAPE):
                pieces = tok.text if tok.kind == LITERAL else (tok.text,)
                if done == found and cut + len(pieces) > low:
                    end, failing = tok.pos + low - cut, pieces[low - cut]
                    break
                cut += len(pieces)
        matched = self.pattern[:end]
        if not matched:
            return "", 0, failing
        rx = re.compile(matched)
        m = (rx.match if self._at_offset_0(text) else rx.search)(text)
        return matched, m.end(), failing


@functools.lru_cache(maxsize=_ANALYSIS_CACHE_SIZE)
def _analysis_or_error(pattern: str) -> Analysis | tuple[str, int]:
    """The pattern's analysis, or the message and offset of its DialectError."""
    try:
        tokens = tuple(tokenize(pattern))
        runs, leading, chain_shape = structure(tokens)
    except DialectError as exc:
        return exc.message, exc.offset
    flags = tokens[0].text[2:-1] if tokens and tokens[0].kind == FLAGS else ""
    needles = tuple(f for r in runs if r.required and (f := fold(r.text)) is not None)
    chain = tuple(r.text for r in runs) if chain_shape else None
    if chain is not None and "i" in flags:
        chain = needles if len(needles) == len(chain) else None
    analysis = Analysis(pattern, tokens, runs, flags, leading, needles, chain)
    if chain is None:
        try:
            analysis.regex  # compile now: an re.error is a DialectError
        except re.error as exc:  # e.g. a{3,1} or [z-a]
            return exc.msg, exc.pos or 0
    return analysis


def analyze(pattern: str) -> Analysis:
    """Tokenize and validate a pattern; raises DialectError.

    The outcome is cached: a repeated invalid pattern raises a new
    DialectError with the same message and offset, without tokenizing it
    again.  ``analyze.cache_clear()`` empties the cache."""
    outcome = _analysis_or_error(pattern)
    if isinstance(outcome, Analysis):
        return outcome
    raise DialectError(*outcome)


analyze.cache_clear = _analysis_or_error.cache_clear


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
