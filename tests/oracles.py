"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written from scratch against the intended
behavior (brute force or direct transcription), not by calling back into the
package's own code paths.
"""

from __future__ import annotations

import re
import string

from ioc2regex.dialect import (
    ALT, ANCHOR, CLASS, CLASS_ESCAPE, DOT, ESCAPE, FLAGS, GROUP_CLOSE,
    GROUP_OPEN, LITERAL, QUANT, DialectError, Token,
)


def brute_force_longest_run(
    components: list[str], names: set[str], edges: set[tuple[str, str]]
) -> int:
    """Length of the longest contiguous pairwise-adjacent window of in-store
    components.  ``names``/``edges`` are case-folded; exhaustive over all
    windows of the compacted in-store list."""
    v = [c.casefold() for c in components if c.casefold() in names]
    best = 0
    for i in range(len(v)):
        for j in range(i, len(v)):
            window = v[i : j + 1]
            if all(
                (window[k], window[k + 1]) in edges for k in range(len(window) - 1)
            ):
                best = max(best, len(window))
    return best


def interpret_command_algorithm(
    components: list[str],
    commands: dict[str, set[str]],
    parameters: set[str],
) -> list[list[str]]:
    """Direct transcription of the command capture-group pseudocode.

    V keeps components known to the store (commands or parameters), in order;
    a command opens a sequence (flushing the current one), a parameter joins
    the open sequence when the store links it to that sequence's command.
    """
    known = set(commands) | parameters
    v = [c for c in components if c.casefold() in known]
    omega: list[list[str]] = []
    current: list[str] = []
    c: str | None = None
    for comp in v:
        folded = comp.casefold()
        if folded in commands:
            if current:
                omega.append(current)
            current = [comp]
            c = folded
        elif folded in parameters and c is not None and folded in commands.get(c, set()):
            current.append(comp)
    if current:
        omega.append(current)
    return omega


def recount_score(
    pattern: str, keep_components: list[str], foreign_run_min: int = 3
) -> tuple[int, int]:
    """Independent (n_cg, n_wc) recount via a character-scan parser.

    Single pass with a group stack; no tokenizer reuse.  Implements the same
    documented rules: keep components count when some literal occurrence is
    on every match path, i.e. there is no top-level '|' and the occurrence
    sits outside every group that holds a '|' of its own or carries a
    quantifier with minimum zero ('?', '*', '{0,n}', '{0,}', lazy or not);
    wildcard units are dots and class shorthands (with their quantifier) plus
    quantified classes, except one leading and one trailing bare '.*';
    leftover literal stretches of >= foreign_run_min non-glue characters each
    count one penalty.  Keeps are found in the case-folded run text, and each
    occurrence covers the run characters its folded characters come from.
    """
    glue = {"\\", "/", " ", "\t"}
    class_escapes = set("wWsSdD")

    import re as _re

    i = 0
    n = len(pattern)
    flags = _re.match(r"\(\?[imsx]+\)", pattern)
    if flags:
        i = flags.end()

    # element kinds: ("lit", char, start, end), ("wild", start, end),
    # ("open", start), ("close", end_of_group), ("other",)
    elements: list[tuple] = []
    while i < n:
        ch = pattern[i]
        if ch == "\\" and i + 1 < n:
            nxt = pattern[i + 1]
            if nxt in class_escapes:
                elements.append(("wild", i, i + 2))
            else:
                elements.append(("lit", nxt, i, i + 2))
            i += 2
        elif ch == "[":
            j = i + 1
            if j < n and pattern[j] == "^":
                j += 1
            if j < n and pattern[j] == "]":
                j += 1
            while j < n and pattern[j] != "]":
                j += 2 if pattern[j] == "\\" else 1
            elements.append(("class", i, j + 1))
            i = j + 1
        elif ch == ".":
            elements.append(("wild", i, i + 1))
            i += 1
        elif ch == "(":
            if pattern.startswith("(?:", i):
                elements.append(("open", i))
                i += 3
            else:
                elements.append(("open", i))
                i += 1
        elif ch == ")":
            elements.append(("close", i + 1))
            i += 1
        elif ch in "*+?" or ch == "{":
            if ch == "{":
                j = pattern.index("}", i) + 1
            else:
                j = i + 1
            if j < n and pattern[j] == "?":
                j += 1
            elements.append(("quant", i, j, pattern[i:j]))
            i = j
        elif ch in "^$|":
            elements.append(("other", i, i + 1))
            i += 1
        else:
            elements.append(("lit", ch, i, i + 1))
            i += 1

    # quantifier merge: mark which element indexes are followed by a quant
    followed_by_quant = [
        k + 1 < len(elements) and elements[k + 1][0] == "quant"
        for k in range(len(elements))
    ]

    def min_zero(quant: str) -> bool:
        if quant.startswith("{"):
            return int(quant[1:].split(",")[0].split("}")[0]) == 0
        return quant in ("?", "??", "*", "*?")

    # spans off some match path: skippable groups and groups holding a '|'
    spans: list[tuple[int, int]] = []
    stack: list[list] = []  # [group start, holds a '|' at its own level]
    top_level_alt = False
    for k, el in enumerate(elements):
        if el[0] == "open":
            stack.append([el[1], False])
        elif el[0] == "other" and pattern[el[1]] == "|":
            if stack:
                stack[-1][1] = True
            else:
                top_level_alt = True
        elif el[0] == "close" and stack:
            start, has_alt = stack.pop()
            if followed_by_quant[k] and min_zero(elements[k + 1][3]):
                spans.append((start, elements[k + 1][2]))
            elif has_alt:
                spans.append((start, el[1]))

    # literal runs: consecutive unquantified lit elements
    runs: list[list[tuple[str, int, int]]] = []
    current: list[tuple[str, int, int]] = []
    for k, el in enumerate(elements):
        if el[0] == "lit" and not followed_by_quant[k]:
            current.append((el[1], el[2], el[3]))
        else:
            if current:
                runs.append(current)
            current = []
    if current:
        runs.append(current)

    def off_some_path(s: int, e: int) -> bool:
        return top_level_alt or any(a <= s and e <= b for a, b in spans)

    n_cg = 0
    covered: list[set[int]] = [set() for _ in runs]
    for comp in keep_components:
        comp_f = comp.casefold()
        found = False
        for ri, run in enumerate(runs):
            text = "".join(c for c, _s, _e in run).casefold()
            # the run element each case-folded character comes from
            owner = [k for k, (c, _s, _e) in enumerate(run) for _ in c.casefold()]
            at = 0
            while (hit := text.find(comp_f, at)) != -1:
                hits = owner[hit : hit + len(comp_f)]
                covered[ri].update(hits)
                start = run[hits[0]][1]
                end = run[hits[-1]][2]
                if not off_some_path(start, end):
                    found = True
                at = hit + 1
        if found:
            n_cg += 1

    # wildcard units with anchor exemption
    n_wc = 0
    wild_units: list[tuple[int, int]] = []
    k = 0
    while k < len(elements):
        el = elements[k]
        if el[0] == "wild":
            end = elements[k + 1][2] if followed_by_quant[k] else el[2]
            wild_units.append((el[1], end))
            k += 2 if followed_by_quant[k] else 1
        elif el[0] == "class" and followed_by_quant[k]:
            wild_units.append((el[1], elements[k + 1][2]))
            k += 2
        else:
            k += 1
    exempt: set[tuple[int, int]] = set()
    if (
        len(elements) >= 2
        and elements[0][0] == "wild"
        and pattern[elements[0][1]] == "."
        and elements[1][0] == "quant"
        and elements[1][3] == "*"
    ):
        exempt.add((elements[0][1], elements[1][2]))
    if (
        len(elements) >= 2
        and elements[-1][0] == "quant"
        and elements[-1][3] == "*"
        and elements[-2][0] == "wild"
        and pattern[elements[-2][1]] == "."
    ):
        exempt.add((elements[-2][1], elements[-1][2]))
    n_wc += sum(1 for unit in wild_units if unit not in exempt)

    # foreign literal stretches
    for ri, run in enumerate(runs):
        stretch = 0
        for ci, (char, _s, _e) in enumerate(run):
            if ci in covered[ri] or char in glue:
                if stretch >= foreign_run_min:
                    n_wc += 1
                stretch = 0
            else:
                stretch += 1
        if stretch >= foreign_run_min:
            n_wc += 1

    return n_cg, n_wc


def reference_matches(pattern: str, truths) -> list[int]:
    """Indices of the truths whose normalized text the pattern finds, by
    plain ``re.search`` over every truth: no prefilter, no analysis."""
    return [i for i, t in enumerate(truths) if re.search(pattern, t.normalized)]


def reference_prefilter(pattern: str, truths) -> list[int]:
    """Indices of the truths the evaluation's prefilter passes, one truth at
    a time: every required run (``reference_structure``) in the normalized
    text; under ``(?i)``, every ASCII run lowercased in the text lowercased,
    and any text that is not ASCII."""
    from ioc2regex import dialect as d

    tokens = d.tokenize(pattern)
    runs, _leading = reference_structure(tokens)
    needles = [run.text for run in runs if run.required]
    if tokens and tokens[0].kind == d.FLAGS and "i" in tokens[0].text:
        needles = [n.lower() for n in needles if n.isascii()]
        hays = [t.normalized.lower() if t.normalized.isascii() else None for t in truths]
    else:
        hays = [t.normalized for t in truths]
    return [
        i for i, hay in enumerate(hays)
        if hay is None or all(needle in hay for needle in needles)
    ]


def reference_levenshtein(a: str, b: str) -> int:
    """Character-level edit distance by the O(len(a) * len(b)) row DP."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def reference_overgen_ok(pattern: str, seed: int, keeps) -> bool:
    """The over-generalization verdict by its definition: the pattern passes
    unless plain ``re.search`` finds every one of the seed's ten probes."""
    from ioc2regex.generation import random_probe_strings

    probes = random_probe_strings(seed, keeps)
    return not all(re.search(pattern, probe) for probe in probes)


def reference_probe_strings(seed: int, keeps, count: int = 10) -> list[str]:
    """The first ``count`` probe strings by plain rejection sampling: seeded
    strings of 8-64 printable non-whitespace characters, redrawn while one
    holds a keep (case-folded)."""
    import random

    alphabet = "".join(c for c in string.printable if not c.isspace())
    rng = random.Random(seed)
    folded = [k.casefold() for k in keeps if k]
    out = []
    while len(out) < count:
        length = rng.randint(8, 64)
        candidate = "".join(rng.choice(alphabet) for _ in range(length))
        if not any(k in candidate.casefold() for k in folded):
            out.append(candidate)
    return out


# The character-loop tokenizer that ``dialect.tokenize`` replaced, kept
# verbatim as its differential oracle.  It reads brace bounds with ``\d``,
# which also matches non-ASCII digits: the one place where it and ``re``
# (and so ``dialect.tokenize``) disagree.
_CLASS_ESCAPE_CHARS = "wWsSdD"
_FLAGS_RE = re.compile(r"\(\?[ims]+\)")
_BRACE_QUANT_RE = re.compile(r"\{\d+(,\d*)?\}")
# Python reads these as {0,n} and {0,}; other engines as literal text.
_BRACE_NO_LOW_RE = re.compile(r"\{,\d*\}")


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


def reference_tokenize(pattern: str):
    """Split a pattern into dialect tokens; raises DialectError outside it."""
    tokens: list[Token] = []
    literal_buf: list[str] = []
    literal_pos = 0

    def flush() -> None:
        nonlocal literal_buf
        if literal_buf:
            tokens.append(Token(LITERAL, "".join(literal_buf), literal_pos))
            literal_buf = []

    def push_quant(text: str, pos: int) -> None:
        # a quantifier binds to the last character of a literal run only
        if tokens and tokens[-1].kind == LITERAL and len(tokens[-1].text) > 1:
            prev = tokens.pop()
            tokens.append(Token(LITERAL, prev.text[:-1], prev.pos))
            tokens.append(Token(LITERAL, prev.text[-1], prev.pos + len(prev.text) - 1))
        tokens.append(Token(QUANT, text, pos))

    i = 0
    n = len(pattern)
    m = _FLAGS_RE.match(pattern)
    if m:
        tokens.append(Token(FLAGS, m.group(0), 0))
        i = m.end()

    while i < n:
        ch = pattern[i]
        if ch == "\\":
            if i + 1 >= n:
                raise DialectError("dangling backslash", i)
            nxt = pattern[i + 1]
            flush()
            if nxt in _CLASS_ESCAPE_CHARS:
                tokens.append(Token(CLASS_ESCAPE, pattern[i : i + 2], i))
            elif not nxt.isalnum():
                tokens.append(Token(ESCAPE, pattern[i : i + 2], i))
            else:
                raise DialectError(f"unsupported escape \\{nxt}", i)
            i += 2
        elif ch == "[":
            flush()
            end = _parse_class(pattern, i)
            tokens.append(Token(CLASS, pattern[i:end], i))
            i = end
        elif ch == "(":
            flush()
            if pattern.startswith("(?:", i):
                tokens.append(Token(GROUP_OPEN, "(?:", i))
                i += 3
            elif pattern.startswith("(?", i):
                raise DialectError("group extension not in dialect", i)
            else:
                tokens.append(Token(GROUP_OPEN, "(", i))
                i += 1
        elif ch == ")":
            flush()
            tokens.append(Token(GROUP_CLOSE, ")", i))
            i += 1
        elif ch == ".":
            flush()
            tokens.append(Token(DOT, ".", i))
            i += 1
        elif ch in "^$":
            flush()
            tokens.append(Token(ANCHOR, ch, i))
            i += 1
        elif ch == "|":
            flush()
            tokens.append(Token(ALT, "|", i))
            i += 1
        elif ch in "*+?":
            flush()
            text = pattern[i : i + 2] if pattern.startswith("?", i + 1) else ch
            push_quant(text, i)
            i += len(text)
        elif ch == "{":
            qm = _BRACE_QUANT_RE.match(pattern, i)
            if qm:
                flush()
                text = qm.group(0)
                if qm.end() < n and pattern[qm.end()] == "?":
                    text += "?"
                push_quant(text, i)
                i += len(text)
            elif _BRACE_NO_LOW_RE.match(pattern, i):
                raise DialectError("brace quantifier needs a lower bound: {0,n}", i)
            else:
                if not literal_buf:
                    literal_pos = i
                literal_buf.append(ch)
                i += 1
        else:
            if not literal_buf:
                literal_pos = i
            literal_buf.append(ch)
            i += 1
    flush()
    return tokens


def _reference_bounds(text: str) -> tuple[int, int | None]:
    q = text.rstrip("?") or "?"
    if q in ("?", "*", "+"):
        return {"?": (0, 1), "*": (0, None), "+": (1, None)}[q]
    low, comma, high = q[1:-1].partition(",")
    if not comma:
        return int(low), int(low)
    return int(low), int(high) if high else None


def reference_structure(tokens):
    """Validity, literal runs and the leading-wildcard flag of a token stream
    from three separate scans, each with its own record of group nesting:
    a validator, a literal-run scan and a top-level ``|`` scan.  Returns
    (runs, leading_wildcard) or raises DialectError."""
    from ioc2regex import dialect as d

    # 1. validation: quantifier placement, balance, star height, '|' under repetition
    opened = []
    repeats_inside = alt_inside = False
    closed_repeats_inside = closed_alt_inside = False
    prev = None
    for tok in tokens:
        if tok.kind == d.QUANT:
            if prev is None or prev.kind not in (
                d.LITERAL, d.ESCAPE, d.CLASS_ESCAPE, d.CLASS, d.DOT, d.GROUP_CLOSE
            ):
                raise d.DialectError("quantifier has nothing to repeat", tok.pos)
            high = _reference_bounds(tok.text)[1]
            if high is None or high > 1:
                if prev.kind == d.GROUP_CLOSE and closed_repeats_inside:
                    raise d.DialectError(
                        "nested repetition: a repeated group may not contain"
                        " a repeating quantifier",
                        tok.pos,
                    )
                if prev.kind == d.GROUP_CLOSE and closed_alt_inside:
                    raise d.DialectError(
                        "alternation inside a repeated group; use a character class",
                        tok.pos,
                    )
                repeats_inside = True
        elif tok.kind == d.ALT:
            alt_inside = True
        elif tok.kind == d.GROUP_OPEN:
            opened.append((tok.pos, repeats_inside, alt_inside))
            repeats_inside = alt_inside = False
        elif tok.kind == d.GROUP_CLOSE:
            if not opened:
                raise d.DialectError("unbalanced ')'", tok.pos)
            closed_repeats_inside, closed_alt_inside = repeats_inside, alt_inside
            _pos, outer_repeats, outer_alt = opened.pop()
            repeats_inside = outer_repeats or repeats_inside
            alt_inside = outer_alt or alt_inside
        prev = tok
    if opened:
        raise d.DialectError("unbalanced '('", opened[-1][0])

    # 2. literal runs, each level remembering its first run and its own '|'
    texts, optional, current = [], [], []
    levels = [[0, False]]

    def flush():
        if current:
            texts.append("".join(current))
            optional.append(False)
            current.clear()

    for k, tok in enumerate(tokens):
        nxt = tokens[k + 1] if k + 1 < len(tokens) else None
        quantified = nxt is not None and nxt.kind == d.QUANT
        if tok.kind == d.LITERAL and not quantified:
            current.append(tok.text)
        elif tok.kind == d.ESCAPE and not quantified:
            current.append(tok.text[1])
        else:
            flush()
            if tok.kind == d.GROUP_OPEN:
                levels.append([len(texts), False])
            elif tok.kind == d.ALT:
                levels[-1][1] = True
            elif tok.kind == d.GROUP_CLOSE:
                first, alternated = levels.pop()
                skippable = quantified and _reference_bounds(nxt.text)[0] == 0
                if alternated or skippable:
                    optional[first:] = [True] * (len(texts) - first)
    flush()
    if levels[0][1]:
        optional = [True] * len(texts)
    runs = [d.LiteralRun(text, not opt) for text, opt in zip(texts, optional)]

    # 3. leading wildcard: '.' under an unbounded quantifier, no top-level '|'
    body = tokens[1:] if tokens and tokens[0].kind == d.FLAGS else tokens
    leading = (
        len(body) >= 2
        and body[0].kind == d.DOT
        and body[1].kind == d.QUANT
        and _reference_bounds(body[1].text)[1] is None
    )
    depth = 0
    for tok in body if leading else ():
        if tok.kind == d.GROUP_OPEN:
            depth += 1
        elif tok.kind == d.GROUP_CLOSE:
            depth -= 1
        elif tok.kind == d.ALT and depth == 0:
            leading = False
    return runs, leading


def reference_chain_shape(tokens) -> bool:
    """Whether a valid token stream has the find-chain shape: flags, then
    literals, escapes and dots only, each dot under ``*`` or ``*?`` and no
    other quantifier."""
    for k, tok in enumerate(tokens):
        nxt = tokens[k + 1] if k + 1 < len(tokens) else None
        if tok.kind == DOT:
            if nxt is None or nxt.kind != QUANT or nxt.text not in ("*", "*?"):
                return False
        elif tok.kind == QUANT:
            if k == 0 or tokens[k - 1].kind != DOT:
                return False
        elif tok.kind not in (FLAGS, LITERAL, ESCAPE):
            return False
    return True


# What the match sampler draws for a shorthand, and the characters it tries
# against a class.
_SHORTHAND_MEMBERS = {"\\w": "k", "\\W": "-", "\\s": " ", "\\S": "k", "\\d": "7", "\\D": "k"}
_CLASS_CANDIDATES = string.ascii_letters + string.digits + string.punctuation + " "


def sample_match(analysis, rng) -> str:
    """A string drawn from a pattern's tokens, meant to be one it matches:
    each literal as written, with ASCII letters in a random case under
    ``(?i)``, and an escape as its character; a letter for ``.``, one fixed
    member per shorthand, a member of a class from ``_CLASS_CANDIDATES``;
    ``lo`` to ``lo + 2`` repeats of a quantified atom, capped at its
    maximum; a random branch of an alternation; nothing for an anchor.

    A draw can miss (an anchor inside the text, a class with no candidate
    member), so callers keep only the draws ``re.search`` matches."""
    tokens = [tok for tok in analysis.tokens if tok.kind != FLAGS]
    flags = re.IGNORECASE if "i" in analysis.flags else 0
    pos = 0

    def alternatives() -> list[list]:
        """The branches up to the ``)`` that closes the current group, each
        a list of (atom, quantifier text); a group is its own branches."""
        nonlocal pos
        branches: list[list] = [[]]
        while pos < len(tokens) and tokens[pos].kind != GROUP_CLOSE:
            tok = tokens[pos]
            pos += 1
            if tok.kind == ALT:
                branches.append([])
                continue
            atom = tok
            if tok.kind == GROUP_OPEN:
                atom = alternatives()
                pos += 1  # its ')'
            quant = ""
            if pos < len(tokens) and tokens[pos].kind == QUANT:
                quant = tokens[pos].text
                pos += 1
            branches[-1].append((atom, quant))
        return branches

    def draw(branches: list[list]) -> str:
        out = []
        for atom, quant in rng.choice(branches):
            low, high = _reference_bounds(quant) if quant else (1, 1)
            count = rng.randint(low, low + 2 if high is None else min(low + 2, high))
            out += [one(atom) for _ in range(count)]
        return "".join(out)

    def one(atom) -> str:
        if isinstance(atom, list):
            return draw(atom)
        if atom.kind == LITERAL:
            return "".join(
                c.swapcase() if flags and c.isascii() and rng.random() < 0.5 else c
                for c in atom.text
            )
        if atom.kind == ESCAPE:
            return atom.text[1]
        if atom.kind == DOT:
            return rng.choice(string.ascii_letters)
        if atom.kind == CLASS_ESCAPE:
            return _SHORTHAND_MEMBERS[atom.text]
        if atom.kind == CLASS:
            members = [c for c in _CLASS_CANDIDATES if re.fullmatch(atom.text, c, flags)]
            return rng.choice(members) if members else ""
        return ""  # an anchor

    return draw(alternatives())


def reference_debug_check(pattern: str, target: str):
    """The debug diagnostic with every literal split into characters before
    the prefix scan starts (the eager form); same fields, same text."""
    from ioc2regex import dialect
    from ioc2regex.generation import DebugResult

    try:
        tokens = dialect.analyze(pattern).tokens
    except dialect.DialectError as exc:
        return DebugResult(ok=False, syntax_error=str(exc))
    if re.search(pattern, target):
        return DebugResult(ok=True)

    split: list = []
    for tok in tokens:
        if tok.kind == dialect.LITERAL and len(tok.text) > 1:
            split.extend(
                dialect.Token(dialect.LITERAL, c, tok.pos + j)
                for j, c in enumerate(tok.text)
            )
        else:
            split.append(tok)
    matched_prefix = ""
    target_offset = 0
    failing = split[0].text if split else ""
    depth = 0
    for k, tok in enumerate(split):
        if tok.kind == dialect.GROUP_OPEN:
            depth += 1
        elif tok.kind == dialect.GROUP_CLOSE:
            depth -= 1
        if depth != 0:
            continue
        prefix = pattern[: tok.end]
        try:
            rx_prefix = re.compile(prefix)
        except re.error:
            continue
        m = rx_prefix.search(target)
        if m is not None:
            matched_prefix = prefix
            target_offset = m.end()
            failing = split[k + 1].text if k + 1 < len(split) else ""
        else:
            failing = tok.text
            break
    return DebugResult(
        ok=False,
        matched_prefix=matched_prefix,
        failing_token=failing,
        target_offset=target_offset,
    )


def reference_prompt(
    annotation,
    previous_pattern: str = "",
    diagnostic: str = "",
    prior_failures: int = 0,
) -> str:
    """The backend prompt, as the list-and-join formatter built it: the
    indicator head, then the per-attempt tail."""
    from ioc2regex.dialect import DIALECT_RULES

    rec = annotation.record
    lines = [
        "Generate one regular expression for the following indicator string.",
        "",
        "Indicator (the regex must match it):",
        f"  {rec.normalized}",
        "",
        "Invariant components (each must appear literally in the regex):",
    ]
    lines += [f"  - {comp}" for comp in annotation.keep_components]
    lines += ["", "Mutable components (none of these may appear literally):"]
    discards = annotation.discard_components
    lines += [f"  - {comp}" for comp in discards] if discards else ["  (none)"]
    lines += ["", "Allowed regex syntax:"]
    lines += [f"  {rule}" for rule in DIALECT_RULES]
    head = "\n".join(lines)

    lines = [""]
    if prior_failures:
        lines += [
            "",
            f"Note: {prior_failures} earlier attempt(s) were discarded by validation; start fresh.",
        ]
    if diagnostic:
        lines += [
            "",
            "Feedback on the previous attempt:",
            f"  pattern: {previous_pattern}",
            f"  problem: {diagnostic}",
        ]
    lines += ["", "Respond with the regular expression only."]
    return head + "\n".join(lines)


def reference_generate(
    annotation,
    backend,
    rng_seed: int = 0,
    max_iterations: int = 10,
    restart_cap: int = 5,
    validate_groups: bool = True,
):
    """The staged workflow with each gate in its own block: a retry loop for
    debug and for the audit, then one over-generalization check.  Every check
    is called directly, with no memo, and every prompt is built by
    ``reference_prompt``.  Returns (pattern or None, trace)."""
    from ioc2regex.generation import (
        Attempt,
        BackendError,
        WorkflowTrace,
        debug_check,
        noncapture_check,
        overgen_check,
    )

    target = annotation.record.normalized
    trace = WorkflowTrace()

    def record(restart, stage, pattern, result):
        verdict = "pass" if result.ok else "fail"
        trace.attempts.append(Attempt(restart, stage, pattern, verdict, result.describe()))

    def audit(pattern):
        regression = debug_check(pattern, target)
        return regression if not regression.ok else noncapture_check(pattern, annotation)

    for restart in range(restart_cap):
        trace.restarts = restart
        try:
            pattern = backend.propose(
                annotation, reference_prompt(annotation, prior_failures=restart)
            )
        except BackendError as exc:
            trace.attempts.append(
                Attempt(restart, "debug", "", "error", f"backend error: {exc}")
            )
            continue
        if pattern == "":
            trace.attempts.append(
                Attempt(restart, "debug", "", "error", "backend error: empty pattern")
            )
            continue

        def run_stage(stage, checker):
            nonlocal pattern
            for attempt_no in range(max_iterations):
                result = checker(pattern)
                record(restart, stage, pattern, result)
                if result.ok:
                    return True
                if attempt_no == max_iterations - 1:
                    return False
                feedback = reference_prompt(
                    annotation,
                    previous_pattern=pattern,
                    diagnostic=result.describe(),
                    prior_failures=restart,
                )
                try:
                    reply = backend.propose(annotation, feedback)
                except BackendError as exc:
                    trace.attempts.append(
                        Attempt(restart, stage, pattern, "error", f"backend error: {exc}")
                    )
                    return False
                if reply == "":
                    trace.attempts.append(
                        Attempt(restart, stage, pattern, "error", "backend error: empty pattern")
                    )
                    return False
                pattern = reply
            return False

        if not run_stage("debug", lambda p: debug_check(p, target)):
            continue
        if validate_groups and not run_stage("noncapture", audit):
            continue
        overgen = overgen_check(pattern, rng_seed, annotation.keep_components)
        trace.probed = trace.probed or bool(overgen.probes)
        record(restart, "overgen", pattern, overgen)
        if overgen.ok:
            return pattern, trace
    return None, trace


# -- normalize: the per-call helpers and the character-loop segmenter ------
# Transcribed from the implementation that rebuilt its tables and patterns on
# every call and ran every rewrite on every string; the package's compiled,
# prefiltered normalize layer must agree with it on every input.

_REF_ENV_VAR_RE = re.compile(r"%[A-Za-z_][A-Za-z0-9_()]*%")
_REF_DRIVE_PREFIX_RE = re.compile(r"^[A-Za-z]:[\\/]")
_REF_DELIMS_RE = re.compile(r"[\\/]+")
_REF_BUILTIN_USERS_CHILDREN = frozenset(
    {"public", "default", "user", "all users", "default user"}
)


def _ref_registry_markers(registry_roots: dict) -> frozenset[str]:
    names = set(registry_roots)
    names.update(v.casefold() for v in registry_roots.values())
    names.add("registry")
    return frozenset(names)


def _ref_quoted_inside(s: str) -> str | None:
    """The stripped inside of ``s`` when ``s`` is one pair of double quotes
    around text that is not blank and holds no quote."""
    if len(s) < 2 or s[0] != '"' or s[-1] != '"':
        return None
    inside = s[1:-1]
    if '"' in inside or not inside.strip():
        return None
    return inside.strip()


def reference_classify(raw: str, store, registry_roots: dict | None = None):
    from ioc2regex.knowledge import NodeLabel, strip_executable_extension
    from ioc2regex.normalize import BUNDLED, ClassificationError, IocKind

    s = raw.strip()
    if not s:
        raise ClassificationError("cannot classify empty or whitespace-only string")
    inside = _ref_quoted_inside(s)
    if inside is not None:  # a quoted string is classified by its inside
        s = inside

    roots = registry_roots if registry_roots is not None else BUNDLED.registry_roots
    # the first component that is not blank
    components = (c.strip() for c in _REF_DELIMS_RE.split(s))
    first_component = next((c for c in components if c), "")
    if first_component.casefold() in _ref_registry_markers(roots):
        return IocKind.REGISTRY_KEY

    tokens = s.split()
    first_token = strip_executable_extension(tokens[0].replace('"', ""))
    if store.label_of(first_token) is NodeLabel.COMMAND:
        return IocKind.COMMAND_LINE
    if len(tokens) > 1 and any(t.startswith(("/", "-")) for t in tokens):
        return IocKind.COMMAND_LINE

    if _REF_DELIMS_RE.search(s):
        if _REF_DRIVE_PREFIX_RE.match(s) or _REF_ENV_VAR_RE.search(s):
            return IocKind.FILE_PATH
        if len([c for c in _REF_DELIMS_RE.split(s) if c]) >= 2:
            return IocKind.FILE_PATH

    return IocKind.OTHER


def _ref_expand_env_vars(s: str, expansions: dict) -> str:
    def repl(m: re.Match) -> str:
        var = m.group(0)
        target = expansions.get(var.upper())
        if target is None:
            return var
        return target

    return _REF_ENV_VAR_RE.sub(repl, s)


def _ref_rewrite_registry_root(
    s: str, registry_roots: dict, dropped: bool = False, after_registry: bool = False
) -> str:
    m = re.match(r"^([\\/]*)([^\\/]+)", s)
    if not m:
        return s
    lead, first = m.group(1), m.group(2)
    folded = first.strip().casefold()
    if folded in ("", "registry"):
        # a blank or registry head is dropped: the same rule again on what
        # follows it
        rest = s[m.end(2) :].lstrip("\\/")
        return _ref_rewrite_registry_root(
            rest, registry_roots, dropped=True,
            after_registry=after_registry or folded == "registry",
        )
    if after_registry:  # the kernel namespace's names for two roots
        folded = {"machine": "hkey_local_machine", "user": "hkey_users"}.get(folded, folded)
    abbrev = registry_roots.get(folded)
    if abbrev is not None:
        return abbrev + s[m.end(2) :]
    if lead or dropped:
        return s[len(lead) :].lstrip()  # kept after a drop: no leading whitespace
    return s


def _ref_normalize_usernames(s: str, kind, store) -> str:
    from ioc2regex.normalize import IocKind

    native = set(_REF_BUILTIN_USERS_CHILDREN) | store.path_children("users")
    command = kind is IocKind.COMMAND_LINE
    prefix = re.compile(r"(?i)(?:^|[\\/\s\";])users[\\/]")

    out, pos, at = [], 0, 0
    while m := prefix.search(s, at):
        start = name_end = comp_end = m.end()
        # the name runs to a delimiter, or in a command line also to a quote
        while name_end < len(s) and s[name_end] not in ("\\/\"" if command else "\\/"):
            name_end += 1
        # the component ends at whitespace or ";" too in a command line
        while comp_end < name_end and not (
            command and (s[comp_end].isspace() or s[comp_end] == ";")
        ):
            comp_end += 1
        if comp_end == start:  # no component: "users" is no prefix here
            at = m.start() + 1
            continue
        if s[start:name_end].strip().casefold() in native:
            end = name_end
        elif s[start:comp_end].strip().casefold() in native:
            end = comp_end
        else:
            out.append(s[pos:start] + "user")
            pos = at = comp_end
            continue
        out.append(s[pos:end])
        pos = at = end
    out.append(s[pos:])
    return "".join(out)


def _ref_strip_command_extensions(s: str, store) -> str:
    from ioc2regex.knowledge import NodeLabel, strip_executable_extension

    def repl(m: re.Match) -> str:
        token = m.group(0)
        stripped = strip_executable_extension(token)
        if stripped != token and store.label_of(stripped) is NodeLabel.COMMAND:
            return stripped
        return token

    return re.sub(r'[^\s;"]+', repl, s)


def reference_preprocess(
    raw: str,
    kind,
    store,
    expansions: dict | None = None,
    registry_roots: dict | None = None,
) -> str:
    from ioc2regex.normalize import BUNDLED, IocKind

    if kind is IocKind.OTHER:
        return raw.strip()
    expansions = expansions if expansions is not None else BUNDLED.expansions
    registry_roots = (
        registry_roots if registry_roots is not None else BUNDLED.registry_roots
    )

    s = raw.strip()
    inside = _ref_quoted_inside(s)
    if inside is not None and kind is not IocKind.COMMAND_LINE:
        s = inside  # a quoted path or registry key loses its quotes
    s = _ref_expand_env_vars(s, expansions)
    if kind is IocKind.REGISTRY_KEY:
        s = _ref_rewrite_registry_root(s, registry_roots)
    s = _ref_normalize_usernames(s, kind, store)
    if kind is IocKind.COMMAND_LINE:
        s = _ref_strip_command_extensions(s, store)
    return s


def _ref_tokenize_command_line(s: str) -> list[str]:
    from ioc2regex.normalize import TokenizationError

    tokens: list[str] = []
    current: list[str] = []
    quote_start = -1
    in_quote = False
    for i, ch in enumerate(s):
        if ch == '"':
            if in_quote:
                in_quote = False
            else:
                in_quote = True
                quote_start = i
        elif in_quote:
            current.append(ch)
        elif ch.isspace() or ch == ";":
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if in_quote:
        raise TokenizationError("unterminated double quote", quote_start)
    if current:
        tokens.append("".join(current))
    return tokens


def reference_segment(normalized: str, kind) -> list[str]:
    from ioc2regex.normalize import IocKind

    if kind is IocKind.OTHER:
        return []
    if kind is IocKind.COMMAND_LINE:
        return _ref_tokenize_command_line(normalized)
    return [c for c in _REF_DELIMS_RE.split(normalized) if c]


def reference_make_record(
    raw: str,
    store,
    source_id: str = "",
    expansions: dict | None = None,
    registry_roots: dict | None = None,
):
    from ioc2regex.normalize import IocKind, IocRecord

    kind = reference_classify(raw, store, registry_roots=registry_roots)
    if kind is IocKind.OTHER:
        return IocRecord(raw=raw, kind=kind, normalized=raw.strip(), source_id=source_id)
    normalized = reference_preprocess(
        raw, kind, store=store, expansions=expansions, registry_roots=registry_roots
    )
    components = reference_segment(normalized, kind)
    return IocRecord(
        raw=raw,
        kind=kind,
        normalized=normalized,
        components=components,
        source_id=source_id,
    )
