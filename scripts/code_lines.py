#!/usr/bin/env python3
"""Count the code lines of the package's modules.

A code line holds at least one token other than a comment, and is not part
of a module, class or function docstring; blank lines do not count.  The
count is informational: it is printed per file and in total, and nothing
gates on it.

Run from the repository root:  python3 scripts/code_lines.py [FILE ...]
(default: src/ioc2regex/*.py)
"""

import ast
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of the module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(source)
    lines: set[int] = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in _NON_CODE:
                lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                             if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or sorted((root / "src" / "ioc2regex").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
