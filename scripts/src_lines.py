#!/usr/bin/env python
"""Print the size of ``src/`` as two numbers: raw lines and code-only lines.

A code-only line carries a token that is neither a comment nor part of a
docstring (a string literal standing alone as a statement); blank lines
count only as raw lines. Usage: ``python scripts/src_lines.py [root]``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def count(text: str) -> tuple[int, int]:
    """(raw lines, code-only lines) of one file's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    totals = [count(p.read_text()) for p in sorted(root.rglob("*.py"))]
    print(sum(t[0] for t in totals), sum(t[1] for t in totals))
