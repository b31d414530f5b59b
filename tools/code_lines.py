"""Count code lines: lines that hold a token, minus comments, blank lines
and docstrings.

    python tools/code_lines.py [PATH ...]

Prints each Python file under the given paths (default ``src``) with its
count, then the total.  A line holding any part of a token other than a
comment counts once; the lines of a docstring (the string that opens a
module, class or function body) do not.
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(paths) -> None:
    total = 0
    for path in sorted(f for p in map(Path, paths or ["src"])
                       for f in ([p] if p.is_file() else p.rglob("*.py"))):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
