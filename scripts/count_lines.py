"""Count the lines of Python files by kind: code, docstrings, comments and
blank lines.

A docstring line is one spanned by the string that opens a module, class or
function (`ast`); a comment line holds a comment and no code; a code line is
every other line with a token (`tokenize`). So a cut in code can be told
from a cut in prose. Prints one row per file and a total, with no threshold.

    python scripts/count_lines.py [PATH ...]   (default: src/ckml)
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")
PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """The number of lines of each kind in `source`."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comments.update(rows)
        elif tok.type not in PROSE:
            code.update(rows)
    code -= docs
    total = len(source.splitlines())
    counts = {"total": total, "code": len(code), "docstring": len(docs),
              "comment": len(comments - code - docs)}
    counts["blank"] = total - counts["code"] - counts["docstring"] - counts["comment"]
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/ckml"])
    args = parser.parse_args(argv)
    files = sorted(f for p in map(Path, args.paths)
                   for f in (p.rglob("*.py") if p.is_dir() else [p]))
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'file':<32}" + "".join(f"{k:>10}" for k in KINDS))
    for f in files:
        counts = count(f.read_text())
        for k in KINDS:
            totals[k] += counts[k]
        print(f"{str(f):<32}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'total':<32}" + "".join(f"{totals[k]:>10}" for k in KINDS))


if __name__ == "__main__":
    main()
