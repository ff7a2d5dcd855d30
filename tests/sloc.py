"""Count the code lines of src/: lines that hold a token other than a comment.

Usage::

    python tests/sloc.py

Blank lines, comment-only lines and the docstrings of modules, classes and
functions are not counted; a line that holds code and a comment is. Prints
the count of each module under ``src/`` and the total. It gates nothing.
"""

import ast
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of lines of `text` that hold a code token."""
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main():
    total = 0
    for root, dirs, names in os.walk(SRC):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    n = code_lines(f.read())
                total += n
                print(f"{n:6d}  {os.path.relpath(path, SRC)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
