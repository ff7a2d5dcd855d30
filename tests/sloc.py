"""Count the code lines of src/: lines that hold a token other than a comment.

Usage::

    python tests/sloc.py [REV]

Blank lines, comment-only lines and the docstrings of modules, classes and
functions are not counted; a line that holds code and a comment is. Prints
the count of each module under ``src/`` and the total. With a git revision
REV it also prints each module's count at REV, read through ``git show``
with no checkout, and the change from REV to the working tree. It gates
nothing.
"""

import ast
import io
import os
import subprocess
import sys
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


def working_tree():
    """Each module's code lines in src/, by its path under src/."""
    counts = {}
    for root, dirs, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    counts[os.path.relpath(path, SRC)] = code_lines(f.read())
    return counts


def at_revision(rev):
    """Each module's code lines in src/ at git revision `rev`."""
    git = ["git", "-C", os.path.dirname(SRC)]

    def run(*args):
        return subprocess.run(git + list(args), capture_output=True, text=True,
                              check=True).stdout

    return {os.path.relpath(path, "src"): code_lines(run("show", f"{rev}:{path}"))
            for path in run("ls-tree", "-r", "--name-only", rev, "--", "src").splitlines()
            if path.endswith(".py")}


def main(argv):
    now = working_tree()
    if len(argv) < 2:
        for name in sorted(now):
            print(f"{now[name]:6d}  {name}")
        print(f"{sum(now.values()):6d}  total")
        return
    try:
        then = at_revision(argv[1])
    except subprocess.CalledProcessError as exc:
        sys.exit(f"error: {exc.stderr.strip()}")
    print(f"{'at REV':>6}  {'now':>6}  {'change':>6}  (REV = {argv[1]})")
    for name in sorted(now.keys() | then.keys()):
        a, b = then.get(name, 0), now.get(name, 0)
        print(f"{a:6d}  {b:6d}  {b - a:+6d}  {name}")
    a, b = sum(then.values()), sum(now.values())
    print(f"{a:6d}  {b:6d}  {b - a:+6d}  total")


if __name__ == "__main__":
    main(sys.argv)
