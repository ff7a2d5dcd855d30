"""Run tier-1 under a line collector and fail on any src/ line that never ran.

Usage (Python >= 3.12, which has ``sys.monitoring``)::

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

One LINE callback records each line of ``src/`` the first time it runs and
returns ``DISABLE``, so every line costs one call. After ``pytest.main``
returns, every line that some code object of a ``src/`` module maps to is
checked. The run fails when pytest fails, when an executable line never ran
and ``ALLOWLIST`` does not name it, or when a line that ``ALLOWLIST`` names
did run or no longer exists: the list can only shrink.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (file under src/, stripped source text, why no tier-1 test runs it). An
# entry names every executable line of that file with that text.
ALLOWLIST = [
    ("repdp/cli.py", "sys.exit(main())",
     "runs only when cli.py is the program; tests call main()"),
]


def executable_lines(path):
    """Every line a code object compiled from ``path`` maps to (line 0 aside)."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, type(co)))
    return lines


def src_files():
    for root, _, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def main(argv):
    if sys.version_info < (3, 12):
        sys.exit("linecov needs Python >= 3.12 for sys.monitoring")
    import pytest

    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    prefix = SRC + os.sep
    ran = set()
    in_src = {}

    def on_line(code, line):
        name = code.co_filename
        if in_src.setdefault(name, name.startswith(prefix)):
            ran.add((name, line))
        return mon.DISABLE

    mon.use_tool_id(tool, "linecov")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)

    allowed = {(os.path.join(SRC, rel), text) for rel, text, _ in ALLOWLIST}
    matched = set()
    failures = []
    total = missed = 0
    for path in src_files():
        lines = executable_lines(path)
        with open(path, encoding="utf-8") as f:
            text = [""] + [s.strip() for s in f]
        rel = os.path.relpath(path, SRC)
        total += len(lines)
        for line in sorted(lines):
            key = (path, text[line])
            hit = (path, line) in ran
            missed += not hit
            if key in allowed:
                matched.add(key)
                if hit:
                    failures.append(f"{rel}:{line}: allowlisted line ran: {text[line]}")
            elif not hit:
                failures.append(f"{rel}:{line}: never ran: {text[line]}")
    for path, line_text in sorted(allowed - matched):
        rel = os.path.relpath(path, SRC)
        failures.append(f"{rel}: allowlist entry matches no line: {line_text}")

    print(f"linecov: {total - missed} of {total} executable src/ lines ran, "
          f"{missed} did not, {len(ALLOWLIST)} allowlisted")
    for failure in failures:
        print(failure)
    return 1 if failures or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
