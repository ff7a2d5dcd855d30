"""src/ holds only code that src/ itself uses, and no assert.

Every function, method and class that a module of src/repdp defines is
referenced from src/repdp (its __init__.py re-exports aside), so code
that only tests call, such as a reference evaluator, lives under tests/.
No module of src/repdp holds an `assert` statement: `python -O` strips
them, so no check may rest on one. The scans read the syntax tree, which
also sees the names inside an f-string's replacement fields.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "repdp")

# Defined for callers outside src/, each with the reason. The list can
# only shrink: a name on it must exist and stay unreferenced in src/.
ALLOWLIST = {
    # The paper's update header chain, 26 bytes per header (criterion
    # 6); the simulator carries headers as objects, one per frame.
    "encode_update",
    "decode_update",
}


def modules(with_init=False):
    """(file name, syntax tree) of each module of the package, in name
    order; __init__.py only if `with_init`."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and (with_init or name != "__init__.py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                yield name, ast.parse(f.read())


def scan():
    """(defined, referenced): each defined name with where it is
    defined, and every Name.id and Attribute.attr in the package."""
    defined, referenced = {}, set()
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_src_definition_is_referenced_in_src():
    defined, referenced = scan()
    unused = {n: where for n, where in defined.items()
              if n not in referenced and not (n.startswith("__") and n.endswith("__"))}
    stray = {n: where for n, where in unused.items() if n not in ALLOWLIST}
    assert not stray, f"defined in src/ but referenced only outside it: {stray}"
    stale = ALLOWLIST - unused.keys()
    assert not stale, f"allowlisted but referenced in src/ or gone: {sorted(stale)}"


def test_src_holds_no_assert():
    found = [f"{name}:{node.lineno}" for name, tree in modules(with_init=True)
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/: {found}"
