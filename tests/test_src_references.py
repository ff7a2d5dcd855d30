"""src/ holds only code that src/ itself uses.

Every function, method and class that a module of src/repdp defines is
referenced from src/repdp (its __init__.py re-exports aside), so code
that only tests call, such as a reference evaluator, lives under tests/.
The scan reads the syntax tree, which also sees the names inside an
f-string's replacement fields.
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


def scan():
    """(defined, referenced): each defined name with where it is
    defined, and every Name.id and Attribute.attr in the package."""
    defined, referenced = {}, set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
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
