"""Guard against dead public code: every name the package defines is used.

A top-level function, class or assignment of ``src/nlqclab/*.py``, and a
method, property or classmethod of a top-level class, counts as used when
code in the package outside its own definition names it, as a bare name or
as an attribute.  The rule goes by name alone, so a method that shares its
name with a used one passes.  Dunder methods are called by Python itself
and are not checked.  Names used only from outside the package are listed
in ``KEEP`` with the outside user that keeps them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nlqclab"

KEEP = {
    "gardenhose.gh_complexity": "acceptance: criterion 5 reads it",
    "gardenhose.or_program": "acceptance: criterion 6 runs it",
    "pauli.dump_circuit_json": "format round trip of load_circuit_json",
    "gardenhose.dump_strategy_json": "format round trip of load_strategy_json",
    "geometry.ridge_curve": "traced by perfbench",
    "qudit.mutual_information_bipartite": "traced by perfbench",
    "__init__.__version__": "the package version attribute, as in pyproject.toml",
    "teleport.bell_teleport": "documented API in the README",
    "teleport.trace_commutation_check": "documented API in the README",
    "geometry.bulk_causal": "documented API in the README",
    "gardenhose.TrackedProgram.added_bits": "acceptance: criterion 6 bounds it",
    "pauli.StabilizerTableau.to_unitary": "acceptance: criterion 10 compares it to the dense unitary",
}


def _definitions(tree):
    """(name, node) for each top-level def, class and assignment target,
    and ("Class.method", node) for each non-dunder def in a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node


def _names_outside(tree, skip) -> set:
    """Every bare name and attribute named in ``tree``, skipping the ``skip`` subtree."""
    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return seen


def unused_names() -> list:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if not any(name.split(".")[-1] in _names_outside(t, node) for t in trees.values())
    ]


def test_every_top_level_name_is_used_or_kept():
    unused = [name for name in unused_names() if name not in KEEP]
    assert not unused, f"no code in src/nlqclab uses {unused}; delete them or keep them with a reason"


def test_keep_list_names_exist_and_are_otherwise_unused():
    # a kept name that the package starts using, or that is deleted, leaves the list
    assert sorted(KEEP) == sorted(name for name in unused_names() if name in KEEP)
