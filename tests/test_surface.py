"""Guard against dead public code: every name and field the package defines is read.

A top-level function, class or assignment of ``src/nlqclab/*.py``, and a
method, property or classmethod of a top-level class, counts as used when
code in the package outside its own definition names it, as a bare name or
as an attribute.  A field of a top-level dataclass counts as read when code
in the package outside its own definition names it as an attribute; setting
it through the constructor is not a read.  The rules go by name alone, so a
method or field that shares its name with a used one passes.  Dunder methods
are called by Python itself and are not checked.  Names and fields used only
from outside the package are listed in ``KEEP`` with the outside reader that
keeps them.

Each module's names are counted once; a name is named outside a definition
when its count over the package exceeds its count inside the definition.
"""

import ast
import pathlib
from collections import Counter
from functools import cache

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nlqclab"

KEEP = {
    "gardenhose.gh_complexity": "acceptance: criterion 5 reads it",
    "gardenhose.or_program": "acceptance: criterion 6 runs it",
    "pauli.dump_circuit_json": "format round trip of load_circuit_json",
    "pauli.conjugate_pauli": "test_pauli checks conjugation with it; traced by perfbench",
    "gardenhose.dump_strategy_json": "format round trip of load_strategy_json",
    "geometry.ridge_curve": "traced by perfbench",
    "qudit.mutual_information_bipartite": "traced by perfbench",
    "__init__.__version__": "the package version attribute, as in pyproject.toml",
    "teleport.bell_teleport": "documented API in the README",
    "teleport.trace_commutation_check": "documented API in the README",
    "geometry.bulk_causal": "documented API in the README",
    "gardenhose.TrackedProgram.added_bits": "acceptance: criterion 6 bounds it",
    "pauli.StabilizerTableau.to_unitary": "acceptance: criterion 10 compares it to the dense unitary",
    "teleport.PBTInstance.povm": "acceptance: criterion 3 sums the dense elements and checks each is positive",
    "qudit.psd_sqrt": "oracle of test_teleport for the thin PGM roots; traced by perfbench",
    "qudit.embed_operator": "dense gate embedding the tests build oracles with (test_qudit, test_engine, "
    "test_coderouting, test_teleport)",
    # dataclass fields
    "gardenhose.QuantumRoute.outcome": "acceptance: criterion 5 and the perfbench garden-hose items check the side",
    "gardenhose.QuantumRoute.probability": "test_gardenhose: the forced outcomes' probabilities sum to 1",
    "engine.BoundReport.p_suc_original": "acceptance: criterion 8 and the perfbench bound check",
    "engine.ResourceAccount.ebit_count": "test_engine: the resource's pair count",
    "geometry.Diamond.bottom": "test_geometry: the marginal diamond's base point",
    "geometry.Diamond.top": "test_geometry: the diamond tops are past-front peaks",
    "teleport.TeleportResult.probability": "test_teleport: the outcome probabilities sum to 1",
    "coderouting.RouteReport.pipe_count": "test_coderouting: the AND plan uses 3 pipes",
    "surgery.ComplexityReport.footprint_law": "test_surgery: n' = 2 pairs",
    "surgery.ComplexityReport.gate_bound": "test_surgery: at most 4 gates per pair",
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


def _fields(tree):
    """("Class.field", node) for each annotated field of a top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item


def _names(node) -> Counter:
    """How often the subtree names each bare name and attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _attributes(node) -> Counter:
    """How often the subtree names each attribute."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


@cache
def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _unread(definitions, count) -> list:
    """Definitions whose last name part the package names only inside the definition."""
    trees = _trees()
    total = sum((count(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            last = name.split(".")[-1]
            if total[last] <= count(node)[last]:
                unread.append(f"{module}.{name}")
    return unread


def unused_names() -> list:
    return _unread(_definitions, _names)


def unread_fields() -> list:
    return _unread(_fields, _attributes)


def test_every_top_level_name_is_used_or_kept():
    unused = [name for name in unused_names() if name not in KEEP]
    assert not unused, f"no code in src/nlqclab uses {unused}; delete them or keep them with a reason"


def test_every_dataclass_field_is_read_or_kept():
    unread = [name for name in unread_fields() if name not in KEEP]
    assert not unread, f"no code in src/nlqclab reads {unread}; delete them or keep them with a reader"


def test_keep_list_names_exist_and_are_otherwise_unused():
    # a kept name or field that the package starts reading, or that is deleted, leaves the list
    assert sorted(KEEP) == sorted(name for name in unused_names() + unread_fields() if name in KEEP)
