import ast
from pathlib import Path

import tricontact

SRC = Path(tricontact.__file__).parent


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def test_representation_defined_only_in_core():
    defined = sorted(p.stem for p in SRC.glob("*.py")
                     if any(isinstance(n, ast.ClassDef) and n.name == "Representation"
                            for n in ast.walk(ast.parse(p.read_text()))))
    assert defined == ["core"]


def test_representation_not_taken_from_solver():
    # the verifier and the front ends get the core type from core, not by
    # way of the constructor
    for name in ("perturb", "verify", "render", "cli"):
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.ImportFrom) and node.module == "tricontact.solver":
                assert "Representation" not in {a.name for a in node.names}, name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) != ("solver", "Representation"), name


def test_verifier_imports_nothing_from_the_constructor():
    # certification must not share code, or faults, with what it certifies
    constructor = {"tricontact.perturb", "tricontact.solver", "tricontact.assemble"}
    for node in ast.walk(_tree("verify")):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in constructor, node.module
            if node.module == "tricontact":
                assert not {f"tricontact.{a.name}" for a in node.names} & constructor
        elif isinstance(node, ast.Import):
            assert not {a.name for a in node.names} & constructor
