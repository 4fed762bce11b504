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


def _defined_names(tree):
    """(name, node) of each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node


def _referenced_names(tree, skip=None):
    """Names that `tree` loads, reads as an attribute or imports, outside
    the subtree `skip`."""
    out = set()
    stack = [tree]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _benchmark_names():
    """Names the benchmark uses: those its code references (the corpus is
    built with the planar generators) and the attributes its tracer wraps
    by name."""
    bench = SRC.parents[1] / "perfbench"
    out = set()
    for p in bench.glob("*.py"):
        tree = ast.parse(p.read_text())
        out |= _referenced_names(tree)
        for node in tree.body:
            if (p.name == "tracing.py" and isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTERS", "KERNELS")):
                out |= {c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return out


def test_no_public_name_serves_only_tests():
    # a public name in src/ is used by src/ outside its own definition, used
    # by the benchmark, or an entry point the README documents; a name that
    # only tests use belongs in tests/
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    allowed = {"represent_planar", "main"} | set(tricontact.__all__) | _benchmark_names()
    unused = []
    for stem, tree in trees.items():
        for name, node in _defined_names(tree):
            if name.startswith("_") or name in allowed:
                continue
            if not any(name in _referenced_names(t, node) for t in trees.values()):
                unused.append(f"{stem}.{name}")
    assert unused == []
