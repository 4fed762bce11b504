import ast
import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import tricontact
from tricontact import assemble, core, perturb, planar, verify
from tricontact.geometry import Tri

SRC = Path(tricontact.__file__).parent
BENCH = SRC.parents[1] / "perfbench"


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


def test_constructor_builds_no_graph():
    # the constructor takes its triple-removal triangles from the pieces'
    # faces; only the verifier (and render) builds an intersection graph
    graph_names = {"intersection_graph", "triangles_of", "adjacency_of"}
    for name in ("perturb", "solver", "assemble"):
        nodes = list(ast.walk(_tree(name)))
        used = ({n.id for n in nodes if isinstance(n, ast.Name)}
                | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                | {n.name for n in nodes if isinstance(n, ast.alias)})
        assert not used & graph_names, name


def test_constructor_reads_the_representations_frame():
    # triple removal and the face gaps decide on `Representation.scaled`,
    # the integer frame each representation builds once, in one place; they
    # build no frame of their own and screen nothing with floats
    nodes = list(ast.walk(_tree("perturb")))
    used = ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {n.name for n in nodes if isinstance(n, ast.alias)})
    assert not used & {"int_frame", "float_pad"}
    assert "scaled" in used


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


def _referenced_names(tree, stem, own=False, skip=None):
    """Names defined in module `stem` that `tree` uses outside the subtree
    `skip`: attributes read off the module's name (`planar.x`), names
    imported from the module, and, when `tree` is the module itself
    (`own`), the bare names it loads."""
    out = set()
    stack = [tree]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and own:
            out.add(n.id)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id == stem):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom) and n.module == f"tricontact.{stem}":
            out |= {a.name for a in n.names}
        stack.extend(ast.iter_child_nodes(n))
    return out


def _attribute_reads(tree):
    """How often each attribute name is read (`x.name`) in `tree`."""
    return Counter(n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _benchmark_names(stem):
    """Names of module `stem` the benchmark uses: those its code references
    (the corpus is built with the planar generators) and the attributes its
    tracer wraps by name."""
    out = set()
    for p in BENCH.glob("*.py"):
        tree = ast.parse(p.read_text())
        out |= _referenced_names(tree, stem)
        for node in tree.body:
            if (p.name == "tracing.py" and isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTERS", "KERNELS")):
                out |= {c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return out


def test_no_public_name_serves_only_tests():
    # a public name in src/ is used by src/ outside its own definition, used
    # by the benchmark, or an entry point the README documents; a name that
    # only tests use belongs in tests/.  A use is a read off the module's
    # name, an import from the module, or a bare name in the module itself,
    # so a method or local variable of the same spelling does not count
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    allowed = {"represent_planar", "main"} | set(tricontact.__all__)
    unused = []
    for stem, tree in trees.items():
        bench = _benchmark_names(stem)
        for name, node in _defined_names(tree):
            if name.startswith("_") or name in allowed or name in bench:
                continue
            if not any(name in _referenced_names(t, stem, own=s == stem, skip=node)
                       for s, t in trees.items()):
                unused.append(f"{stem}.{name}")
    # a public method or property of a class is read as an attribute in
    # src/ or the benchmark outside its own definition
    reads = Counter()
    for t in [*trees.values(), *(ast.parse(p.read_text()) for p in BENCH.glob("*.py"))]:
        reads += _attribute_reads(t)
    for stem, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and reads[node.name] <= _attribute_reads(node)[node.name]):
                    unused.append(f"{stem}.{cls.name}.{node.name}")
    assert unused == []


# layers the package deleted that the benchmark's tracer still names; it
# reports them as 0 ("layer absent") until the benchmark renames them
DELETED_LAYERS = ["tricontact.assemble.exactify", "tricontact.assemble.robustify",
                  "tricontact.assemble.solve_contacts", "tricontact.perturb.find_bad_triples",
                  "tricontact.perturb.remove_all", "tricontact.perturb.select_bad"]


def test_tracer_bindings_resolve():
    # the benchmark's tracer wraps layers by (module, attribute); a rename
    # in src/ must fail here, not only print "layer absent" in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [row[:2] for row in tracing.SPANS + tracing.COUNTERS]
    assert len(bindings) == len(tracing.SPANS) + len(tracing.COUNTERS) > 0
    missing = [f"{m}.{a}" for m, a in bindings
               if not callable(getattr(importlib.import_module(m), a, None))]
    assert sorted(missing) == DELETED_LAYERS


def test_solver_imports_no_numpy():
    # no float reaches a representation: the placement module does exact
    # arithmetic only, so it has no use for numpy
    imported = set()
    for node in ast.walk(_tree("solver")):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "numpy" not in imported and {"fractions", "tricontact"} <= imported


def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_float_screens_scale_with_the_coordinates(monkeypatch):
    # a deep piece has tiny coordinates; the screens of the verifier's graph
    # must settle as many pairs in floats there as at unit scale, and the
    # face gap, which decides on frame integers, makes as many exact tests
    T = planar.gen_stacked(60, 1)
    rep = assemble.represent(T)
    k = Fraction(1, 2 ** 40)
    small = core.Representation(
        {v: Tri(t.x * k, t.y * k, t.h * k) for v, t in rep.triangles.items()},
        rep.outer, rep.epsilon * k)
    faces = sorted(tuple(sorted(f)) for f in T.inner_faces)
    graph_calls = _counted(monkeypatch, verify, "signed_height")
    gap_calls = _counted(monkeypatch, perturb, "signed_height")

    def screened(r):
        graph_calls.clear()
        gap_calls.clear()
        graph = verify.intersection_graph(r)
        budgets = [perturb.face_gap_with_roles(r, f)[2] for f in faces]
        return graph, budgets, len(graph_calls), len(gap_calls)

    graph, budgets, graph_exact, gap_exact = screened(rep)
    graph_k, budgets_k, graph_exact_k, gap_exact_k = screened(small)
    assert graph_k == graph and budgets_k == [b * k for b in budgets]
    assert graph_exact_k <= graph_exact and gap_exact_k <= gap_exact
