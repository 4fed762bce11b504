import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from tricontact import assemble, perturb, planar
from tricontact.assemble import PipelineConfig, PipelineError, default_outer, represent
from tricontact.core import Representation
from tricontact.geometry import (NegTri, Tri, common_signed_height, inside_neg, intersect,
                                 signed_height)
from tricontact.solver import canvas_with_roles
from tricontact.verify import check_simple, full_report, intersection_graph
from conftest import (
    chain,
    implant_double_wheel,
    implant_faces,
    implanted,
    newest_face,
    point,
    stacking_chain,
    tri,
    triples_by_cubic_scan,
    with_triangle,
)

F = Fraction


def deep_double_wheel() -> planar.Triangulation:
    """chain(20, 5, 2), a vertex stacked into its newest face, and
    double_wheel(5) implanted into the first face holding that vertex: a
    piece for `solve_wood` nine levels down the separation tree."""
    T = chain(20, 5, 2)
    T = planar.stack_vertex(T, newest_face(T))
    return implant_double_wheel(T, newest_face(T))


class TestDefaultOuter:
    def test_contacts(self):
        a, b, c = default_outer(1)
        assert intersect(a, b).point == point(1, 3)
        assert intersect(a, c).point == point(3, 1)
        assert intersect(b, c).point == point(3, 3)
        assert common_signed_height([a, b, c]) < 0

    def test_scaled(self):
        a, b, c = default_outer(2)
        assert intersect(a, b).point == point(2, 6)
        assert intersect(a, c).point == point(6, 2)
        assert intersect(b, c).point == point(6, 6)

    def test_hypothesis_accepted(self):
        canvas_with_roles(list(default_outer(1)))
        canvas_with_roles(list(default_outer(F(1, 3))))

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            default_outer(0)


class TestRepresent:
    def test_k4(self, k4):
        rep = represent(k4)
        assert len(rep.triangles) == 4
        r = full_report(rep, k4, with_drawing=True)
        assert r.passed
        assert check_simple(rep, intersection_graph(rep))[1] == triples_by_cubic_scan(rep)
        # exact contact values on the stacked path
        for u, v in itertools.combinations(range(4), 2):
            assert signed_height(rep.tri(u), rep.tri(v)) == 0

    def test_k4_stacked_two_levels(self, k4):
        # an octahedron in a face of the stacked vertex keeps both K4 pieces
        # out of the peel, so each is solved on the stacked path
        T = planar.implant_octahedron(planar.stack_vertex(k4, (0, 1, 3)), (0, 1, 4))
        trace = []
        rep = represent(T, trace=trace)
        assert full_report(rep, T, with_drawing=True).passed
        assert check_simple(rep, intersection_graph(rep))[1] == triples_by_cubic_scan(rep)
        assert [e["path"] for e in trace] == ["stacked", "stacked", "octahedron"]
        eps = [e["epsilon"] for e in trace]
        assert eps[0] == F(1)
        assert 0 < eps[2] <= eps[1] <= eps[0]    # child budget = min(eps, eps')

    def test_octahedron(self, octahedron):
        rep = represent(octahedron)
        r = full_report(rep, octahedron, with_drawing=True)
        assert r.passed
        assert check_simple(rep, intersection_graph(rep))[1] == triples_by_cubic_scan(rep)

    def test_composed_stacked_into_four_connected(self, octahedron):
        T = planar.stack_vertex(octahedron, sorted(octahedron.inner_faces[0]))
        face_of_new = sorted(f for f in T.inner_faces if T.n - 1 in f)[0]
        T = planar.stack_vertex(T, sorted(face_of_new))
        assert len(planar.separating_triangles(T)) >= 2
        trace = []
        rep = represent(T, trace=trace)
        assert full_report(rep, T, with_drawing=True).passed
        assert check_simple(rep, intersection_graph(rep))[1] == triples_by_cubic_scan(rep)
        assert trace[0]["path"] == "octahedron"
        assert all(e["epsilon"] > 0 for e in trace)

    def test_composed_four_connected_into_stacked(self):
        T = planar.gen_stacked(8, 3)
        T = planar.implant_octahedron(T, sorted(T.inner_faces[2]))
        trace = []
        rep = represent(T, trace=trace)
        assert full_report(rep, T, with_drawing=True).passed
        assert "octahedron" in [e["path"] for e in trace]

    def test_budgets_shrink_down_the_tree(self):
        T = chain(16, 9, 3)
        trace = []
        represent(T, trace=trace)
        tree = planar.decompose(planar.peel(T)[0])
        assert {"stacked", "octahedron"} <= {e["path"] for e in trace}
        eps_of = {e["piece"]: e["epsilon"] for e in trace}
        for parent, child, _ in tree.links:
            assert 0 < eps_of[child] <= eps_of[parent]
        assert len({eps_of[child] for _, child, _ in tree.links}) > 1
        # pieces are numbered in preorder, and the trace keeps that order
        assert [e["piece"] for e in trace] == list(range(len(tree.pieces)))

    @pytest.mark.parametrize("make", [lambda: chain(16, 9, 3), lambda: implanted(100, 3, 20),
                                      lambda: chain(20, 5, 6)],
                             ids=["chain16_9d3", "implanted100_3x20", "chain20_5d6"])
    def test_child_budget_is_the_parents_capped_by_its_gap(self, make):
        # each piece's budget is its parent's, capped by its gap's own budget,
        # which on these inputs is half the gap's height
        T, trace = make(), []
        represent(T, trace=trace)
        eps_of = {e["piece"]: e["epsilon"] for e in trace}
        links = planar.decompose(planar.peel(T)[0]).links
        assert len(links) >= 8
        for parent, child, _ in links:
            assert eps_of[child] == min(eps_of[parent], trace[child]["canvas"].h / 2)

    def test_stacking_chain_deeper_than_recursion_limit(self):
        # each new vertex goes into the first inner face holding the previous
        # one, so the separation tree is one path of n - 3 pieces
        n = 1100
        edges = set(itertools.combinations(range(4), 2))
        newest = [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
        for v in range(4, n):
            a, b, c = min(newest)
            edges |= {(a, v), (b, v), (c, v)}
            newest = [(a, b, v), (a, c, v), (b, c, v)]
        T = planar.validate(n, sorted(edges), (0, 1, 2))
        # the chain is stacked: it peels completely, and no piece is solved
        remainder, peeled = planar.peel(T)
        assert remainder.vertices() == (0, 1, 2) and len(peeled) == n - 3
        trace = []
        rep = represent(T, trace=trace)
        assert sorted(rep.triangles) == list(range(n))
        assert trace == []
        # one more stacked vertex with an octahedron in its deepest face: no
        # vertex peels, and the n - 1 pieces walk the explicit stack
        T = planar.stack_vertex(T, (0, 1, n - 1))
        T = planar.implant_octahedron(T, (0, 1, n))
        assert planar.peel(T) == (T, [])
        tree = planar.decompose(T)
        assert tree.links == tuple((i, i + 1, (0, 1, i + 3)) for i in range(n - 2))
        trace = []
        rep = represent(T, trace=trace)
        assert sorted(rep.triangles) == list(range(n + 4))
        assert [e["piece"] for e in trace] == list(range(n - 1))
        assert trace[-1]["path"] == "octahedron"

    def test_larger_piece_goes_to_the_solver(self):
        T, trace = planar.double_wheel(5), []
        rep = represent(T, trace=trace)
        assert full_report(rep, T, with_drawing=True).passed
        assert [e["path"] for e in trace] == ["wood"]

    @pytest.mark.parametrize("make", [lambda: implanted(100, 3, 20), lambda: chain(20, 5, 6)],
                             ids=["implanted100_3x20", "chain20_5d6"])
    def test_octahedra_take_no_numeric_solve(self, make, monkeypatch):
        def forbidden(*a, **k):
            raise AssertionError("an octahedron piece is placed in closed form")

        monkeypatch.setattr(assemble, "solve_wood", forbidden)
        T, trace = make(), []
        rep = represent(T, trace=trace)
        assert full_report(rep, T, with_faces=True, with_drawing=True).passed
        assert {e["path"] for e in trace} == {"stacked", "octahedron"}

    @pytest.mark.parametrize("make", [lambda: implanted(100, 3, 20), lambda: chain(20, 5, 6)],
                             ids=["implanted100_3x20", "chain20_5d6"])
    def test_octahedra_take_no_inflation_or_triple_removal(self, make, monkeypatch):
        # each octahedron's closed form is its final layout: every contact
        # already overlaps below the budget and no face has a common point,
        # so nothing inflates it or removes a triple from it afterwards
        placed = []
        real = assemble.solve_octahedron

        def recorded(piece, gap, roles, epsilon):
            inner = real(piece, gap, roles, epsilon)
            placed.append((piece, inner, epsilon))
            return inner

        monkeypatch.setattr(assemble, "solve_octahedron", recorded)
        T = make()
        rep = represent(T)
        assert placed
        for piece, inner, epsilon in placed:
            assert all(rep.tri(v) == t for v, t in inner.items())
            tris = {v: rep.tri(v) for v in piece.vertices()}
            for u, v in itertools.combinations(piece.vertices(), 2):
                if not {u, v} <= piece.outer_set:
                    s = signed_height(tris[u], tris[v])
                    assert (0 < s < epsilon) if piece.has_edge(u, v) else s < 0
            assert all(common_signed_height([tris[v] for v in f]) < 0 for f in piece.faces)

    @pytest.mark.parametrize("make, sizes", [(lambda: chain(20, 5, 6), {3}),
                                             (deep_double_wheel, {3, 4})],
                             ids=["chain20_5d6", "deep_dw5"])
    def test_escape_check_on_frame_integers(self, make, sizes, monkeypatch):
        # every non-root octahedron (3 inner vertices) and wood piece (dw5's
        # 4) is checked against its gap, widened by its budget, on its
        # representation's frame integers, as the same test on Fractions
        # decides; a triangle moved past the vertical side is named, and
        # named in the pipeline's error
        checked = []
        real = assemble._escapes

        def compared(rep, roles, vertices):
            X, Y = rep.tri(roles["vertical"]).x, rep.tri(roles["horizontal"]).y
            allowed = NegTri(X, Y, X + Y - rep.tri(roles["hyp"]).s).expand(rep.epsilon)
            assert real(rep, roles, vertices) is None
            assert all(inside_neg(rep.tri(v), allowed) for v in vertices)
            t = rep.tri(vertices[-1])
            moved = with_triangle(rep, vertices[-1], Tri(X + rep.epsilon - t.h / 2, t.y, t.h))
            assert not inside_neg(moved.tri(vertices[-1]), allowed)
            assert real(moved, roles, vertices) == vertices[-1]
            checked.append(len(vertices))

        monkeypatch.setattr(assemble, "_escapes", compared)
        represent(make())
        assert set(checked) == sizes
        monkeypatch.setattr(assemble, "_escapes", lambda rep, roles, vertices: vertices[-1])
        with pytest.raises(PipelineError, match="triangle of vertex .* escapes the face gap"):
            represent(make())

    def test_layout_failing_the_post_check_is_a_pipeline_error(self, octahedron, monkeypatch):
        # an octahedron layout is returned only after its exact post-check:
        # inner triangles grown past the budget, or shrunk off their contacts, raise
        real = assemble.solve_octahedron
        for grow in (F(3, 2), F(1, 2)):
            monkeypatch.setattr(assemble, "solve_octahedron", lambda *a, grow=grow: {
                v: Tri(t.x, t.y, t.h * grow) for v, t in real(*a).items()})
            with pytest.raises(PipelineError, match="octahedron pair"):
                represent(octahedron)

    @pytest.mark.parametrize("make, digest", [
        (lambda: implanted(100, 3, 20),
         "814d8cbdab2d25b74471d4cba12ca402ee55e1baa722fb2a245cab9fc80a4278"),
        (lambda: chain(20, 5, 6),
         "9515ea7b13553d6a0a6153b6f7635bf67c45af53857e4551959af856b83aff4a"),
    ], ids=["implanted100_3x20", "chain20_5d6"])
    def test_representation_digest_pinned(self, make, digest):
        # peeled vertices and solved pieces together, byte for byte as the CLI writes them
        text = json.dumps(represent(make()).to_json(), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_stacked_input_solves_no_piece(self, monkeypatch):
        def forbidden(*a, **k):
            raise AssertionError("a stacked input peels completely")

        monkeypatch.setattr(perturb, "face_gap_with_roles", forbidden)
        monkeypatch.setattr(assemble, "solve_wood", forbidden)
        monkeypatch.setattr(planar, "decompose", forbidden)
        placed = []
        real = assemble.solve_stacked
        monkeypatch.setattr(assemble, "solve_stacked", lambda v, *a: placed.append(v) or real(v, *a))
        T = planar.gen_stacked(5000, 1)
        assert sorted(represent(T).triangles) == list(range(5000))
        assert len(placed) == 5000 - 3

    def test_face_without_gap_is_a_pipeline_error(self, monkeypatch):
        # drop the vertex that goes back first: the next one's face then
        # holds a vertex that was never placed
        real = planar.peel

        def drops_first_back(T):
            remainder, peeled = real(T)
            return remainder, peeled[:-1]

        monkeypatch.setattr(planar, "peel", drops_first_back)
        with pytest.raises(PipelineError, match="which has no gap"):
            represent(planar.gen_stacked(10, 0))

    def test_deterministic(self, octahedron):
        for T in (octahedron, planar.gen_four_connected(16, 1)):
            assert represent(T).to_json() == represent(T).to_json()

    def test_scaled_config(self, k4):
        cfg = PipelineConfig(outer=default_outer(F(5)), epsilon=F(2))
        rep = represent(k4, cfg)
        assert rep.tri(3) == tri(10, 10, 5)
        assert full_report(rep, k4).passed

    def test_epsilon_budget_respected(self, octahedron):
        eps = F(1, 100)
        cfg = PipelineConfig(epsilon=eps)
        rep = represent(octahedron, cfg)
        r = full_report(rep, octahedron, epsilon=eps)
        assert r.passed

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PipelineConfig(epsilon=F(0))

    @pytest.mark.parametrize("epsilon", [0.5, "1/2"])
    def test_epsilon_coerced(self, octahedron, epsilon):
        cfg = PipelineConfig(epsilon=epsilon)
        assert cfg.epsilon == F(1, 2) and type(cfg.epsilon) is F
        rep = represent(octahedron, cfg)
        assert full_report(rep, octahedron, epsilon=F(1, 2)).passed
        assert rep == represent(octahedron, PipelineConfig(epsilon=F(1, 2)))


class TestStackedPieces:
    """A K4 piece's vertex goes to `solve_stacked` like a peeled one, and its
    sub-gaps are the ones a face-gap search on the piece would find."""

    @pytest.mark.parametrize("config", [
        None, PipelineConfig(outer=default_outer(F(5, 7)), epsilon=F(1, 3)),
    ], ids=["default", "skewed"])
    @pytest.mark.parametrize("make", [
        lambda: implanted(100, 3, 20), lambda: chain(20, 5, 6),
    ], ids=["implanted100_3x20", "chain20_5d6"])
    def test_sub_gaps_match_face_gap_search(self, make, config, monkeypatch):
        placed, sizes = {}, []
        real = assemble.solve_stacked

        def recorded(v, gap, roles):
            placed[v] = real(v, gap, roles)
            return placed[v]

        def sized(f):
            return lambda rep, *a, **k: sizes.append(len(rep.triangles)) or f(rep, *a, **k)

        monkeypatch.setattr(assemble, "solve_stacked", recorded)
        monkeypatch.setattr(assemble, "_fault", sized(assemble._fault))
        monkeypatch.setattr(perturb, "face_gap_with_roles", sized(perturb.face_gap_with_roles))
        T, trace = make(), []
        rep = represent(T, config, trace=trace)
        monkeypatch.undo()
        # octahedron pieces take a post-check and, where an inner face holds
        # a child, face gaps; no K4 piece takes any
        assert sizes and 4 not in sizes
        tree = planar.decompose(planar.peel(T)[0])
        k4s = [tree.pieces[e["piece"]] for e in trace if e["path"] == "stacked"]
        assert len(k4s) > 5
        for piece in k4s:
            (v,) = set(piece.vertices()) - piece.outer_set
            k4 = Representation({u: rep.tri(u) for u in piece.vertices()}, piece.outer, rep.epsilon)
            child, sub_gaps = placed[v]
            assert child == rep.tri(v)
            assert sub_gaps == {f: perturb.face_gap_with_roles(k4, f) for f in piece.inner_faces}


class TestLocalFrame:
    """Each larger piece is placed from its gap alone, exactly, in the global
    frame; every budget and octahedron grid step is a power of two times a
    length of the layout, and every wood piece's overlap step a ratio of
    lengths, so the construction commutes with dyadic homotheties of the
    boundary."""

    @pytest.mark.parametrize("make", [
        lambda: planar.double_wheel(6),
        lambda: planar.gen_four_connected(12, 0),
        lambda: implant_faces(planar.gen_stacked(30, 1), (0,)),
        deep_double_wheel,
    ], ids=["dw6", "g4_12_0", "stacked30_1+octa", "deep_dw5"])
    @pytest.mark.parametrize("k, d", [
        (F(1, 2 ** 40), (F(0), F(0))),
        (F(1, 2 ** 40), (F(3), F(1))),
        (F(2 ** 20), (F(-5, 8), F(7, 16))),
    ], ids=["tiny", "tiny_offset", "huge_offset"])
    def test_homothety_equivariance(self, make, k, d):
        T = make()
        base = represent(T)
        outer = tuple(Tri(t.x * k + d[0], t.y * k + d[1], t.h * k) for t in default_outer())
        rep = represent(T, PipelineConfig(outer=outer, epsilon=k))
        for v, t in base.triangles.items():
            assert rep.tri(v) == Tri(t.x * k + d[0], t.y * k + d[1], t.h * k)

    def test_numeric_piece_deep_in_the_tree(self):
        T, trace = deep_double_wheel(), []
        represent(T, trace=trace)
        (idx,) = [e["piece"] for e in trace if e["path"] == "wood"]
        parent = {child: up for up, child, _ in planar.decompose(planar.peel(T)[0]).links}
        depth = 0
        while idx in parent:
            idx, depth = parent[idx], depth + 1
        assert depth >= 7

    @pytest.mark.parametrize("make", [lambda: chain(20, 5, 7), lambda: chain(20, 7, 12),
                                      lambda: stacking_chain(90), deep_double_wheel],
                             ids=["5-7", "7-12", "stacking90", "deep_dw5"])
    def test_deep_chain_certifies(self, make):
        # near (1, 3), absolute floats cannot separate the deepest triangles,
        # so the verifier's screens must scale with the coordinates
        T = make()
        rep = represent(T)
        assert full_report(rep, T, with_faces=True, with_drawing=True).passed


class TestRepresentPlanar:
    def test_cube_graph_induced(self):
        from tricontact.assemble import represent_planar
        cube = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                (0, 4), (1, 5), (2, 6), (3, 7)]
        tris, rep, T = represent_planar(8, cube)
        assert full_report(rep, T).passed
        want = {tuple(sorted(e)) for e in cube}
        for u, v in itertools.combinations(range(8), 2):
            assert (signed_height(tris[u], tris[v]) >= 0) == ((u, v) in want)
