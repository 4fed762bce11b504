import itertools
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from tricontact import assemble, planar, solver
from tricontact.assemble import PipelineConfig, default_outer, represent
from tricontact.geometry import (
    NegTri,
    Tri,
    common_signed_height,
    gap_candidates,
    inside_neg,
    intersect,
    pow2_floor,
    signed_height,
)
from tricontact.core import Representation
from tricontact.solver import (
    CanvasError,
    SolveFailure,
    canvas_with_roles,
    solve_octahedron,
    solve_stacked,
)
from tricontact.verify import full_report
from conftest import (FRACTION_DUNDERS, bench_corpus, contact_layout, dense_solve, ntri,
                      octahedron_graph, open_in_canvas, opened_by_reference, point, represent_in,
                      solve_in_canvas, stacked_by_peeling, tri, triples_by_cubic_scan,
                      zero_hole_faces)

F = Fraction


class TestCanvas:
    def test_default_outer(self, outer_map):
        n = canvas_with_roles([outer_map[0], outer_map[1], outer_map[2]])[0]
        assert n == ntri(3, 3, 2)
        # sides: a = 3 from the third, b = 3 from the second, a+b = 4 from the first
        _, roles = canvas_with_roles([outer_map[0], outer_map[1], outer_map[2]])
        assert roles == {"hyp": 0, "vertical": 2, "horizontal": 1}

    def test_scaled(self):
        assert canvas_with_roles([tri(0, 0, 8), tri(2, 6, 4), tri(6, 2, 4)])[0] == ntri(6, 6, 4)

    def test_common_point_rejected(self):
        # three triangles sharing the point (2,2)
        with pytest.raises(CanvasError):
            canvas_with_roles([tri(0, 2, 2), tri(2, 2, 2), tri(2, 0, 2)])

    def test_disjoint_rejected(self):
        with pytest.raises(CanvasError):
            canvas_with_roles([tri(0, 0, 1), tri(5, 5, 1), tri(0, 9, 1)])


class TestSolveStacked:
    def test_k4_medial(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        child = rep.tri(3)
        assert child == tri(2, 2, 1)
        # tangency points against the three gap sides
        assert intersect(child, outer_map[2]).point == point(3, 2)
        assert intersect(child, outer_map[1]).point == point(2, 3)
        assert intersect(child, outer_map[0]).point == point(2, 2)
        for u, v in itertools.combinations(range(4), 2):
            assert signed_height(rep.tri(u), rep.tri(v)) == 0

    def test_medial_from_gap_equations(self, k4, outer_map):
        # substitute the medial child into the three tangency equations
        rep = represent_in(k4, outer_map)
        t = rep.tri(3)
        X, Y, H = F(3), F(3), F(2)
        assert t.x + t.h == X
        assert t.y + t.h == Y
        assert t.x + t.y == X + Y - H

    def test_heights_halve(self, k4, outer_map):
        T = planar.stack_vertex(k4, (0, 1, 3))
        rep = represent(T)
        assert rep.tri(4).h == F(1, 2)     # 1/4 of the first gap's height 2

    def test_exact_contacts_random(self, outer_map):
        T = planar.gen_stacked(40, 8)
        rep = represent(T)
        adj = T.adjacency()
        for u, v in itertools.combinations(range(T.n), 2):
            s = signed_height(rep.tri(u), rep.tri(v))
            if v in adj[u]:
                assert s == 0
            else:
                assert s < 0

    def test_homothety_equivariance(self, outer_map):
        T = planar.gen_stacked(15, 2)
        rep1 = represent(T)
        lam = F(3)
        scaled = tuple(Tri(t.x * lam, t.y * lam, t.h * lam) for t in outer_map.values())
        rep2 = represent(T, PipelineConfig(outer=scaled))
        for v in range(T.n):
            t1, t2 = rep1.tri(v), rep2.tri(v)
            assert (t2.x, t2.y, t2.h) == (t1.x * lam, t1.y * lam, t1.h * lam)

    def test_sub_gaps(self, outer_map):
        # the canvas NegTri(3, 3, 2): hypotenuse side from 0, vertical side
        # from 2, horizontal side from 1
        canvas, role_idx = canvas_with_roles([outer_map[v] for v in range(3)])
        assert canvas == ntri(3, 3, 2) and role_idx == {"hyp": 0, "vertical": 2, "horizontal": 1}
        child, sub_gaps = solve_stacked(3, canvas, role_idx)
        assert child == tri(2, 2, 1)
        assert sub_gaps == {
            frozenset((1, 2, 3)): (ntri(3, 3, 1), {"hyp": 3, "vertical": 2, "horizontal": 1}, F(1, 2)),
            frozenset((0, 2, 3)): (ntri(3, 2, 1), {"hyp": 0, "vertical": 2, "horizontal": 3}, F(1, 2)),
            frozenset((0, 1, 3)): (ntri(2, 3, 1), {"hyp": 0, "vertical": 3, "horizontal": 1}, F(1, 2)),
        }

    def test_not_stacked(self, octahedron, outer_map):
        with pytest.raises(ValueError):
            stacked_by_peeling(octahedron, outer_map)

    def test_large_instance_fully_verified(self, outer_map):
        # exact path at the upper end of the supported desk scale
        from tricontact.verify import full_report
        T = planar.gen_stacked(500, 77)
        rep = represent(T)
        r = full_report(rep, T, epsilon=F(1, 10 ** 9), with_faces=False)
        assert r.passed and r.simple


class TestSolveOctahedron:
    """The closed-form final layout of an octahedron piece (antipodal pairs
    (0, 3), (1, 4), (2, 5)): on the dyadic grid g of the piece's budget, every
    adjacency overlaps by g to 11g, below the budget, every non-adjacency is
    at least 3g apart, and the inner face leaves a gap of g."""

    @staticmethod
    def _layout(octahedron, outer, epsilon):
        canvas, role_idx = canvas_with_roles([outer[v] for v in range(3)])
        inner = solve_octahedron(octahedron, canvas, role_idx, epsilon)
        return canvas, Representation({**outer, **inner}, (0, 1, 2), epsilon)

    @pytest.mark.parametrize("scale", [F(1), F(5, 7), F(1, 2 ** 40)], ids=["unit", "skewed", "tiny"])
    @pytest.mark.parametrize("epsilon", [F(1e-7), F(1, 10 ** 9), F(1, 10)],
                             ids=["1e-7", "1e-9", "1e-1"])
    def test_signed_heights(self, octahedron, scale, epsilon):
        outer = {v: Tri(t.x * scale, t.y * scale, t.h * scale)
                 for v, t in enumerate(default_outer())}
        # the budget is a length, so it scales with the boundary
        canvas, rep = self._layout(octahedron, outer, epsilon * scale)
        g = pow2_floor(epsilon * scale / 16)
        assert common_signed_height([rep.tri(v) for v in (3, 4, 5)]) == -g
        for u, v in itertools.combinations(range(6), 2):
            s = signed_height(rep.tri(u), rep.tri(v))
            if not octahedron.has_edge(u, v):
                assert s <= -3 * g
            elif u >= 3:
                assert g <= s <= 4 * g
            elif v >= 3:
                assert g <= s <= 11 * g < epsilon * scale
        for v in (3, 4, 5):
            assert inside_neg(rep.tri(v), canvas.expand(11 * g))
        assert assemble._fault(rep, octahedron) is None

    def test_dyadic_grid(self, octahedron, outer_map):
        # the canvas is NegTri(3, 3, 2) and the root's budget 1, so g = 1/16
        # and P = floor(2 / (3/16)) / 16 = 5/8
        _, rep = self._layout(octahedron, outer_map, F(1))
        assert [rep.tri(v) for v in (3, 4, 5)] == [
            tri("19/8", "39/16", "11/16"), tri("17/8", "29/16", "15/16"), tri("11/8", "41/16", "9/8")]
        assert rep.tri(3) == represent(octahedron).tri(3)

    def test_grid_follows_the_budget(self, octahedron, outer_map):
        # the inner pair (3, 4) overlaps by exactly g, the largest power of
        # two at most min(epsilon, H/2)/16; a budget above H/2 = 1 is capped
        for eps, g in ((F(1, 3), F(1, 64)), (F(1, 2 ** 30), F(1, 2 ** 34)), (F(7), F(1, 16))):
            _, rep = self._layout(octahedron, outer_map, eps)
            assert signed_height(rep.tri(3), rep.tri(4)) == g
        assert self._layout(octahedron, outer_map, F(7))[1].triangles == \
            self._layout(octahedron, outer_map, F(1))[1].triangles

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gap=st.tuples(*[st.fractions(-10, 10, max_denominator=1000)] * 2,
                         st.fractions(F(1, 1000), 10, max_denominator=1000)),
           skews=st.lists(st.fractions(0, 5, max_denominator=97), min_size=6, max_size=6),
           ratio=st.fractions(F(1, 100), 2, max_denominator=1000),
           shift=st.integers(0, 60))
    def test_layout_passes_the_post_check(self, gap, skews, ratio, shift):
        # boundary triangles that bound NegTri(X, Y, H), each skewed outward
        # along its side, and a budget epsilon in (0, 2H], down to 2^-60 H;
        # above H/2 the grid is capped (uncapped, the horizontal side's
        # antipode could reach that side's triangle)
        X, Y, H = gap
        a1, a2, b1, b2, c1, c2 = skews
        outer = {0: Tri(X - H - a1, Y - H - a2, H + a1 + a2),   # hypotenuse side
                 1: Tri(X - H - c1, Y, H + c1 + c2),            # horizontal side
                 2: Tri(X, Y - H - b1, H + b1 + b2)}            # vertical side
        canvas = NegTri(X, Y, H)
        roles = {"hyp": 0, "vertical": 2, "horizontal": 1}
        assert (canvas, roles) in gap_candidates([outer[v] for v in range(3)])
        eps = H * ratio / 2 ** shift
        octahedron = octahedron_graph()
        inner = solve_octahedron(octahedron, canvas, roles, eps)
        rep = Representation({**outer, **inner}, (0, 1, 2), eps)
        # the 12 pairs with an inner end, 8 faces
        assert assemble._fault(rep, octahedron) is None
        assert all(signed_height(outer[u], outer[v]) >= 0
                   for u, v in itertools.combinations(range(3), 2))
        assert all(inside_neg(t, canvas.expand(eps)) for t in inner.values())


def _roles(T, outer):
    """(canvas, roles by vertex) of T's boundary triangles `outer`."""
    canvas, role_idx = canvas_with_roles([outer[v] for v in T.outer])
    return canvas, {r: T.outer[i] for r, i in role_idx.items()}


def _outer_for(T, outer_map):
    """The default boundary triangles, by T's boundary vertices in order."""
    return {v: outer_map[i] for i, v in enumerate(T.outer)}


def _wood_solves(monkeypatch):
    """The log, in order, of `solve_wood`'s exact solves ("solve") and of its
    cycle reversals tried ("reverse")."""
    log = []
    solve, reverse = solver._solve_unit, solver._reverse_cycle
    monkeypatch.setattr(solver, "_solve_unit", lambda *a: log.append("solve") or solve(*a))
    monkeypatch.setattr(solver, "_reverse_cycle",
                        lambda *a: log.append("reverse") or reverse(*a))
    return log


def _start(T, outer_map):
    """(canvas, roles, rotation, canonical wood) of T in the canvas of `outer_map`."""
    canvas, roles = _roles(T, _outer_for(T, outer_map))
    nxt = solver._orient(T, roles["hyp"], roles["vertical"])
    return canvas, roles, nxt, solver._canonical_wood(T, nxt, roles)


WOOD_PIECES = [
    ("dw5", lambda: planar.double_wheel(5)), ("dw12", lambda: planar.double_wheel(12)),
    ("g4_14_0", lambda: planar.gen_four_connected(14, 0)),
    ("g4_16_0", lambda: planar.gen_four_connected(16, 0)),
    ("g4_22_0", lambda: planar.gen_four_connected(22, 0)),
    ("g4_26_3", lambda: planar.gen_four_connected(26, 3)),
]


class TestSolveWood:
    """The exact contact layout of a 4-connected piece from a Schnyder wood."""

    def test_k4_is_the_medial_child(self, k4, outer_map):
        canvas, roles = _roles(k4, outer_map)
        assert contact_layout(k4, canvas, roles) == {3: solve_stacked(3, canvas, roles)[0]}

    def test_octahedron_meets_in_one_point(self, octahedron, outer_map, k222_triple_rep):
        # the octahedron's only contact layout has its inner triangles meet
        # in one point: the hand-built fixture
        assert solve_in_canvas(octahedron, outer_map) == k222_triple_rep

    @pytest.mark.parametrize("make", [m for _n, m in WOOD_PIECES], ids=[n for n, _m in WOOD_PIECES])
    def test_exact_contacts(self, make, outer_map):
        # every adjacency at signed height exactly 0, every non-adjacency apart,
        # every inner triangle inside the canvas
        T = make()
        rep = solve_in_canvas(T, _outer_for(T, outer_map))
        canvas = _roles(T, _outer_for(T, outer_map))[0]
        for u, v in itertools.combinations(T.vertices(), 2):
            if not {u, v} <= T.outer_set:
                s = signed_height(rep.tri(u), rep.tri(v))
                assert (s == 0) if T.has_edge(u, v) else (s < 0), (u, v, s)
        assert all(inside_neg(rep.tri(v), canvas) for v in rep.inner_ids())

    def test_homothety_equivariance(self, outer_map):
        # the layout in a moved and scaled gap is the unit one moved and scaled
        T = planar.gen_four_connected(16, 1)
        k, dx, dy = F(5, 7), F(1, 3), F(-2, 9)
        om = _outer_for(T, outer_map)
        moved = {v: Tri(t.x * k + dx, t.y * k + dy, t.h * k) for v, t in om.items()}
        a, b = solve_in_canvas(T, om), solve_in_canvas(T, moved)
        for v in a.inner_ids():
            t = a.tri(v)
            assert b.tri(v) == Tri(t.x * k + dx, t.y * k + dy, t.h * k)

    @pytest.mark.parametrize("make, reversals", [
        (lambda: planar.gen_four_connected(14, 0), 0),
        (lambda: planar.gen_four_connected(22, 0), 2),
        (lambda: planar.gen_four_connected(24, 0), 5),
        (lambda: planar.gen_four_connected(26, 3), 0),
    ], ids=["g4_14_0", "g4_22_0", "g4_24_0", "g4_26_3"])
    def test_cycle_reversals(self, make, reversals, outer_map, monkeypatch):
        # face flips alone stall on g4_22_0 and g4_24_0: the loop meets woods
        # with no cyclic face of negative hole, but vertices of negative height
        log = _wood_solves(monkeypatch)
        T = make()
        solve_in_canvas(T, _outer_for(T, outer_map))
        assert log.count("reverse") == reversals and log[-1] == "solve"

    @pytest.mark.parametrize("make", [m for _n, m in WOOD_PIECES], ids=[n for n, _m in WOOD_PIECES])
    def test_unit_solve_matches_dense_reference(self, make, outer_map):
        # the sparse integer elimination against dense Gauss-Jordan on Fractions
        T = make()
        _canvas, roles, _nxt, wood = _start(T, outer_map)
        P = solver._solve_unit(wood, roles)
        assert {v: P[v] for v in wood} == dense_solve(wood, roles)

    @pytest.mark.parametrize("make", [m for _n, m in WOOD_PIECES], ids=[n for n, _m in WOOD_PIECES])
    def test_maximal_wood(self, make, outer_map):
        # the loop's first wood, the canonical-order one, is a Schnyder wood:
        # out-edges red, blue, green counter-clockwise round every inner
        # vertex, and its colours are the ones its orientation alone gives
        T = make()
        _canvas, roles, nxt, wood = _start(T, outer_map)
        for v, out in wood.items():
            ring = solver._ring(nxt, v, out[solver.RED])
            assert [w for w in ring if w in out] == [out[c] for c in (solver.RED, solver.BLUE,
                                                                      solver.GREEN)]
        assert solver._recolour({v: set(out) for v, out in wood.items()}, nxt, roles) == wood

    @pytest.mark.parametrize("make", [
        lambda: planar.gen_four_connected(22, 0), lambda: planar.gen_four_connected(26, 3),
        lambda: planar.augment_to_triangulation(*_grid(3, 4)),
        lambda: planar.augment_to_triangulation(64, list(
            nx.convert_node_labels_to_integers(nx.grid_2d_graph(8, 8)).edges())),
    ], ids=["g4_22_0", "g4_26_3", "grid3x4", "grid8x8"])
    def test_former_solver_failures_certify(self, make):
        # inputs the float solver failed on, and the 8x8 grid, whose wood
        # loop ran out of solves when it started from the maximal wood,
        # construct and certify with the face condition and the drawing
        T = make()
        rep = represent(T)
        assert full_report(rep, T, with_faces=True, with_drawing=True).passed

    def test_fourconn_corpus_solve_count(self, monkeypatch):
        # from the canonical wood the benchmark's fourconn corpus takes 77
        # exact solves in all, wood loops and overlap solves; from the
        # maximal wood it took 109
        log = _wood_solves(monkeypatch)
        for _name, T in bench_corpus("fourconn"):
            represent(T)
        assert log.count("solve") <= 80

    def test_grid_represented_as_planar_graph(self):
        n, edges = _grid(3, 4)
        tris, rep, T = assemble.represent_planar(n, edges)
        assert full_report(rep, T, with_faces=True, with_drawing=True).passed
        assert {(u, v) for u, v in itertools.combinations(range(n), 2)
                if signed_height(tris[u], tris[v]) >= 0} == {tuple(sorted(e)) for e in edges}

    def test_stall_names_the_vertices_of_nonpositive_height(self, outer_map, monkeypatch):
        # capped at one solve, g4_22_0 stops at its canonical wood, whose
        # layout has vertices of negative height
        T = planar.gen_four_connected(22, 0)
        _canvas, roles, _nxt, wood = _start(T, outer_map)
        P = solver._solve_unit(wood, roles)
        nonpositive = sorted((s - x - y, v) for v, (x, y, s) in P.items() if v in wood
                             and s - x - y <= 0)
        monkeypatch.setattr(solver, "MAX_ROUNDS", 1)
        with pytest.raises(SolveFailure) as exc:
            solve_in_canvas(T, _outer_for(T, outer_map))
        d = exc.value.diagnostics
        assert nonpositive and d == {"rounds": 1, "nonpositive": [v for _h, v in nonpositive]}
        assert {type(v) for v in d["nonpositive"]} == {int}
        assert str(exc.value) == (f"no contact layout for the piece inside {T.outer} after 1 "
                                  f"exact solves; vertices with h <= 0: {d['nonpositive']}")
        # the cap reaches `represent` too
        with pytest.raises(SolveFailure):
            represent(T)

    def test_deterministic(self, outer_map):
        T = planar.gen_four_connected(16, 2)
        om = _outer_for(T, outer_map)
        assert solve_in_canvas(T, om) == solve_in_canvas(T, om)


def _grid(a, b):
    """grid_2d_graph(a, b) on vertices 0..ab-1, as (n, edges)."""
    G = nx.grid_2d_graph(a, b)
    idx = {v: i for i, v in enumerate(sorted(G))}
    return len(idx), sorted(tuple(sorted((idx[u], idx[v]))) for u, v in G.edges())


# the pieces whose contact layout has zero-hole faces, with those faces
ZERO_HOLE_PIECES = [
    ("g4_14_2", lambda: planar.gen_four_connected(14, 2), [[4, 6, 8]]),
    ("g4_16_2", lambda: planar.gen_four_connected(16, 2), [[6, 12, 13]]),
    ("g4_16_3", lambda: planar.gen_four_connected(16, 3), [[3, 12, 13], [4, 6, 11]]),
    ("dw6", lambda: planar.double_wheel(6), [[1, 5, 6]]),
    ("dw8", lambda: planar.double_wheel(8), [[1, 6, 7]]),
    ("dw10", lambda: planar.double_wheel(10), [[1, 7, 8]]),
    ("dw12", lambda: planar.double_wheel(12), [[1, 8, 9]]),
]
ZERO_HOLE_IDS = [name for name, _m, _f in ZERO_HOLE_PIECES]
# the cube graph, in an edge order whose piece needs weight 16
CUBE = [(0, 4), (0, 2), (0, 1), (1, 5), (1, 3), (2, 6), (2, 3), (3, 7),
        (4, 6), (4, 5), (5, 7), (6, 7)]


def _opened_by_reference(T, om, epsilon):
    """`conftest.opened_by_reference` in the canvas of the boundary triangles `om`."""
    return opened_by_reference(T, om, *_roles(T, om), epsilon)


class TestOpenWood:
    """The final layout of a larger piece: its wood's contact layout opened
    by one more exact solve with prescribed overlaps."""

    @pytest.mark.parametrize("make, faces", [(m, f) for _n, m, f in ZERO_HOLE_PIECES],
                             ids=ZERO_HOLE_IDS)
    def test_zero_hole_faces_open(self, make, faces, outer_map):
        # each zero-hole face of the contact layout opens, every edge with an
        # inner end overlaps below the budget, and the result certifies
        T = make()
        om = _outer_for(T, outer_map)
        assert zero_hole_faces(solve_in_canvas(T, om), T) == faces
        rep = open_in_canvas(T, om)
        for f in faces:
            assert common_signed_height([rep.tri(v) for v in f]) < 0
        for u, v in itertools.combinations(T.vertices(), 2):
            if not {u, v} <= T.outer_set:
                s = signed_height(rep.tri(u), rep.tri(v))
                assert (0 < s < rep.epsilon) if T.has_edge(u, v) else s < 0, (u, v, s)
        assert assemble._fault(rep, T) is None
        assert full_report(rep, T, with_faces=True, with_drawing=True).passed

    @pytest.mark.parametrize("make", [m for _n, m, _f in ZERO_HOLE_PIECES] + [
        octahedron_graph, lambda: planar.gen_four_connected(14, 0),
        lambda: planar.gen_four_connected(22, 0),
        lambda: planar.augment_to_triangulation(8, CUBE)],
        ids=ZERO_HOLE_IDS + ["octahedron", "g4_14_0", "g4_22_0", "cube"])
    @pytest.mark.parametrize("epsilon", [F(1), F(1, 3), F(1, 10 ** 6)], ids=["1", "1/3", "1e-6"])
    def test_step_matches_reference(self, make, epsilon, outer_map):
        # the step and the rates, found on frame integers, are the ones a
        # Fraction computation in the global frame finds
        T = make()
        om = _outer_for(T, outer_map)
        assert open_in_canvas(T, om, epsilon).triangles == _opened_by_reference(T, om, epsilon)

    @pytest.mark.parametrize("make, faces", [(m, f) for _n, m, f in ZERO_HOLE_PIECES],
                             ids=ZERO_HOLE_IDS)
    def test_unit_weights_leave_the_face_shut(self, make, faces, monkeypatch):
        # with every weight 1 a zero-hole face keeps a common point; the
        # failure names it, and so does the post-check's
        monkeypatch.setattr(solver, "OPEN_WEIGHT", 1)
        monkeypatch.setattr(solver, "MAX_WEIGHT", 1)
        T = make()
        with pytest.raises(SolveFailure) as exc:
            represent(T)
        assert exc.value.diagnostics == {"face": faces[0]}
        assert str(exc.value) == (f"zero-hole face {faces[0]} of the piece inside {T.outer} "
                                  "stays shut at weight 1")
        monkeypatch.setattr(solver, "_opening", lambda A, B, face: -1)
        with pytest.raises(SolveFailure) as exc:
            represent(T)
        assert exc.value.diagnostics == {"face": faces[0]}
        assert str(exc.value) == (f"the overlaps of the piece inside {T.outer} fail: "
                                  f"face {faces[0]} has a common point")

    def test_weight_doubles_until_every_face_opens(self, monkeypatch, outer_map):
        # the cube graph's piece has three zero-hole faces; at weight 8 the
        # other two faces' weights keep [6, 7, 13] shut, at 16 all open
        weights = []
        real = solver._solve_unit
        monkeypatch.setattr(solver, "_solve_unit", lambda wood, roles, w=None: (
            weights.append(set((w or {}).values())) or real(wood, roles, w)))
        _tris, rep, T = assemble.represent_planar(8, CUBE)
        assert [w for w in weights if w] == [{8}, {16}]
        assert zero_hole_faces(solve_in_canvas(T, _outer_for(T, outer_map)), T) == [
            [2, 3, 12], [4, 5, 10], [6, 7, 13]]
        assert full_report(rep, T, with_faces=True, with_drawing=True).passed

    def test_face_shut_at_the_last_weight_is_named(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_WEIGHT", 8)
        with pytest.raises(SolveFailure) as exc:
            assemble.represent_planar(8, CUBE)
        assert exc.value.diagnostics == {"face": [6, 7, 13]}
        assert "zero-hole face [6, 7, 13]" in str(exc.value)
        assert str(exc.value).endswith("stays shut at weight 8")

    def test_acyclic_zero_hole_face_is_named(self, monkeypatch):
        # a zero-hole face that the final wood does not run as a cycle has no
        # contacts to weigh: the failure names it
        real = solver._final_wood

        def final_wood(*a):
            out = real(*a)
            monkeypatch.setattr(solver, "_cyclic", lambda wood, face: None)
            return out

        monkeypatch.setattr(solver, "_final_wood", final_wood)
        T = planar.double_wheel(8)
        with pytest.raises(SolveFailure) as exc:
            represent(T)
        assert exc.value.diagnostics == {"face": [1, 6, 7]}
        assert "zero-hole face [1, 6, 7]" in str(exc.value)

    def test_post_check_names_the_pair(self, monkeypatch):
        # a wood piece's layout is returned only after its exact post-check:
        # inner triangles grown fourfold fail it, as a solver failure
        real = assemble.solve_wood
        monkeypatch.setattr(assemble, "solve_wood", lambda *a: {
            v: Tri(t.x, t.y, t.h * 4) for v, t in real(*a).items()})
        T = planar.double_wheel(8)
        with pytest.raises(SolveFailure) as exc:
            represent(T)
        (kind, ids), = exc.value.diagnostics.items()
        assert kind == "pair"
        assert str(exc.value).startswith(f"the overlaps of the piece inside {T.outer} fail: "
                                         f"pair ({ids[0]},{ids[1]}) has signed height ")

    def test_fraction_work_is_per_vertex(self, monkeypatch):
        # the step's bounds run on frame integers: outside the two kinds of
        # exact solve, `solve_wood` does a few Fraction operations per
        # coordinate (the frames, the step, the layout), none per pair
        T = planar.gen_four_connected(30, 1)
        calls, paused = [], []

        def counted(f):
            def wrapper(*args, **kwargs):
                if not paused:
                    calls.append(f.__name__)
                return f(*args, **kwargs)
            return wrapper

        def pausing(f):
            def wrapper(*args, **kwargs):
                paused.append(1)
                try:
                    return f(*args, **kwargs)
                finally:
                    paused.pop()
            return wrapper

        om = _outer_for(T, {v: t for v, t in enumerate(default_outer())})
        canvas, roles = _roles(T, om)
        for name in ("_final_wood", "_solve_unit"):
            monkeypatch.setattr(solver, name, pausing(getattr(solver, name)))
        for name in FRACTION_DUNDERS:
            monkeypatch.setattr(F, name, counted(getattr(F, name)))
        monkeypatch.setattr(F, "__new__", staticmethod(counted(F.__new__)))
        solver.solve_wood(T, om, canvas, roles, F(1))
        monkeypatch.undo()
        # it reads 786 here; a signed height on Fractions takes at least 5
        # operations, and the piece has 435 pairs
        assert len(calls) <= 30 * T.n < 5 * T.n * (T.n - 1) // 2

    def test_homothety_equivariance(self, outer_map):
        # in a moved and scaled canvas, with the budget scaled alike, the
        # layout is the unit one moved and scaled
        T = planar.gen_four_connected(16, 3)
        k, dx, dy = F(5, 7), F(1, 3), F(-2, 9)
        om = _outer_for(T, outer_map)
        moved = {v: Tri(t.x * k + dx, t.y * k + dy, t.h * k) for v, t in om.items()}
        a, b = open_in_canvas(T, om), open_in_canvas(T, moved, k)
        for v in a.inner_ids():
            t = a.tri(v)
            assert b.tri(v) == Tri(t.x * k + dx, t.y * k + dy, t.h * k)


class TestRobustify:
    """The post-conditions of turning a contact layout into overlaps, which
    `robustify` and the triple removal once did in two stages and the wood
    path's overlap solve now does in one: the octahedron, forced through
    the wood path, from its contact layout, the hand-built fixture."""

    def test_postconditions_exact(self, octahedron, outer_map):
        rep = open_in_canvas(octahedron, outer_map)
        adj = octahedron.adjacency()
        for u, v in itertools.combinations(range(6), 2):
            if u in (0, 1, 2) and v in (0, 1, 2):
                continue
            s = signed_height(rep.tri(u), rep.tri(v))
            if v in adj[u]:
                assert 0 < s < F(1)
            else:
                assert s < 0

    def test_edge_sets_identical_pre_post(self, octahedron, outer_map):
        # the opening keeps the non-edges apart and turns the contacts into
        # strict overlaps
        pre = solve_in_canvas(octahedron, outer_map)
        post = open_in_canvas(octahedron, outer_map)
        want = {tuple(sorted(e)) for e in octahedron.edges}
        for rep in (pre, post):
            got = set()
            for u, v in itertools.combinations(range(6), 2):
                if signed_height(rep.tri(u), rep.tri(v)) >= 0:
                    got.add((u, v))
            assert got == want
        assert all(signed_height(pre.tri(u), pre.tri(v)) == 0 for u, v in want
                   if not {u, v} <= {0, 1, 2})

    def test_zero_hole_face_becomes_the_only_bad_triple(self, octahedron, outer_map):
        # the octahedron's inner face [3, 4, 5] has hole 0 in the contact
        # layout, the one triple with a common point; opened, none is left
        pre = solve_in_canvas(octahedron, outer_map)
        assert zero_hole_faces(pre, octahedron) == [[3, 4, 5]]
        assert triples_by_cubic_scan(pre) == [(3, 4, 5)]
        post = open_in_canvas(octahedron, outer_map)
        assert triples_by_cubic_scan(post) == []
        assert full_report(post, octahedron, with_drawing=True).passed


class TestRobustifyFaults:
    """A step outside the rule must not pass: the post-check refuses it."""

    @pytest.mark.parametrize("step, pair, height", [
        (F(1, 4), [0, 3], F(2, 3)),
        (F(1, 16), [0, 5], F(1)),
    ], ids=["spurious", "budget"])
    def test_postconditions_catch_a_bad_iota(self, octahedron, outer_map, monkeypatch,
                                             step, pair, height):
        # the rule takes 1/128 here; 1/4 makes the antipodal pair (0, 3)
        # meet, and 1/16 has the edge (0, 5) overlap by exactly the budget 1
        monkeypatch.setattr(solver, "pow2_floor", lambda q: step)
        rep = open_in_canvas(octahedron, outer_map)
        assert signed_height(rep.tri(pair[0]), rep.tri(pair[1])) == height
        kind, ids, text = assemble._fault(rep, octahedron)
        assert (kind, ids) == ("pair", pair)
        assert text.startswith(f"pair ({pair[0]},{pair[1]}) has signed height ")


class TestRepresentationJson:
    def test_roundtrip(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        again = Representation.from_json(rep.to_json())
        assert again == rep
