from fractions import Fraction

import pytest

from tricontact import planar, verify
from tricontact.assemble import represent
from tricontact.geometry import Point, point, tri
from tricontact.perturb import GapError, face_gap_with_roles, remove_all
from tricontact.core import Representation
from tricontact.solver import (
    SolverParams,
    exactify,
    robustify,
    solve_contacts,
    solve_stacked,
)
from tricontact.verify import (
    _route,
    check_boundary,
    check_face_condition,
    check_simple,
    count_crossings,
    extract_drawing,
    full_report,
    intersection_graph,
)

F = Fraction


def free_point(rep, u):
    """`verify._free_point` with no ray targets, over a fresh float table."""
    table = verify.float_table(rep)
    return verify._free_point(rep, u, (), table, verify._table_pad(table))


def _newest_face(T):
    return sorted(sorted(f) for f in T.inner_faces if T.n - 1 in f)[0]


def _chain(depth):
    """gen_stacked(20, 5) with an octahedron in its first inner face, then
    `depth` rounds of stack_vertex + implant_octahedron into the first face
    holding the newest vertex."""
    host = planar.gen_stacked(20, 5)
    T = planar.implant_octahedron(host, sorted(sorted(f) for f in host.inner_faces)[0])
    for _ in range(depth):
        T = planar.stack_vertex(T, _newest_face(T))
        T = planar.implant_octahedron(T, _newest_face(T))
    return T


def _implanted():
    T = planar.gen_stacked(30, 1)
    for k in (0, 7):
        T = planar.implant_octahedron(T, sorted(sorted(f) for f in T.inner_faces)[k])
    return T


def _depth_zero_rogue(gap):
    """Outside the gap, in the strip beyond its hypotenuse side, touching that
    side along a segment (depth 0)."""
    return tri(gap.x - gap.h * 3 / 4, gap.y - gap.h * 3 / 4, gap.h / 2)


def octa_pipeline_rep(octahedron, outer_map):
    params = SolverParams()
    res = solve_contacts(planar.as_piece(octahedron), outer_map, params)
    rep = robustify(exactify(res), planar.as_piece(octahedron), params, F(1))
    return remove_all(rep)


class TestIntersectionGraph:
    def test_k4_exact(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        assert intersection_graph(rep) == {tuple(sorted(e)) for e in k4.edges}

    def test_disjoint_triangles(self):
        rep = Representation({0: tri(0, 0, 1), 1: tri(5, 5, 1), 2: tri(0, 9, 1)}, (), F(1))
        assert intersection_graph(rep) == set()

    def test_robustify_preserves_graph_of_exact_contacts(self, k4, outer_map):
        # exact contact input: all adjacencies at signed height 0
        T = planar.stack_vertex(k4, (0, 1, 3))
        pre = represent(T)
        post = robustify(pre, planar.as_piece(T), SolverParams(), F(1))
        assert intersection_graph(pre) == intersection_graph(post)

    def test_robustify_realizes_target_graph(self, octahedron, outer_map):
        # float residuals may leave hairline gaps; inflation must close them
        params = SolverParams()
        res = solve_contacts(planar.as_piece(octahedron), outer_map, params)
        post = robustify(exactify(res), planar.as_piece(octahedron), params, F(1))
        assert intersection_graph(post) == {tuple(sorted(e)) for e in octahedron.edges}


class TestCheckSimple:
    def test_triple_fixture_fails(self):
        rep = Representation({0: tri(0, 2, 2), 1: tri(2, 2, 2), 2: tri(2, 0, 2)}, (), F(1))
        ok, offending = check_simple(rep, audit=True)
        assert not ok and offending == [(0, 1, 2)]

    def test_after_steps_passes(self):
        rep = Representation({0: tri(0, 2, 2), 1: tri(2, 2, 2), 2: tri(2, 0, 2)}, (), F(1))
        out = remove_all(rep)
        ok, offending = check_simple(out, audit=True)
        assert ok and offending == []

    def test_k4_exact(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        ok, _ = check_simple(rep, audit=True)
        assert ok


class TestCheckBoundary:
    def test_exact_contacts_pass_any_epsilon(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        ok, pairs, cok, corners = check_boundary(rep, F(1, 10 ** 9))
        assert ok and cok and not pairs and not corners

    def test_robustified_within_budget(self, octahedron, outer_map):
        rep = octa_pipeline_rep(octahedron, outer_map)
        ok, pairs, cok, corners = check_boundary(rep)
        assert ok and cok

    def test_corner_violation_reported(self, k4, outer_map):
        T = planar.stack_vertex(k4, (0, 1, 3))
        rep = represent(T)
        bad = rep.with_triangle(4, tri(F(3, 4), F(11, 4), F(1, 2)))
        ok, _, cok, offenders = check_boundary(bad)
        assert not cok
        assert any(o == 1 and v == 4 for o, _, v in offenders)


class TestCheckFaces:
    def test_k4_all_faces(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        ok, fails = check_face_condition(rep, k4)
        assert ok and not fails

    def test_octa_pipeline(self, octahedron, outer_map):
        rep = octa_pipeline_rep(octahedron, outer_map)
        ok, fails = check_face_condition(rep, octahedron)
        assert ok

    def test_blocked_gap_fails(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        gap, _, _ = face_gap_with_roles(rep, (0, 1, 3))
        rogue = tri(gap.x - gap.h / 2, gap.y - gap.h / 2, gap.h / 2)
        blocked = Representation({**rep.triangles, 99: rogue}, rep.outer, rep.epsilon)
        ok, fails = check_face_condition(blocked, k4)
        assert not ok
        assert (0, 1, 3) in [f for f, _ in [(tuple(f), m) for f, m in fails]]

    def test_gap_side_touch_fails(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        gap, _, _ = face_gap_with_roles(rep, (0, 1, 3))
        rogue = _depth_zero_rogue(gap)
        assert rogue.s == gap.hyp_level
        touched = Representation({**rep.triangles, 99: rogue}, rep.outer, rep.epsilon)
        ok, fails = check_face_condition(touched, k4)
        assert not ok
        assert (0, 1, 3) in [f for f, _ in fails]

    @pytest.mark.parametrize("make", [
        lambda: planar.gen_stacked(40, 2), _implanted, lambda: _chain(3),
        lambda: planar.double_wheel(6)], ids=["stacked40", "implanted", "chain3", "dw6"])
    def test_agrees_with_constructor_face_gap(self, make):
        # the verifier derives the face condition on its own; it must accept
        # exactly the faces for which the constructor's face gap gives a
        # positive budget, on certified outputs and on copies with a
        # triangle blocking one gap, touching another gap's side and
        # keeping clear of a third gap's side
        T = make()
        rep = represent(T)
        faces = sorted(tuple(sorted(f)) for f in T.inner_faces)
        g0, g1, g2 = (face_gap_with_roles(rep, f)[0] for f in faces[:3])
        extra = {
            -1: tri(g0.x - g0.h / 2, g0.y - g0.h / 2, g0.h / 2),
            -2: _depth_zero_rogue(g1),
            -3: tri(g2.x - g2.h * 3 / 4, g2.y - g2.h * 3 / 4, g2.h / 4),
        }
        damaged = Representation({**rep.triangles, **extra}, rep.outer, rep.epsilon)
        for r, expect_fail in ((rep, set()), (damaged, {faces[0], faces[1]})):
            want = set()
            for f in faces:
                try:
                    if face_gap_with_roles(r, f)[2] <= 0:
                        want.add(f)
                except GapError:
                    want.add(f)
            ok, fails = check_face_condition(r, T)
            assert {f for f, _ in fails} == want
            assert ok == (not want)
            assert expect_fail <= want


class TestDrawing:
    def test_k4(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        d = extract_drawing(rep, k4)
        assert len(d.points) == 4 and len(d.polylines) == 6
        assert count_crossings(d.polylines) == 0

    def test_single_triangle_free_point(self):
        rep = Representation({0: tri(0, 0, 2)}, (), F(1))
        p = free_point(rep, 0)
        t = rep.tri(0)
        assert t.contains(p) and p.x > t.x and p.y > t.y and p.x + p.y < t.s

    def test_free_point_exact_witness(self, octahedron, outer_map):
        rep = octa_pipeline_rep(octahedron, outer_map)
        for u in range(6):
            p = free_point(rep, u)
            assert rep.tri(u).contains(p)
            for v in range(6):
                if v != u:
                    assert not rep.tri(v).contains(p)

    def test_octa_pipeline(self, octahedron, outer_map):
        rep = octa_pipeline_rep(octahedron, outer_map)
        d = extract_drawing(rep, octahedron)
        assert len(d.polylines) == 12
        assert count_crossings(d.polylines) == 0

    def test_crossing_counter(self):
        # two crossing two-point polylines, disjoint vertex sets
        a = (0, 1, [point(0, 0), point(2, 2)])
        b = (2, 3, [point(0, 2), point(2, 0)])
        assert count_crossings([a, b]) == 1
        # shared vertex meeting at the shared terminal is allowed
        c = (1, 2, [point(2, 2), point(4, 1)])
        assert count_crossings([a, c]) == 0
        # collinear overlap is forbidden
        d = (4, 5, [point(1, 1), point(3, 3)])
        assert count_crossings([a, d]) == 1

    @staticmethod
    def _mapped(points, offset, scale):
        """Each named point moved to offset + scale * point, exactly; one new
        object per name, so shared endpoints stay shared."""
        ox, oy = offset
        return {k: Point(ox + scale * p.x, oy + scale * p.y) for k, p in points.items()}

    @pytest.mark.parametrize("offset, scale", [((0, 0), F(1)), ((3, 1), F(1, 2 ** 60))],
                             ids=["unit", "tiny"])
    def test_degenerate_meetings_flagged(self, offset, scale):
        # at the tiny scale every point rounds to the same float, so no float
        # orientation can decide these pairs
        P = self._mapped({"o": point(0, 0), "far": point(2, 2), "mid": point(1, 1)},
                         offset, scale)
        # two routes leave one Point object, collinear and pointing the same way
        a = (0, 1, [P["o"], P["far"]])
        b = (0, 2, [P["o"], P["mid"]])
        assert a[2][0] is b[2][0]
        assert count_crossings([a, b]) == 1
        # consecutive legs of one route fold back on each other at their joint
        fold = (0, 1, [P["o"], P["far"], P["mid"]])
        assert count_crossings([fold]) == 1

    @pytest.mark.parametrize("offset, scale", [((0, 0), F(1)), ((3, 1), F(1, 2 ** 60))],
                             ids=["unit", "tiny"])
    def test_collinear_route_legs_allowed(self, offset, scale):
        P = self._mapped({"pu": point(0, 0), "c": point(2, 2), "pv": point(4, 1)}, offset, scale)
        route = _route(P["pu"], P["c"], P["pv"])
        assert count_crossings([(0, 1, route)]) == 0

    def test_few_exact_segment_tests(self, monkeypatch):
        # the float screens settle almost every segment pair of a stacked
        # drawing, shared endpoints included; only the rest is tested exactly
        T = planar.gen_stacked(60, 1)
        rep = represent(T)
        calls = []
        exact = verify.segment_intersection_kind
        monkeypatch.setattr(verify, "segment_intersection_kind",
                            lambda *args: calls.append(args) or exact(*args))
        d = extract_drawing(rep, T)
        assert len(d.polylines) == len(T.edges)
        assert len(calls) < len(T.edges) // 10

    def test_json(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        d = extract_drawing(rep, k4)
        js = d.to_json()
        assert set(js) == {"points", "polylines"}
        assert len(js["polylines"]) == 6

    def test_drawing_fuzz_regression(self):
        # instances whose contact fans previously interleaved with overlap
        # regions; the vertex points must dodge foreign lenses
        import random
        from tricontact.assemble import represent
        rng = random.Random(31337)
        for trial in range(8):
            mode = trial % 4
            if mode == 0:
                T = planar.gen_stacked(rng.randint(5, 60), rng.randrange(10 ** 9))
            elif mode == 1:
                T = planar.gen_triangulation(rng.randint(8, 26), rng.randrange(10 ** 9))
            elif mode == 2:
                T = planar.gen_stacked(rng.randint(6, 20), rng.randrange(10 ** 9))
                for _ in range(rng.randint(1, 2)):
                    faces = sorted(sorted(f) for f in T.inner_faces)
                    T = planar.implant_octahedron(T, faces[rng.randrange(len(faces))])
            else:
                T = planar.double_wheel(rng.randint(4, 10))
                faces = sorted(sorted(f) for f in T.inner_faces)
                T = planar.stack_vertex(T, faces[rng.randrange(len(faces))])
            rep = represent(T)
            d = extract_drawing(rep, T)
            assert count_crossings(d.polylines) == 0


class TestFullReport:
    def test_pipeline_pass(self, octahedron, outer_map):
        rep = octa_pipeline_rep(octahedron, outer_map)
        r = full_report(rep, octahedron, audit=True, with_drawing=True)
        assert r.passed
        assert r.face_condition_ok and r.drawing_planar and r.crossings == 0

    def test_corrupted_edge_listed(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        bad = rep.with_triangle(3, tri(F(19, 10), 2, 1))   # slides off one contact
        r = full_report(bad, k4, with_faces=False)
        assert not r.passed and not r.graph_match
        assert r.missing_edges == [[2, 3]] and r.extra_edges == []

    def test_triple_point_rep_fails_simple_only(self, octahedron, k222_triple_rep):
        r = full_report(k222_triple_rep, octahedron, with_faces=False)
        assert not r.passed
        assert not r.simple and r.offending_triples == [[3, 4, 5]]
        assert r.graph_match and r.boundary_ok and r.corner_ok

    def test_report_json(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        r = full_report(rep, k4, with_drawing=True)
        js = r.to_json()
        assert js["passed"] is True and js["crossings"] == 0
