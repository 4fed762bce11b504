import itertools
from fractions import Fraction

import pytest

from tricontact import planar
from tricontact.geometry import (
    common_signed_height,
    intersect,
    point,
    signed_height,
    tri,
)
from tricontact.perturb import (
    PUSH_VERTICAL,
    TRANSLATE_DOWN,
    BadTriple,
    GapError,
    PerturbError,
    QuadrupleIntersection,
    ZeroClearance,
    face_gap_with_roles,
    find_bad_triples,
    remove_all,
    safe_epsilon,
    select_bad,
    step1_widen,
    step2_clear,
    step3_separate,
)
from tricontact.core import Representation, intersection_graph
from tricontact.solver import canvas_with_roles, solve_stacked
from conftest import ntri

F = Fraction


def fixture_rep(extra=None):
    tris = {0: tri(0, 2, 2), 1: tri(2, 2, 2), 2: tri(2, 0, 2)}
    if extra:
        tris.update(extra)
    return Representation(tris, (), F(1))


class TestFindBadTriples:
    def test_fixture_roles(self):
        bad = find_bad_triples(fixture_rep())
        assert len(bad) == 1
        t = bad[0]
        assert (t.u, t.v, t.w) == (0, 1, 2)
        assert t.p == point(2, 2)
        # role structure: u's hypotenuse attains the min level, v's vertical
        # side the max x, w sits below with its top corner at p
        rep = fixture_rep()
        assert rep.tri(t.u).s == 4 and rep.tri(t.u).east_corner == t.p
        assert rep.tri(t.v).right_corner == t.p
        assert rep.tri(t.w).top_corner == t.p

    def test_exact_k4_clean(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        assert find_bad_triples(rep) == []

    def test_two_disjoint_bad_configs(self):
        far = {10: tri(100, 2, 2), 11: tri(102, 2, 2), 12: tri(102, 0, 2)}
        bad = find_bad_triples(fixture_rep(far))
        assert sorted(tuple(sorted(t.ids)) for t in bad) == [(0, 1, 2), (10, 11, 12)]

    def test_quadruple_detected(self):
        rep = fixture_rep({3: tri(2, 2, 1)})  # fourth triangle with corner at p
        with pytest.raises(QuadrupleIntersection):
            find_bad_triples(rep)

    def test_region_triple_after_inflation(self):
        from tricontact.geometry import inflate
        tris = {v: inflate(t, F(1, 64)) for v, t in fixture_rep().triangles.items()}
        bad = find_bad_triples(Representation(tris, (), F(1)))
        assert len(bad) == 1
        t = bad[0]
        assert (t.u, t.v, t.w) == (0, 1, 2)      # roles survive uniform inflation
        assert t.overlap.kind == "region"


class TestSelectBad:
    def test_higher_wins(self):
        a = BadTriple(0, 1, 2, intersect(tri(0, 2, 2), tri(2, 2, 2)), point(2, 2))
        b = BadTriple(3, 4, 5, intersect(tri(0, 2, 2), tri(2, 2, 2)), point(0, 5))
        assert select_bad([a, b]) is b

    def test_leftmost_tie(self):
        a = BadTriple(0, 1, 2, intersect(tri(0, 2, 2), tri(2, 2, 2)), point(2, 2))
        b = BadTriple(3, 4, 5, intersect(tri(0, 2, 2), tri(2, 2, 2)), point(0, 2))
        assert select_bad([a, b]) is b

    def test_single(self):
        a = BadTriple(0, 1, 2, intersect(tri(0, 2, 2), tri(2, 2, 2)), point(2, 2))
        assert select_bad([a]) is a

    def test_empty(self):
        with pytest.raises(ValueError):
            select_bad([])


class TestSafeEpsilon:
    def test_isolated_with_far_neighbor(self):
        # nearest other triangle at signed height exactly -1, placed where the
        # leftward push actually approaches it at unit rate
        rep = fixture_rep({9: tri(-4, 2, 3)})
        assert signed_height(rep.tri(0), rep.tri(9)) == -1
        sel = select_bad(find_bad_triples(rep))
        e, clearance = safe_epsilon(rep, {sel.u: PUSH_VERTICAL}, exclude_triple=sel.ids)
        assert 0 < e <= F(1, 2) and e == clearance / 2

    def test_bare_fixture_positive(self):
        sel = select_bad(find_bad_triples(fixture_rep()))
        e, _ = safe_epsilon(fixture_rep(), {sel.u: PUSH_VERTICAL}, exclude_triple=sel.ids)
        assert e > 0

    def test_zero_clearance_before_step2(self):
        # a triangle touching ]p,q[ makes the translation lose a contact at
        # step size zero; this is why the clearing step precedes the slide
        z = {5: tri(1, 3, 1)}   # right corner on the hypotenuse of t(0)
        rep = fixture_rep(z)
        assert intersect(rep.tri(5), rep.tri(0)).point == point(1, 3)
        sel = select_bad(find_bad_triples(rep))
        assert sel.u == 0
        with pytest.raises(ZeroClearance):
            safe_epsilon(rep, {sel.u: TRANSLATE_DOWN, sel.v: PUSH_VERTICAL},
                         exclude_triple=sel.ids)

    def test_boundary_move_rejected(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        with pytest.raises(PerturbError):
            safe_epsilon(rep, {0: PUSH_VERTICAL})


class TestSteps:
    def test_step1_exact(self):
        rep = fixture_rep()
        sel = select_bad(find_bad_triples(rep))
        out = step1_widen(rep, sel, F(1, 4))
        assert out.tri(0) == tri("-1/4", 2, "9/4")
        assert out.tri(0).east_corner == point(2, 2)
        assert intersection_graph(out) == intersection_graph(rep)
        q = out.tri(0).top_corner
        assert q == point("-1/4", "17/4")
        assert not out.tri(1).contains(q) and not out.tri(2).contains(q)

    def test_step2_no_z(self):
        rep = fixture_rep()
        sel = select_bad(find_bad_triples(rep))
        r1 = step1_widen(rep, sel, F(1, 4))
        assert step2_clear(r1, sel, F(1, 8)).triangles == r1.triangles

    def test_step2_pushes_hypotenuse_tangents(self):
        rep = fixture_rep({5: tri(1, 3, 1)})
        sel = select_bad(find_bad_triples(rep))
        r1 = step1_widen(rep, sel, F(1, 4))
        assert intersect(r1.tri(5), r1.tri(0)).kind == "point"
        r2 = step2_clear(r1, sel, F(1, 16))
        assert r2.tri(5) == tri(1, "47/16", "17/16")
        assert intersect(r2.tri(5), r2.tri(0)).kind == "region"
        assert intersection_graph(r2) == intersection_graph(rep)

    def test_step2_two_tangents(self):
        rep = fixture_rep({5: tri(1, 3, 1), 6: tri("1/2", "7/2", "1/2")})
        sel = select_bad(find_bad_triples(rep))
        r1 = step1_widen(rep, sel, F(1, 4))
        r2 = step2_clear(r1, sel, F(1, 16))
        assert r2.tri(5) != rep.tri(5) and r2.tri(6) != rep.tri(6)
        assert intersection_graph(r2) == intersection_graph(rep)

    def test_step3_exact_values(self):
        rep = fixture_rep()
        sel = select_bad(find_bad_triples(rep))
        r1 = step1_widen(rep, sel, F(1, 4))
        r3 = step3_separate(r1, sel, F(1, 4))
        assert r3.tri(0) == tri("-1/4", "7/4", "9/4")
        assert r3.tri(1) == tri("7/4", 2, "9/4")
        assert r3.tri(2) == tri(2, 0, 2)
        assert intersect(r3.tri(0), r3.tri(1)).point == point("7/4", 2)
        assert intersect(r3.tri(0), r3.tri(2)).point == point(2, "7/4")
        assert intersect(r3.tri(1), r3.tri(2)).point == point(2, 2)
        assert common_signed_height([r3.tri(0), r3.tri(1), r3.tri(2)]) == F(-1, 4)
        assert intersection_graph(r3) == intersection_graph(rep)
        # the old shared point is now outside t(u): its hypotenuse level dropped
        assert r3.tri(0).s == F(15, 4)
        assert not r3.tri(0).contains(point(2, 2))


class TestRemoveAll:
    def test_fixture_one_round(self):
        rep = fixture_rep()
        out = remove_all(rep)
        assert find_bad_triples(out) == []
        assert intersection_graph(out) == intersection_graph(rep)

    def test_identity_when_clean(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        assert remove_all(rep).triangles == rep.triangles

    def test_two_triples_highest_first(self):
        far = {10: tri(100, 3, 2), 11: tri(102, 3, 2), 12: tri(102, 1, 2)}
        rep = fixture_rep(far)
        bad = find_bad_triples(rep)
        assert len(bad) == 2
        # the far configuration sits higher (p = (102, 3)) and is selected first
        assert sorted(select_bad(bad).ids) == [10, 11, 12]
        out = remove_all(rep)
        assert find_bad_triples(out) == []
        assert intersection_graph(out) == intersection_graph(rep)

    def test_k222(self, octahedron, k222_triple_rep):
        bad = find_bad_triples(k222_triple_rep)
        assert len(bad) == 1 and sorted(bad[0].ids) == [3, 4, 5]
        out = remove_all(k222_triple_rep)
        assert find_bad_triples(out) == []
        assert intersection_graph(out) == intersection_graph(k222_triple_rep)
        adj = octahedron.adjacency()
        for u, v in itertools.combinations(range(6), 2):
            assert (v in adj[u]) == (signed_height(out.tri(u), out.tri(v)) >= 0)

    def test_budget_trace(self, k222_triple_rep):
        budgets = []
        remove_all(k222_triple_rep, budgets=budgets)
        assert len(budgets) == 1
        b = budgets[0]
        assert b.e1 > 0 and b.e3 > 0 and b.clearance > 0
        assert b.epsilon == k222_triple_rep.epsilon


class TestEventAnalysis:
    """Direct checks of the exact piecewise-linear event machinery."""

    def test_first_reach_upward_linear(self):
        from tricontact.perturb import _first_reach, _lines_for, _breakpoints
        # (0,0,1) approached by push_vertical of (3,0,1): signed = 1 - (3-t) - 0
        rep = Representation({0: tri(0, 0, 1), 1: tri(3, 0, 1)}, (), F(1))
        move = {1: PUSH_VERTICAL}
        groups = _lines_for(rep, move, (0, 1))
        root = _first_reach(groups, _breakpoints(groups), F(0), upward=True)
        assert root == 2          # signed(t) = t - 2

    def test_first_reach_with_breakpoint(self):
        from tricontact.perturb import _first_reach, _lines_for, _breakpoints
        # moving triangle's x passes under the static one's x: slope changes
        rep = Representation({0: tri(0, 0, 4), 1: tri(1, 1, 1)}, (), F(1))
        move = {1: TRANSLATE_DOWN}
        groups = _lines_for(rep, move, (0, 1))
        # signed(t) = min(4, 3-t) - 1 - max(0, 1-t): starts at 1, falls to 0 at t=2
        root = _first_reach(groups, _breakpoints(groups), F(0), upward=False)
        assert root == 2

    def test_lockstep_pair_has_no_event(self):
        from tricontact.perturb import _first_reach, _lines_for, _breakpoints
        # the slide-down + push-left combination keeps the contact exactly
        rep = fixture_rep()
        sel = select_bad(find_bad_triples(rep))
        r1 = step1_widen(rep, sel, F(1, 4))
        move = {sel.u: TRANSLATE_DOWN, sel.v: PUSH_VERTICAL}
        groups = _lines_for(r1, move, (sel.u, sel.v))
        assert signed_height(r1.tri(sel.u), r1.tri(sel.v)) == 0
        root = _first_reach(groups, _breakpoints(groups), F(0), upward=False)
        assert root is None or root >= F(9, 4)

    def test_corner_entry(self):
        from tricontact.perturb import _corner_entry
        from tricontact.geometry import point
        # pushing the vertical side left reaches a corner 3 to the left
        t = tri(2, 0, 2)
        assert _corner_entry(point(1, 1), t, PUSH_VERTICAL) == 1
        # a corner below the triangle can never be reached by that move
        assert _corner_entry(point(1, -5), t, PUSH_VERTICAL) is None
        # translations reach corners below
        assert _corner_entry(point(3, -1), t, TRANSLATE_DOWN) == 1


class TestSharedVertexTriples:
    def test_two_triples_sharing_a_triangle(self):
        # second point configuration hangs off v's east corner at (4, 2)
        rep = fixture_rep({5: tri(4, 2, 2), 6: tri(4, 0, 2)})
        bad = find_bad_triples(rep)
        assert sorted(tuple(sorted(t.ids)) for t in bad) == [(0, 1, 2), (1, 5, 6)]
        out = remove_all(rep)
        assert find_bad_triples(out) == []
        assert intersection_graph(out) == intersection_graph(rep)


class TestShallowHazards:
    def test_region_triple_with_shallow_hyp_overlap(self):
        # a region-type triple whose slid triangle also carries a region
        # overlap across its hypotenuse as shallow as the triple itself;
        # the clearing step must deepen it or the slide would disconnect it
        from tricontact.geometry import inflate
        iota = F(1, 1024)
        tris = {v: inflate(t, iota) for v, t in fixture_rep().triangles.items()}
        su = tris[0].s
        depth = F(1, 512)
        tris[9] = tri(F(1, 2), su - F(1, 2) - depth, 1)
        rep = Representation(tris, (), F(1))
        assert signed_height(rep.tri(0), rep.tri(9)) == depth
        bad = find_bad_triples(rep)
        assert len(bad) == 1 and sorted(bad[0].ids) == [0, 1, 2]
        out = remove_all(rep)
        assert find_bad_triples(out) == []
        assert intersection_graph(out) == intersection_graph(rep)   # the shallow edge survives


class TestBoundaryRoles:
    def test_triple_with_boundary_triangle_rejected(self):
        # a synthetic triple whose slid triangle is a boundary triangle
        rep = Representation(
            {0: tri(0, 2, 2), 1: tri(2, 2, 2), 2: tri(2, 0, 2)}, (0, 1), F(1))
        with pytest.raises(PerturbError):
            remove_all(rep)


class TestFaceGap:
    def test_k4_faces(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        gap, _, eps = face_gap_with_roles(rep, (0, 1, 3))
        assert gap == ntri(2, 3, 1)
        assert eps > 0
        # gap sides touch the three triangles of the face
        assert rep.tri(3).x == gap.x                 # vertical side on the child's side
        assert rep.tri(1).y == gap.y                 # horizontal side on t(1)
        assert rep.tri(0).s == gap.hyp_level         # hypotenuse on t(0)

    def test_three_tangent_alone(self, outer_map):
        rep = Representation(dict(outer_map), (0, 1, 2), F(1))
        gap, _, eps = face_gap_with_roles(rep, (0, 1, 2))
        assert gap == canvas_with_roles([outer_map[0], outer_map[1], outer_map[2]])[0]
        assert eps == gap.h / 2                      # limited only by gap size

    def test_homothety(self, k4, outer_map):
        from tricontact.geometry import Tri
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        lam = F(2)
        rep2 = Representation(
            {v: Tri(t.x * lam, t.y * lam, t.h * lam) for v, t in rep.triangles.items()},
            rep.outer, rep.epsilon)
        g1, _, e1 = face_gap_with_roles(rep, (0, 1, 3))
        g2, _, e2 = face_gap_with_roles(rep2, (0, 1, 3))
        assert (g2.x, g2.y, g2.h) == (g1.x * lam, g1.y * lam, g1.h * lam)
        assert e2 == e1 * lam

    def test_blocked_gap(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        gap, _, _ = face_gap_with_roles(rep, (0, 1, 3))
        rogue = tri(gap.x - gap.h / 2, gap.y - gap.h / 2, gap.h / 2)
        blocked = Representation({**rep.triangles, 99: rogue}, rep.outer, rep.epsilon)
        with pytest.raises(GapError):
            face_gap_with_roles(blocked, (0, 1, 3))
