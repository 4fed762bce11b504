import itertools
import random
from fractions import Fraction

import pytest

from tricontact import planar
from tricontact.geometry import Tri, intersect, ntri, point, signed_height, tri
from tricontact.core import Representation
from tricontact.solver import (
    CanvasError,
    NotStackedError,
    RobustifyError,
    SolveFailure,
    SolverParams,
    canvas_of,
    canvas_with_roles,
    check_outer_hypothesis,
    choose_iota,
    exactify,
    robustify,
    solve_contacts,
    solve_stacked,
)

F = Fraction


class TestParams:
    def test_invariants(self):
        SolverParams()
        with pytest.raises(ValueError):
            SolverParams(delta=1e-3, margin=1e-3)
        with pytest.raises(ValueError):
            SolverParams(h_min=0)

    def test_scaling(self):
        p = SolverParams().scaled(0.5)
        assert p.delta == pytest.approx(0.5e-7)
        assert p.margin == pytest.approx(0.5e-3)


class TestCanvas:
    def test_default_outer(self, outer_map):
        n = canvas_of([outer_map[0], outer_map[1], outer_map[2]])
        assert n == ntri(3, 3, 2)
        # sides: a = 3 from the third, b = 3 from the second, a+b = 4 from the first
        _, roles = canvas_with_roles([outer_map[0], outer_map[1], outer_map[2]])
        assert roles == {"hyp": 0, "vertical": 2, "horizontal": 1}

    def test_scaled(self):
        assert canvas_of([tri(0, 0, 8), tri(2, 6, 4), tri(6, 2, 4)]) == ntri(6, 6, 4)

    def test_common_point_rejected(self):
        # three triangles sharing the point (2,2)
        with pytest.raises(CanvasError):
            canvas_of([tri(0, 2, 2), tri(2, 2, 2), tri(2, 0, 2)])

    def test_disjoint_rejected(self):
        with pytest.raises(CanvasError):
            canvas_of([tri(0, 0, 1), tri(5, 5, 1), tri(0, 9, 1)])


class TestSolveStacked:
    def test_k4_medial(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
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
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        t = rep.tri(3)
        X, Y, H = F(3), F(3), F(2)
        assert t.x + t.h == X
        assert t.y + t.h == Y
        assert t.x + t.y == X + Y - H

    def test_heights_halve(self, k4, outer_map):
        T = planar.stack_vertex(k4, (0, 1, 3))
        rep = solve_stacked(planar.as_piece(T), outer_map)
        assert rep.tri(4).h == F(1, 2)     # 1/4 of the first gap's height 2

    def test_exact_contacts_random(self, outer_map):
        T = planar.gen_stacked(40, 8)
        rep = solve_stacked(planar.as_piece(T), outer_map)
        adj = T.adjacency()
        for u, v in itertools.combinations(range(T.n), 2):
            s = signed_height(rep.tri(u), rep.tri(v))
            if v in adj[u]:
                assert s == 0
            else:
                assert s < 0

    def test_homothety_equivariance(self, outer_map):
        T = planar.gen_stacked(15, 2)
        rep1 = solve_stacked(planar.as_piece(T), outer_map)
        lam = F(3)
        scaled = {v: Tri(t.x * lam, t.y * lam, t.h * lam) for v, t in outer_map.items()}
        rep2 = solve_stacked(planar.as_piece(T), scaled)
        for v in range(T.n):
            t1, t2 = rep1.tri(v), rep2.tri(v)
            assert (t2.x, t2.y, t2.h) == (t1.x * lam, t1.y * lam, t1.h * lam)

    def test_not_stacked(self, octahedron, outer_map):
        with pytest.raises(NotStackedError):
            solve_stacked(planar.as_piece(octahedron), outer_map)

    def test_large_instance_fully_verified(self, outer_map):
        # exact path at the upper end of the supported desk scale
        from tricontact.verify import full_report
        T = planar.gen_stacked(500, 77)
        rep = solve_stacked(planar.as_piece(T), outer_map)
        r = full_report(rep, T, epsilon=F(1, 10 ** 9), with_faces=False)
        assert r.passed and r.simple


class TestSolveContacts:
    def test_k4_matches_exact(self, k4, outer_map):
        params = SolverParams()
        res = solve_contacts(planar.as_piece(k4), outer_map, params)
        x, y, h = res.inner[3]
        assert abs(x - 2) < 1e-6 and abs(y - 2) < 1e-6 and abs(h - 1) < 1e-6

    def test_octahedron(self, octahedron, outer_map):
        params = SolverParams()
        res = solve_contacts(planar.as_piece(octahedron), outer_map, params)
        assert res.converged
        assert res.max_edge_residual <= params.delta
        rep = exactify(res)
        adj = octahedron.adjacency()
        for u, v in itertools.combinations(range(6), 2):
            if u in (0, 1, 2) and v in (0, 1, 2):
                continue
            s = signed_height(rep.tri(u), rep.tri(v))
            if v in adj[u]:
                assert abs(s) <= F(params.delta)
            else:
                assert s <= -F(params.margin)

    def test_monotone_objective(self, outer_map):
        T = planar.double_wheel(8)
        om = {T.outer[0]: outer_map[0], T.outer[1]: outer_map[1], T.outer[2]: outer_map[2]}
        res = solve_contacts(planar.as_piece(T), om, SolverParams())
        tr = res.objective_trace
        assert all(tr[i + 1] <= tr[i] for i in range(len(tr) - 1))

    def test_bad_boundary_rejected(self, octahedron):
        bad = {0: tri(0, 0, 1), 1: tri(5, 5, 1), 2: tri(0, 9, 1)}
        with pytest.raises(CanvasError):
            solve_contacts(planar.as_piece(octahedron), bad, SolverParams())

    def test_separating_triangle_rejected(self, k4, outer_map):
        T = planar.stack_vertex(k4, (0, 1, 3))
        with pytest.raises(ValueError):
            solve_contacts(planar.as_piece(T), outer_map, SolverParams())

    def test_deterministic(self, octahedron, outer_map):
        a = solve_contacts(planar.as_piece(octahedron), outer_map, SolverParams(seed=5))
        b = solve_contacts(planar.as_piece(octahedron), outer_map, SolverParams(seed=5))
        assert a.inner == b.inner

    def test_nonconvergence_reports_diagnostics(self, outer_map):
        # the rim triangles of a large double wheel need heights below the
        # default floor, so this must fail loudly, never silently
        T = planar.double_wheel(24)
        om = {T.outer[0]: outer_map[0], T.outer[1]: outer_map[1], T.outer[2]: outer_map[2]}
        with pytest.raises(SolveFailure) as exc:
            solve_contacts(planar.as_piece(T), om, SolverParams(restarts=1, max_iters=120))
        d = exc.value.diagnostics
        assert d["max_edge_residual"] > 0 and len(d["worst_pair"]) == 2

    def test_tight_instance_with_smaller_floor(self, outer_map):
        # the same instance certifies once the floors scale with the geometry
        from tricontact.perturb import remove_all
        from tricontact.verify import full_report
        T = planar.double_wheel(24)
        om = {T.outer[0]: outer_map[0], T.outer[1]: outer_map[1], T.outer[2]: outer_map[2]}
        params = SolverParams(delta=1e-9, margin=1e-5, h_min=1e-6)
        res = solve_contacts(planar.as_piece(T), om, params)
        rep = remove_all(robustify(exactify(res), planar.as_piece(T), params, F(1)))
        assert full_report(rep, T).passed
        assert min(t.h for t in rep.triangles.values()) < F(1e-3)


class TestExactify:
    def test_dyadic(self, k4, outer_map):
        assert F(0.5) == F(1, 2)
        assert F(0.1) == F(3602879701896397, 36028797018963968)
        res = solve_contacts(planar.as_piece(k4), outer_map, SolverParams())
        rep = exactify(res)
        for v, (x, y, h) in res.inner.items():
            assert rep.tri(v) == Tri(F(x), F(y), F(h))

    def test_outer_triangles_stay_exact(self, octahedron):
        # default triple scaled by the non-dyadic 1/3
        om = {0: tri(0, 0, F(4, 3)), 1: tri(F(1, 3), 1, F(2, 3)), 2: tri(1, F(1, 3), F(2, 3))}
        check_outer_hypothesis([om[0], om[1], om[2]])
        params = SolverParams().scaled(1 / 3)
        res = solve_contacts(planar.as_piece(octahedron), om, params)
        rep = exactify(res)
        assert rep.tri(1) == om[1]          # not round-tripped through floats

    def test_idempotent(self, k4, outer_map):
        res = solve_contacts(planar.as_piece(k4), outer_map, SolverParams())
        rep = exactify(res)
        assert exactify(rep) is rep


class TestRobustify:
    def test_choose_iota_window(self):
        iota = choose_iota(F(1e-7), F(1e-3), F(1, 2))
        assert F(1e-7) / 2 < iota < (min(F(1e-3), F(1, 2)) - F(1e-7)) / 3
        # the documented candidate 1e-4 satisfies the same inequalities
        assert 3 * F(1e-4) > F(1e-7) and F(1e-7) + 3 * F(1e-4) < F(1e-3)

    def test_choose_iota_infeasible(self):
        with pytest.raises(RobustifyError):
            choose_iota(F(1e-3), F(1e-3), F(1))

    def test_exact_contact_input(self, k4, outer_map):
        # stacked K5: one inner-inner adjacency (3,4), residuals all exactly 0
        T = planar.stack_vertex(k4, (0, 1, 3))
        rep = solve_stacked(planar.as_piece(T), outer_map)
        params = SolverParams()
        out = robustify(rep, planar.as_piece(T), params, F(1))
        iota = out.tri(3).x - rep.tri(3).x
        assert iota < 0
        iota = -iota
        # both endpoints inflated: overlap height exactly 3*iota
        assert signed_height(out.tri(3), out.tri(4)) == 3 * iota
        # inner-outer adjacency: at most 3*iota
        for v, o in ((3, 0), (3, 1), (4, 0), (4, 1)):
            if planar.as_piece(T).has_edge(v, o):
                s = signed_height(out.tri(v), out.tri(o))
                assert 0 < s <= 3 * iota

    def test_postconditions_exact(self, octahedron, outer_map):
        params = SolverParams()
        res = solve_contacts(planar.as_piece(octahedron), outer_map, params)
        rep = robustify(exactify(res), planar.as_piece(octahedron), params, F(1))
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
        # robustify preserves non-edges and converts edges to strict overlaps
        params = SolverParams()
        res = solve_contacts(planar.as_piece(octahedron), outer_map, params)
        pre = exactify(res)
        post = robustify(pre, planar.as_piece(octahedron), params, F(1))
        want = {tuple(sorted(e)) for e in octahedron.edges}
        got = set()
        for u, v in itertools.combinations(range(6), 2):
            if signed_height(post.tri(u), post.tri(v)) >= 0:
                got.add((u, v))
        assert got == want

    def test_precondition_rejected(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        bad = rep.with_triangle(3, tri(2, 2, F(1, 2)))   # broken contacts
        with pytest.raises(RobustifyError):
            robustify(bad, planar.as_piece(k4), SolverParams(), F(1))


class TestRepresentationJson:
    def test_roundtrip(self, k4, outer_map):
        rep = solve_stacked(planar.as_piece(k4), outer_map)
        again = Representation.from_json(rep.to_json())
        assert again == rep
