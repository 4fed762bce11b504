import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricontact import assemble, planar, solver
from tricontact.assemble import PipelineConfig, default_outer, represent
from tricontact.geometry import (
    NegTri,
    Tri,
    common_signed_height,
    gap_candidates,
    inflate,
    inside_neg,
    intersect,
    pow2_floor,
    signed_height,
)
from tricontact.core import Representation
from tricontact.solver import (
    CanvasError,
    RobustifyError,
    SolveFailure,
    SolverParams,
    canvas_with_roles,
    check_outer_hypothesis,
    choose_iota,
    exactify,
    robustify,
    solve_contacts,
    solve_octahedron,
    solve_stacked,
)
from conftest import (graph_triangles, ntri, octahedron_graph, point, represent_in,
                      solve_in_canvas, stacked_by_peeling, tri)

F = Fraction


class ReferenceObjective:
    """Reference objective: the solver's terms evaluated one pair, vertex and
    inner edge at a time, in plain Python floats, and a stack of points one
    row at a time.  The vectorised `solver._Objective` must agree with it bit
    for bit.  Its evaluation is (point, E); the solver reads only E, the last
    entry, and passes the evaluation back to `system` and `check_success`."""

    def __init__(self, outer_f, inner_ids, pairs, canvas_f, params):
        self.outer_f = outer_f                  # vertex -> (x, y, h) floats, boundary
        self.inner_ids = inner_ids
        self.index = {v: 3 * i for i, v in enumerate(inner_ids)}
        self.pairs = pairs
        self.Xc, self.Yc, self.hyp = canvas_f   # canvas: a <= Xc, b <= Yc, a+b >= hyp
        self.p = params
        self.inner_edges = [(u, v) for u, v, e in pairs if e
                            and u in self.index and v in self.index]

    def vals(self, z, v):
        if v in self.index:
            i = self.index[v]
            return z[i], z[i + 1], z[i + 2]
        return self.outer_f[v]

    def signed(self, z, u, v):
        xu, yu, hu = self.vals(z, u)
        xv, yv, hv = self.vals(z, v)
        return min(xu + yu + hu, xv + yv + hv) - max(xu, xv) - max(yu, yv)

    def evaluate(self, z):
        if z.ndim == 2:
            return z, np.array([self.value(row) for row in z])
        return z, self.value(z)

    def value(self, z) -> float:
        E = 0.0
        for u, v, edge in self.pairs:
            s = self.signed(z, u, v)
            if edge:
                E += s * s
            else:
                r = s + self.p.margin
                if r > 0:
                    E += r * r
        for v in self.inner_ids:
            x, y, h = self.vals(z, v)
            for g in (x + h - self.Xc, y + h - self.Yc, self.hyp - x - y):
                if g > 0:
                    E += g * g
            r = self.p.h_min - h
            if r > 0:
                E += r * r
        for u, v in self.inner_edges:
            xu, yu, _ = self.vals(z, u)
            xv, yv, _ = self.vals(z, v)
            ca, cb = max(xu, xv), max(yu, yv)
            for g in (ca - (self.Xc - self.p.margin),
                      cb - (self.Yc - self.p.margin),
                      (self.hyp + self.p.margin) - ca - cb):
                if g > 0:
                    E += g * g
        return E

    def _pair_row(self, z, u, v):
        """Linear row for the frozen signed height of pair (u, v): coef, const."""
        xu, yu, hu = self.vals(z, u)
        xv, yv, hv = self.vals(z, v)
        coef = {}
        const = 0.0
        a_s = u if xu + yu + hu <= xv + yv + hv else v
        a_x = u if xu >= xv else v
        a_y = u if yu >= yv else v
        if a_s in self.index:
            i = self.index[a_s]
            coef[i] = coef.get(i, 0.0) + 1.0
            coef[i + 1] = coef.get(i + 1, 0.0) + 1.0
            coef[i + 2] = coef.get(i + 2, 0.0) + 1.0
        else:
            const += sum(self.vals(z, a_s))
        if a_x in self.index:
            i = self.index[a_x]
            coef[i] = coef.get(i, 0.0) - 1.0
        else:
            const -= self.vals(z, a_x)[0]
        if a_y in self.index:
            i = self.index[a_y] + 1
            coef[i] = coef.get(i, 0.0) - 1.0
        else:
            const -= self.vals(z, a_y)[1]
        return coef, const

    def rows(self, z):
        """Active linear system rows (coef dict, rhs) at the current point."""
        rows = []
        for u, v, edge in self.pairs:
            coef, const = self._pair_row(z, u, v)
            if edge:
                rows.append((coef, -const))
            else:
                s = self.signed(z, u, v)
                if s + self.p.margin > 0:
                    rows.append((coef, -self.p.margin - const))
        for v in self.inner_ids:
            x, y, h = self.vals(z, v)
            i = self.index[v]
            if x + h - self.Xc > 0:
                rows.append(({i: 1.0, i + 2: 1.0}, self.Xc))
            if y + h - self.Yc > 0:
                rows.append(({i + 1: 1.0, i + 2: 1.0}, self.Yc))
            if self.hyp - x - y > 0:
                rows.append(({i: 1.0, i + 1: 1.0}, self.hyp))
            if self.p.h_min - h > 0:
                rows.append(({i + 2: 1.0}, self.p.h_min))
        for u, v in self.inner_edges:
            xu, yu, _ = self.vals(z, u)
            xv, yv, _ = self.vals(z, v)
            ax = u if xu >= xv else v
            ay = u if yu >= yv else v
            ca, cb = max(xu, xv), max(yu, yv)
            ix, iy = self.index[ax], self.index[ay] + 1
            if ca - (self.Xc - self.p.margin) > 0:
                rows.append(({ix: 1.0}, self.Xc - self.p.margin))
            if cb - (self.Yc - self.p.margin) > 0:
                rows.append(({iy: 1.0}, self.Yc - self.p.margin))
            if (self.hyp + self.p.margin) - ca - cb > 0:
                rows.append(({ix: 1.0, iy: 1.0}, self.hyp + self.p.margin))
        return rows

    def system(self, ev):
        z = ev[0]
        rows = self.rows(z)
        M = np.zeros((len(rows), len(z)))
        b = np.zeros(len(rows))
        for r, (coef, rhs) in enumerate(rows):
            for i, c in coef.items():
                M[r, i] = c
            b[r] = rhs
        return M, b

    def check_success(self, ev):
        """(ok, max |edge residual|, worst pair)."""
        z = ev[0]
        worst = 0.0
        worst_pair = (-1, -1)
        ok = True
        for u, v, edge in self.pairs:
            s = self.signed(z, u, v)
            if edge:
                if abs(s) > worst:
                    worst, worst_pair = abs(s), (u, v)
                if abs(s) > 0.5 * self.p.delta:
                    ok = False
            else:
                if s > -(self.p.margin + self.p.delta):
                    ok = False
        for v in self.inner_ids:
            x, y, h = self.vals(z, v)
            if (x + h - self.Xc > 0.5 * self.p.delta
                    or y + h - self.Yc > 0.5 * self.p.delta
                    or self.hyp - x - y > 0.5 * self.p.delta
                    or h < self.p.h_min - self.p.delta):
                ok = False
        return ok, worst, worst_pair


class TestParams:
    def test_invariants(self):
        SolverParams()
        with pytest.raises(ValueError):
            SolverParams(delta=1e-3, margin=1e-3)
        with pytest.raises(ValueError):
            SolverParams(h_min=0)


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
        assemble._check_octahedron(rep, octahedron)

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

    def test_delta_above_the_gap(self, octahedron):
        # delta governs numeric pieces only: a grid step of 2, above a third
        # of any canvas in a numeric piece's frame, leaves the octahedron as it is
        cfg = PipelineConfig(solver=SolverParams(delta=6, margin=40))
        assert represent(octahedron, cfg) == represent(octahedron)

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
        assemble._check_octahedron(rep, octahedron)   # the 12 pairs with an inner end, 8 faces
        assert all(signed_height(outer[u], outer[v]) >= 0
                   for u, v in itertools.combinations(range(3), 2))
        assert all(inside_neg(t, canvas.expand(eps)) for t in inner.values())


class TestSolveContacts:
    def test_k4_matches_exact(self, k4, outer_map):
        params = SolverParams()
        res = solve_in_canvas(k4, outer_map, params)
        x, y, h = res.inner[3]
        assert abs(x - 2) < 1e-6 and abs(y - 2) < 1e-6 and abs(h - 1) < 1e-6

    def test_octahedron(self, octahedron, outer_map):
        params = SolverParams()
        res = solve_in_canvas(octahedron, outer_map, params)
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
        res = solve_in_canvas(T, om, SolverParams())
        tr = res.objective_trace
        assert all(tr[i + 1] <= tr[i] for i in range(len(tr) - 1))

    def test_bad_boundary_rejected(self, octahedron):
        # a valid canvas does not excuse boundary triangles that bound none
        bad = {0: tri(0, 0, 1), 1: tri(5, 5, 1), 2: tri(0, 9, 1)}
        with pytest.raises(CanvasError):
            solve_contacts(octahedron, bad, SolverParams(), canvas_with_roles(default_outer()))

    def test_separating_triangle_rejected(self, k4, outer_map):
        T = planar.stack_vertex(k4, (0, 1, 3))
        with pytest.raises(ValueError):
            solve_in_canvas(T, outer_map, SolverParams())

    def test_deterministic(self, octahedron, outer_map):
        a = solve_in_canvas(octahedron, outer_map, SolverParams(seed=5))
        b = solve_in_canvas(octahedron, outer_map, SolverParams(seed=5))
        assert a.inner == b.inner

    def test_nonconvergence_reports_diagnostics(self, outer_map):
        # the rim triangles of a large double wheel need heights below the
        # default floor, so this must fail loudly, never silently
        T = planar.double_wheel(24)
        om = {T.outer[0]: outer_map[0], T.outer[1]: outer_map[1], T.outer[2]: outer_map[2]}
        with pytest.raises(SolveFailure) as exc:
            solve_in_canvas(T, om, SolverParams(restarts=1, max_iters=120))
        d = exc.value.diagnostics
        assert d["max_edge_residual"] > 0 and len(d["worst_pair"]) == 2

    def test_failure_diagnostics_are_python_values(self, outer_map):
        T = planar.gen_four_connected(14, 0)
        om = {v: outer_map[i] for i, v in enumerate(T.outer)}
        with pytest.raises(SolveFailure) as exc:
            solve_in_canvas(T, om, SolverParams(restarts=0, max_iters=1))
        d = exc.value.diagnostics
        assert str(exc.value) == ("no convergence after 1 attempts (best objective 2.575e+00, "
                                  "worst pair (0, 7), residual 5.818e-01)")
        assert {k: type(v) for k, v in d.items()} == {
            "attempt": int, "objective": float, "max_edge_residual": float,
            "worst_pair": tuple, "iterations": int}
        assert [type(v) for v in d["worst_pair"]] == [int, int]
        assert d["iterations"] == 1 and d["max_edge_residual"] > 0

    def test_tight_instance_with_smaller_floor(self, outer_map):
        # the same instance certifies once the floors scale with the geometry
        from tricontact.perturb import remove_all
        from tricontact.verify import full_report
        T = planar.double_wheel(24)
        om = {T.outer[0]: outer_map[0], T.outer[1]: outer_map[1], T.outer[2]: outer_map[2]}
        params = SolverParams(delta=1e-9, margin=1e-5, h_min=1e-6)
        res = solve_in_canvas(T, om, params)
        robust = robustify(exactify(res), T, params, F(1))
        rep = remove_all(robust, graph_triangles(robust))
        assert full_report(rep, T).passed
        assert min(t.h for t in rep.triangles.values()) < F(1e-3)


def _objective_setup(T, outer_map, params):
    """The objective's arguments for T as `solve_contacts` builds them, and
    its first (Tutte) start point."""
    piece = T
    om = {v: outer_map[i] for i, v in enumerate(piece.outer)}
    canvas, role_idx = canvas_with_roles([om[v] for v in piece.outer])
    roles = {r: piece.outer[i] for r, i in role_idx.items()}
    inner_ids = sorted(set(piece.vertices()) - set(piece.outer))
    args = ({v: (float(t.x), float(t.y), float(t.h)) for v, t in om.items()}, inner_ids,
            solver._pairs(piece), (float(canvas.x), float(canvas.y), float(canvas.hyp_level)),
            params)
    pos = solver._tutte_positions(piece, solver._anchor_points(canvas, roles))
    h0 = float(canvas.h) / (2 * T.n)
    z0 = np.array([c for v in inner_ids for c in (pos[v][0] - h0 / 3, pos[v][1] - h0 / 3, h0)])
    return args, z0, float(canvas.h)


class TestObjectiveOracle:
    """The vectorised objective against the term-by-term reference."""

    @staticmethod
    def _points(z0, H):
        """The Tutte start, seeded random points around it at four spreads,
        and a point where all inner triangles coincide (ties everywhere)."""
        rng = np.random.default_rng(20261018)
        points = [z0, np.tile(z0[:3], len(z0) // 3)]
        for spread in (H / 200, H / 20, H / 4, 2 * H):
            points += [z0 + rng.normal(scale=spread, size=z0.shape) for _ in range(25)]
        return points

    @pytest.mark.parametrize("T", [planar.double_wheel(8), planar.gen_four_connected(14, 0)],
                             ids=["dw8", "g4_14_0"])
    @pytest.mark.parametrize("scale, offset", [(F(1), (0, 0)), (F(5, 7), (F(1, 3), F(-2, 9)))],
                             ids=["unit", "skewed"])
    def test_bit_identical_to_reference(self, T, scale, offset, outer_map):
        # the skewed boundary has coordinates that are not dyadic, so
        # reassociated float expressions round differently
        om = {v: tri(t.x * scale + offset[0], t.y * scale + offset[1], t.h * scale)
              for v, t in outer_map.items()}
        args, z0, H = _objective_setup(T, om, SolverParams())
        new, ref = solver._Objective(*args), ReferenceObjective(*args)
        points = self._points(z0, H)
        evs = [new.evaluate(z) for z in points]
        for z, ev in zip(points, evs):
            assert float(ev[-1]).hex() == float(ref.value(z)).hex()
            (M, b), (M_ref, b_ref) = new.system(ev), ref.system(ref.evaluate(z))
            assert M.shape == M_ref.shape and M.tobytes() == M_ref.tobytes()
            assert b.shape == b_ref.shape and b.tobytes() == b_ref.tobytes()
            ok, worst, pair = new.check_success(ev)
            ok_ref, worst_ref, pair_ref = ref.check_success(ref.evaluate(z))
            assert (ok, pair) == (ok_ref, pair_ref)
            assert type(worst) is float and worst.hex() == float(worst_ref).hex()
        # a stack evaluates each row exactly as that point alone
        assert new.evaluate(np.empty((0, len(z0))))[-1].shape == (0,)
        for k in (1, 2, 21):
            for start in (0, len(points) - k):
                stack = np.stack(points[start:start + k])
                ev = new.evaluate(stack)
                assert ev[-1].tobytes() == ref.evaluate(stack)[-1].tobytes()
                for j in range(k):
                    for a, b in zip(ev, evs[start + j]):
                        assert a[j].shape == np.shape(b) and a[j].tobytes() == np.asarray(b).tobytes()

    def test_points_reach_every_hinge_row(self, outer_map):
        T = planar.double_wheel(8)
        params = SolverParams()
        args, z0, H = _objective_setup(T, outer_map, params)
        ref = ReferenceObjective(*args)
        Xc, Yc, hyp = args[3]
        mg = params.margin
        hinge_rhs = {Xc, Yc, hyp, params.h_min, Xc - mg, Yc - mg, hyp + mg}
        seen = set()
        for z in self._points(z0, H):
            seen |= {rhs for _, rhs in ref.rows(z)} & hinge_rhs
        assert seen == hinge_rhs

    def test_solver_run_matches_reference(self, outer_map, monkeypatch):
        T = planar.gen_four_connected(14, 0)
        piece = T
        om = {v: outer_map[i] for i, v in enumerate(piece.outer)}
        params = SolverParams(restarts=1)
        new = solve_in_canvas(piece, om, params)
        monkeypatch.setattr(solver, "_Objective", ReferenceObjective)
        ref = solve_in_canvas(piece, om, params)
        assert new.inner == ref.inner
        assert (new.iterations, new.restarts_used) == (ref.iterations, ref.restarts_used)
        assert new.restarts_used == 1  # the run covers a restart
        assert [float(e).hex() for e in new.objective_trace] == \
            [float(e).hex() for e in ref.objective_trace]


    def test_alphas_halve_exactly(self):
        steps = [1.0]
        while steps[-1] / 2 >= 2.0 ** -20:
            steps.append(steps[-1] / 2)
        assert solver.ALPHAS.tolist() == steps

    @pytest.mark.parametrize("make, digest", [
        (lambda: planar.gen_four_connected(14, 0),
         "f76df89af6f6b1937420e1a326736dd4b3bb06ed59a199fd09b365fa5f333cf2"),
        (lambda: planar.double_wheel(12),
         "1e0b7265c4a4306f8f0d5b1f37e80a001d2f928496cfaf6459ff35fab2f74c16"),
    ], ids=["g4_14_0", "dw12"])
    def test_solver_run_digest_pinned(self, make, digest, outer_map):
        # the objective trace, the iteration and restart counts and the inner
        # floats, bit for bit; g4_14_0 takes one restart and dw12 six
        T = make()
        om = {v: outer_map[i] for i, v in enumerate(T.outer)}
        res = solve_in_canvas(T, om, SolverParams())
        text = "\n".join([" ".join(float(e).hex() for e in res.objective_trace),
                          f"{res.iterations} {res.restarts_used}",
                          *(f"{v} " + " ".join(c.hex() for c in res.inner[v])
                            for v in sorted(res.inner))])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_one_evaluation_per_point(self, monkeypatch):
        # each least-squares iteration evaluates its point once, where the
        # line search accepted it, and its candidates in at most two batches
        calls = Counter()
        coords, system = solver._Objective._coords, solver._Objective.system

        def counted(name, fn):
            def wrapper(self, arg):
                calls[name] += 1
                return fn(self, arg)
            return wrapper

        monkeypatch.setattr(solver._Objective, "_coords", counted("coords", coords))
        monkeypatch.setattr(solver._Objective, "system", counted("system", system))
        represent(planar.gen_four_connected(14, 0))
        assert calls["system"] > 50
        assert calls["coords"] <= 3 * calls["system"]


class TestExactify:
    def test_dyadic(self, k4, outer_map):
        assert F(0.5) == F(1, 2)
        assert F(0.1) == F(3602879701896397, 36028797018963968)
        res = solve_in_canvas(k4, outer_map, SolverParams())
        rep = exactify(res)
        for v, (x, y, h) in res.inner.items():
            assert rep.tri(v) == Tri(F(x), F(y), F(h))

    def test_outer_triangles_stay_exact(self, octahedron):
        # default triple scaled by the non-dyadic 1/3
        om = {0: tri(0, 0, F(4, 3)), 1: tri(F(1, 3), 1, F(2, 3)), 2: tri(1, F(1, 3), F(2, 3))}
        check_outer_hypothesis([om[0], om[1], om[2]])
        res = solve_in_canvas(octahedron, om, SolverParams())
        rep = exactify(res)
        assert rep.tri(1) == om[1]          # not round-tripped through floats


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
        rep = represent(T)
        params = SolverParams()
        out = robustify(rep, T, params, F(1))
        iota = out.tri(3).x - rep.tri(3).x
        assert iota < 0
        iota = -iota
        # both endpoints inflated: overlap height exactly 3*iota
        assert signed_height(out.tri(3), out.tri(4)) == 3 * iota
        # inner-outer adjacency: at most 3*iota
        for v, o in ((3, 0), (3, 1), (4, 0), (4, 1)):
            if T.has_edge(v, o):
                s = signed_height(out.tri(v), out.tri(o))
                assert 0 < s <= 3 * iota

    def test_postconditions_exact(self, octahedron, outer_map):
        params = SolverParams()
        res = solve_in_canvas(octahedron, outer_map, params)
        rep = robustify(exactify(res), octahedron, params, F(1))
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
        res = solve_in_canvas(octahedron, outer_map, params)
        pre = exactify(res)
        post = robustify(pre, octahedron, params, F(1))
        want = {tuple(sorted(e)) for e in octahedron.edges}
        got = set()
        for u, v in itertools.combinations(range(6), 2):
            if signed_height(post.tri(u), post.tri(v)) >= 0:
                got.add((u, v))
        assert got == want

    def test_precondition_rejected(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        bad = rep.with_triangle(3, tri(2, 2, F(1, 2)))   # broken contacts
        with pytest.raises(RobustifyError):
            robustify(bad, k4, SolverParams(), F(1))


def _skew(t: Tri) -> Tri:
    """The skewed boundary's map: scale by 5/7, shift by (1/3, -2/9)."""
    return Tri(t.x * F(5, 7) + F(1, 3), t.y * F(5, 7) - F(2, 9), t.h * F(5, 7))


class TestRobustifyFaults:
    """Every refusal of `robustify`, on a skewed (non-dyadic) octahedron whose
    12 adjacencies are exact contacts and whose three antipodal pairs are
    10/21 apart, with epsilon = 1/3, so that no frame is a power of two."""

    @pytest.fixture
    def skewed(self, k222_triple_rep):
        tris = {v: _skew(t) for v, t in k222_triple_rep.triangles.items()}
        return Representation(tris, k222_triple_rep.outer, F(1, 3))

    @staticmethod
    def _moved(rep, v, dx=0, dy=0):
        t = rep.tri(v)
        return rep.with_triangle(v, Tri(t.x + dx, t.y + dy, t.h))

    def test_inflates_by_chosen_iota(self, skewed, octahedron):
        params = SolverParams()
        out = robustify(skewed, octahedron, params, F(1, 3))
        iota = choose_iota(F(params.delta), F(params.margin), F(1, 3))
        assert out.epsilon == F(1, 3)
        for v, t in skewed.triangles.items():
            assert out.tri(v) == (t if v in skewed.outer else inflate(t, iota))
        for u, v, edge in solver._pairs(octahedron):
            s = signed_height(out.tri(u), out.tri(v))
            assert (0 < s < F(1, 3)) if edge else s < 0

    def test_residual_beyond_delta(self, skewed, octahedron):
        # 4's right-angle corner leaves 0's hypotenuse: by delta it passes,
        # by a trillionth more it does not
        delta = F(1e-7)
        robustify(self._moved(skewed, 4, dx=delta), octahedron, SolverParams(), F(1, 3))
        bad = self._moved(skewed, 4, dx=delta + F(1, 10 ** 12))
        with pytest.raises(RobustifyError) as exc:
            robustify(bad, octahedron, SolverParams(), F(1, 3))
        assert str(exc.value) == "adjacency residual for (0,4) exceeds delta: -1.000e-07"

    def test_non_adjacent_inside_margin(self, k222_triple_rep, octahedron):
        # scaled by 3/4 instead, the antipodal pairs are 1/2 apart: a margin
        # of 1/2 passes, 5/8 does not
        rep = Representation({v: Tri(t.x * F(3, 4) + F(1, 3), t.y * F(3, 4) - F(2, 9),
                                     t.h * F(3, 4))
                              for v, t in k222_triple_rep.triangles.items()}, (0, 1, 2), F(1, 3))
        robustify(rep, octahedron, SolverParams(margin=0.5), F(1, 3))
        with pytest.raises(RobustifyError) as exc:
            robustify(rep, octahedron, SolverParams(margin=0.625), F(1, 3))
        assert str(exc.value) == "non-adjacent pair (0,3) closer than margin: -5.000e-01"

    def test_preconditions_before_iota(self, skewed, octahedron):
        with pytest.raises(RobustifyError) as exc:
            robustify(skewed, octahedron, SolverParams(), F(1, 10 ** 8))
        assert str(exc.value) == \
            "no feasible inflation: delta=1.000e-07 vs min(margin, eps)=1.000e-08"
        bad = self._moved(skewed, 4, dx=2 * F(1e-7))
        with pytest.raises(RobustifyError, match="adjacency residual for \\(0,4\\)"):
            robustify(bad, octahedron, SolverParams(), F(1, 10 ** 8))

    def test_overlap_not_opened(self, k4):
        # 0's right-angle corner sits delta beyond 3's hypotenuse, so
        # inflating 3 alone gains only iota, which a window of delta < 7/6 of
        # the margin puts below delta
        params = SolverParams(delta=1e-4, margin=6.5e-4)
        delta = F(params.delta)
        assert choose_iota(delta, F(params.margin), F(1, 3)) < delta
        tris = {0: tri(F(1, 2), F(1, 2) + delta * F(7, 5), 5), 1: tri(1, 0, 1),
                2: tri(0, 1, 1), 3: tri(0, 0, 1)}
        rep = Representation({v: _skew(t) for v, t in tris.items()}, (0, 1, 2), F(1, 3))
        assert signed_height(rep.tri(0), rep.tri(3)) == -delta
        with pytest.raises(RobustifyError) as exc:
            robustify(rep, k4, params, F(1, 3))
        assert str(exc.value) == "inflation failed to open overlap for edge (0,3)"

    @pytest.mark.parametrize("iota, message", [
        (F(1, 3), "inflation created a spurious intersection (0,3)"),
        (F(1, 9), "overlap for (3,4) reached the epsilon budget"),
    ], ids=["spurious", "budget"])
    def test_postconditions_catch_a_bad_iota(self, skewed, octahedron, monkeypatch,
                                             iota, message):
        # choose_iota's window rules both out; an iota outside it must not pass:
        # 2/3 closes the antipodal gap 10/21, and 3/9 is the inner pair (3, 4)'s
        # overlap, exactly the budget 1/3
        monkeypatch.setattr(solver, "choose_iota", lambda delta, margin, epsilon: iota)
        with pytest.raises(RobustifyError) as exc:
            robustify(skewed, octahedron, SolverParams(), F(1, 3))
        assert str(exc.value) == message


class TestRepresentationJson:
    def test_roundtrip(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        again = Representation.from_json(rep.to_json())
        assert again == rep
