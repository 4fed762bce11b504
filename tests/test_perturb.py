import itertools
from fractions import Fraction

import pytest

from tricontact import assemble, planar, solver
from tricontact.geometry import Tri, gap_candidates, neg_interior_hits, pow2_floor, signed_height
from tricontact.perturb import GapError, face_gap_with_roles
from tricontact.core import Representation, float_pad, int_frame
from tricontact.solver import SolveFailure, canvas_with_roles, solve_stacked
from tricontact.verify import intersection_graph
from conftest import (
    _canvas,
    chain,
    implant_double_wheel,
    implant_faces,
    implanted,
    newest_face,
    ntri,
    open_in_canvas,
    opened_by_reference,
    represent_in,
    solve_in_canvas,
    tri,
    triples_by_cubic_scan,
    zero_hole_faces,
)

F = Fraction


# ---------------------------------------------------------------------------
# Bad triples: faces whose three triangles share a point.  A contact layout
# has them (zero-hole faces); `solver.solve_wood` opens them with one more
# exact solve at prescribed overlaps, and `assemble._fault` refuses any that
# is left.
# ---------------------------------------------------------------------------

def _wood_frames(T, outer_map, weights=None):
    """(A, B, D): the integer frames `solve_wood` reads, the contact layout A
    and the overlap rates B under `weights` (none: every contact weight 1),
    and D, the common denominator that B is the rates times."""
    om = {v: outer_map[i] for i, v in enumerate(T.outer)}
    canvas, roles = _canvas(T, om)
    wood, P0 = solver._final_wood(T, roles)
    _d0, A = solver._integers({**P0, **{
        o: ((t.x - canvas.x) / canvas.h, (t.y - canvas.y) / canvas.h,
            (t.s - canvas.x - canvas.y) / canvas.h) for o, t in om.items()}})
    d1, B = solver._integers({v: P for v, P in solver._solve_unit(wood, roles, weights or {}).items()
                              if v in wood})
    B.update(dict.fromkeys(om, (0, 0, 0)))
    return A, B, d1


def _weights(monkeypatch):
    """The log of the weight sets of `solve_wood`'s overlap solves, in order."""
    log = []
    real = solver._solve_unit
    monkeypatch.setattr(solver, "_solve_unit", lambda wood, roles, w=None: (
        w is not None and log.append(set(w.values()))) or real(wood, roles, w))
    return log


def _steps(monkeypatch):
    """The log of (bound, step) of `solve_wood`'s steps: the step is the largest
    power of two at most the bound."""
    log = []
    real = solver.pow2_floor
    monkeypatch.setattr(solver, "pow2_floor", lambda q: log.append((q, real(q))) or real(q))
    return log


class TestFindBadTriples:
    def test_fixture_roles(self, octahedron, outer_map, k222_triple_rep):
        # the octahedron's contact layout is the fixture, and its one bad
        # triple [3, 4, 5] a cyclic face of the wood: each face vertex's
        # contact of the colour of the face edge entering it leaves the face
        # for the boundary triangle that colour sinks into
        assert zero_hole_faces(k222_triple_rep, octahedron) == [[3, 4, 5]]
        canvas, roles = _canvas(octahedron, outer_map)
        wood, _P = solver._final_wood(octahedron, roles)
        edges = solver._cyclic(wood, frozenset((3, 4, 5)))
        heavy = sorted((u, c, wood[u][c]) for c, (_tail, u) in edges.items())
        assert heavy == [(3, solver.GREEN, roles["horizontal"]), (4, solver.BLUE, roles["vertical"]),
                         (5, solver.RED, roles["hyp"])]

    def test_exact_k4_clean(self, k4, outer_map):
        # a K4 piece keeps its exact stacked layout, so that layout must
        # have no three triangles with a common point
        rep = represent_in(k4, outer_map)
        assert zero_hole_faces(rep, k4) == [] and triples_by_cubic_scan(rep) == []

    def test_two_disjoint_bad_configs(self, outer_map, monkeypatch):
        # g4_16_3's contact layout has two zero-hole faces with no common
        # vertex: the overlap solve weighs the three contacts of each, and
        # both open
        T = planar.gen_four_connected(16, 3)
        om = {v: outer_map[i] for i, v in enumerate(T.outer)}
        faces = zero_hole_faces(solve_in_canvas(T, om), T)
        assert faces == [[3, 12, 13], [4, 6, 11]]
        heavy = []
        real = solver._solve_unit
        monkeypatch.setattr(solver, "_solve_unit", lambda wood, roles, w=None: (
            w is not None and heavy.append(sorted(w))) or real(wood, roles, w))
        rep = open_in_canvas(T, om)
        assert [sorted({u for u, _c in w}) for w in heavy] == [[3, 4, 6, 11, 12, 13]]
        assert all(len(w) == 6 for w in heavy)
        assert zero_hole_faces(rep, T) == [] and triples_by_cubic_scan(rep) == []

    def test_quadruple_detected(self, k4):
        # four triangles sharing the point (5, 5), each pair overlapping by
        # less than the budget: every one of the four triples is bad, and
        # the post-check refuses the layout for a face with a common point
        rep = Representation({0: tri("24/5", "24/5", 1), 1: tri("49/10", "47/10", 1),
                              2: tri("47/10", "49/10", 1), 3: tri(0, 0, "21/2")}, (0, 1, 2), F(1))
        assert triples_by_cubic_scan(rep) == list(itertools.combinations(range(4), 3))
        kind, ids, text = assemble._fault(rep, k4)
        assert kind == "face" and text == f"face {ids} has a common point"

    def test_region_triple_after_inflation(self, octahedron, outer_map):
        # with every contact weight 1 the overlap solve only inflates: the
        # fixture's triple does not open but turns into a region, its common
        # signed height rising at rate exactly 1 in the unit gap
        A, B, d1 = _wood_frames(octahedron, outer_map)
        face = frozenset((3, 4, 5))
        assert min(A[v][2] for v in face) - max(A[v][0] for v in face) \
            - max(A[v][1] for v in face) == 0
        unit_rate = solver._opening(A, B, face)
        assert unit_rate > 0
        assert F(unit_rate, d1) == 1
        # its three contacts weighted 8 open it
        A, B, _d = _wood_frames(octahedron, outer_map, {(5, solver.RED): 8, (3, solver.GREEN): 8,
                                                         (4, solver.BLUE): 8})
        assert solver._opening(A, B, face) < 0


class TestSafeEpsilon:
    def test_bare_fixture_positive(self, octahedron, outer_map, monkeypatch):
        # the fixture's step is set by the holes of faces [0, 4, 5], [1, 3, 5]
        # and [2, 3, 4], each 1/39 of the way to closing at unit step: half
        # of that, floored to a power of two, is positive
        steps = _steps(monkeypatch)
        rep = open_in_canvas(octahedron, outer_map)
        assert steps == [(F(1, 78), F(1, 128))]
        assert assemble._fault(rep, octahedron) is None


# default_outer(5/7) shifted by (1/3, -2/9): no coordinate is dyadic
_SHIFTED_OUTER = tuple(Tri(t.x + F(1, 3), t.y - F(2, 9), t.h)
                       for t in assemble.default_outer(F(5, 7)))


def chain_with_wheel(n, seed, depth, k=6):
    """chain(n, seed, depth) with double_wheel(k) in its newest face: octahedra
    take their closed form, so the wheel is the piece that takes the wood path."""
    T = chain(n, seed, depth)
    return implant_double_wheel(T, newest_face(T), k)


class TestIntegerFrameMatchesReference:
    """`solve_wood`'s step and rates, found on the integers of two frames,
    against `conftest.opened_by_reference`, which finds them on Fractions in
    the global frame."""

    @pytest.mark.parametrize("outer", [None, _SHIFTED_OUTER], ids=["dyadic", "shifted"])
    @pytest.mark.parametrize("make", [
        lambda: planar.double_wheel(6),
        lambda: planar.gen_four_connected(12, 1),
        lambda: planar.gen_four_connected(8, 2),
        lambda: chain_with_wheel(8, 0, 1),
    ], ids=["dw6", "g4_12_1", "g4_8_2", "chain8_0d1+dw6"])
    def test_every_call_of_represent(self, monkeypatch, make, outer):
        compared = []
        real = assemble.solve_wood

        def checked(piece, boundary, gap, roles, epsilon):
            got = real(piece, boundary, gap, roles, epsilon)
            compared.append({**boundary, **got}
                            == opened_by_reference(piece, boundary, gap, roles, epsilon))
            return got

        monkeypatch.setattr(assemble, "solve_wood", checked)
        config = assemble.PipelineConfig() if outer is None else assemble.PipelineConfig(outer=outer)
        assemble.represent(make(), config)
        assert compared and all(compared)

    def test_calls_are_compared(self, monkeypatch):
        # each input above reaches the wood path once; dw6, g4_8_2 and the
        # wheel in the chain have a zero-hole face, whose contacts the
        # overlap solve weighs 8, and g4_12_1 has none
        weights = _weights(monkeypatch)
        logs = []
        for T in (planar.double_wheel(6), planar.gen_four_connected(12, 1),
                  planar.gen_four_connected(8, 2), chain_with_wheel(8, 0, 1)):
            weights.clear()
            assemble.represent(T)
            logs.append(list(weights))
        assert logs == [[{8}], [set()], [{8}], [{8}]]

    def test_boundary_events(self, outer_map, monkeypatch):
        # with a budget of 10^-6 the budget bounds dw6's step, and every
        # contact with a boundary triangle overlaps by at most half of it
        T = planar.double_wheel(6)
        om = {v: outer_map[i] for i, v in enumerate(T.outer)}
        canvas, roles = _canvas(T, om)
        epsilon = F(1, 10 ** 6)
        steps = _steps(monkeypatch)
        rep = open_in_canvas(T, om, epsilon)
        assert steps == [(epsilon / canvas.h / solver.OPEN_WEIGHT / 2,
                          pow2_floor(epsilon / canvas.h / solver.OPEN_WEIGHT / 2))]
        assert rep.triangles == opened_by_reference(T, om, canvas, roles, epsilon)
        touching = [(v, o) for v in rep.inner_ids() for o in T.outer if T.has_edge(v, o)]
        assert len(touching) == 8
        for v, o in touching:
            assert 0 < signed_height(rep.tri(v), rep.tri(o)) <= epsilon / 2


class TestRemoveAll:
    """Every bad triple is removed from every piece's final layout, with the
    piece's graph intact: the wood path's overlap solve opens each zero-hole
    face, and the post-check refuses a layout that keeps one."""

    def test_fixture_one_round(self, octahedron, outer_map, k222_triple_rep, monkeypatch):
        # the fixture's one bad triple opens in one round: a single overlap
        # solve at the first weight
        weights = _weights(monkeypatch)
        out = open_in_canvas(octahedron, outer_map)
        assert weights == [{solver.OPEN_WEIGHT}]
        assert triples_by_cubic_scan(k222_triple_rep) == [(3, 4, 5)]
        assert triples_by_cubic_scan(out) == []
        assert intersection_graph(out) == intersection_graph(k222_triple_rep)

    def test_identity_when_clean(self, k4, outer_map):
        # a K4 piece has no bad triple: represent leaves its exact stacked
        # layout as it is, the medial child of the boundary's gap
        rep = represent_in(k4, outer_map)
        canvas, roles = _canvas(k4, outer_map)
        assert rep.triangles == {**outer_map, 3: solve_stacked(3, canvas, roles)[0]}
        assert triples_by_cubic_scan(rep) == []

    def test_k222(self, octahedron, outer_map, k222_triple_rep):
        out = open_in_canvas(octahedron, outer_map)
        assert triples_by_cubic_scan(out) == []
        assert intersection_graph(out) == intersection_graph(k222_triple_rep)
        adj = octahedron.adjacency()
        for u, v in itertools.combinations(range(6), 2):
            assert (v in adj[u]) == (signed_height(out.tri(u), out.tri(v)) >= 0)

    def test_clean_piece_scanned_once(self, outer_map, monkeypatch):
        # a piece with no zero-hole face takes one overlap solve, with every
        # contact weight 1, and no face is tested for opening
        T = planar.gen_four_connected(14, 0)
        om = {v: outer_map[i] for i, v in enumerate(T.outer)}
        assert zero_hole_faces(solve_in_canvas(T, om), T) == []
        weights = _weights(monkeypatch)
        opened = []
        real = solver._opening
        monkeypatch.setattr(solver, "_opening", lambda *a: opened.append(a) or real(*a))
        rep = open_in_canvas(T, om)
        assert weights == [set()] and opened == []
        assert assemble._fault(rep, T) is None

    @pytest.mark.parametrize("make, stacked", [
        *((lambda k=k: planar.double_wheel(k), False) for k in range(4, 9)),
        *((lambda s=s: planar.gen_stacked(40, s), True) for s in range(3)),
        (lambda: planar.gen_four_connected(12, 0), False),
        (lambda: implant_faces(planar.gen_stacked(30, 1), (0, 7)), False),
        (lambda: chain(10, 2, 3), False),
    ], ids=[*(f"dw{k}" for k in range(4, 9)), *(f"stacked40_{s}" for s in range(3)),
            "g4_12_0", "stacked30_1+2octa", "chain10_2d3"])
    def test_piece_faces_are_the_graph_triangles(self, monkeypatch, make, stacked):
        # the post-check tests each piece's faces (an octahedron's closed
        # form, a wood piece's opened layout) for a common point: they must
        # be exactly the triangles of the piece's intersection graph, or a
        # triple of some other three triangles could share a point unseen.
        # A stacked input peels completely, so it has no piece to check
        passed = []
        real = assemble._fault

        def checked(rep, piece):
            graph = planar.triangles_of(planar.adjacency_of(rep.triangles,
                                                            intersection_graph(rep)))
            passed.append({frozenset(f) for f in piece.faces} == set(map(frozenset, graph)))
            return real(rep, piece)

        monkeypatch.setattr(assemble, "_fault", checked)
        assemble.represent(make())
        if stacked:
            assert passed == []
        else:
            assert passed and all(passed)

    def test_retry_halves_the_budgets(self, outer_map, monkeypatch):
        # each doubling of the weight halves the budget's bound on the step:
        # with a budget of 10^-6, dw8 opened at weight 16 takes half the step
        # it takes at 8, and both pass the post-check
        T = planar.double_wheel(8)
        om = {v: outer_map[i] for i, v in enumerate(T.outer)}
        epsilon = F(1, 10 ** 6)
        runs = []
        for weight in (8, 16):
            monkeypatch.setattr(solver, "OPEN_WEIGHT", weight)
            steps = _steps(monkeypatch)
            rep = open_in_canvas(T, om, epsilon)
            runs.append(steps[0][1])
            assert assemble._fault(rep, T) is None
            monkeypatch.undo()
        assert runs[1] == runs[0] / 2

    def test_stuck_triple_gives_up_after_the_retries(self, octahedron, outer_map, monkeypatch):
        # a face that never opens takes one overlap solve at each weight
        # from OPEN_WEIGHT to MAX_WEIGHT, doubling, and is named after the last
        monkeypatch.setattr(solver, "_opening", lambda A, B, face: 0)
        weights = _weights(monkeypatch)
        with pytest.raises(SolveFailure) as exc:
            open_in_canvas(octahedron, outer_map)
        assert weights == [{8}, {16}, {32}, {64}, {128}, {256}, {512}, {1024}]
        assert exc.value.diagnostics == {"face": [3, 4, 5]}
        assert str(exc.value).endswith("stays shut at weight 1024")


# ---------------------------------------------------------------------------
# Events along the path P0 + t P1: a non-adjacent pair or a face of positive
# hole that would meet, a height that would reach 0.  `solve_wood` bounds
# the step by each one's distance over its slope (`solver._slope`); the
# exact first reach, knot by knot, is never earlier.
# ---------------------------------------------------------------------------

def _signed(A, B, ids, t):
    """The signed height of the triangles `ids` at coordinates A + t B."""
    return (min(A[v][2] + t * B[v][2] for v in ids) - max(A[v][0] + t * B[v][0] for v in ids)
            - max(A[v][1] + t * B[v][1] for v in ids))


def _first_reach(A, B, ids):
    """The first t > 0 at which the signed height of `ids`, negative at 0,
    reaches 0, or None: exactly, on the linear pieces between the knots
    where two of its lines cross."""
    knots = {F(a1 - a2, r2 - r1) for k in range(3)
             for (a1, r1), (a2, r2) in itertools.combinations([(A[v][k], B[v][k]) for v in ids], 2)
             if r1 != r2}
    ts = [F(0), *sorted(t for t in knots if t > 0)]
    ts.append(ts[-1] + 1)  # a point on the last piece
    for t0, t1 in zip(ts, ts[1:]):
        f0, f1 = _signed(A, B, ids, t0), _signed(A, B, ids, t1)
        if f1 >= 0:
            return t0 - f0 * (t1 - t0) / (f1 - f0)
    return t1 - f1 * (t1 - t0) / (f1 - f0) if f1 > f0 else None


def _bound(A, B, ids):
    """`solve_wood`'s bound on the step for the triangles `ids`: their
    distance apart over their slope."""
    return F(-_signed(A, B, ids, 0), solver._slope([B[v] for v in ids]))


class TestEventAnalysis:
    """The step's event bounds against the exact first reach, on (x, y, s)
    integers and rates (dx, dy, ds) per vertex; the integer frame."""

    def test_first_reach_upward_linear(self):
        # t(1) pushed left at unit rate towards t(0): signed(t) = t - 2, and
        # the bound is exact
        A, B = {0: (0, 0, 1), 1: (3, 0, 4)}, {0: (0, 0, 0), 1: (-1, 0, 0)}
        assert _first_reach(A, B, (0, 1)) == 2 == _bound(A, B, (0, 1))

    def test_first_reach_with_breakpoint(self):
        # t(1) moved left and down: signed(t) = -4 + 2t up to the knot t = 2,
        # where it reaches 0; the bound is exact there too
        A, B = {0: (0, 0, 1), 1: (3, 2, 6)}, {0: (0, 0, 0), 1: (-1, -1, 0)}
        assert _first_reach(A, B, (0, 1)) == 2 == _bound(A, B, (0, 1))

    def test_first_reach_inside_a_later_segment(self):
        # signed(t) = -3 + 2t up to the knot t = 1, then t - 2: the reach
        # lies inside the second piece, and the bound 3/2 before it
        A, B = {0: (0, 0, 1), 1: (3, 1, 6)}, {0: (0, 0, 0), 1: (-1, -1, 0)}
        assert _first_reach(A, B, (0, 1)) == 2
        assert _bound(A, B, (0, 1)) == F(3, 2)

    def test_first_reach_stop(self):
        # t(1) moved down alone: signed(t) = -3 + t up to the knot t = 1,
        # then -2 for good; the approach stops, and the bound is finite
        A, B = {0: (0, 0, 1), 1: (3, 1, 6)}, {0: (0, 0, 0), 1: (0, -1, 0)}
        assert _first_reach(A, B, (0, 1)) is None
        assert _bound(A, B, (0, 1)) == 3
        # nor does a face with a third, static triangle reach a common point
        A[2], B[2] = (0, 0, 9), (0, 0, 0)
        assert _signed(A, B, (0, 1, 2), 0) == -3 and _first_reach(A, B, (0, 1, 2)) is None

    def test_corner_entry(self, k4):
        # no bound on the step keeps a boundary corner out of an inner
        # triangle: the post-check decides it.  Here every corner (2, 15/2),
        # (5, 9/2) and (15/2, 2) lies just inside t(3), each boundary
        # triangle overlaps t(3) by 1/2 < epsilon and no face has a common point
        rep = Representation({0: tri(2, "15/2", 1), 1: tri(5, "9/2", 1), 2: tri("15/2", 2, 1),
                              3: tri(0, 0, 10)}, (0, 1, 2), F(1))
        assert all(signed_height(rep.tri(o), rep.tri(3)) == F(1, 2) for o in range(3))
        assert assemble._fault(rep, k4) == ("corner", [3], "a boundary corner enters triangle 3")

    def test_int_frame(self):
        rep = Representation({0: tri("1/3", "-2/9", "5/7"), 1: tri(1, 2, 3)}, (), F(1, 6))
        den, frame, (eps,) = int_frame(rep, rep.epsilon)
        assert den == 126
        assert frame == {0: (42, -28, 104), 1: (126, 252, 756)}
        assert eps == 21

    def test_int_frame_extras(self):
        # the extras join the common denominator: 1/5 turns D = 126 into 630,
        # and no extra leaves the triangles' own denominator
        rep = Representation({0: tri("1/3", "-2/9", "5/7"), 1: tri(1, 2, 3)}, (), F(1, 6))
        den, frame, scaled = int_frame(rep, F(1, 6), F(-2, 5), F(3))
        assert den == 630
        assert frame == {0: (210, -140, 520), 1: (630, 1260, 3780)}
        assert scaled == (105, -252, 1890)
        assert int_frame(rep)[:2] == (63, {0: (21, -14, 52), 1: (63, 126, 378)})
        assert int_frame(rep)[2] == ()


class TestFaceGap:
    def test_k4_faces(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
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
        rep = represent_in(k4, outer_map)
        lam = F(2)
        rep2 = Representation(
            {v: Tri(t.x * lam, t.y * lam, t.h * lam) for v, t in rep.triangles.items()},
            rep.outer, rep.epsilon)
        g1, _, e1 = face_gap_with_roles(rep, (0, 1, 3))
        g2, _, e2 = face_gap_with_roles(rep2, (0, 1, 3))
        assert (g2.x, g2.y, g2.h) == (g1.x * lam, g1.y * lam, g1.h * lam)
        assert e2 == e1 * lam

    def test_blocked_gap(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        gap, _, _ = face_gap_with_roles(rep, (0, 1, 3))
        rogue = tri(gap.x - gap.h / 2, gap.y - gap.h / 2, gap.h / 2)
        blocked = Representation({**rep.triangles, 99: rogue}, rep.outer, rep.epsilon)
        with pytest.raises(GapError):
            face_gap_with_roles(blocked, (0, 1, 3))


# ---------------------------------------------------------------------------
# Reference face gap: the same gap, roles and budget, decided in Fractions in
# the representation's own coordinates behind a padded float screen.
# ---------------------------------------------------------------------------

def face_gap_reference(rep, face):
    """`face_gap_with_roles` as written before it ran in the integer frame."""
    ids = sorted(set(int(v) for v in face))
    if len(ids) != 3:
        raise GapError(f"face must have three vertices, got {face!r}")
    ts = [rep.tri(v) for v in ids]
    others = [v for v in sorted(rep.triangles) if v not in ids]
    # (x, y, s) per triangle, largest magnitude m: every gap coordinate is at
    # most 2m, and the strip test stays within float_pad(2m) of its exact value
    fl = {v: (float(t.x), float(t.y), float(t.s)) for v, t in rep.triangles.items()}
    tau = float_pad(2.0 * max(abs(c) for row in fl.values() for c in row))

    def hits_any(cand):
        cx, cy, ch = float(cand.x), float(cand.y), float(cand.hyp_level)
        for v in others:
            tx, ty, ts_ = fl[v]
            if tx > cx + tau or ty > cy + tau or ts_ < ch - tau:
                continue  # certainly interior-disjoint
            if neg_interior_hits(cand, rep.tri(v)):
                return True
        return False

    valid = [(cand, role_idx) for cand, role_idx in gap_candidates(ts)
             if not hits_any(cand)]
    if not valid:
        raise GapError(f"no valid gap for face {ids}")
    if len(valid) > 1:
        raise GapError(f"gap for face {ids} is not unique")
    gap, role_idx = valid[0]
    roles = {r: ids[i] for r, i in role_idx.items()}

    X, Y, H = gap.x, gap.y, gap.h
    strips = (
        (Tri(X - H, Y - H, H), lambda t: gap.hyp_level - t.s),
        (Tri(X, Y - H, H), lambda t: t.x - X),
        (Tri(X - H, Y, H), lambda t: t.y - Y),
    )
    clearance = H
    for probe, depth in strips:
        px, py, ps = float(probe.x), float(probe.y), float(probe.s)
        for v in others:
            tx, ty, ts_ = fl[v]
            if min(ps, ts_) - max(px, tx) - max(py, ty) < -tau:
                continue  # certainly clear of the strip
            tv = rep.tri(v)
            if signed_height(probe, tv) < 0:
                continue
            d = depth(tv)
            if d <= 0:
                raise GapError(f"triangle {v} touches a gap side of face {ids}")
            clearance = min(clearance, d)
    return gap, roles, clearance / 2


def _gap_outcome(fn, rep, face):
    """(gap, roles, budget), or the GapError message."""
    try:
        return fn(rep, face)
    except GapError as e:
        return str(e)


def _agrees_with_reference(rep, face):
    got = _gap_outcome(face_gap_with_roles, rep, face)
    assert got == _gap_outcome(face_gap_reference, rep, face)
    if not isinstance(got, str):  # results are in the original frame
        gap, _, budget = got
        assert all(type(c) is F for c in (gap.x, gap.y, gap.h, budget))
    return got


def _nested_pieces():
    """(representation, faces) of every remainder piece of the benchmark's
    `nested` corpus, as its triangles in the final representation: each
    octahedron piece in its closed-form layout, each K4 piece as its four
    triangles."""
    pieces = []
    for T in [implanted(100, 3, 20), *(chain(20, s, d) for s in (5, 6, 7) for d in (2, 4, 6))]:
        trace = []
        rep = assemble.represent(T, trace=trace)
        tree = planar.decompose(planar.peel(T)[0])
        for e in trace:
            piece = tree.pieces[e["piece"]]
            pieces.append((Representation({v: rep.tri(v) for v in piece.vertices()},
                                          piece.outer, e["epsilon"]),
                           [tuple(sorted(f)) for f in piece.faces]))
    return pieces


def _inner(rep, triangles):
    return [f for f in triangles if set(f) != set(rep.outer)]


class TestFaceGapMatchesReference:
    def test_nested_corpus(self):
        outcomes = [_agrees_with_reference(rep, f)
                    for rep, triangles in _nested_pieces()
                    for f in _inner(rep, triangles)]
        assert len(outcomes) > 700
        assert not any(isinstance(o, str) for o in outcomes)

    def test_tiny_offset_piece(self):
        # the largest piece scaled by 2^-60 and moved to (3, 1): every float
        # of the reference's screen is within its pad of every other
        rep, triangles = max(_nested_pieces(), key=lambda p: len(p[0].triangles))
        k = F(1, 2 ** 60)
        tiny = Representation(
            {v: Tri(t.x * k + 3, t.y * k + 1, t.h * k) for v, t in rep.triangles.items()},
            rep.outer, rep.epsilon * k)
        for f in _inner(rep, triangles):
            gap, roles, budget = face_gap_with_roles(rep, f)
            assert _agrees_with_reference(tiny, f) == (
                ntri(gap.x * k + 3, gap.y * k + 1, gap.h * k), roles, budget * k)

    def test_denominators_three_and_five(self):
        # a hand-built face (hypotenuse side from 0, vertical side from 1,
        # horizontal side from 2) and a triangle 2/15 beyond its vertical side
        rep = Representation({0: tri(0, 0, "14/15"), 1: tri("2/3", 0, "4/5"),
                              2: tri(0, "3/5", "4/5"), 3: tri("4/5", "1/3", "1/5")},
                             (), F(1, 3))
        gap, roles, budget = _agrees_with_reference(rep, (0, 1, 2))
        assert gap == ntri("2/3", "3/5", "1/3")
        assert roles == {"hyp": 0, "vertical": 1, "horizontal": 2}
        assert budget == F(1, 15)

    def test_blocked_and_touching(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        gap, _, _ = _agrees_with_reference(rep, (0, 1, 3))
        blocked = tri(gap.x - gap.h / 2, gap.y - gap.h / 2, gap.h / 2)
        touching = tri(gap.x - gap.h * 3 / 4, gap.y - gap.h * 3 / 4, gap.h / 2)
        for rogue, message in ((blocked, "no valid gap for face [0, 1, 3]"),
                               (touching, "triangle 99 touches a gap side of face [0, 1, 3]")):
            bad = Representation({**rep.triangles, 99: rogue}, rep.outer, rep.epsilon)
            assert _agrees_with_reference(bad, (0, 1, 3)) == message
