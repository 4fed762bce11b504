import itertools
import random
from fractions import Fraction

import pytest

from tricontact import assemble, perturb, planar
from tricontact.geometry import (
    Tri,
    common_signed_height,
    gap_candidates,
    intersect,
    neg_interior_hits,
    signed_height,
)
from tricontact.perturb import (
    PUSH_HORIZONTAL,
    PUSH_VERTICAL,
    STEP_RETRIES,
    TRANSLATE_DOWN,
    BadTriple,
    ClaimViolation,
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
from tricontact.core import Representation, float_pad, int_frame
from tricontact.perturb import (  # the integer event kernel and the move it times
    _DELTAS,
    _breakpoints,
    _corner_entry,
    _first_reach,
    _lines_for,
    _moved,
)
from tricontact.solver import canvas_with_roles
from tricontact.verify import intersection_graph
from conftest import (
    FRACTION_DUNDERS,
    chain,
    graph_triangles,
    implant_double_wheel,
    implant_faces,
    implanted,
    newest_face,
    ntri,
    point,
    represent_in,
    tri,
)

F = Fraction


def fixture_rep(extra=None):
    tris = {0: tri(0, 2, 2), 1: tri(2, 2, 2), 2: tri(2, 0, 2)}
    if extra:
        tris.update(extra)
    return Representation(tris, (), F(1))


class TestFindBadTriples:
    def test_fixture_roles(self):
        rep = fixture_rep()
        bad = find_bad_triples(rep, graph_triangles(rep))
        assert len(bad) == 1
        t = bad[0]
        assert (t.u, t.v, t.w) == (0, 1, 2)
        assert t.p == point(2, 2)
        # role structure: u's hypotenuse attains the min level, v's vertical
        # side the max x, w sits below with its top corner at p
        assert rep.tri(t.u).s == 4 and rep.tri(t.u).east_corner == t.p
        assert rep.tri(t.v).right_corner == t.p
        assert rep.tri(t.w).top_corner == t.p

    def test_exact_k4_clean(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        assert find_bad_triples(rep, graph_triangles(rep)) == []

    def test_two_disjoint_bad_configs(self):
        far = {10: tri(100, 2, 2), 11: tri(102, 2, 2), 12: tri(102, 0, 2)}
        rep = fixture_rep(far)
        bad = find_bad_triples(rep, graph_triangles(rep))
        assert sorted(tuple(sorted(t.ids)) for t in bad) == [(0, 1, 2), (10, 11, 12)]

    def test_quadruple_detected(self):
        rep = fixture_rep({3: tri(2, 2, 1)})  # fourth triangle with corner at p
        with pytest.raises(QuadrupleIntersection):
            find_bad_triples(rep, graph_triangles(rep))

    def test_region_triple_after_inflation(self):
        from tricontact.geometry import inflate
        tris = {v: inflate(t, F(1, 64)) for v, t in fixture_rep().triangles.items()}
        rep = Representation(tris, (), F(1))
        bad = find_bad_triples(rep, graph_triangles(rep))
        assert len(bad) == 1
        t = bad[0]
        assert (t.u, t.v, t.w) == (0, 1, 2)      # roles survive uniform inflation
        tris = rep.scaled[1]
        assert common_signed_height([tris[i] for i in sorted(t.ids)]) > 0   # a region


class TestSelectBad:
    def test_higher_wins(self):
        a = BadTriple(0, 1, 2, point(2, 2))
        b = BadTriple(3, 4, 5, point(0, 5))
        assert select_bad([a, b]) is b

    def test_leftmost_tie(self):
        a = BadTriple(0, 1, 2, point(2, 2))
        b = BadTriple(3, 4, 5, point(0, 2))
        assert select_bad([a, b]) is b

    def test_single(self):
        a = BadTriple(0, 1, 2, point(2, 2))
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
        sel = select_bad(find_bad_triples(rep, graph_triangles(rep)))
        e = safe_epsilon(rep, {sel.u: PUSH_VERTICAL}, graph_triangles(rep), exclude_triple=sel.ids)
        assert 0 < 2 * e <= 1  # the clearance, at most the unit distance to t(9)

    def test_bare_fixture_positive(self):
        rep = fixture_rep()
        sel = select_bad(find_bad_triples(rep, graph_triangles(rep)))
        e = safe_epsilon(rep, {sel.u: PUSH_VERTICAL}, graph_triangles(rep), exclude_triple=sel.ids)
        assert e > 0

    def test_zero_clearance_before_step2(self):
        # a triangle touching ]p,q[ makes the translation lose a contact at
        # step size zero; this is why the clearing step precedes the slide
        z = {5: tri(1, 3, 1)}   # right corner on the hypotenuse of t(0)
        rep = fixture_rep(z)
        assert intersect(rep.tri(5), rep.tri(0)).point == point(1, 3)
        sel = select_bad(find_bad_triples(rep, graph_triangles(rep)))
        assert sel.u == 0
        with pytest.raises(ZeroClearance):
            safe_epsilon(rep, {sel.u: TRANSLATE_DOWN, sel.v: PUSH_VERTICAL}, graph_triangles(rep),
                         exclude_triple=sel.ids)

    def test_boundary_move_rejected(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        with pytest.raises(PerturbError):
            safe_epsilon(rep, {0: PUSH_VERTICAL}, graph_triangles(rep))


# ---------------------------------------------------------------------------
# Reference event analysis: the same events, decided in Fractions in the
# representation's own coordinates, knot by knot, with no early stop.
# ---------------------------------------------------------------------------

_REF_DELTAS = {
    PUSH_VERTICAL: (F(-1), F(0), F(0)),
    PUSH_HORIZONTAL: (F(0), F(-1), F(0)),
    TRANSLATE_DOWN: (F(0), F(-1), F(-1)),
}


def _ref_lines_for(rep, move, ids):
    s_lines, x_lines, y_lines = [], [], []
    for i in ids:
        t = rep.tri(i)
        dx, dy, ds = _REF_DELTAS[move[i]] if i in move else (F(0), F(0), F(0))
        s_lines.append((t.s, ds))
        x_lines.append((t.x, dx))
        y_lines.append((t.y, dy))
    return s_lines, x_lines, y_lines


def _ref_breakpoints(groups):
    ts = set()
    for lines in groups:
        for (a1, s1), (a2, s2) in itertools.combinations(lines, 2):
            if s1 != s2:
                t = (a1 - a2) / (s2 - s1)
                if t > 0:
                    ts.add(t)
    return sorted(ts)


def _ref_eval_signed(groups, t):
    s_lines, x_lines, y_lines = groups
    return (min(a + s * t for a, s in s_lines)
            - max(a + s * t for a, s in x_lines)
            - max(a + s * t for a, s in y_lines))


def _ref_first_reach(groups, thresh, upward):
    knots = [F(0)] + _ref_breakpoints(groups)
    vals = [_ref_eval_signed(groups, t) for t in knots]
    for k in range(len(knots) - 1):
        t0, t1 = knots[k], knots[k + 1]
        f0, f1 = vals[k], vals[k + 1]
        if upward and f1 >= thresh:
            return t0 + (thresh - f0) * (t1 - t0) / (f1 - f0) if f1 != f0 else t1
        if not upward and f1 < thresh:
            if f1 == f0:
                return t0
            return t0 + (thresh - f0) * (t1 - t0) / (f1 - f0)
    t_last, f_last = knots[-1], vals[-1]
    slope = _ref_eval_signed(groups, t_last + 1) - f_last
    if (upward and slope > 0) or (not upward and slope < 0):
        return t_last + (thresh - f_last) / slope
    return None


def _ref_corner_entry(corner, t, kind):
    dx, dy, ds = _REF_DELTAS[kind]
    cons = [(corner.x - t.x, -dx), (corner.y - t.y, -dy), (t.s - corner.x - corner.y, ds)]
    lo, hi = F(0), None
    for g0, slope in cons:
        if slope == 0:
            if g0 < 0:
                return None
        elif slope > 0:
            if g0 < 0:
                lo = max(lo, -g0 / slope)
        else:
            if g0 < 0:
                return None
            root = -g0 / slope
            hi = root if hi is None else min(hi, root)
    if hi is not None and lo > hi:
        return None
    return lo


def safe_epsilon_reference(rep, move, exclude_triple=None):
    """`safe_epsilon` as first written: every event of every pair, triple
    and boundary corner, in Fractions."""
    outer = set(rep.outer)
    if set(move) & outer:
        raise PerturbError("move targets a boundary triangle")
    moved = set(move)
    events = []
    for a, b in itertools.combinations(sorted(rep.triangles), 2):
        if a not in moved and b not in moved:
            continue
        groups = _ref_lines_for(rep, move, (a, b))
        if _ref_eval_signed(groups, F(0)) < 0:
            ev = _ref_first_reach(groups, F(0), upward=True)
        else:
            ev = _ref_first_reach(groups, F(0), upward=False)
            if (a in outer) != (b in outer):
                ev2 = _ref_first_reach(groups, rep.epsilon, upward=True)
                if ev2 is not None:
                    events.append(ev2)
        if ev is not None:
            events.append(ev)
    for a, b, c in graph_triangles(rep):
        if not ({a, b, c} & moved) or frozenset((a, b, c)) == exclude_triple:
            continue
        groups = _ref_lines_for(rep, move, (a, b, c))
        if _ref_eval_signed(groups, F(0)) < 0:
            ev = _ref_first_reach(groups, F(0), upward=True)
            if ev is not None:
                events.append(ev)
    for o in outer:
        for corner in rep.tri(o).corners:
            for i in moved:
                ev = _ref_corner_entry(corner, rep.tri(i), move[i])
                if ev is not None:
                    events.append(ev)
    cap = min(rep.tri(i).h for i in moved)
    bound = min(events) if events else cap
    if bound <= 0:
        raise ZeroClearance("an event sits at zero clearance")
    return min(bound, cap) / 2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroClearance:
        return ZeroClearance


# default_outer(5/7) shifted by (1/3, -2/9): no coordinate is dyadic
_SHIFTED_OUTER = tuple(Tri(t.x + F(1, 3), t.y - F(2, 9), t.h)
                       for t in assemble.default_outer(F(5, 7)))


def chain_with_wheel(n, seed, depth, k=6):
    """chain(n, seed, depth) with double_wheel(k) in its newest face: octahedra
    take no triple removal, so the wheel is the piece that reaches it."""
    T = chain(n, seed, depth)
    return implant_double_wheel(T, newest_face(T), k)


class TestIntegerFrameMatchesReference:
    @pytest.mark.parametrize("outer", [None, _SHIFTED_OUTER], ids=["dyadic", "shifted"])
    @pytest.mark.parametrize("make", [
        lambda: planar.double_wheel(6),
        lambda: planar.gen_four_connected(12, 1),
        lambda: planar.gen_four_connected(8, 2),
        lambda: chain_with_wheel(8, 0, 1),
    ], ids=["dw6", "g4_12_1", "g4_8_2", "chain8_0d1+dw6"])
    def test_every_call_of_represent(self, monkeypatch, make, outer):
        compared = []
        fast = perturb.safe_epsilon

        def checked(rep, move, triangles, exclude_triple=None):
            got = _outcome(fast, rep, move, triangles, exclude_triple)
            compared.append((got, _outcome(safe_epsilon_reference, rep, move, exclude_triple)))
            if got is ZeroClearance:
                raise ZeroClearance("as the reference")
            return got

        monkeypatch.setattr(perturb, "safe_epsilon", checked)
        config = assemble.PipelineConfig() if outer is None else assemble.PipelineConfig(outer=outer)
        assemble.represent(make(), config)
        assert all(got == want for got, want in compared)

    def test_calls_are_compared(self, monkeypatch):
        # the inputs above do reach the event analysis (dw6, g4_8_2 and the
        # wheel in the chain make 2, 3 and 2 calls), the clearing step's move included
        moves = []
        fast = perturb.safe_epsilon
        monkeypatch.setattr(perturb, "safe_epsilon",
                            lambda *a, **k: moves[-1].append(a[1]) or fast(*a, **k))
        for T in (planar.double_wheel(6), planar.gen_four_connected(8, 2),
                  chain_with_wheel(8, 0, 1)):
            moves.append([])
            assemble.represent(T)
        assert all(moves)
        assert any(PUSH_HORIZONTAL in m.values() for calls in moves for m in calls)

    @pytest.mark.parametrize("extra, move", [
        ({9: tri(-4, 2, 3)}, {0: PUSH_VERTICAL}),
        ({}, {0: PUSH_VERTICAL}),
        ({5: tri(1, 3, 1)}, {0: TRANSLATE_DOWN, 1: PUSH_VERTICAL}),   # ZeroClearance
        ({5: tri(1, 3, 1), 6: tri("1/2", "7/2", "1/2")}, {5: PUSH_HORIZONTAL, 6: PUSH_HORIZONTAL}),
    ])
    def test_fixtures(self, extra, move):
        rep = fixture_rep(extra)
        sel = frozenset((0, 1, 2))
        assert (_outcome(safe_epsilon, rep, move, graph_triangles(rep), sel)
                == _outcome(safe_epsilon_reference, rep, move, sel))

    def test_boundary_events(self, outer_map):
        # free triangles in the boundary's gap: 7 overlaps t(0) by 1/8, so
        # its moves end where that overlap reaches epsilon = 1/5; 8 is
        # capped by its height; 9 already overlaps t(0) by more than epsilon
        rep = Representation({**outer_map, 7: tri(2, "15/8", "1/2"),
                              8: tri("27/10", "27/10", "1/10")}, (0, 1, 2), F(1, 5))
        spent = Representation({**outer_map, 9: tri("5/4", "3/4", "1/3")}, (0, 1, 2), F(1, 5))
        cases = [(rep, {7: kind}) for kind in (PUSH_VERTICAL, PUSH_HORIZONTAL, TRANSLATE_DOWN)]
        cases += [(rep, {7: PUSH_HORIZONTAL, 8: PUSH_VERTICAL}), (rep, {8: TRANSLATE_DOWN}),
                  (spent, {9: PUSH_VERTICAL})]
        results = [_outcome(safe_epsilon_reference, r, m) for r, m in cases]
        # the budget is half the clearance
        assert 2 * results[0] == F(3, 40) and 2 * results[4] == F(1, 10)
        assert results[5] is ZeroClearance
        assert [_outcome(safe_epsilon, r, m, graph_triangles(r)) for r, m in cases] == results


def move_one(t, kind, e):
    """t after `_moved` applies the move `kind` with step e to it alone."""
    return _moved(Representation({0: t}, (), F(1)), {0: kind}, e).tri(0)


class TestPushes:
    def test_push_vertical(self):
        t = move_one(tri(0, 2, 2), PUSH_VERTICAL, F(1, 4))
        assert t == tri("-1/4", 2, "9/4")
        assert t.east_corner == point(2, 2)          # east corner fixed
        assert t.s == tri(0, 2, 2).s                 # hypotenuse level unchanged

    def test_push_horizontal(self):
        t = move_one(tri(1, 1, 1), PUSH_HORIZONTAL, F(1, 2))
        assert t == tri(1, "1/2", "3/2")
        assert t.x == 1                              # vertical side unchanged
        assert t.top_corner == tri(1, 1, 1).top_corner

    def test_translate(self):
        t = move_one(tri(0, 2, 2), TRANSLATE_DOWN, F(1, 4))
        assert t == tri(0, "7/4", 2)                 # height and vertical side unchanged

    def test_push_rejects_nonpositive(self):
        for kind in _DELTAS:
            for e in (F(0), F(-1, 4)):
                with pytest.raises(ValueError):
                    move_one(tri(0, 0, 1), kind, e)

    def test_pushes_grow_point_set(self):
        # the corners of t stay covered, and with them its convex point set;
        # the slide moves t instead
        rng = random.Random(5)
        for _ in range(80):
            t = tri(F(rng.randint(-40, 40), 8), F(rng.randint(-40, 40), 8), F(rng.randint(1, 40), 8))
            e = F(rng.randint(1, 16), 16)
            for kind in (PUSH_VERTICAL, PUSH_HORIZONTAL):
                moved = move_one(t, kind, e)
                assert all(moved.contains(c) for c in t.corners)

    def test_moved_applies_the_rates(self):
        # every moved triangle's (x, y, s) changes by exactly e times its
        # rates, and no other triangle changes
        tangent = fixture_rep({5: tri(1, 3, 1)})
        e = F(1, 16)
        for rep, move in ((tangent, {0: PUSH_VERTICAL}), (tangent, {5: PUSH_HORIZONTAL}),
                          (fixture_rep(), {0: TRANSLATE_DOWN, 1: PUSH_VERTICAL})):
            out = _moved(rep, move, e)
            for i, t in rep.triangles.items():
                d = _DELTAS[move[i]] if i in move else (0, 0, 0)
                t2 = out.tri(i)
                assert (t2.x - t.x, t2.y - t.y, t2.s - t.s) == tuple(e * c for c in d)

    def test_boundary_triangle_rejected(self, outer_map):
        rep = Representation(dict(outer_map), (0, 1, 2), F(1))
        with pytest.raises(PerturbError):
            _moved(rep, {1: PUSH_VERTICAL}, F(1, 8))

    def test_graph_rechecked(self):
        # sliding t(0) down alone loses its point contacts with 1 and 5
        rep = fixture_rep({5: tri(1, 3, 1)})
        with pytest.raises(ClaimViolation, match="changed intersection status"):
            _moved(rep, {0: TRANSLATE_DOWN}, F(1, 16))

    def test_boundary_budget_rechecked(self, outer_map):
        # 7 overlaps t(0) by 1/8: a push of 3/40 or more spends epsilon = 1/5
        rep = Representation({**outer_map, 7: tri(2, "15/8", "1/2")}, (0, 1, 2), F(1, 5))
        assert _moved(rep, {7: PUSH_VERTICAL}, F(1, 20)).tri(7) == tri("39/20", "15/8", "11/20")
        with pytest.raises(ClaimViolation, match="reached epsilon"):
            _moved(rep, {7: PUSH_VERTICAL}, F(3, 40))


class TestSteps:
    def test_step1_exact(self):
        rep = fixture_rep()
        sel = select_bad(find_bad_triples(rep, graph_triangles(rep)))
        out = step1_widen(rep, sel, F(1, 4))
        assert out.tri(0) == tri("-1/4", 2, "9/4")
        assert out.tri(0).east_corner == point(2, 2)
        assert intersection_graph(out) == intersection_graph(rep)
        q = out.tri(0).top_corner
        assert q == point("-1/4", "17/4")
        assert not out.tri(1).contains(q) and not out.tri(2).contains(q)

    def test_step2_no_z(self):
        rep = fixture_rep()
        sel = select_bad(find_bad_triples(rep, graph_triangles(rep)))
        r1 = step1_widen(rep, sel, F(1, 4))
        assert step2_clear(r1, sel, F(1, 8)).triangles == r1.triangles

    def test_step2_pushes_hypotenuse_tangents(self):
        rep = fixture_rep({5: tri(1, 3, 1)})
        sel = select_bad(find_bad_triples(rep, graph_triangles(rep)))
        r1 = step1_widen(rep, sel, F(1, 4))
        assert intersect(r1.tri(5), r1.tri(0)).kind == "point"
        r2 = step2_clear(r1, sel, F(1, 16))
        assert r2.tri(5) == tri(1, "47/16", "17/16")
        assert intersect(r2.tri(5), r2.tri(0)).kind == "region"
        assert intersection_graph(r2) == intersection_graph(rep)

    def test_step2_two_tangents(self):
        rep = fixture_rep({5: tri(1, 3, 1), 6: tri("1/2", "7/2", "1/2")})
        sel = select_bad(find_bad_triples(rep, graph_triangles(rep)))
        r1 = step1_widen(rep, sel, F(1, 4))
        r2 = step2_clear(r1, sel, F(1, 16))
        assert r2.tri(5) != rep.tri(5) and r2.tri(6) != rep.tri(6)
        assert intersection_graph(r2) == intersection_graph(rep)

    def test_step3_exact_values(self):
        rep = fixture_rep()
        sel = select_bad(find_bad_triples(rep, graph_triangles(rep)))
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
        out = remove_all(rep, graph_triangles(rep))
        assert find_bad_triples(out, graph_triangles(out)) == []
        assert intersection_graph(out) == intersection_graph(rep)

    def test_identity_when_clean(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        assert remove_all(rep, graph_triangles(rep)).triangles == rep.triangles

    def test_two_triples_highest_first(self):
        far = {10: tri(100, 3, 2), 11: tri(102, 3, 2), 12: tri(102, 1, 2)}
        rep = fixture_rep(far)
        bad = find_bad_triples(rep, graph_triangles(rep))
        assert len(bad) == 2
        # the far configuration sits higher (p = (102, 3)) and is selected first
        assert sorted(select_bad(bad).ids) == [10, 11, 12]
        out = remove_all(rep, graph_triangles(rep))
        assert find_bad_triples(out, graph_triangles(out)) == []
        assert intersection_graph(out) == intersection_graph(rep)

    def test_k222(self, octahedron, k222_triple_rep):
        bad = find_bad_triples(k222_triple_rep, graph_triangles(k222_triple_rep))
        assert len(bad) == 1 and sorted(bad[0].ids) == [3, 4, 5]
        out = remove_all(k222_triple_rep, graph_triangles(k222_triple_rep))
        assert find_bad_triples(out, graph_triangles(out)) == []
        assert intersection_graph(out) == intersection_graph(k222_triple_rep)
        adj = octahedron.adjacency()
        for u, v in itertools.combinations(range(6), 2):
            assert (v in adj[u]) == (signed_height(out.tri(u), out.tri(v)) >= 0)

    def test_clean_piece_scanned_once(self, monkeypatch, k4, outer_map):
        # one bad-triple scan for a piece that has no triple
        rep = represent_in(k4, outer_map)
        calls = []
        scan = perturb.find_bad_triples
        monkeypatch.setattr(perturb, "find_bad_triples",
                            lambda *a, **k: calls.append("scan") or scan(*a, **k))
        assert remove_all(rep, graph_triangles(rep)) is rep
        assert calls == ["scan"]

    @pytest.mark.parametrize("make, stacked", [
        *((lambda k=k: planar.double_wheel(k), False) for k in range(4, 9)),
        *((lambda s=s: planar.gen_stacked(40, s), True) for s in range(3)),
        (lambda: planar.gen_four_connected(12, 0), False),
        (lambda: implant_faces(planar.gen_stacked(30, 1), (0, 7)), False),
        (lambda: chain(10, 2, 3), False),
    ], ids=[*(f"dw{k}" for k in range(4, 9)), *(f"stacked40_{s}" for s in range(3)),
            "g4_12_0", "stacked30_1+2octa", "chain10_2d3"])
    def test_piece_faces_are_the_graph_triangles(self, monkeypatch, make, stacked):
        # represent passes each piece's faces to the bad-triple scan (an
        # octahedron's post-check, a numeric piece's triple removal) as the
        # triangles of the piece's intersection graph: they must be exactly
        # that graph's triangles.  A stacked input peels completely, so it
        # has no piece to scan
        passed = []
        real = perturb.find_bad_triples

        def checked(rep, triangles, *a, **k):
            passed.append(triangles == graph_triangles(rep))
            return real(rep, triangles, *a, **k)

        monkeypatch.setattr(perturb, "find_bad_triples", checked)
        assemble.represent(make())
        if stacked:
            assert passed == []
        else:
            assert passed and all(passed)

    def test_retry_halves_the_budgets(self, monkeypatch, k222_triple_rep):
        # a failed recheck on the first attempt: the round is redone with
        # every step budget halved, and the result is clean
        rep, triangles = k222_triple_rep, graph_triangles(k222_triple_rep)
        budgets = {}  # step name -> the budget of each call, in order

        def record(name, fail_first=False):
            real = getattr(perturb, name)

            def step(work, triple, e):
                budgets.setdefault(name, []).append(e)
                if fail_first and len(budgets[name]) == 1:
                    raise ClaimViolation("injected")
                return real(work, triple, e)
            monkeypatch.setattr(perturb, name, step)

        for name in ("step1_widen", "step2_clear"):
            record(name)
        record("step3_separate", fail_first=True)
        out = remove_all(rep, triangles)
        # one round of two attempts, the first with the plain budgets; no
        # triangle sits on the slid triangle's hypotenuse, so no step 2
        assert set(budgets) == {"step1_widen", "step3_separate"}
        (e1_plain, e1), (_, e3) = budgets["step1_widen"], budgets["step3_separate"]
        assert e1 == e1_plain / 2
        # the slide's budget is half the safe budget after the halved widening
        sel = select_bad(find_bad_triples(rep, triangles))
        widened = step1_widen(rep, sel, e1)
        safe_e3 = safe_epsilon(widened, {sel.u: TRANSLATE_DOWN, sel.v: PUSH_VERTICAL},
                               triangles, exclude_triple=sel.ids)
        assert e3 == safe_e3 / 2
        assert find_bad_triples(out, graph_triangles(out)) == []
        assert intersection_graph(out) == intersection_graph(rep)

    def test_stuck_triple_gives_up_after_the_retries(self, monkeypatch, k222_triple_rep):
        calls = []

        def always_fails(*a):
            calls.append(1)
            raise ClaimViolation("injected")

        monkeypatch.setattr(perturb, "step1_widen", always_fails)
        with pytest.raises(PerturbError, match="could not clear triple"):
            remove_all(k222_triple_rep, graph_triangles(k222_triple_rep))
        assert len(calls) == STEP_RETRIES


class TestEventAnalysis:
    """Direct checks of the exact piecewise-linear event machinery, in the
    integer frame: (x, y, s) per vertex."""

    def test_first_reach_upward_linear(self):
        # (0,0,1) approached by push_vertical of (3,0,1): signed = 1 - (3-t) - 0
        groups = _lines_for({0: (0, 0, 1), 1: (3, 0, 4)}, {1: PUSH_VERTICAL}, (0, 1))
        assert _first_reach(groups, 0, upward=True) == 2      # signed(t) = t - 2

    def test_first_reach_with_breakpoint(self):
        # moving triangle's x passes under the static one's x: slope changes
        groups = _lines_for({0: (0, 0, 4), 1: (1, 1, 3)}, {1: TRANSLATE_DOWN}, (0, 1))
        assert _breakpoints(groups) == [1]
        # signed(t) = min(4, 3-t) - 1 - max(0, 1-t): starts at 1, falls to 0 at t=2
        assert _first_reach(groups, 0, upward=False) == 2

    def test_first_reach_inside_a_later_segment(self):
        # t(0) pushed left meets t(1) sliding down: signed(t) = -9 + 2t up to
        # the knot t = 2, then -7 + t up to the knot t = 10
        groups = _lines_for({0: (10, 0, 11), 1: (8, 10, 30)},
                            {0: PUSH_VERTICAL, 1: TRANSLATE_DOWN}, (0, 1))
        assert _breakpoints(groups) == [2, 10, 19]
        assert _first_reach(groups, 0, upward=True) == 7

    def test_first_reach_stop(self):
        # signed(t) = 2 up to the knot t = 3, then 5 - t
        groups = _lines_for({0: (0, 0, 8), 1: (1, 3, 6)}, {1: TRANSLATE_DOWN}, (0, 1))
        assert _first_reach(groups, 0, upward=False) == 5
        # a stop beyond the event never hides it; a stop at or before the
        # last knot ahead of it ends the scan there
        assert _first_reach(groups, 0, upward=False, stop=F(11, 2)) == 5
        assert _first_reach(groups, 0, upward=False, stop=3) is None

    def test_lockstep_pair_has_no_event(self):
        # the slide-down + push-left combination keeps the contact exactly
        rep = fixture_rep()
        sel = select_bad(find_bad_triples(rep, graph_triangles(rep)))
        r1 = step1_widen(rep, sel, F(1, 4))
        den, frame, _ = int_frame(r1, r1.epsilon)
        assert den == 4
        move = {sel.u: TRANSLATE_DOWN, sel.v: PUSH_VERTICAL}
        groups = _lines_for(frame, move, (sel.u, sel.v))
        assert signed_height(r1.tri(sel.u), r1.tri(sel.v)) == 0
        root = _first_reach(groups, 0, upward=False)
        assert root is None or root >= 9           # 9/4 in rep units

    def test_corner_entry(self):
        # pushing the vertical side left reaches a corner 1 to the left
        t = (2, 0, 4)
        assert _corner_entry((1, 1), t, PUSH_VERTICAL) == 1
        # a corner below the triangle can never be reached by that move
        assert _corner_entry((1, -5), t, PUSH_VERTICAL) is None
        # translations reach corners below
        assert _corner_entry((3, -1), t, TRANSLATE_DOWN) == 1

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


class TestSharedVertexTriples:
    def test_two_triples_sharing_a_triangle(self):
        # second point configuration hangs off v's east corner at (4, 2)
        rep = fixture_rep({5: tri(4, 2, 2), 6: tri(4, 0, 2)})
        bad = find_bad_triples(rep, graph_triangles(rep))
        assert sorted(tuple(sorted(t.ids)) for t in bad) == [(0, 1, 2), (1, 5, 6)]
        out = remove_all(rep, graph_triangles(rep))
        assert find_bad_triples(out, graph_triangles(out)) == []
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
        bad = find_bad_triples(rep, graph_triangles(rep))
        assert len(bad) == 1 and sorted(bad[0].ids) == [0, 1, 2]
        out = remove_all(rep, graph_triangles(rep))
        assert find_bad_triples(out, graph_triangles(out)) == []
        assert intersection_graph(out) == intersection_graph(rep)   # the shallow edge survives


class TestBoundaryRoles:
    def test_triple_with_boundary_triangle_rejected(self):
        # a synthetic triple whose slid triangle is a boundary triangle
        rep = Representation(
            {0: tri(0, 2, 2), 1: tri(2, 2, 2), 2: tri(2, 0, 2)}, (0, 1), F(1))
        with pytest.raises(PerturbError):
            remove_all(rep, graph_triangles(rep))


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


def test_fraction_work_follows_the_moves(monkeypatch):
    # triple removal and the face gaps decide everything in the integer
    # frame: their Fraction arithmetic, comparisons and construction are
    # bounded by a few per moved triangle (`_moved` applies each move in
    # Fractions), per step, per bad triple found (its overlap) and per face
    # gap (the map-back), not by the number of triangles.  The wheel is the
    # one piece that takes triple removal; the chain's octahedra give the
    # face gaps.  The count reads 90 here, against a bound of 136.
    calls, inside = [], []
    moves, scans, gaps = [], [], []

    def counted(f):
        def wrapper(*args, **kwargs):
            if inside:
                calls.append(f.__name__)
            return f(*args, **kwargs)
        return wrapper

    def scoped(f, results):
        def wrapper(*args, **kwargs):
            inside.append(1)
            try:
                results.append(f(*args, **kwargs))
            finally:
                inside.pop()
            return results[-1]
        return wrapper

    monkeypatch.setattr(perturb, "remove_all", scoped(perturb.remove_all, []))
    monkeypatch.setattr(perturb, "face_gap_with_roles", scoped(perturb.face_gap_with_roles, gaps))
    monkeypatch.setattr(perturb, "find_bad_triples", scoped(perturb.find_bad_triples, scans))
    real_moved = perturb._moved
    monkeypatch.setattr(perturb, "_moved",
                        lambda rep, move, e: moves.append(len(move)) or real_moved(rep, move, e))
    T = chain_with_wheel(20, 5, 6)
    for name in FRACTION_DUNDERS:
        monkeypatch.setattr(F, name, counted(getattr(F, name)))
    monkeypatch.setattr(F, "__new__", staticmethod(counted(F.__new__)))
    assemble.represent(T)
    monkeypatch.undo()
    found = sum(len(bad) for bad in scans)
    assert moves and found and gaps
    assert len(calls) <= 16 * sum(moves) + 8 * len(moves) + 30 * found + 6 * len(gaps)
