import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from tricontact import planar, verify
from tricontact.assemble import represent
from tricontact.core import ROUNDOFF, TINY, Representation, float_pad
from tricontact.geometry import Point, Tri, intersect, point, segment_intersection_kind, tri
from tricontact.perturb import GapError, face_gap_with_roles, remove_all
from tricontact.solver import (
    SolverParams,
    exactify,
    robustify,
    solve_contacts,
    solve_stacked,
)
from tricontact.verify import (
    _err,
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
    """`verify._free_points` for vertex u alone, with no ray targets."""
    return verify._free_points(rep, {u: ()}, {}, {})[u]


# ---------------------------------------------------------------------------
# Scalar oracles: the drawing's float screens one vertex and one segment pair
# at a time.  The array kernels in `verify` must agree with them exactly.
# ---------------------------------------------------------------------------

def _dict_table(rep):
    """(x, y, s, x + h, y + h) of each triangle in floats, by vertex."""
    return {v: (float(t.x), float(t.y), float(t.s), float(t.x + t.h), float(t.y + t.h))
            for v, t in rep.triangles.items()}


def _near_ids(u, table, pad):
    """Triangles whose bounding box meets t(u)'s, padded by `pad`."""
    xlo, ylo, _s, xhi, yhi = table[u]
    return [v for v, (ax, ay, _s, bx, by) in table.items()
            if v != u and not (bx < xlo - pad or ax > xhi + pad
                               or by < ylo - pad or ay > yhi + pad)]


def _segment_hits_region(ax, ay, bx, by, region):
    """Float clip of segment AB against a positive-homothet region (x, y, s):
    True iff some parameter interval of AB lies inside all three half-planes."""
    rx, ry, rs = region
    t0, t1 = 0.0, 1.0
    for p, q in ((ax - rx, bx - ax), (ay - ry, by - ay),
                 (rs - ax - ay, -(bx - ax) - (by - ay))):
        # constraint p + t*q >= 0
        if q == 0.0:
            if p < 0.0:
                return False
        elif q > 0.0:
            t0 = max(t0, -p / q)
        else:
            t1 = min(t1, -p / q)
        if t0 > t1:
            return False
    return True


def free_point_reference(rep, u, ray_targets, table, pad):
    """One vertex's free point, scored one candidate at a time: ranked by the
    rays to the targets [(target, foreign regions), ...] that pass through a
    paired region, then by clearance; the best 16 per grid are checked
    exactly."""
    tu = rep.tri(u)
    ids = _near_ids(u, table, pad)
    near = [rep.tri(v) for v in ids]
    nearf = [table[v][:3] for v in ids]
    xf, yf, hf = float(tu.x), float(tu.y), float(tu.h)
    rays = [((float(g.x), float(g.y)), [(float(r.x), float(r.y), float(r.s))
                                        for r in regions])
            for g, regions in ray_targets]
    for denom in (8, 16, 32, 64):
        scored = []
        for i in range(1, denom - 1):
            for j in range(1, denom - i):
                pa = xf + hf * i / denom
                pb = yf + hf * j / denom
                c = min((max(tx - pa, ty - pb, pa + pb - ts) for tx, ty, ts in nearf),
                        default=1.0)
                blocked = 0
                for (gx, gy), regions in rays:
                    if any(_segment_hits_region(pa, pb, gx, gy, r) for r in regions):
                        blocked += 1
                scored.append((blocked, -c, i, j))
        scored.sort()
        for _blocked, _negc, i, j in scored[:16]:
            p = Point(tu.x + tu.h * Fraction(i, denom), tu.y + tu.h * Fraction(j, denom))
            if not any(t.contains(p) for t in near):
                return p
    raise verify.DrawingError(f"no free interior point in triangle of vertex {u}")


def _anchors(rep, T):
    """(contact point, lens) of every edge of T, as `extract_drawing` finds
    them; the lens map holds the edges whose triangles overlap in a region."""
    contacts, lenses = {}, {}
    for u, v in sorted(T.edges):
        ov = intersect(rep.tri(u), rep.tri(v))
        contacts[(u, v)] = ov.right_corner
        if ov.kind == "region":
            lenses[(u, v)] = ov.region
    return contacts, lenses


def free_points_reference(rep, T, with_rays=True):
    """`free_point_reference` for every vertex of T, with the ray targets
    `extract_drawing` uses: the contact of each of u's edges, paired with
    the lenses of u's other edges (none without rays)."""
    adj = T.adjacency()
    contacts, lenses = _anchors(rep, T)
    if not with_rays:
        lenses = {}

    def key(u, v):
        return (u, v) if u < v else (v, u)

    table = _dict_table(rep)
    pad = float_pad(max(abs(c) for row in table.values() for c in row))
    out = {}
    for u in sorted(T.vertices()):
        nbrs = sorted(adj[u])
        targets = [(contacts[key(u, v)], [lenses[key(u, w)] for w in nbrs
                                          if w != v and key(u, w) in lenses])
                   for v in nbrs]
        out[u] = free_point_reference(rep, u, targets, table, pad)
    return out


def _far_apart_reference(a, b, c, d, fl, delta):
    ax, ay = fl[id(a)]
    bx, by = fl[id(b)]
    cx, cy = fl[id(c)]
    dx, dy = fl[id(d)]
    abx, aby = bx - ax, by - ay
    acx, acy, adx, ady = cx - ax, cy - ay, dx - ax, dy - ay
    o1 = abx * acy - aby * acx
    o2 = abx * ady - aby * adx
    ab = abs(abx) + abs(aby)
    e1 = _err(ab + abs(acx) + abs(acy), delta)
    e2 = _err(ab + abs(adx) + abs(ady), delta)
    if (o1 > e1 and o2 > e2) or (o1 < -e1 and o2 < -e2):
        return True
    cdx, cdy = dx - cx, dy - cy
    cax, cay, cbx, cby = ax - cx, ay - cy, bx - cx, by - cy
    o3 = cdx * cay - cdy * cax
    o4 = cdx * cby - cdy * cbx
    cd = abs(cdx) + abs(cdy)
    e3 = _err(cd + abs(cax) + abs(cay), delta)
    e4 = _err(cd + abs(cbx) + abs(cby), delta)
    return (o3 > e3 and o4 > e4) or (o3 < -e3 and o4 < -e4)


def _meet_only_at_shared_end_reference(a, b, c, d, fl, delta):
    if a is c or a is d:
        o, p = a, b
    elif b is c or b is d:
        o, p = b, a
    else:
        return False
    q = d if o is c else c
    ox, oy = fl[id(o)]
    px, py = fl[id(p)]
    qx, qy = fl[id(q)]
    px, py, qx, qy = px - ox, py - oy, qx - ox, qy - oy
    err = _err(abs(px) + abs(py) + abs(qx) + abs(qy), delta)
    return abs(px * qy - py * qx) > err or px * qx + py * qy < -err


def violations_reference(polylines):
    """Forbidden meetings found by a Python sweep that keeps an active list
    of segments, screens one pair at a time and does every endpoint
    bookkeeping with exact point equality."""
    segs = []
    fl = {}
    for pid, (u, v, path) in enumerate(polylines):
        for p in path:
            fl[id(p)] = (float(p.x), float(p.y))
        for k in range(len(path) - 1):
            segs.append((pid, k, path[k], path[k + 1], u, v))
    ends = [(fl[id(s[2])], fl[id(s[3])]) for s in segs]
    xlo = [min(a[0], b[0]) for a, b in ends]
    xhi = [max(a[0], b[0]) for a, b in ends]
    ylo = [min(a[1], b[1]) for a, b in ends]
    yhi = [max(a[1], b[1]) for a, b in ends]
    order = sorted(range(len(segs)), key=xlo.__getitem__)
    m = max((max(abs(x), abs(y)) for x, y in fl.values()), default=0.0)
    pad = float_pad(m)
    delta = 5.0 * ROUNDOFF * m + TINY

    out = []
    active = []
    for idx in order:
        pid, k, a, b, u, v = segs[idx]
        active = [j for j in active if xhi[j] >= xlo[idx] - pad]
        for j in active:
            qid, l, c, d, u2, v2 = segs[j]
            if ylo[idx] > yhi[j] + pad or ylo[j] > yhi[idx] + pad:
                continue
            if ((pid != qid or abs(k - l) == 1)
                    and _meet_only_at_shared_end_reference(a, b, c, d, fl, delta)):
                kind = "endpoint"
            elif _far_apart_reference(a, b, c, d, fl, delta):
                continue
            else:
                kind = segment_intersection_kind(a, b, c, d)
            if pid == qid:
                if abs(k - l) == 1:
                    if kind == "cross":
                        out.append((pid, qid))
                    continue
                if kind != "none":
                    out.append((pid, qid))
                continue
            if kind == "none":
                continue
            if kind == "endpoint":
                shared = {u, v} & {u2, v2}
                common = None
                for p in (a, b):
                    if p == c or p == d:
                        common = p
                endpoints_ok = False
                if common is not None:
                    for x in shared:
                        path1 = polylines[pid][2]
                        path2 = polylines[qid][2]
                        terminal1 = path1[0] if polylines[pid][0] == x else path1[-1]
                        terminal2 = path2[0] if polylines[qid][0] == x else path2[-1]
                        if common == terminal1 == terminal2:
                            endpoints_ok = True
                if not endpoints_ok:
                    out.append((pid, qid))
                continue
            out.append((pid, qid))
        active.append(idx)
    return out


def _fuzz_instances():
    """The drawing fuzz corpus: instances whose contact fans once
    interleaved with overlap regions."""
    rng = random.Random(31337)
    out = []
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
        out.append(T)
    return out


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


@pytest.mark.filterwarnings("error")
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

    def test_free_point_on_finer_grids(self):
        # t(1) covers every point of t(0)'s grid of eighths, so vertex 0 moves
        # on to the sixteenths; t(2) covers all of t(3), so no grid helps
        rep = Representation({0: tri(0, 0, 8), 1: tri(1, 1, 5), 2: tri(0, 20, 4),
                              3: tri(1, 21, 1)}, (), F(1))
        table = _dict_table(rep)
        pad = float_pad(max(abs(c) for row in table.values() for c in row))
        p = free_point(rep, 0)
        assert p == free_point_reference(rep, 0, (), table, pad)
        assert p.x.denominator == 2 and not rep.tri(1).contains(p)  # eighths of 8 are whole
        with pytest.raises(verify.DrawingError, match="vertex 3"):
            free_point(rep, 3)

    def test_clip_matches_scalar_reference(self):
        # small integer coordinates: many rays parallel to a region side
        # (q = 0) and many that only touch a region (t0 = t1)
        rng = random.Random(5)
        rows = [[rng.randint(-3, 3) for _ in range(4)]
                + [rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-4, 4)]
                for _ in range(2000)]
        want = [_segment_hits_region(ax, ay, bx, by, (rx, ry, rs))
                for ax, ay, bx, by, rx, ry, rs in rows]
        got = verify._clip_hits(*(np.array(c, dtype=float) for c in zip(*rows)))
        assert got.tolist() == want
        assert 200 < sum(want) < 1800

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
        P = self._mapped({"o": point(0, 0), "far": point(2, 2), "mid": point(1, 1),
                          "mid2": point(3, 1), "X": point(1, 3), "Y": point(0, 5),
                          "Z": point(3, 4)}, offset, scale)
        # two routes leave one Point object, collinear and pointing the same way
        a = (0, 1, [P["o"], P["far"]])
        b = (0, 2, [P["o"], P["mid"]])
        assert a[2][0] is b[2][0]
        assert count_crossings([a, b]) == 1
        # consecutive legs of one route fold back on each other at their joint
        fold = (0, 1, [P["o"], P["far"], P["mid"]])
        assert count_crossings([fold]) == 1
        # a route that comes back to its own first point object
        loop = (0, 1, [P["o"], P["far"], P["mid2"], P["o"]])
        assert count_crossings([loop]) == 1
        # X ends route (0, 1) at vertex 1 but lies inside route (1, 2), whose
        # terminal at vertex 1 is Y: both legs of (1, 2) meet the first at X
        x = (0, 1, [P["o"], P["X"]])
        y = (1, 2, [P["Y"], P["X"], P["Z"]])
        assert count_crossings([x, y]) == count_crossings([y, x]) == 2
        for polylines in ([a, b], [fold], [a, b, fold], [loop], [x, y], [y, x]):
            assert verify._violations(polylines) == sorted(violations_reference(polylines))

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
        for T in _fuzz_instances():
            rep = represent(T)
            d = extract_drawing(rep, T)
            assert count_crossings(d.polylines) == 0

    @staticmethod
    def _checked_scans(monkeypatch):
        """From now on every `_violations` scan must equal the scalar sweep's;
        returns the list the scans are appended to."""
        scans = []
        kernel = verify._violations

        def checked(polylines):
            got = kernel(polylines)
            assert got == sorted(violations_reference(polylines))
            scans.append(got)
            return got
        monkeypatch.setattr(verify, "_violations", checked)
        return scans

    @pytest.mark.parametrize("make, offset, scale", [
        *(pytest.param(lambda k=k: _fuzz_instances()[k], (0, 0), F(1), id=f"fuzz{k}")
          for k in range(8)),
        pytest.param(lambda: planar.gen_stacked(60, 1), (0, 0), F(1), id="stacked60"),
        pytest.param(lambda: planar.double_wheel(5), (0, 0), F(1), id="dw5-unit"),
        # every coordinate rounds to the same float: all pairs go exact
        pytest.param(lambda: planar.double_wheel(5), (3, 1), F(1, 2 ** 60), id="dw5-tiny"),
    ])
    def test_kernels_match_scalar_reference(self, make, offset, scale, monkeypatch):
        # the array kernels pick the same point for every vertex and find the
        # same violations in every scan as the scalar code, mapped as
        # `_mapped` maps points
        T = make()
        rep = represent(T)
        ox, oy = offset
        rep = Representation({v: Tri(ox + scale * t.x, oy + scale * t.y, scale * t.h)
                              for v, t in rep.triangles.items()}, rep.outer, rep.epsilon * scale)
        scans = self._checked_scans(monkeypatch)
        d = extract_drawing(rep, T)
        assert d.points == free_points_reference(rep, T)
        assert scans[-1] == []

    def test_reroute_scans_match_scalar_reference(self, monkeypatch):
        # ranked by clearance alone, some vertex points of this instance sit
        # behind foreign lenses: the first scan finds violations, and every
        # re-routing round scans through the kernel
        T = _fuzz_instances()[1]
        rep = represent(T)
        contacts, _lenses = _anchors(rep, T)
        kernel = verify._free_points
        points = kernel(rep, T.adjacency(), contacts, {})
        assert points == free_points_reference(rep, T, with_rays=False)
        monkeypatch.setattr(verify, "_free_points", lambda rep, nbrs, contacts, lenses: points)
        scans = self._checked_scans(monkeypatch)
        with pytest.raises(verify.DrawingError, match="persist after re-routing"):
            extract_drawing(rep, T)
        assert scans[0] and len(scans) == 25

    @pytest.mark.parametrize("make, digest", [
        (lambda: planar.gen_stacked(60, 1),
         "31cf323f0338fb1180e56e25452db275a0823e66f7c113cf006143c3b37122b1"),
        (lambda: planar.double_wheel(8),
         "f166f8d8c82c1ab3509c9e7ab290ac9b54d788b4c62f9f1d340ae74833eacb6d"),
        (_implanted, "ae23e113b76dc07f64b4ebd3d1f203475d2bada189a6d81486709e9dce500f70"),
    ], ids=["stacked60", "dw8", "implanted"])
    def test_drawing_digest_pinned(self, make, digest):
        # any change to the drawing witness changes these digests
        T = make()
        d = extract_drawing(represent(T), T)
        text = json.dumps(d.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
