import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from tricontact import planar, verify
from tricontact.assemble import PipelineConfig, default_outer, represent
from tricontact.core import ROUNDOFF, TINY, Representation, float_pad
from tricontact.geometry import (
    Point,
    Tri,
    gap_candidates,
    intersect,
    segment_intersection_kind,
    signed_height,
)
from tricontact.perturb import GapError, face_gap_with_roles
from tricontact.verify import (
    _err,
    check_boundary,
    check_face_condition,
    check_simple,
    count_crossings,
    extract_drawing,
    full_report,
    intersection_graph,
)
import conftest
from conftest import (
    FRACTION_DUNDERS,
    chain,
    face_faults_by_loop,
    implant_faces,
    implanted,
    octahedron_graph,
    open_in_canvas,
    point,
    represent_in,
    solve_in_canvas,
    stacking_chain,
    tri,
    triples_by_cubic_scan,
    with_triangle,
)

F = Fraction
# sha256 of the drawing of gen_stacked(60, 1), as `extract_drawing` makes it
STACKED60_DRAWING = "ef4b27597c002f398019a52df89e992463a3fc79537afab7f94cb1ca239184e5"


def in_rep_frame(rep, p):
    """A point of `rep`'s integer frame in `rep`'s own coordinates."""
    S = rep.scaled[0]
    return Point(F(p.x, S), F(p.y, S))


def free_point(rep, u):
    """`verify._free_points` for vertex u alone, with no ray targets."""
    return in_rep_frame(rep, verify._free_points(rep, [u], {}, {})[u])


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


def _anchors(tris, T):
    """(contact point, lens) of every edge of T, for T's triangles `tris`, as
    `extract_drawing` finds them; the lens map holds the edges whose
    triangles overlap in a region."""
    contacts, lenses = {}, {}
    for u, v in sorted(T.edges):
        ov = intersect(tris[u], tris[v])
        contacts[(u, v)] = ov.right_corner
        if ov.kind == "region":
            lenses[(u, v)] = ov.region
    return contacts, lenses


def free_points_reference(rep, T, with_rays=True):
    """`free_point_reference` for every vertex of T, with the ray targets
    `extract_drawing` uses: the contact of each of u's edges, paired with
    the lenses of u's other edges (none without rays)."""
    adj = T.adjacency()
    contacts, lenses = _anchors(rep.triangles, T)
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


def violations_reference(polylines, scale=1):
    """Forbidden meetings found by a Python sweep that keeps an active list
    of segments, screens one pair at a time and does every endpoint
    bookkeeping with exact point equality; the points are given times
    `scale`."""
    segs = []
    fl = {}
    for pid, (u, v, path) in enumerate(polylines):
        for p in path:
            fl[id(p)] = (float(p.x / scale), float(p.y / scale))
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


def _implanted():
    return implant_faces(planar.gen_stacked(30, 1), (0, 7))


def _depth_zero_rogue(gap):
    """Outside the gap, in the strip beyond its hypotenuse side, touching that
    side along a segment (depth 0)."""
    return tri(gap.x - gap.h * 3 / 4, gap.y - gap.h * 3 / 4, gap.h / 2)


def octa_pipeline_rep(octahedron, outer_map):
    """The octahedron through the wood path: its contact layout, opened."""
    return open_in_canvas(octahedron, outer_map)


def intersection_graph_by_pairs(rep):
    """The intersection graph as a loop over every pair: a float screen
    padded by `float_pad`, then an exact decision."""
    vs = sorted(rep.triangles)
    fl = {}
    for v in vs:
        t = rep.tri(v)
        fl[v] = (float(t.x), float(t.y), float(t.s))
    screen = -float_pad(max((abs(c) for row in fl.values() for c in row), default=0.0))
    out = set()
    for i, u in enumerate(vs):
        xu, yu, su = fl[u]
        tu = rep.tri(u)
        for v in vs[i + 1:]:
            xv, yv, sv = fl[v]
            if min(su, sv) - max(xu, xv) - max(yu, yv) < screen:
                continue
            if signed_height(tu, rep.tri(v)) >= 0:
                out.add((u, v))
    return out


def _moved(rep, k, dx, dy):
    """`rep` scaled by k, then offset by (dx, dy)."""
    return Representation({v: Tri(t.x * k + dx, t.y * k + dy, t.h * k)
                           for v, t in rep.triangles.items()}, rep.outer, rep.epsilon * k)


def box_pairs_reference(boxes, pad):
    """Every pair of boxes (xlo, xhi, ylo, yhi) that meet when widened by
    `pad`, as (i, j) with i before j in the order by (xlo, index); the
    coordinates and pads of the tests are dyadic, so nothing rounds."""
    out = set()
    for p in range(len(boxes)):
        for q in range(p + 1, len(boxes)):
            i, j = (p, q) if boxes[p][0] <= boxes[q][0] else (q, p)
            if (boxes[j][0] <= boxes[i][1] + pad and boxes[j][2] <= boxes[i][3] + pad
                    and boxes[i][2] <= boxes[j][3] + pad):
                out.add((i, j))
    return out


class TestBoxPairs:
    @staticmethod
    def _boxes(seed, n):
        # integer corners in a small range: many ties in xlo, and boxes of
        # width or height 0
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            x, y = rng.randint(0, 40), rng.randint(0, 40)
            out.append((x, x + rng.choice((0, 0, 1, 2, 5)), y, y + rng.choice((0, 1, 3, 8))))
        return out

    @pytest.mark.parametrize("block, runs", [(verify.BLOCK, verify.RUN_PAIRS), (7, 20), (64, 1)],
                             ids=["default", "small", "one-run"])
    @pytest.mark.parametrize("pad", [0.0, 0.5, 1.0, 3.0])
    def test_matches_all_pairs(self, block, runs, pad, monkeypatch):
        monkeypatch.setattr(verify, "BLOCK", block)
        monkeypatch.setattr(verify, "RUN_PAIRS", runs)
        boxes = self._boxes(int(pad * 2) + block, 300)
        blocks = list(verify._box_pairs(np.array(boxes, dtype=float), pad))
        got = [(i, j) for bi, bj in blocks for i, j in zip(bi.tolist(), bj.tolist())]
        assert len(got) == len(set(got))
        assert set(got) == box_pairs_reference(boxes, pad)
        # every block holds `block` kept pairs, but the last, which is not empty
        sizes = [len(bi) for bi, _bj in blocks]
        assert all(k == block for k in sizes[:-1]) and 0 < sizes[-1] <= block

    def test_no_boxes(self):
        assert list(verify._box_pairs(np.empty((0, 4)), 0.0)) == []


class TestIntersectionGraph:
    @pytest.mark.parametrize("make", [
        lambda: represent(planar.gen_stacked(300, 1)),
        lambda: represent(implanted(100, 3, 20)),
        lambda: _moved(represent(implanted(100, 3, 20)), F(1, 2 ** 60), 3, 1),
        lambda: represent(planar.double_wheel(6), PipelineConfig(outer=tuple(
            Tri(t.x + F(1, 3), t.y - F(2, 9), t.h) for t in default_outer(F(5, 7))))),
        lambda: Representation({5 * i + j: tri(3 * i, 3 * j, 1) for i in range(5)
                                for j in range(5)}, (), F(1)),
    ], ids=["stacked300_1", "nested_host", "nested_host_tiny", "dw6_shifted", "no_pair"])
    def test_matches_every_pair_loop(self, make):
        rep = make()
        graph = intersection_graph(rep)
        assert graph == intersection_graph_by_pairs(rep)
        assert bool(graph) == (len(rep.outer) > 0)

    def test_k4_exact(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        assert intersection_graph(rep) == {tuple(sorted(e)) for e in k4.edges}

    def test_disjoint_triangles(self):
        rep = Representation({0: tri(0, 0, 1), 1: tri(5, 5, 1), 2: tri(0, 9, 1)}, (), F(1))
        assert intersection_graph(rep) == set()

    @pytest.mark.parametrize("make", [octahedron_graph, lambda: planar.double_wheel(7),
                                      lambda: planar.gen_four_connected(14, 1)],
                             ids=["octahedron", "dw7", "g4_14_1"])
    def test_open_layout_realizes_target_graph(self, make, outer_map):
        # the contact layout's graph is the piece's, and so is the opened one's
        T = make()
        om = {v: outer_map[i] for i, v in enumerate(T.outer)}
        pre, post = solve_in_canvas(T, om), open_in_canvas(T, om)
        assert intersection_graph(pre) == intersection_graph(post) == \
            {tuple(sorted(e)) for e in T.edges}


class TestCheckSimple:
    def test_triple_fixture_fails(self, k222_triple_rep):
        rep = Representation({0: tri(0, 2, 2), 1: tri(2, 2, 2), 2: tri(2, 0, 2)}, (), F(1))
        ok, offending = check_simple(rep, intersection_graph(rep))
        assert not ok and offending == [(0, 1, 2)] == triples_by_cubic_scan(rep)
        rep = k222_triple_rep
        ok, offending = check_simple(rep, intersection_graph(rep))
        assert not ok and offending == [(3, 4, 5)] == triples_by_cubic_scan(rep)

    def test_after_steps_passes(self, octahedron, outer_map):
        # the octahedron's contact layout fails (above); opened, it passes
        out = open_in_canvas(octahedron, outer_map)
        ok, offending = check_simple(out, intersection_graph(out))
        assert ok and offending == [] == triples_by_cubic_scan(out)

    def test_k4_exact(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        ok, offending = check_simple(rep, intersection_graph(rep))
        assert ok and offending == [] == triples_by_cubic_scan(rep)


class TestCheckBoundary:
    def test_exact_contacts_pass_any_epsilon(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        ok, pairs, cok, corners = check_boundary(rep, F(1, 10 ** 9))
        assert ok and cok and not pairs and not corners

    def test_robustified_within_budget(self, octahedron, outer_map):
        rep = octa_pipeline_rep(octahedron, outer_map)
        ok, pairs, cok, corners = check_boundary(rep)
        assert ok and cok

    def test_corner_violation_reported(self, k4, outer_map):
        T = planar.stack_vertex(k4, (0, 1, 3))
        rep = represent(T)
        bad = with_triangle(rep, 4, tri(F(3, 4), F(11, 4), F(1, 2)))
        ok, _, cok, offenders = check_boundary(bad)
        assert not cok
        assert any(o == 1 and v == 4 for o, _, v in offenders)

    def test_overlap_violation_reported(self, k4, outer_map):
        # an inner triangle overlapping boundary triangle 0 by exactly epsilon
        rep = represent_in(k4, outer_map)
        bad = with_triangle(rep, 3, tri(1, 1, 1))
        assert signed_height(bad.tri(3), bad.tri(0)) == bad.epsilon == 1
        ok, pairs, cok, _ = check_boundary(bad)
        assert not ok and cok
        assert pairs == [(3, 0, "1/1")]
        r = full_report(bad, k4, with_faces=False)
        assert not r.passed and not r.boundary_ok and r.offending_pairs == [[3, 0, "1/1"]]


def _corrupted(rep, vertices, shifts=(-2, -1, 1, 2), q=8):
    """Copies of `rep` with the triangle (x, y, h) of one of `vertices`
    changed: x or y shifted by k*h/q for each k of `shifts`, h grown or
    shrunk by h/q, or the triangle moved to (x - h/3, y + h/5, 4h/3)."""
    for v in vertices:
        t = rep.tri(v)
        x, y, h = t.x, t.y, t.h
        d = h / q
        moves = ([(x + k * d, y, h) for k in shifts] + [(x, y + k * d, h) for k in shifts]
                 + [(x, y, h + d), (x, y, h - d), (x - h / 3, y + h / 5, h * 4 / 3)])
        for m in moves:
            yield with_triangle(rep, v, Tri(*m))


class TestCheckFaces:
    def test_k4_all_faces(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        ok, fails = check_face_condition(rep, k4)
        assert ok and not fails

    def test_octa_pipeline(self, octahedron, outer_map):
        rep = octa_pipeline_rep(octahedron, outer_map)
        ok, fails = check_face_condition(rep, octahedron)
        assert ok

    def test_blocked_gap_fails(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        gap, _, _ = face_gap_with_roles(rep, (0, 1, 3))
        rogue = tri(gap.x - gap.h / 2, gap.y - gap.h / 2, gap.h / 2)
        blocked = Representation({**rep.triangles, 99: rogue}, rep.outer, rep.epsilon)
        ok, fails = check_face_condition(blocked, k4)
        assert not ok
        assert (0, 1, 3) in [f for f, _ in [(tuple(f), m) for f, m in fails]]

    def test_gap_side_touch_fails(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        gap, _, _ = face_gap_with_roles(rep, (0, 1, 3))
        rogue = _depth_zero_rogue(gap)
        assert rogue.s == gap.hyp_level
        touched = Representation({**rep.triangles, 99: rogue}, rep.outer, rep.epsilon)
        ok, fails = check_face_condition(touched, k4)
        assert not ok
        assert (0, 1, 3) in [f for f, _ in fails]

    @pytest.mark.parametrize("make", [
        lambda: planar.gen_stacked(40, 2), _implanted, lambda: chain(20, 5, 3),
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

    @pytest.mark.parametrize("side", ["hypotenuse", "vertical", "horizontal"])
    def test_gap_reached_below_the_pad_fails(self, k4, outer_map, side):
        # a triangle reaching across one gap side by far less than the float
        # pad blocks the gap: the screens must pass it to the exact test
        rep = represent_in(k4, outer_map)
        gap, _, _ = face_gap_with_roles(rep, (0, 1, 3))
        X, Y, H = gap.x, gap.y, gap.h
        d = H / 2 ** 70
        rogue = {"hypotenuse": Tri(X - H * 3 / 4, Y - H * 3 / 4, H / 2 + d),
                 "vertical": Tri(X - d, Y - H * 3 / 4, H / 2),
                 "horizontal": Tri(X - H * 3 / 4, Y - d, H / 2)}[side]
        reached = Representation({**rep.triangles, 99: rogue}, rep.outer, rep.epsilon)
        report = check_face_condition(reached, k4)
        assert report == face_faults_by_loop(reached, k4)
        assert ((0, 1, 3), "no valid gap for face [0, 1, 3]") in report[1]

    @pytest.mark.parametrize("make, picks, shifts", [
        (lambda: planar.gen_stacked(30, 0), 4, (-2, -1, 1, 2)),
        (lambda: planar.gen_stacked(30, 1), 4, (-2, -1, 1, 2)),
        (lambda: planar.gen_four_connected(12, 0), 3, (-2, -1, 1, 2)),
        (lambda: planar.gen_four_connected(12, 1), 3, (-2, -1, 1, 2)),
        (lambda: chain(20, 5, 6), 2, (-2, -1, 1, 2)),
        (lambda: implanted(100, 3, 20), 1, (1,))],
        ids=["stacked30_0", "stacked30_1", "g4_12_0", "g4_12_1", "chain20_5d6",
             "implanted100_3x20"])
    def test_matches_loop_oracle_on_corruption_sweep(self, make, picks, shifts):
        # the array kernels must report exactly what a per-face loop of
        # exact tests over every other triangle reports, reasons included
        T = make()
        rep = represent(T)
        vertices = random.Random(0).sample(rep.inner_ids(), picks)
        failing = 0
        for r in _corrupted(rep, vertices, shifts):
            want = face_faults_by_loop(r, T)
            assert check_face_condition(r, T) == want
            failing += not want[0]
        assert face_faults_by_loop(rep, T) == (True, []) == check_face_condition(rep, T)
        assert failing

    def test_repeated_candidate_is_not_unique(self, monkeypatch):
        # every candidate offered twice: a face whose gap is valid has two
        T = planar.gen_stacked(30, 0)
        rep = represent(T)
        vertex = random.Random(0).choice(rep.inner_ids())

        def twice(ts):
            return 2 * gap_candidates(ts)

        monkeypatch.setattr(conftest, "gap_candidates", twice)
        monkeypatch.setattr(verify, "gap_candidates", twice)
        for r in (rep, *_corrupted(rep, [vertex])):
            want = face_faults_by_loop(r, T)
            assert check_face_condition(r, T) == want
            assert any(why.endswith("is not unique") for _f, why in want[1])

    @pytest.mark.parametrize("make", [lambda: planar.gen_stacked(60, 1),
                                      lambda: implanted(100, 3, 20)],
                             ids=["stacked60_1", "implanted100_3x20"])
    def test_screens_decide_every_face(self, make, monkeypatch):
        # on certified outputs the padded float screens settle every pair:
        # a screen dropped, or one testing the wrong side, would send pairs
        # to the exact tests
        T = make()
        rep = represent(T)
        calls = []
        for name in ("neg_interior_hits", "signed_height"):
            exact = getattr(verify, name)
            monkeypatch.setattr(verify, name,
                                lambda *a, exact=exact, name=name: calls.append(name) or exact(*a))
        assert check_face_condition(rep, T) == (True, [])
        assert calls == []


@pytest.mark.filterwarnings("error")
class TestDrawing:
    def test_k4(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
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
        # on to the sixteenths; t(2) covers all of t(3), so no grid helps;
        # t(5) covers t(4)'s grids down to the 32nds, and the frame's D is 33,
        # so only S's factor 2^6 makes the 64ths integral
        rep = Representation({0: tri(0, 0, 8), 1: tri(1, 1, 5), 2: tri(0, 20, 4),
                              3: tri(1, 21, 1), 4: tri(10, 0, 1),
                              5: tri(10 + F(1, 33), F(1, 33), F(30, 33))}, (), F(1))
        table = _dict_table(rep)
        pad = float_pad(max(abs(c) for row in table.values() for c in row))
        p = free_point(rep, 0)
        assert p == free_point_reference(rep, 0, (), table, pad)
        assert p.x.denominator == 2 and not rep.tri(1).contains(p)  # eighths of 8 are whole
        p = free_point(rep, 4)
        assert p == free_point_reference(rep, 4, (), table, pad) == Point(10 + F(1, 64), F(1, 64))
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

    @pytest.mark.parametrize("offset", [(0, 0), (3 << 62, 1 << 62)], ids=["unit", "tiny"])
    def test_collinear_route_legs_allowed(self, offset):
        # a route in the integer frame: the point of u, the contact, the
        # point of v, as `extract_drawing` makes it, and the same route with
        # each leg split at its midpoint, since `count_crossings` takes any
        # polyline; at the tiny scale (legs of a few units at 2^63) every
        # point rounds to the same float
        P = self._mapped({"pu": Point(0, 0), "m1": Point(2, 2), "c": Point(4, 4),
                          "m2": Point(6, 3), "pv": Point(8, 2)}, offset, 1)
        for names in (("pu", "c", "pv"), ("pu", "m1", "c", "m2", "pv")):
            assert count_crossings([(0, 1, [P[k] for k in names])]) == 0

    @pytest.mark.parametrize("make", [lambda: planar.gen_stacked(60, 1),
                                      lambda: planar.double_wheel(8), _implanted],
                             ids=["stacked60", "dw8", "implanted"])
    def test_routes_are_two_legs_through_the_contact(self, make):
        # each route runs from the point of u to the right corner of
        # t(u) ∩ t(v) and on to the point of v, one object per shared point
        T = make()
        rep = represent(T)
        d = extract_drawing(rep, T)
        contacts, _lenses = _anchors(rep.triangles, T)
        assert [(u, v) for u, v, _path in d.polylines] == sorted(contacts)
        for u, v, path in d.polylines:
            assert len(path) == 3 and path[0] is d.points[u] and path[2] is d.points[v]
            assert path[1] == contacts[(u, v)]
        assert all(len(pl["path"]) == 3 for pl in d.to_json()["polylines"])

    def test_deep_chain_exact_tests_bounded(self, monkeypatch):
        # on a deep stacking chain the float screens settle no pair, so the
        # exact tests grow with the number of segment pairs: two per edge
        # keep them under 45,000
        T = stacking_chain(90)
        rep = represent(T)
        calls = []
        exact = verify.segment_intersection_kind
        monkeypatch.setattr(verify, "segment_intersection_kind",
                            lambda *args: calls.append(1) or exact(*args))
        extract_drawing(rep, T)
        assert len(calls) < 45_000

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
        rep = represent_in(k4, outer_map)
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
        """From now on every `_scan` must equal the scalar sweep's over the
        same polylines, one `Point` object per point row; returns the list
        the scans are appended to."""
        scans = []
        kernel = verify._scan

        def checked(xs, ys, scale, uv, paths):
            got = kernel(xs, ys, scale, uv, paths)
            pts = [Point(x, y) for x, y in zip(xs, ys)]
            polylines = [(u, v, [pts[r] for r in rows if r >= 0])
                         for (u, v), rows in zip(uv.tolist(), paths.tolist())]
            assert got == sorted(violations_reference(polylines, scale))
            scans.append(got)
            return got
        monkeypatch.setattr(verify, "_scan", checked)
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
        # ranked by clearance alone, some vertex points of this instance (two
        # octahedra, two K4s and six peeled vertices) sit behind foreign
        # lenses: the one exact scan finds violations, through the kernel,
        # and the extraction fails naming them
        T = planar.gen_triangulation(18, 0)
        rep = represent(T)
        contacts, _lenses = _anchors(rep.scaled[1], T)
        kernel = verify._free_points
        points = kernel(rep, T.vertices(), contacts, {})
        assert ({u: in_rep_frame(rep, p) for u, p in points.items()}
                == free_points_reference(rep, T, with_rays=False))
        monkeypatch.setattr(verify, "_free_points", lambda rep, vertices, contacts, lenses: points)
        scans = self._checked_scans(monkeypatch)
        with pytest.raises(verify.DrawingError, match=r"edge routes meet: \(\d+, \d+\) and"):
            extract_drawing(rep, T)
        assert len(scans) == 1 and scans[0]

    @pytest.mark.parametrize("make, v, move, note", [
        (lambda: planar.gen_four_connected(14, 1), 5, (0, F(-1, 8)), "(5, 9) and (9, 11)"),
        (lambda: planar.gen_stacked(300, 1), 151, (F(-1, 3), F(1, 5)), "(66, 151) and (21, 66)"),
    ], ids=["g4_14_1", "stacked300_1"])
    def test_routes_meet_after_passing_checks(self, make, v, move, note, monkeypatch):
        # with t(v) moved by (dx h, dy h) and grown to 4h/3, every other
        # check passes, but routes of the drawing meet (an open fault of the
        # vertex points' placement): the one scan finds them as the scalar
        # sweep does
        T = make()
        rep = represent(T)
        t = rep.tri(v)
        bad = with_triangle(rep, v, Tri(t.x + move[0] * t.h, t.y + move[1] * t.h, 4 * t.h / 3))
        scans = self._checked_scans(monkeypatch)
        r = full_report(bad, T, with_faces=True, with_drawing=True)
        assert r.graph_match and r.simple and r.boundary_ok and r.corner_ok
        assert r.face_condition_ok and not r.drawing_planar and r.drawing is None
        assert r.drawing_note == "edge routes meet: " + note
        assert len(scans) == 1 and scans[0]

    @pytest.mark.parametrize("make, digest", [
        (lambda: planar.gen_stacked(60, 1), STACKED60_DRAWING),
        (lambda: planar.double_wheel(8),
         "d3413520fe9b7e69fae3f83aa73a97b0c41197813a5b02fa101cfc520745c8f1"),
        (_implanted, "d32219e30407975550af9bbb88c69c81f3cfd04b0ea3199f0016a8a7fd6eed55"),
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
        r = full_report(rep, octahedron, with_drawing=True)
        assert r.passed
        assert check_simple(rep, intersection_graph(rep))[1] == triples_by_cubic_scan(rep)
        assert r.face_condition_ok and r.drawing_planar and r.crossings == 0

    def test_corrupted_edge_listed(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        bad = with_triangle(rep, 3, tri(F(19, 10), 2, 1))   # slides off one contact
        r = full_report(bad, k4, with_faces=False)
        assert not r.passed and not r.graph_match
        assert r.missing_edges == [[2, 3]] and r.extra_edges == []

    def test_triple_point_rep_fails_simple_only(self, octahedron, k222_triple_rep):
        r = full_report(k222_triple_rep, octahedron, with_faces=False)
        assert not r.passed
        assert not r.simple and r.offending_triples == [[3, 4, 5]]
        assert r.graph_match and r.boundary_ok and r.corner_ok

    def test_report_json(self, k4, outer_map):
        rep = represent_in(k4, outer_map)
        r = full_report(rep, k4, with_drawing=True)
        js = r.to_json()
        assert js["passed"] is True and js["crossings"] == 0
        # every field but the drawing, plus the verdict
        assert sorted(js) == sorted([
            "passed", "graph_match", "missing_edges", "extra_edges", "simple",
            "offending_triples", "boundary_ok", "offending_pairs", "corner_ok",
            "offending_corners", "face_condition_ok", "offending_faces",
            "drawing_planar", "crossings", "drawing_note"])

    def test_face_and_drawing_checks_skipped(self, k4, outer_map):
        # the face condition and the drawing need the graph: both report
        # the skip and fail
        rep = represent_in(k4, outer_map)
        bad = with_triangle(rep, 3, tri(F(19, 10), 2, 1))
        r = full_report(bad, k4, with_faces=True, with_drawing=True)
        assert not r.passed and not r.graph_match
        assert r.face_condition_ok is False
        assert r.offending_faces == [["skipped: graph or simpleness failed"]]
        assert r.drawing_planar is False and r.drawing is None
        assert r.drawing_note == "skipped: graph or simpleness failed"

    def test_fraction_work_is_frame_and_map_back(self, monkeypatch):
        # every check runs in the integer frame: Fraction arithmetic,
        # comparisons and construction are bounded by one conversion per
        # triangle coordinate (the frame); the drawing maps its points back
        # only when they are read
        T = planar.gen_stacked(60, 1)
        rep = represent(T)
        calls = []

        def counted(f):
            def wrapper(*args, **kwargs):
                calls.append(f.__name__)
                return f(*args, **kwargs)
            return wrapper

        for name in FRACTION_DUNDERS:
            monkeypatch.setattr(F, name, counted(getattr(F, name)))
        monkeypatch.setattr(F, "__new__", staticmethod(counted(F.__new__)))
        r = full_report(rep, T, with_faces=True, with_drawing=True)
        monkeypatch.undo()
        assert r.passed
        assert len(calls) <= 3 * len(rep.triangles)
        text = json.dumps(r.drawing.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == STACKED60_DRAWING
        # shared endpoints are one object: the vertex points, and one per route row
        points = {id(p) for _u, _v, path in r.drawing.polylines for p in path}
        assert {id(p) for p in r.drawing.points.values()} <= points
        assert len(points) == len(T.vertices()) + len(T.edges)
