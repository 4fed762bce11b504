"""Independent certification of a representation.

Rebuilds the intersection graph, checks that no point lies in three
triangles, checks the boundary-overlap budget and corner condition, checks
the per-face gap condition, and realizes a planar drawing with an exact
crossing count.  Everything is decided with rational predicates; floats are
used only as conservative prefilters whose misses fall back to exact tests.
The module imports nothing from the constructor modules (`solver`,
`perturb`, `assemble`); the face check is written here, but the gap
candidates it tests come from `geometry.gap_candidates`, which the
constructor uses too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from tricontact import planar
from tricontact.core import ROUNDOFF, TINY, Representation, float_pad, intersection_graph
from tricontact.geometry import (
    NegTri,
    Point,
    Tri,
    common_signed_height,
    frac_str,
    gap_candidates,
    intersect,
    neg_interior_hits,
    segment_intersection_kind,
    signed_height,
)

# (x, y, s, x + h, y + h) of one triangle, each the double nearest the exact value
FloatRow = tuple[float, float, float, float, float]


def float_table(rep: Representation) -> dict[int, FloatRow]:
    """Every triangle of `rep` in floats; each check that screens with floats
    builds it once per call."""
    out = {}
    for v, t in rep.triangles.items():
        out[v] = (float(t.x), float(t.y), float(t.s), float(t.x + t.h), float(t.y + t.h))
    return out


def _table_pad(table: dict[int, FloatRow]) -> float:
    """`float_pad` for screens over the floats of `table`.  The quadratic
    cross and dot products have their own bound, `_err`."""
    return float_pad(max((abs(c) for row in table.values() for c in row), default=0.0))


class DrawingError(RuntimeError):
    """No valid vertex point or edge routing could be constructed."""


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

def check_simple(rep: Representation, edges: set[tuple[int, int]] | None = None,
                 audit: bool = False) -> tuple[bool, list[tuple[int, int, int]]]:
    """No three triangles may share a point.

    Scans the triangles of the intersection graph `edges`, built from `rep`
    when None (a triple with a disjoint pair has an empty common
    intersection); with audit=True additionally runs the full cubic scan,
    which must agree.
    """
    if edges is None:
        edges = intersection_graph(rep)
    vs = sorted(rep.triangles)
    offending = []
    for a, b, c in planar.triangles_of(planar.adjacency_of(vs, edges)):
        if common_signed_height([rep.tri(a), rep.tri(b), rep.tri(c)]) >= 0:
            offending.append((a, b, c))
    if audit:
        brute = [
            (a, b, c)
            for a, b, c in combinations(vs, 3)
            if common_signed_height([rep.tri(a), rep.tri(b), rep.tri(c)]) >= 0
        ]
        if brute != offending:
            raise AssertionError("graph-based and cubic triple scans disagree")
    return (not offending), offending


def check_boundary(rep: Representation, epsilon: Fraction | None = None
                   ) -> tuple[bool, list, bool, list]:
    """Boundary condition: every inner triangle intersecting a boundary
    triangle does so in a point or a region of height < epsilon, and no
    boundary corner lies in an inner triangle.

    Returns (boundary_ok, offending pairs with heights, corner_ok, offenders).
    """
    eps = rep.epsilon if epsilon is None else epsilon
    outer = [v for v in rep.outer]
    inner = rep.inner_ids()
    bad_pairs = []
    for o in outer:
        to = rep.tri(o)
        for v in inner:
            s = signed_height(rep.tri(v), to)
            if s >= eps:
                bad_pairs.append((v, o, frac_str(s)))
    bad_corners = []
    for o in outer:
        for corner in rep.tri(o).corners:
            for v in inner:
                if rep.tri(v).contains(corner):
                    bad_corners.append((o, (frac_str(corner.x), frac_str(corner.y)), v))
    return (not bad_pairs), bad_pairs, (not bad_corners), bad_corners


def _face_fault(rep: Representation, ids: tuple[int, int, int],
                table: dict[int, FloatRow], pad: float) -> str | None:
    """Why the face `ids` fails the gap condition, or None if it passes.

    A gap candidate is a negative homothet bounded by one side line of each
    face triangle (`gap_candidates`); it is valid when its interior meets no
    other triangle.  The face passes iff exactly one candidate is valid and
    every triangle outside the face that meets one of the gap's three strips
    (the positive homothets of the gap's height mirrored across its sides)
    stays strictly off that side's line, so that a probe of positive height
    fits against every gap side.
    """
    cands = [gap for gap, _roles in gap_candidates([rep.tri(v) for v in ids])]
    if not cands:
        return f"no gap candidate for face {list(ids)}"
    # The candidate gaps and their strips lie in [X - H, X + H] x [Y - H, Y + H]
    # for their (X, Y, H); a triangle whose bounding box misses the union of
    # these boxes by more than `pad` meets none of them.
    fc = [(float(g.x), float(g.y), float(g.h)) for g in cands]
    qx0 = min(x - h for x, _y, h in fc) - pad
    qy0 = min(y - h for _x, y, h in fc) - pad
    qx1 = max(x + h for x, _y, h in fc) + pad
    qy1 = max(y + h for _x, y, h in fc) + pad
    near = [(v, row) for v, row in table.items()
            if row[3] >= qx0 and row[0] <= qx1 and row[4] >= qy0 and row[1] <= qy1
            and v not in ids]

    def blocked(gap: NegTri, gf: tuple[float, float, float]) -> bool:
        gx, gy, gh = gf
        level = gx + gy - gh
        for v, (x, y, s, _xh, _yh) in near:
            # interiors meet only if x < X, y < Y and s > X + Y - H
            if x > gx + pad or y > gy + pad or s < level - pad:
                continue
            if neg_interior_hits(gap, rep.tri(v)):
                return True
        return False

    valid = [(g, gf) for g, gf in zip(cands, fc) if not blocked(g, gf)]
    if not valid:
        return f"no valid gap for face {list(ids)}"
    if len(valid) > 1:
        return f"gap for face {list(ids)} is not unique"
    gap, (gx, gy, gh) = valid[0]
    X, Y, H = gap.x, gap.y, gap.h
    level = gx + gy - gh
    # (strip, its floats (x, y, s), how far a triangle (x, y, s) stays beyond
    # the gap side: exactly, and in floats)
    strips = (
        (Tri(X - H, Y - H, H), (gx - gh, gy - gh, level),
         lambda x, y, s: gap.hyp_level - s, lambda x, y, s: level - s),
        (Tri(X, Y - H, H), (gx, gy - gh, gx + gy),
         lambda x, y, s: x - X, lambda x, y, s: x - gx),
        (Tri(X - H, Y, H), (gx - gh, gy, gx + gy),
         lambda x, y, s: y - Y, lambda x, y, s: y - gy),
    )
    for strip, (px, py, ps), depth, depth_f in strips:
        for v, (x, y, s, _xh, _yh) in near:
            if depth_f(x, y, s) > pad or min(ps, s) - max(px, x) - max(py, y) < -pad:
                continue  # certainly beyond the side, or certainly off the strip
            t = rep.tri(v)
            if signed_height(strip, t) >= 0 and depth(t.x, t.y, t.s) <= 0:
                return f"triangle {v} touches a gap side of face {list(ids)}"
    return None


def check_face_condition(rep: Representation, T: planar.Triangulation) -> tuple[bool, list]:
    """Every inner face must have exactly one valid gap that no other
    triangle reaches (see `_face_fault`); returns (ok, [(face, reason)]).

    Float screens, padded by `float_pad`, only skip triangles that certainly miss
    a gap or strip; every other triangle is tested exactly.  Every gap
    coordinate (X, Y, X - H, Y - H, X + Y - H) is a side of a face triangle,
    so the table's largest magnitude bounds them too, and H is at most twice it.
    """
    table = float_table(rep)
    pad = _table_pad(table)
    failures = []
    for f in T.inner_faces:
        ids = tuple(sorted(f))
        why = _face_fault(rep, ids, table, pad)
        if why is not None:
            failures.append((ids, why))
    return (not failures), failures


# ---------------------------------------------------------------------------
# Drawing extraction
# ---------------------------------------------------------------------------

@dataclass
class Drawing:
    points: dict[int, Point]
    polylines: list[tuple[int, int, list[Point]]]

    def to_json(self) -> dict:
        return {
            "points": {
                str(v): [frac_str(p.x), frac_str(p.y)] for v, p in sorted(self.points.items())
            },
            "polylines": [
                {"u": u, "v": v, "path": [[frac_str(p.x), frac_str(p.y)] for p in path]}
                for u, v, path in self.polylines
            ],
        }


def _near_ids(u: int, table: dict[int, FloatRow], pad: float) -> list[int]:
    """Triangles whose bounding box meets t(u)'s, padded by `pad`."""
    xlo, ylo, _s, xhi, yhi = table[u]
    return [v for v, (ax, ay, _s, bx, by) in table.items()
            if v != u and not (bx < xlo - pad or ax > xhi + pad
                               or by < ylo - pad or ay > yhi + pad)]


def _segment_hits_region(ax, ay, bx, by, region) -> bool:
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


def _free_point(rep: Representation, u: int, ray_targets: Sequence[tuple[Point, Sequence]],
                table: dict[int, FloatRow], pad: float) -> Point:
    """A point of t(u) covered by no other triangle, chosen from an interior
    grid; the winner's non-membership in every other triangle is verified
    exactly.

    With ray_targets = [(target, foreign regions), ...] the candidates are
    ranked first by how many straight rays to the targets pass through the
    paired foreign overlap regions (used to keep edge routes out of lenses
    they do not own), then by clearance.  Refines the grid a few times before
    giving up.  `table` is the float table of `rep` and `pad` its `float_pad`, so
    that `extract_drawing` converts the triangles once for all vertices.
    """
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
    raise DrawingError(f"no free interior point in triangle of vertex {u} (representation invalid)")


def _midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) / 2, (a.y + b.y) / 2)


def _route(pu: Point, c: Point, pv: Point) -> list[Point]:
    return [pu, _midpoint(pu, c), c, _midpoint(c, pv), pv]


def _err(size: float, delta: float) -> float:
    """Bound on the error of a float cross or dot product of two difference
    vectors whose float components sum in magnitude to `size`, given each
    component within `delta` of the exact one (derived in
    `_meet_only_at_shared_end`)."""
    return 2.0 * (delta * size + 2.0 * delta * delta + ROUNDOFF * size * size) + TINY


def _far_apart(a: Point, b: Point, c: Point, d: Point, fl: dict, delta: float) -> bool:
    """Conservative float screen: True only if the segments certainly miss,
    because both ends of one lie strictly on one side of the other's line
    (each orientation beyond its error bound `_err`)."""
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


def _meet_only_at_shared_end(a: Point, b: Point, c: Point, d: Point,
                             fl: dict, delta: float) -> bool:
    """Float screen for segments ab and cd that share an endpoint object o:
    True only if they certainly meet in o alone.

    With p and q their other ends, the segments meet elsewhere only if p - o
    and q - o are parallel and point the same way, so the pair is settled
    when the float cross product of P = p - o and Q = q - o is clearly
    nonzero or their dot product is clearly negative.

    Error bound.  Let u = 2^-53 and M bound every coordinate (the largest
    float magnitude over all points of the scan will do, up to a factor
    1 + 2u).  Converting a coordinate z to a float errs by at most u|z| <= uM
    (underflow adds at most 2^-1075).  So a component P~ = fl(p~ - o~) of the
    float difference differs from the exact P by at most 2uM for the two
    conversions plus u|p~ - o~| <= 2uM(1 + u) for the subtraction: at most
    `delta` = 5uM (+ a tiny absolute term for underflow).  For one product,
    |P~x Q~y - Px Qy| <= |P~x| delta + |Qy| delta <= delta (|P~x| + |Q~y|)
    + delta^2, so with S = |P~x| + |P~y| + |Q~x| + |Q~y| the inputs move the
    cross or dot product by at most delta S + 2 delta^2; the product of two
    conversion errors gives the additive term, of order u^2 M^2.  The two
    product roundings and the final add or subtract cost at most
    (2u + u^2)(|P~x Q~y| + |P~y Q~x|) <= u S^2.  Doubling the sum,
    E = 2 (delta S + 2 delta^2 + u S^2) + TINY also covers the rounding of E
    itself and every underflow, so |cross~| > E proves the exact cross
    product nonzero and dot~ < -E proves the exact dot product negative.
    Legs shorter than a few dozen u M (about 1e-14 at M = 3), or nearly
    parallel ones, leave |cross~| under E, and the pair goes to the exact
    test.
    """
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


def _violations(polylines: Sequence[tuple[int, int, list[Point]]]) -> list[tuple[int, int]]:
    """All forbidden meetings between polyline segments, as (pid, qid) pairs.

    Allowed: consecutive segments of one polyline sharing their joint, and
    two routes of edges sharing a vertex meeting exactly at that vertex's
    point.  Everything else (proper crossings, touches, collinear overlaps)
    is a violation.  Conservative float screens skip pairs that certainly
    miss and settle pairs that certainly meet only at a shared endpoint
    (`_meet_only_at_shared_end`, not applied to two non-consecutive segments
    of one polyline); the rest is decided exactly.
    """
    segs = []
    fl: dict[int, tuple[float, float]] = {}
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

    out: list[tuple[int, int]] = []
    active: list[int] = []
    for idx in order:
        pid, k, a, b, u, v = segs[idx]
        active = [j for j in active if xhi[j] >= xlo[idx] - pad]
        for j in active:
            qid, l, c, d, u2, v2 = segs[j]
            if ylo[idx] > yhi[j] + pad or ylo[j] > yhi[idx] + pad:
                continue
            if ((pid != qid or abs(k - l) == 1)
                    and _meet_only_at_shared_end(a, b, c, d, fl, delta)):
                kind = "endpoint"
            elif _far_apart(a, b, c, d, fl, delta):
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


def count_crossings(polylines: Sequence[tuple[int, int, list[Point]]]) -> int:
    """Exact number of forbidden meetings between polylines."""
    return len(_violations(polylines))


def _bend_anchors(rep: Representation, v: int, pv: Point) -> list[Point]:
    """Interior bend targets for legs hosted by t(v), tried in order."""
    t = rep.tri(v)
    q = t.h / 4
    e = t.h / 8
    return [
        Point(t.x + q, t.y + q),
        Point(t.x + e, t.y + e),
        Point(t.x + 3 * e, t.y + e),
        Point(t.x + e, t.y + 3 * e),
        pv,
    ]


_PULLS = (Fraction(1, 2), Fraction(3, 4), Fraction(15, 16))


def extract_drawing(rep: Representation, T: planar.Triangulation,
                    max_reroute_rounds: int = 24) -> Drawing:
    """Planar drawing witness: a free point per vertex, and one 4-segment
    polyline per edge through a point of the pairwise intersection.

    Collisions trigger deterministic per-route repair: each offending route's
    waypoints are pulled (with geometrically deepening weights) toward a
    cycled sequence of interior bend targets of their hosting triangles,
    which steers the legs around overlap regions near foreign contacts.  Only
    routes involved in a violation are modified.  A drawing is returned only
    after an exact scan of all its segments finds no violation, so it is
    crossing-free; exhausting the retries raises.
    """
    table = float_table(rep)
    pad = _table_pad(table)
    adj = T.adjacency()
    contacts: dict[tuple[int, int], Point] = {}
    lenses: dict[tuple[int, int], Tri] = {}
    for u, v in sorted(T.edges):
        ov = intersect(rep.tri(u), rep.tri(v))
        if ov.is_empty:
            raise DrawingError(f"edge ({u},{v}) has disjoint triangles")
        contacts[(u, v)] = ov.right_corner
        if ov.kind == "region":
            lenses[(u, v)] = ov.region

    def targets_for(u: int):
        # contact anchors of u's edges, each paired with the overlap regions
        # of u's other edges (the regions that ray must not pass through)
        out = []
        nbrs = sorted(adj[u])
        for v in nbrs:
            key = (u, v) if u < v else (v, u)
            foreign = [lenses[(u, w) if u < w else (w, u)]
                       for w in nbrs
                       if w != v and ((u, w) if u < w else (w, u)) in lenses]
            out.append((contacts[key], foreign))
        return out

    points = {v: _free_point(rep, v, targets_for(v), table, pad)
              for v in sorted(T.vertices())}
    edge_list = sorted(T.edges)
    base = []
    for u, v in edge_list:
        base.append((u, v, _route(points[u], contacts[(u, v)], points[v])))

    anchors = {v: _bend_anchors(rep, v, points[v]) for v in sorted(T.vertices())}
    repair = [0] * len(base)
    polylines = list(base)
    for _ in range(max_reroute_rounds):
        bad = _violations(polylines)
        if not bad:
            return Drawing(points=points, polylines=polylines)
        for pid in sorted({p for pair in bad for p in pair}):
            repair[pid] += 1
            u, v, _path = base[pid]
            pu, m1_0, c, m2_0, pv = base[pid][2]
            step = repair[pid]
            pull = _PULLS[step % len(_PULLS)]
            au = anchors[u][(step // len(_PULLS)) % len(anchors[u])]
            av = anchors[v][(step // len(_PULLS)) % len(anchors[v])]
            m1 = Point(au.x + (m1_0.x - au.x) * (1 - pull),
                       au.y + (m1_0.y - au.y) * (1 - pull))
            m2 = Point(av.x + (m2_0.x - av.x) * (1 - pull),
                       av.y + (m2_0.y - av.y) * (1 - pull))
            polylines[pid] = (u, v, [pu, m1, c, m2, pv])
    if not _violations(polylines):
        return Drawing(points=points, polylines=polylines)  # pragma: no cover
    raise DrawingError("edge routing collisions persist after re-routing")


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    graph_match: bool
    missing_edges: list
    extra_edges: list
    simple: bool
    offending_triples: list
    boundary_ok: bool
    offending_pairs: list
    corner_ok: bool
    offending_corners: list
    face_condition_ok: bool | None = None
    offending_faces: list = field(default_factory=list)
    drawing_planar: bool | None = None
    crossings: int | None = None
    drawing_note: str | None = None
    drawing: Drawing | None = field(default=None, repr=False)  # not serialized

    @property
    def passed(self) -> bool:
        ok = (self.graph_match and self.simple and self.boundary_ok and self.corner_ok)
        if self.face_condition_ok is not None:
            ok = ok and self.face_condition_ok
        if self.drawing_planar is not None:
            ok = ok and self.drawing_planar
        return ok

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "graph_match": self.graph_match,
            "missing_edges": self.missing_edges,
            "extra_edges": self.extra_edges,
            "simple": self.simple,
            "offending_triples": self.offending_triples,
            "boundary_ok": self.boundary_ok,
            "offending_pairs": self.offending_pairs,
            "corner_ok": self.corner_ok,
            "offending_corners": self.offending_corners,
            "face_condition_ok": self.face_condition_ok,
            "offending_faces": self.offending_faces,
            "drawing_planar": self.drawing_planar,
            "crossings": self.crossings,
            "drawing_note": self.drawing_note,
        }


def full_report(rep: Representation, T: planar.Triangulation,
                epsilon: Fraction | None = None, audit: bool = False,
                with_faces: bool = True, with_drawing: bool = False) -> VerificationReport:
    """Aggregate certification: graph equality, simpleness, boundary budget,
    corner condition, optionally the face-gap condition and a drawing (kept
    on the report as `drawing`)."""
    found = intersection_graph(rep)
    want = {tuple(sorted(e)) for e in T.edges}
    missing = sorted(want - found)
    extra = sorted(found - want)

    simple, triples = check_simple(rep, found, audit=audit)
    boundary_ok, bad_pairs, corner_ok, bad_corners = check_boundary(rep, epsilon)

    report = VerificationReport(
        graph_match=(not missing and not extra),
        missing_edges=[list(e) for e in missing],
        extra_edges=[list(e) for e in extra],
        simple=simple,
        offending_triples=[list(t) for t in triples],
        boundary_ok=boundary_ok,
        offending_pairs=[list(p) for p in bad_pairs],
        corner_ok=corner_ok,
        offending_corners=[list(c) for c in bad_corners],
    )
    if with_faces:
        if report.graph_match and report.simple:
            ok, fails = check_face_condition(rep, T)
            report.face_condition_ok = ok
            report.offending_faces = [list(f) for f, _ in fails] if fails else []
        else:
            report.face_condition_ok = False
            report.offending_faces = [["skipped: graph or simpleness failed"]]
    if with_drawing:
        if report.graph_match and report.simple:
            try:
                report.drawing = extract_drawing(rep, T)
            except DrawingError as e:
                report.drawing_planar = False
                report.drawing_note = str(e)
            else:
                # extract_drawing returns only drawings its final exact scan
                # found crossing-free
                report.drawing_planar = True
                report.crossings = 0
        else:
            report.drawing_planar = False
            report.drawing_note = "skipped: graph or simpleness failed"
    return report
