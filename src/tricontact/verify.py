"""Independent certification of a representation.

Rebuilds the intersection graph, checks that no point lies in three
triangles, checks the boundary-overlap budget and corner condition, checks
the per-face gap condition, and realizes a planar drawing with an exact
crossing count.  Everything is decided with rational predicates; floats are
used only as conservative prefilters whose misses fall back to exact tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from tricontact import planar
from tricontact.core import Representation, intersection_graph
from tricontact.geometry import (
    Point,
    Tri,
    common_signed_height,
    frac_str,
    intersect,
    segment_intersection_kind,
    signed_height,
)
from tricontact.perturb import GapError, face_gap


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


def check_face_condition(rep: Representation, T: planar.Triangulation
                         ) -> tuple[bool, list]:
    """Every inner face must have a valid gap with a positive recursion budget."""
    failures = []
    for f in T.inner_faces:
        try:
            _, eps_prime = face_gap(rep, f)
            if eps_prime <= 0:
                failures.append((tuple(sorted(f)), "zero budget"))
        except GapError as e:
            failures.append((tuple(sorted(f)), str(e)))
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


def _near_ids(rep: Representation, u: int) -> list[int]:
    """Triangles whose bounding box meets t(u)'s, padded conservatively."""
    tu = rep.tri(u)
    xlo, ylo, xhi, yhi = (float(tu.x), float(tu.y), float(tu.x + tu.h), float(tu.y + tu.h))
    pad = 1e-9 * (1.0 + max(abs(xlo), abs(ylo), abs(xhi), abs(yhi)))
    out = []
    for v in rep.triangles:
        if v == u:
            continue
        t = rep.tri(v)
        ax, ay, bx, by = (float(t.x), float(t.y), float(t.x + t.h), float(t.y + t.h))
        if bx < xlo - pad or ax > xhi + pad or by < ylo - pad or ay > yhi + pad:
            continue
        out.append(v)
    return out


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


def free_point(rep: Representation, u: int,
               ray_targets: Sequence[tuple[Point, Sequence]] = ()) -> Point:
    """A point of t(u) covered by no other triangle, chosen from an interior
    grid; the winner's non-membership in every other triangle is verified
    exactly.

    With ray_targets = [(target, foreign regions), ...] the candidates are
    ranked first by how many straight rays to the targets pass through the
    paired foreign overlap regions (used to keep edge routes out of lenses
    they do not own), then by clearance.  Refines the grid a few times before
    giving up.
    """
    tu = rep.tri(u)
    near = [rep.tri(v) for v in _near_ids(rep, u)]
    nearf = [(float(t.x), float(t.y), float(t.s)) for t in near]
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


def _contact_anchor(rep: Representation, u: int, v: int) -> Point:
    ov = intersect(rep.tri(u), rep.tri(v))
    if ov.is_empty:
        raise DrawingError(f"edge ({u},{v}) has disjoint triangles")
    return ov.right_corner


def _midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) / 2, (a.y + b.y) / 2)


def _route(pu: Point, c: Point, pv: Point) -> list[Point]:
    return [pu, _midpoint(pu, c), c, _midpoint(c, pv), pv]


def _far_apart(a: Point, b: Point, c: Point, d: Point, fl: dict, tau: float) -> bool:
    """Conservative float screen: True only if the segments certainly miss."""
    ax, ay = fl[id(a)]
    bx, by = fl[id(b)]
    cx, cy = fl[id(c)]
    dx, dy = fl[id(d)]
    abx, aby = bx - ax, by - ay
    o1 = abx * (cy - ay) - aby * (cx - ax)
    o2 = abx * (dy - ay) - aby * (dx - ax)
    if (o1 > tau and o2 > tau) or (o1 < -tau and o2 < -tau):
        return True
    cdx, cdy = dx - cx, dy - cy
    o3 = cdx * (ay - cy) - cdy * (ax - cx)
    o4 = cdx * (by - cy) - cdy * (bx - cx)
    return (o3 > tau and o4 > tau) or (o3 < -tau and o4 < -tau)


def _violations(polylines: Sequence[tuple[int, int, list[Point]]]) -> list[tuple[int, int]]:
    """All forbidden meetings between polyline segments, as (pid, qid) pairs.

    Allowed: consecutive segments of one polyline sharing their joint, and
    two routes of edges sharing a vertex meeting exactly at that vertex's
    point.  Everything else (proper crossings, touches, collinear overlaps)
    is a violation.  A conservative float screen skips pairs that certainly
    miss; survivors are decided exactly.
    """
    segs = []
    fl: dict[int, tuple[float, float]] = {}
    for pid, (u, v, path) in enumerate(polylines):
        for p in path:
            fl[id(p)] = (float(p.x), float(p.y))
        for k in range(len(path) - 1):
            segs.append((pid, k, path[k], path[k + 1], u, v))
    order = sorted(range(len(segs)),
                   key=lambda i: min(float(segs[i][2].x), float(segs[i][3].x)))
    xhi = [max(float(s[2].x), float(s[3].x)) for s in segs]
    ylo = [min(float(s[2].y), float(s[3].y)) for s in segs]
    yhi = [max(float(s[2].y), float(s[3].y)) for s in segs]
    scale = 1.0 + max((abs(x) for x in xhi), default=1.0)
    pad = 1e-9 * scale
    tau = 1e-9 * scale * scale

    out: list[tuple[int, int]] = []
    active: list[int] = []
    for idx in order:
        pid, k, a, b, u, v = segs[idx]
        x_lo_i = min(float(a.x), float(b.x))
        active = [j for j in active if xhi[j] >= x_lo_i - pad]
        for j in active:
            qid, l, c, d, u2, v2 = segs[j]
            if ylo[idx] > yhi[j] + pad or ylo[j] > yhi[idx] + pad:
                continue
            if _far_apart(a, b, c, d, fl, tau):
                continue
            if pid == qid:
                if abs(k - l) == 1:
                    if segment_intersection_kind(a, b, c, d) == "cross":
                        out.append((pid, qid))
                    continue
                if segment_intersection_kind(a, b, c, d) != "none":
                    out.append((pid, qid))
                continue
            kind = segment_intersection_kind(a, b, c, d)
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

    points = {v: free_point(rep, v, ray_targets=targets_for(v))
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
