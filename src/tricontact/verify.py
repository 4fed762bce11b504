"""Independent certification of a representation.

Rebuilds the intersection graph, checks that no point lies in three
triangles, checks the boundary-overlap budget and corner condition, checks
the per-face gap condition, and realizes a planar drawing with an exact
crossing count.  Everything is decided with rational predicates.  Floats
serve as conservative prefilters whose misses fall back to exact tests, and
they rank the candidate points of the drawing's vertices; each winner is
re-checked exactly.  The float work runs as numpy array kernels, once per
representation: one sort-and-sweep over boxes (`_box_pairs`) gives the
near pairs of every check, and the screens run over blocks of pairs.
The module imports nothing from the constructor modules (`solver`,
`perturb`, `assemble`); the face check is written here, but the gap
candidates it tests come from `geometry.gap_candidates`, which the
constructor uses too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Collection, Sequence

import numpy as np

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

def float_table(rep: Representation) -> tuple[list[int], np.ndarray, float]:
    """The vertices of `rep`, their triangles' rows (x, y, s, x + h, y + h)
    of nearest doubles, and the `float_pad` of linear screens over them (the
    quadratic cross and dot products have their own bound, `_err`)."""
    table = np.array([(float(t.x), float(t.y), float(t.s), float(t.x + t.h), float(t.y + t.h))
                      for t in rep.triangles.values()], dtype=float).reshape(-1, 5)
    return list(rep.triangles), table, float_pad(float(np.abs(table).max(initial=0.0)))


# Most pairs in one block of a kernel, so that its temporaries stay small
BLOCK = 1 << 11


def _box_pairs(boxes: np.ndarray, pad: float):
    """Every pair of `boxes`, rows (xlo, xhi, ylo, yhi), that meet when
    widened by `pad`, as blocks of two index arrays (i, j), with i before j
    in the boxes' stable order by xlo.

    For each box, `searchsorted` finds the run of later boxes with
    xlo - pad <= its xhi; a vectorised test keeps the pairs with
    ylo[j] <= yhi[i] + pad and ylo[i] <= yhi[j] + pad (each rounded as
    written).  A block holds the runs of consecutive boxes up to `BLOCK`
    pairs in all, or one box's run if that is longer.
    """
    order = np.argsort(boxes[:, 0], kind="stable")
    xlo, xhi, ylo, yhi = boxes[order].T
    n = len(order)
    runs = np.searchsorted(xlo - pad, xhi, side="right") - np.arange(1, n + 1)
    starts = np.concatenate(([0], np.cumsum(runs)))
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(starts, starts[a] + BLOCK, side="right")) - 1)
        i = np.repeat(np.arange(a, b), runs[a:b])
        j = i + 1 + np.arange(starts[b] - starts[a]) - np.repeat(starts[a:b] - starts[a], runs[a:b])
        keep = (ylo[j] <= yhi[i] + pad) & (ylo[i] <= yhi[j] + pad)
        yield order[i[keep]], order[j[keep]]
        a = b


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


def _face_fault(rep: Representation, ids: tuple[int, int, int], cands: list[NegTri],
                fc: list[tuple[float, float, float]], near: list[tuple[int, list[float]]],
                pad: float) -> str | None:
    """Why the face `ids` fails the gap condition, or None if it passes.

    A gap candidate is a negative homothet bounded by one side line of each
    face triangle (`gap_candidates`); it is valid when its interior meets no
    other triangle.  The face passes iff exactly one candidate is valid and
    every triangle outside the face that meets one of the gap's three strips
    (the positive homothets of the gap's height mirrored across its sides)
    stays strictly off that side's line, so that a probe of positive height
    fits against every gap side.  `fc` holds the candidates' (X, Y, H) in
    floats, `near` the triangles outside the face near its query box.
    """
    if not cands:
        return f"no gap candidate for face {list(ids)}"

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

    One `_box_pairs` sweep over the triangles' boxes and the faces' query
    boxes gives each face the triangles near it.  Float screens, padded by
    `float_pad`, only skip triangles that certainly miss a gap or strip;
    every other triangle is tested exactly.  Every gap coordinate (X, Y,
    X - H, Y - H, X + Y - H) is a side of a face triangle, so the table's
    largest magnitude bounds them too, and H is at most twice it.
    """
    ids, table, pad = float_table(rep)
    rows = table.tolist()
    faces = [tuple(sorted(f)) for f in T.inner_faces]
    cands = [[g for g, _roles in gap_candidates([rep.tri(v) for v in f])] for f in faces]
    fcs = [[(float(g.x), float(g.y), float(g.h)) for g in c] for c in cands]
    queried = np.array([k for k, c in enumerate(cands) if c], dtype=np.intp)
    # the candidate gaps and their strips lie in [X - H, X + H] x [Y - H, Y + H]
    # for their (X, Y, H): the union of these boxes, widened by `pad`
    boxes = np.array([(min(x - h for x, _y, h in fc) - pad, max(x + h for x, _y, h in fc) + pad,
                       min(y - h for _x, y, h in fc) - pad, max(y + h for _x, y, h in fc) + pad)
                      for fc in fcs if fc]).reshape(-1, 4)
    n = len(ids)
    fq, rq = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]  # (face, row) pairs
    for i, j in _box_pairs(np.vstack((table[:, [0, 3, 1, 4]], boxes)), 0.0):
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        keep = (lo < n) & (hi >= n)
        fq.append(queried[hi[keep] - n])
        rq.append(lo[keep])
    fq, rq = np.concatenate(fq), np.concatenate(rq)
    order = np.lexsort((rq, fq))
    fq, rq = fq[order], rq[order].tolist()
    cut = np.searchsorted(fq, np.arange(len(faces) + 1)).tolist()
    failures = []
    for k, f in enumerate(faces):
        near = [(ids[r], rows[r]) for r in rq[cut[k]:cut[k + 1]] if ids[r] not in f]
        why = _face_fault(rep, f, cands[k], fcs[k], near, pad)
        if why is not None:
            failures.append((f, why))
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


def _clip_hits(ax, ay, bx, by, rx, ry, rs) -> np.ndarray:
    """Float clip of segments AB against positive-homothet regions (rx, ry,
    rs), elementwise: True iff some parameter interval of AB lies inside all
    three half-planes."""
    t0, t1, ok = 0.0, 1.0, True
    for p, q in ((ax - rx, bx - ax), (ay - ry, by - ay),
                 (rs - ax - ay, -(bx - ax) - (by - ay))):
        # constraint p + t*q >= 0; where q = 0, -p/q is masked out
        with np.errstate(divide="ignore", invalid="ignore"):
            r = -p / q
        ok = ok & ((q != 0.0) | (p >= 0.0))
        t0 = np.where(q > 0.0, np.maximum(t0, r), t0)
        t1 = np.where(q < 0.0, np.minimum(t1, r), t1)
    return ok & (t0 <= t1)


def _free_points(rep: Representation, nbrs: dict[int, Collection[int]],
                 contacts: dict[tuple[int, int], Point],
                 lenses: dict[tuple[int, int], Tri]) -> dict[int, Point]:
    """For each vertex u of `nbrs`, a point of t(u) covered by no other
    triangle, chosen from an interior grid; each winner's non-membership in
    every other triangle is verified exactly.

    The candidates are ranked first by how many straight rays, from the
    candidate to the contact anchors of u's edges, pass through the overlap
    regions (lenses) of u's other edges (this keeps edge routes out of lenses
    they do not own), then by clearance: the min, over the triangles whose
    boxes meet t(u)'s padded by `float_pad`, of how far the candidate lies
    outside each.  Each grid is scored for every pending vertex at once, in
    blocks; a vertex whose 16 best candidates all fail moves on to the next,
    finer grid.
    """
    ids, table, pad = float_table(rep)
    row = {v: r for r, v in enumerate(ids)}
    hf = np.array([float(t.h) for t in rep.triangles.values()])
    # directed pairs (u, v) with v's box within `pad` of u's box; the sweep's
    # 2 * pad covers this test in both directions despite their roundings
    nu: list[int] = []
    nv: list[int] = []
    for i, j in _box_pairs(table[:, [0, 3, 1, 4]], 2 * pad):
        for u, v in ((i, j), (j, i)):
            keep = ~((table[v, 3] < table[u, 0] - pad) | (table[v, 0] > table[u, 3] + pad)
                     | (table[v, 4] < table[u, 1] - pad) | (table[v, 1] > table[u, 4] + pad))
            nu += u[keep].tolist()
            nv += v[keep].tolist()
    near: dict[int, list[Tri]] = {v: [] for v in ids}
    for u, v in zip(nu, nv):
        near[ids[u]].append(rep.tri(ids[v]))
    nu_a, nv_a = np.array(nu, dtype=np.intp), np.array(nv, dtype=np.intp)
    # a ray runs from a candidate of u to the contact of one of u's edges; its
    # regions are the lenses of u's other edges; each is converted once
    cf = {e: (float(c.x), float(c.y)) for e, c in contacts.items()}
    lf = {e: (float(t.x), float(t.y), float(t.s)) for e, t in lenses.items()}
    ray_row: list[int] = []  # per ray: the row of u
    pair_ray, pair_geo = [], []  # per (ray, region): the ray, target (x, y) + region (x, y, s)
    for u in sorted(nbrs):
        nb = sorted(nbrs[u])
        lensed = [(w, lf[e]) for w in nb if (e := (min(u, w), max(u, w))) in lf]
        for v in nb:
            g = cf[(min(u, v), max(u, v))]
            geo_v = [g + r for w, r in lensed if w != v]
            pair_ray += [len(ray_row)] * len(geo_v)
            pair_geo += geo_v
            ray_row.append(row[u])
    pair_ray_a = np.array(pair_ray, dtype=np.intp)
    pair_row = np.array(ray_row, dtype=np.intp)[pair_ray_a]
    geo = np.array(pair_geo, dtype=float).reshape(-1, 5)

    points: dict[int, Point] = {}
    pending = sorted(nbrs)
    for denom in (8, 16, 32, 64):
        if not pending:
            break
        grid = [(i, j) for i in range(1, denom - 1) for j in range(1, denom - i)]
        I, J = np.array(grid).T
        rows = np.array([row[u] for u in pending], dtype=np.intp)
        slot = np.full(len(ids), -1, dtype=np.intp)
        slot[rows] = np.arange(len(rows))
        pa = table[rows, 0][:, None] + hf[rows][:, None] * I / denom
        pb = table[rows, 1][:, None] + hf[rows][:, None] * J / denom
        step = max(1, BLOCK // len(I))
        clear = np.where(np.bincount(nu_a, minlength=len(ids))[rows, None] > 0, np.inf,
                         np.ones_like(pa))
        sel = np.flatnonzero(slot[nu_a] >= 0)
        for k in range(0, len(sel), step):
            s, t = slot[nu_a[sel[k:k + step]]], table[nv_a[sel[k:k + step]]]
            np.minimum.at(clear, s, np.maximum(
                np.maximum(t[:, 0, None] - pa[s], t[:, 1, None] - pb[s]),
                pa[s] + pb[s] - t[:, 2, None]))
        sel = np.flatnonzero(slot[pair_row] >= 0)
        first = np.diff(pair_ray_a[sel], prepend=-1) != 0  # pairs come sorted by ray
        local = np.cumsum(first) - 1
        hit = np.zeros((int(first.sum()), len(I)), dtype=bool)
        for k in range(0, len(sel), step):
            s, t = slot[pair_row[sel[k:k + step]]], geo[sel[k:k + step]]
            np.logical_or.at(hit, local[k:k + step], _clip_hits(
                pa[s], pb[s], t[:, 0, None], t[:, 1, None], t[:, 2, None], t[:, 3, None],
                t[:, 4, None]))
        blocked = np.zeros(pa.shape, dtype=np.intp)
        np.add.at(blocked, slot[pair_row[sel[first]]], hit)
        ranked = np.lexsort((np.broadcast_to(J, pa.shape), np.broadcast_to(I, pa.shape),
                             -clear, blocked))[:, :16]
        still = []
        for u, best in zip(pending, ranked.tolist()):
            tu = rep.tri(u)
            for k in best:
                i, j = grid[k]
                p = Point(tu.x + tu.h * Fraction(i, denom), tu.y + tu.h * Fraction(j, denom))
                if not any(t.contains(p) for t in near[u]):
                    points[u] = p
                    break
            else:
                still.append(u)
        pending = still
    if pending:
        raise DrawingError(f"no free interior point in triangle of vertex {pending[0]} "
                           "(representation invalid)")
    return {u: points[u] for u in sorted(nbrs)}


def _midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) / 2, (a.y + b.y) / 2)


def _route(pu: Point, c: Point, pv: Point) -> list[Point]:
    return [pu, _midpoint(pu, c), c, _midpoint(c, pv), pv]


def _err(size: np.ndarray | float, delta: float) -> np.ndarray | float:
    """Bound on the error of a float cross or dot product of two difference
    vectors whose float components sum in magnitude to `size`, given each
    component within `delta` of the exact one (derived in
    `_meet_only_at_shared_end`)."""
    return 2.0 * (delta * size + 2.0 * delta * delta + ROUNDOFF * size * size) + TINY


def _far_apart(X: np.ndarray, Y: np.ndarray, a, b, c, d, delta: float) -> np.ndarray:
    """Conservative float screen over segment pairs (ab, cd), given as point
    rows into the coordinates X, Y: True only where the segments certainly
    miss, because both ends of one lie strictly on one side of the other's
    line (each orientation beyond its error bound `_err`)."""
    def one_side(a, b, c, d):
        abx, aby = X[b] - X[a], Y[b] - Y[a]
        acx, acy, adx, ady = X[c] - X[a], Y[c] - Y[a], X[d] - X[a], Y[d] - Y[a]
        o1 = abx * acy - aby * acx
        o2 = abx * ady - aby * adx
        ab = abs(abx) + abs(aby)
        e1 = _err(ab + abs(acx) + abs(acy), delta)
        e2 = _err(ab + abs(adx) + abs(ady), delta)
        return ((o1 > e1) & (o2 > e2)) | ((o1 < -e1) & (o2 < -e2))
    return one_side(a, b, c, d) | one_side(c, d, a, b)


def _meet_only_at_shared_end(X: np.ndarray, Y: np.ndarray, a, b, c, d, delta: float
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Float screen over segment pairs (ab, cd), given as point rows into
    the coordinates X, Y: (True where the segments share an endpoint row o
    and certainly meet in o alone, o).

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
    at_a = (a == c) | (a == d)
    o, p = np.where(at_a, a, b), np.where(at_a, b, a)
    q = np.where(o == c, d, c)
    px, py, qx, qy = X[p] - X[o], Y[p] - Y[o], X[q] - X[o], Y[q] - Y[o]
    err = _err(abs(px) + abs(py) + abs(qx) + abs(qy), delta)
    met = (abs(px * qy - py * qx) > err) | (px * qx + py * qy < -err)
    return (at_a | (b == c) | (b == d)) & met, o


def _exact_violation(polylines: Sequence[tuple[int, int, list[Point]]],
                     pid: int, k: int, qid: int, l: int) -> bool:
    """Whether leg k of polyline pid and leg l of polyline qid meet in a
    forbidden way, decided exactly."""
    u, v, path1 = polylines[pid]
    u2, v2, path2 = polylines[qid]
    a, b, c, d = path1[k], path1[k + 1], path2[l], path2[l + 1]
    kind = segment_intersection_kind(a, b, c, d)
    if pid == qid:
        return kind == "cross" if abs(k - l) == 1 else kind != "none"
    if kind != "endpoint":
        return kind != "none"
    common = None
    for p in (a, b):
        if p == c or p == d:
            common = p
    if common is not None:
        for x in {u, v} & {u2, v2}:
            terminal1 = path1[0] if u == x else path1[-1]
            terminal2 = path2[0] if u2 == x else path2[-1]
            if common == terminal1 == terminal2:
                return False
    return True


def _violations(polylines: Sequence[tuple[int, int, list[Point]]]) -> list[tuple[int, int]]:
    """All forbidden meetings between polyline segments, as (pid, qid) pairs.

    Allowed: consecutive segments of one polyline sharing their joint, and
    two routes of edges sharing a vertex meeting exactly at that vertex's
    point.  Everything else (proper crossings, touches, collinear overlaps)
    is a violation.  The candidate pairs come from one `_box_pairs` sweep
    over the segments' boxes.  Conservative float screens, over each block
    of pairs at once, skip pairs that certainly miss and settle pairs that
    certainly meet only at a shared endpoint object (`_meet_only_at_shared_end`,
    not applied to two non-consecutive segments of one polyline); such a
    meeting of two routes is allowed iff that object is both routes'
    terminal at a common vertex.  The rest is decided exactly
    (`_exact_violation`).  Each pair is (later, earlier) in the sweep's order
    of the segments, and the list is sorted.
    """
    row: dict[int, int] = {}  # id of a Point object -> its row in xy
    xy: list[float] = []  # x, y of each row
    segs: list[int] = []  # polyline, leg, start row, end row of each segment
    for pid, (_u, _v, path) in enumerate(polylines):
        for p in path:
            if id(p) not in row:
                row[id(p)] = len(xy) // 2
                xy += (float(p.x), float(p.y))
        for k in range(len(path) - 1):
            segs += (pid, k, row[id(path[k])], row[id(path[k + 1])])
    xy = np.array(xy, dtype=float).reshape(-1, 2)
    X, Y = xy[:, 0], xy[:, 1]
    pid, leg, a, b = np.array(segs, dtype=np.intp).reshape(-1, 4).T
    # per polyline: its vertices and the rows of its first and last point
    ends = np.array([(u, v, row[id(path[0])], row[id(path[-1])]) if path else (u, v, -1, -1)
                     for u, v, path in polylines], dtype=np.intp).reshape(-1, 4)
    m = float(np.abs(xy).max(initial=0.0))
    pad = float_pad(m)
    delta = 5.0 * ROUNDOFF * m + TINY

    out: list[tuple[int, int]] = []
    boxes = np.stack((np.minimum(X[a], X[b]), np.maximum(X[a], X[b]),
                      np.minimum(Y[a], Y[b]), np.maximum(Y[a], Y[b])), axis=1)
    for e, s in _box_pairs(boxes, pad):
        same = pid[s] == pid[e]
        met, o = _meet_only_at_shared_end(X, Y, a[s], b[s], a[e], b[e], delta)
        met &= ~same | (abs(leg[s] - leg[e]) == 1)
        # a shared end of two routes must be the terminal of both at a common vertex
        ps, pe = ends[pid[s]], ends[pid[e]]
        terminal = np.zeros(len(s), dtype=bool)
        for x in (ps[:, 0], ps[:, 1]):
            terminal |= (((x == pe[:, 0]) | (x == pe[:, 1]))
                         & (o == np.where(ps[:, 0] == x, ps[:, 2], ps[:, 3]))
                         & (o == np.where(pe[:, 0] == x, pe[:, 2], pe[:, 3])))
        bad = met & ~same & ~terminal
        out += zip(pid[s[bad]].tolist(), pid[e[bad]].tolist())
        for k in np.flatnonzero(~met & ~_far_apart(X, Y, a[s], b[s], a[e], b[e], delta)):
            p, k1, q, l1 = (int(x) for x in (pid[s[k]], leg[s[k]], pid[e[k]], leg[e[k]]))
            if _exact_violation(polylines, p, k1, q, l1):
                out.append((p, q))
    return sorted(out)


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
    points = _free_points(rep, adj, contacts, lenses)
    edge_list = sorted(T.edges)
    base = []
    for u, v in edge_list:
        base.append((u, v, _route(points[u], contacts[(u, v)], points[v])))

    anchors: dict[int, list[Point]] = {}  # made on first use
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
            for w in (u, v):
                if w not in anchors:
                    anchors[w] = _bend_anchors(rep, w, points[w])
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
