"""Independent certification of a representation.

Rebuilds the intersection graph, checks that no point lies in three
triangles, checks the boundary-overlap budget and corner condition, checks
the per-face gap condition, and realizes a planar drawing with an exact
crossing count.  Everything is decided exactly, in one integer frame: the
representation times S (`Representation.scaled`, built once), where
`geometry`'s predicates run on Python ints.  Only what leaves the verifier
is mapped back to `Fraction`s over S: offending heights and corners, and the
drawing's points when they are serialized or read.  Floats serve as
conservative prefilters whose misses fall back to exact tests, and they
rank the candidate points of the drawing's vertices; each winner is
re-checked exactly.  A float is n / S for a frame integer n, which Python
rounds correctly, so it is the nearest double to the rational coordinate.
The float work runs as numpy array kernels over one float table per
representation (`Representation.float_table`), which the intersection
graph, the face check and the drawing share: one sort-and-sweep over boxes
(`_box_pairs`) gives the near pairs of every check, the face check screens
all its (face, near triangle) pairs in one kernel per phase, and the other
screens run over blocks of a bounded number of kept pairs.
The module imports nothing from the constructor modules (`solver`,
`perturb`, `assemble`), and the intersection graph is built here alone:
the constructor never builds one.  The face check is written here, but
the gap candidates it tests come from `geometry.gap_candidates`, which
the constructor uses too.  Simpleness has one scan, over the triangles of
the intersection graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Collection, Sequence

import numpy as np

from tricontact import planar
from tricontact.core import ROUNDOFF, TINY, Representation, float_pad
from tricontact.geometry import (
    NegTri,
    Point,
    Tri,
    common_signed_height,
    frac,
    frac_str,
    gap_candidates,
    intersect,
    neg_interior_hits,
    segment_intersection_kind,
    signed_height,
)

# Most kept pairs in a kernel's block, and most x-run pairs y-tested at once
BLOCK = 1 << 11
RUN_PAIRS = 4 * BLOCK


def _box_pairs(boxes: np.ndarray, pad: float):
    """Every pair of `boxes`, rows (xlo, xhi, ylo, yhi), that meet when
    widened by `pad`, as blocks of two index arrays (i, j), with i before j
    in the boxes' stable order by xlo.

    For each box, `searchsorted` finds the run of later boxes with
    xlo - pad <= its xhi.  The runs of consecutive boxes, up to `RUN_PAIRS`
    pairs at once or one box's run if that is longer, go through a
    vectorised test that keeps the pairs with ylo[j] <= yhi[i] + pad and
    ylo[i] <= yhi[j] + pad (each rounded as written).  The kept pairs are
    yielded in order, in blocks of `BLOCK` pairs; only the last may hold fewer.
    """
    order = np.argsort(boxes[:, 0], kind="stable")
    xlo, xhi, ylo, yhi = boxes[order].T
    n = len(order)
    runs = np.searchsorted(xlo - pad, xhi, side="right") - np.arange(1, n + 1)
    starts = np.concatenate(([0], np.cumsum(runs)))
    ki = kj = np.empty(0, dtype=np.intp)
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(starts, starts[a] + RUN_PAIRS, side="right")) - 1)
        i = np.repeat(np.arange(a, b), runs[a:b])
        j = i + 1 + np.arange(starts[b] - starts[a]) - np.repeat(starts[a:b] - starts[a], runs[a:b])
        keep = (ylo[j] <= yhi[i] + pad) & (ylo[i] <= yhi[j] + pad)
        ki, kj = np.concatenate((ki, order[i[keep]])), np.concatenate((kj, order[j[keep]]))
        a = b
        while len(ki) >= BLOCK or (a == n and len(ki)):
            yield ki[:BLOCK], kj[:BLOCK]
            ki, kj = ki[BLOCK:], kj[BLOCK:]


def intersection_graph(rep: Representation) -> set[tuple[int, int]]:
    """Edge uv (u < v) iff the triangles of u and v intersect (signed height >= 0).

    One `_box_pairs` sweep over the boxes (x, s - y, y, s - x), padded by
    `float_pad` (each side is within 2^-51 m of its exact value, for m the
    largest magnitude), gives the candidate pairs.  Over each block, the
    float signed height min(s) - max(x) - max(y) drops the pairs below
    -pad, which certainly miss; every other pair is settled exactly.
    """
    ids, table, _pad = rep.float_table
    tris = list(rep.scaled[1].values())
    x, y, s = table[:, :3].T
    pad = float_pad(float(np.abs(table[:, :3]).max(initial=0.0)))
    out = set()
    for i, j in _box_pairs(np.stack((x, s - y, y, s - x), axis=1), pad):
        near = np.minimum(s[i], s[j]) - np.maximum(x[i], x[j]) - np.maximum(y[i], y[j]) >= -pad
        for a, b in zip(i[near].tolist(), j[near].tolist()):
            if signed_height(tris[a], tris[b]) >= 0:
                out.add((ids[a], ids[b]) if ids[a] < ids[b] else (ids[b], ids[a]))
    return out


class DrawingError(RuntimeError):
    """No valid vertex point or edge routing could be constructed."""


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

def check_simple(rep: Representation, edges: set[tuple[int, int]]
                 ) -> tuple[bool, list[tuple[int, int, int]]]:
    """No three triangles may share a point.

    Scans the triangles of `rep`'s intersection graph `edges`: a triple with
    a disjoint pair has an empty common intersection.
    """
    tris = rep.scaled[1]
    offending = [(a, b, c) for a, b, c in planar.triangles_of(planar.adjacency_of(tris, edges))
                 if common_signed_height([tris[a], tris[b], tris[c]]) >= 0]
    return (not offending), offending


def check_boundary(rep: Representation, epsilon: Fraction | None = None
                   ) -> tuple[bool, list, bool, list]:
    """Boundary condition: every inner triangle intersecting a boundary
    triangle does so in a point or a region of height < epsilon, and no
    boundary corner lies in an inner triangle.

    Returns (boundary_ok, offending pairs with heights, corner_ok, offenders).
    A height h in the frame fails iff h >= eps * S, that is iff h is at least
    the ceiling of eps * S.  A nonpositive budget raises ValueError.
    """
    eps = frac(rep.epsilon if epsilon is None else epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    S, tris = rep.scaled
    least = -(-eps.numerator * S // eps.denominator)
    inner = rep.inner_ids()
    bad_pairs = []
    for o in rep.outer:
        to = tris[o]
        for v in inner:
            s = signed_height(tris[v], to)
            if s >= least:
                bad_pairs.append((v, o, frac_str(Fraction(s, S))))
    bad_corners = []
    for o in rep.outer:
        for corner in tris[o].corners:
            for v in inner:
                if tris[v].contains(corner):
                    bad_corners.append((o, (frac_str(Fraction(corner.x, S)),
                                            frac_str(Fraction(corner.y, S))), v))
    return (not bad_pairs), bad_pairs, (not bad_corners), bad_corners


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices starts[k], ..., starts[k] + counts[k] - 1 for each k in
    turn, as one array."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def check_face_condition(rep: Representation, T: planar.Triangulation) -> tuple[bool, list]:
    """Every inner face must have exactly one valid gap that no other
    triangle reaches; returns (ok, [(face, reason)]) in `T`'s face order.

    A gap candidate is a negative homothet bounded by one side line of each
    face triangle (`gap_candidates`); it is valid when its interior meets no
    other triangle.  The face passes iff exactly one candidate is valid and
    every triangle outside the face that meets one of the gap's three strips
    (the positive homothets of the gap's height mirrored across its sides)
    stays strictly off that side's line, so that a probe of positive height
    fits against every gap side.

    One `_box_pairs` sweep over the triangles' boxes and the faces' query
    boxes gives the (face, near triangle) pairs.  Two array kernels screen
    them, padded by `float_pad`: every (candidate, near) pair for meeting
    interiors, then every (face, near) pair of a face with one valid gap
    against the gap's strips.  Pairs a screen cannot skip are tested
    exactly, the strip pairs by strip (hypotenuse, vertical, horizontal
    side), then near triangle, so a failing face names its first offender.
    Every gap coordinate (X, Y, X - H, Y - H, X + Y - H) is a side of a face
    triangle, so the table's largest magnitude bounds them too, and H is at
    most twice it.
    """
    ids, table, pad = rep.float_table
    S, tris = rep.scaled
    rows = list(tris.values())
    row = {v: r for r, v in enumerate(ids)}
    faces = [tuple(sorted(f)) for f in T.inner_faces]
    cands = [[g for g, _roles in gap_candidates([tris[v] for v in f])] for f in faces]
    gaps = [g for c in cands for g in c]
    ncand = np.array([len(c) for c in cands], dtype=np.intp)
    gface = np.repeat(np.arange(len(faces)), ncand)  # the face of each candidate
    gx, gy, gh = np.array([(g.x / S, g.y / S, g.h / S) for g in gaps],
                          dtype=float).reshape(-1, 3).T
    level = gx + gy - gh
    # the candidate gaps and their strips lie in [X - H, X + H] x [Y - H, Y + H]
    # for their (X, Y, H): the union of these boxes, widened by `pad`
    queried = np.flatnonzero(ncand)
    first = (np.cumsum(ncand) - ncand)[queried]
    boxes = np.stack((np.minimum.reduceat(gx - gh, first) - pad,
                      np.maximum.reduceat(gx + gh, first) + pad,
                      np.minimum.reduceat(gy - gh, first) - pad,
                      np.maximum.reduceat(gy + gh, first) + pad), axis=1)
    n = len(ids)
    fq, rq = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]  # (face, row) pairs
    for i, j in _box_pairs(np.vstack((table[:, [0, 3, 1, 4]], boxes)), 0.0):
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        keep = (lo < n) & (hi >= n)
        fq.append(queried[hi[keep] - n])
        rq.append(lo[keep])
    fq, rq = np.concatenate(fq), np.concatenate(rq)
    own = np.array([[row[v] for v in f] for f in faces], dtype=np.intp).reshape(-1, 3)[fq]
    keep = (rq != own[:, 0]) & (rq != own[:, 1]) & (rq != own[:, 2])
    fq, rq = fq[keep], rq[keep]
    order = np.lexsort((rq, fq))
    fq, rq = fq[order], rq[order]
    cut = np.searchsorted(fq, np.arange(len(faces) + 1))
    x, y, s = table[:, 0], table[:, 1], table[:, 2]

    # (candidate, near row) pairs: interiors meet only if x < X, y < Y and
    # s > X + Y - H
    nnear = (cut[1:] - cut[:-1])[gface]
    pg = np.repeat(np.arange(len(gaps)), nnear)
    pr = rq[_runs(cut[gface], nnear)]
    maybe = ~((x[pr] > gx[pg] + pad) | (y[pr] > gy[pg] + pad) | (s[pr] < level[pg] - pad))
    blocked = [False] * len(gaps)
    for g, r in zip(pg[maybe].tolist(), pr[maybe].tolist()):
        if not blocked[g] and neg_interior_hits(gaps[g], rows[r]):
            blocked[g] = True
    valid = np.flatnonzero(~np.array(blocked, dtype=bool))
    nvalid = np.bincount(gface[valid], minlength=len(faces))
    why = {k: (f"no gap candidate for face {list(faces[k])}" if not cands[k] else
               f"no valid gap for face {list(faces[k])}" if nvalid[k] == 0 else
               f"gap for face {list(faces[k])} is not unique")
           for k in np.flatnonzero(nvalid != 1).tolist()}

    # (face, near row) pairs of the faces with one valid gap, against the
    # gap's strips: (strip (x, y, s) in floats, how far a triangle (x, y, s)
    # stays beyond the gap side, in floats)
    one = valid[nvalid[gface[valid]] == 1]
    pg, pr = np.repeat(one, nnear[one]), rq[_runs(cut[gface[one]], nnear[one])]
    X, Y, H, L = gx[pg], gy[pg], gh[pg], level[pg]
    x, y, s = x[pr], y[pr], s[pr]
    strips = (((X - H, Y - H, L), L - s), ((X, Y - H, X + Y), x - X), ((X - H, Y, X + Y), y - Y))
    # a pair is skipped when certainly beyond the side, or certainly off the strip
    hits = [np.flatnonzero(~((depth > pad) | (np.minimum(qs, s) - np.maximum(qx, x)
                                              - np.maximum(qy, y) < -pad)))
            for (qx, qy, qs), depth in strips]
    strip = np.repeat(np.arange(3), [len(h) for h in hits])
    hit = np.concatenate(hits)
    order = np.lexsort((hit, strip, pg[hit]))  # by face, strip, near triangle
    sides: dict[int, tuple[Tri, Tri, Tri]] = {}  # the strips of a gap, exactly
    face_of = gface.tolist()
    for g, side, r in zip(pg[hit[order]].tolist(), strip[order].tolist(),
                          pr[hit[order]].tolist()):
        f, gap, t = face_of[g], gaps[g], rows[r]
        if f in why:
            continue
        if g not in sides:
            X, Y, H = gap.x, gap.y, gap.h
            sides[g] = (Tri(X - H, Y - H, H), Tri(X, Y - H, H), Tri(X - H, Y, H))
        depth = gap.hyp_level - t.s if side == 0 else t.x - gap.x if side == 1 else t.y - gap.y
        if signed_height(sides[g][side], t) >= 0 and depth <= 0:
            why[f] = f"triangle {ids[r]} touches a gap side of face {list(faces[f])}"
    failures = [(faces[k], why[k]) for k in sorted(why)]
    return (not failures), failures


# ---------------------------------------------------------------------------
# Drawing extraction
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Drawing:
    """A drawing in a representation's integer frame: point rows (xs[r],
    ys[r]) over its S.  Row r < n is the point of vertices[r]; edge k = (u,
    v) has its contact in row n + k, and routes[k] lists the route's three
    rows (the point of u, the contact, the point of v).
    `points`, `polylines` and `to_json` map the rows back to `Fraction`s over
    S when first read, one `Point` per row, so shared endpoints stay shared.
    """
    S: int
    xs: list[int]
    ys: list[int]
    vertices: list[int]
    edges: list[tuple[int, int]]
    routes: np.ndarray

    @cached_property
    def _back(self) -> list[Point]:
        return [Point(Fraction(x, self.S), Fraction(y, self.S)) for x, y in zip(self.xs, self.ys)]

    @cached_property
    def points(self) -> dict[int, Point]:
        return dict(zip(self.vertices, self._back))

    @cached_property
    def polylines(self) -> list[tuple[int, int, list[Point]]]:
        return [(u, v, [self._back[r] for r in rows])
                for (u, v), rows in zip(self.edges, self.routes.tolist())]

    def to_json(self) -> dict:
        def xy(p: Point) -> list[str]:
            return [frac_str(p.x), frac_str(p.y)]
        return {"points": {str(v): xy(p) for v, p in sorted(self.points.items())},
                "polylines": [{"u": u, "v": v, "path": [xy(p) for p in path]}
                              for u, v, path in self.polylines]}


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


def _free_points(rep: Representation, vertices: Collection[int],
                 contacts: dict[tuple[int, int], Point],
                 lenses: dict[tuple[int, int], Tri]) -> dict[int, Point]:
    """For each vertex u of `vertices`, a point of t(u) covered by no other
    triangle, chosen from an interior grid; each winner's non-membership in
    every other triangle is verified exactly.  The contacts, the lenses and
    the points returned are in `rep`'s integer frame (`Representation.scaled`).

    The candidates are ranked first by how many straight rays, from the
    candidate to the contacts of u's edges (the edges of `contacts`), pass
    through the overlap regions (lenses) of u's other edges (this keeps edge
    routes out of lenses they do not own), then by clearance: the min, over
    the triangles whose boxes meet t(u)'s padded by `float_pad`, of how far
    the candidate lies outside each.  Each grid is scored for every pending
    vertex at once, in blocks, with sorted reductions over (vertex, near
    triangle) and (ray, lens) pairs; a vertex whose 16 best candidates all
    fail moves on to the next, finer grid.
    """
    ids, table, pad = rep.float_table
    S, tris = rep.scaled
    rows = list(tris.values())
    row = {v: r for r, v in enumerate(ids)}
    hf = np.array([t.h / S for t in rows])
    # directed pairs (u, v) with v's box within `pad` of u's box, by u; the
    # sweep's 2 * pad covers this test in both directions despite their roundings
    nu, nv = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for i, j in _box_pairs(table[:, [0, 3, 1, 4]], 2 * pad):
        for u, v in ((i, j), (j, i)):
            keep = ~((table[v, 3] < table[u, 0] - pad) | (table[v, 0] > table[u, 3] + pad)
                     | (table[v, 4] < table[u, 1] - pad) | (table[v, 1] > table[u, 4] + pad))
            nu.append(u[keep])
            nv.append(v[keep])
    nu, nv = np.concatenate(nu), np.concatenate(nv)
    order = np.argsort(nu, kind="stable")
    nu, nv = nu[order], nv[order]
    ncut = np.searchsorted(nu, np.arange(len(ids) + 1)).tolist()
    near = nv.tolist()
    # a ray runs from a candidate of u to the contact of an edge uv; rays come
    # in the order of the directed edges (u, v), and the regions of each are
    # the lenses of u's other edges, in the same order
    edges = np.array(list(contacts), dtype=np.intp).reshape(-1, 2)
    ends = np.concatenate((edges, edges[:, ::-1]))
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    ray_u, ray_edge = ends[order, 0], np.tile(np.arange(len(edges)), 2)[order]
    is_lens = np.array([e in lenses for e in contacts], dtype=bool)
    lensed = np.flatnonzero(is_lens[ray_edge])
    lo, hi = (np.searchsorted(ray_u[lensed], ray_u, side=side) for side in ("left", "right"))
    pair_ray = np.repeat(np.arange(len(ray_u)), hi - lo)
    region = lensed[_runs(lo, hi - lo)]
    keep = region != pair_ray
    pair_ray, region = pair_ray[keep], region[keep]
    pair_row = np.array([row[u] for u in ray_u.tolist()], dtype=np.intp)[pair_ray]
    cf = np.array([(c.x / S, c.y / S) for c in contacts.values()], dtype=float).reshape(-1, 2)
    lf = np.array([(t.x / S, t.y / S, t.s / S) for e in contacts if (t := lenses.get(e))],
                  dtype=float).reshape(-1, 3)
    geo = np.concatenate((cf[ray_edge[pair_ray]],
                          lf[(np.cumsum(is_lens) - 1)[ray_edge[region]]]), axis=1)

    points: dict[int, Point] = {}
    pending = sorted(vertices)
    for denom in (8, 16, 32, 64):
        if not pending:
            break
        grid = [(i, j) for i in range(1, denom - 1) for j in range(1, denom - i)]
        I, J = np.array(grid).T
        prow = np.array([row[u] for u in pending], dtype=np.intp)
        slot = np.full(len(ids), -1, dtype=np.intp)
        slot[prow] = np.arange(len(prow))
        pa = table[prow, 0][:, None] + hf[prow][:, None] * I / denom
        pb = table[prow, 1][:, None] + hf[prow][:, None] * J / denom
        step = max(1, BLOCK // len(I))
        clear = np.where(np.bincount(nu, minlength=len(ids))[prow, None] > 0, np.inf,
                         np.ones_like(pa))
        sel = np.flatnonzero(slot[nu] >= 0)
        for k in range(0, len(sel), step):
            s, t = slot[nu[sel[k:k + step]]], table[nv[sel[k:k + step]]]
            head = np.flatnonzero(np.diff(s, prepend=-1))  # pairs come sorted by u
            clear[s[head]] = np.minimum(clear[s[head]], np.minimum.reduceat(np.maximum(
                np.maximum(t[:, 0, None] - pa[s], t[:, 1, None] - pb[s]),
                pa[s] + pb[s] - t[:, 2, None]), head, axis=0))
        sel = np.flatnonzero(slot[pair_row] >= 0)
        first = np.diff(pair_ray[sel], prepend=-1) != 0  # pairs come sorted by ray
        local = np.cumsum(first) - 1
        hit = np.zeros((int(first.sum()), len(I)), dtype=bool)
        for k in range(0, len(sel), step):
            s, t = slot[pair_row[sel[k:k + step]]], geo[sel[k:k + step]]
            head = np.flatnonzero(first[k:k + step] | (np.arange(len(s)) == 0))
            hit[local[k:k + step][head]] |= np.logical_or.reduceat(_clip_hits(
                pa[s], pb[s], t[:, 0, None], t[:, 1, None], t[:, 2, None], t[:, 3, None],
                t[:, 4, None]), head, axis=0)
        # rays come sorted by u, so by slot
        rslot = slot[pair_row[sel[first]]]
        head = np.flatnonzero(np.diff(rslot, prepend=-1))
        blocked = np.zeros(pa.shape, dtype=np.intp)
        blocked[rslot[head]] = np.add.reduceat(hit, head, axis=0, dtype=np.intp)
        ranked = np.lexsort((np.broadcast_to(J, pa.shape), np.broadcast_to(I, pa.shape),
                             -clear, blocked))[:, :16]
        still = []
        for u, best in zip(pending, ranked.tolist()):
            tu, r = tris[u], row[u]
            for k in best:
                i, j = grid[k]
                p = Point(tu.x + tu.h * i // denom, tu.y + tu.h * j // denom)
                if not any(rows[v].contains(p) for v in near[ncut[r]:ncut[r + 1]]):
                    points[u] = p
                    break
            else:
                still.append(u)
        pending = still
    if pending:
        raise DrawingError(f"no free interior point in triangle of vertex {pending[0]} "
                           "(representation invalid)")
    return {u: points[u] for u in sorted(vertices)}


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


def _exact_violation(pts: Sequence[Point], ends: Sequence[Sequence[int]], p: int, q: int,
                     adjacent: bool, rows: Sequence[int]) -> bool:
    """Whether segments ab of polyline p and cd of polyline q, given as the
    point rows (a, b, c, d) into pts, meet in a forbidden way, decided
    exactly; `adjacent` if they are consecutive legs of one polyline."""
    A, B, C, D = (pts[r] for r in rows)
    kind = segment_intersection_kind(A, B, C, D)
    if p == q:
        return kind == "cross" if adjacent else kind != "none"
    if kind != "endpoint":
        return kind != "none"
    common = next((P for P in (B, A) if P == C or P == D), None)
    if common is not None:
        (u, v, f1, l1), (u2, v2, f2, l2) = ends[p], ends[q]
        for x in {u, v} & {u2, v2}:
            r1, r2 = (f1 if u == x else l1), (f2 if u2 == x else l2)
            if common == pts[r1] == pts[r2]:
                return False
    return True


def _scan(xs: Sequence, ys: Sequence, scale: int, uv: np.ndarray, paths: np.ndarray
          ) -> list[tuple[int, int]]:
    """All forbidden meetings between polylines, as (pid, qid) pairs.

    Polyline pid joins the edge uv[pid] through the point rows paths[pid]
    (padded with -1), row r at (xs[r], ys[r]) / `scale` (S, or 1).
    Allowed: consecutive segments of one polyline sharing their joint, and
    two routes of edges sharing a vertex meeting exactly at that vertex's
    point.  Everything else (proper crossings, touches, collinear overlaps)
    is a violation.  The candidate pairs come from one `_box_pairs` sweep
    over the segments' boxes.  Conservative float screens, over each block
    of pairs at once, skip pairs that certainly miss and settle pairs that
    certainly meet only at a shared endpoint row (`_meet_only_at_shared_end`,
    not applied to two non-consecutive segments of one polyline); such a
    meeting of two routes is allowed iff that row is both routes' terminal
    at a common vertex.  The rest is decided exactly (`_exact_violation`).
    Each pair is (later, earlier) in the sweep's order of the segments, and
    the list is sorted.
    """
    X = np.array([x / scale for x in xs], dtype=float)
    Y = np.array([y / scale for y in ys], dtype=float)
    pid, leg = np.nonzero(paths[:, 1:] >= 0)
    a, b = paths[pid, leg], paths[pid, leg + 1]
    # per polyline: its vertices and the rows of its first and last point
    last = paths[np.arange(len(paths)), np.count_nonzero(paths >= 0, axis=1) - 1]
    ends = np.column_stack((uv, paths[:, 0], last))
    m = float(max(np.abs(X).max(initial=0.0), np.abs(Y).max(initial=0.0)))
    pad = float_pad(m)
    delta = 5.0 * ROUNDOFF * m + TINY

    out: list[tuple[int, int]] = []
    pts = end_rows = None  # one Point per row, made when a block first needs an exact test
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
        k = np.flatnonzero(~met & ~_far_apart(X, Y, a[s], b[s], a[e], b[e], delta))
        if not k.size:
            continue
        if pts is None:
            pts, end_rows = [Point(x, y) for x, y in zip(xs, ys)], ends.tolist()
        sk, ek = s[k], e[k]
        for p, q, adjacent, *rows in zip(pid[sk].tolist(), pid[ek].tolist(),
                                         (abs(leg[sk] - leg[ek]) == 1).tolist(), a[sk].tolist(),
                                         b[sk].tolist(), a[ek].tolist(), b[ek].tolist()):
            if _exact_violation(pts, end_rows, p, q, adjacent, rows):
                out.append((p, q))
    return sorted(out)


def _violations(polylines: Sequence[tuple[int, int, list[Point]]]) -> list[tuple[int, int]]:
    """`_scan` over polylines whose points are rows by object identity: a
    point that two segments share must be one object."""
    row: dict[int, tuple[int, Point]] = {}  # id of a Point object -> its row, the point
    paths = np.full((len(polylines), max([1] + [len(p) for _u, _v, p in polylines])), -1)
    for pid, (_u, _v, path) in enumerate(polylines):
        paths[pid, :len(path)] = [row.setdefault(id(p), (len(row), p))[0] for p in path]
    pts = [p for _r, p in row.values()]
    return _scan([p.x for p in pts], [p.y for p in pts], 1,
                 np.array([(u, v) for u, v, _p in polylines], dtype=np.intp).reshape(-1, 2), paths)


def count_crossings(polylines: Sequence[tuple[int, int, list[Point]]]) -> int:
    """Exact number of forbidden meetings between polylines."""
    return len(_violations(polylines))


def extract_drawing(rep: Representation, T: planar.Triangulation) -> Drawing:
    """Planar drawing witness: a free point per vertex, and one 2-segment
    polyline per edge through a point of the pairwise intersection.

    The drawing is built in `rep`'s integer frame, its point rows numbered
    by structure (`Drawing`), and returned only after one exact scan of all
    its segments (`_scan`) finds no forbidden meeting, so it is
    crossing-free; otherwise `DrawingError` names the first offending
    routes.
    """
    S, tris = rep.scaled
    edges = sorted(T.edges)
    contacts: dict[tuple[int, int], Point] = {}
    lenses: dict[tuple[int, int], Tri] = {}
    for u, v in edges:
        ov = intersect(tris[u], tris[v])
        if ov.is_empty:
            raise DrawingError(f"edge ({u},{v}) has disjoint triangles")
        contacts[(u, v)] = ov.right_corner
        if ov.kind == "region":
            lenses[(u, v)] = ov.region
    points = _free_points(rep, T.vertices(), contacts, lenses)
    xs = [p.x for p in points.values()] + [c.x for c in contacts.values()]
    ys = [p.y for p in points.values()] + [c.y for c in contacts.values()]
    uv = np.array(edges).reshape(-1, 2)
    ru, rv = np.searchsorted(np.array(list(points)), uv).T  # the rows of the edges' ends
    routes = np.column_stack((ru, len(points) + np.arange(len(edges)), rv))
    bad = _scan(xs, ys, S, uv, routes)
    if bad:
        raise DrawingError("edge routes meet: " + ", ".join(
            f"{edges[p]} and {edges[q]}" for p, q in list(dict.fromkeys(bad))[:3]))
    return Drawing(S, xs, ys, list(points), edges, routes)


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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "drawing"}
        return {"passed": self.passed, **out}


def full_report(rep: Representation, T: planar.Triangulation,
                epsilon: Fraction | None = None,
                with_faces: bool = True, with_drawing: bool = False) -> VerificationReport:
    """Aggregate certification: graph equality, simpleness, boundary budget,
    corner condition, optionally the face-gap condition and a drawing (kept
    on the report as `drawing`)."""
    found = intersection_graph(rep)
    want = {tuple(sorted(e)) for e in T.edges}
    missing = sorted(want - found)
    extra = sorted(found - want)

    simple, triples = check_simple(rep, found)
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
                # extract_drawing returns only drawings its exact scan found
                # crossing-free
                report.drawing_planar = True
                report.crossings = 0
        else:
            report.drawing_planar = False
            report.drawing_note = "skipped: graph or simpleness failed"
    return report
