import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tricontact import planar, solver
from tricontact.assemble import PipelineConfig, represent
from tricontact.geometry import (
    NegTri,
    Point,
    Tri,
    common_signed_height,
    frac,
    gap_candidates,
    neg_interior_hits,
    pow2_floor,
    signed_height,
)
from tricontact.core import Representation
from tricontact.solver import canvas_with_roles, solve_wood


def tri(x, y, h) -> Tri:
    return Tri(frac(x), frac(y), frac(h))


def ntri(x, y, h) -> NegTri:
    return NegTri(frac(x), frac(y), frac(h))


def point(x, y) -> Point:
    return Point(frac(x), frac(y))


def with_triangle(rep: Representation, v: int, t: Tri) -> Representation:
    """`rep` with vertex v's triangle replaced by t."""
    return Representation({**rep.triangles, v: t}, rep.outer, rep.epsilon)


def triples_by_cubic_scan(rep: Representation) -> list[tuple[int, int, int]]:
    """Reference for `verify.check_simple`: every vertex triple of `rep`, in
    lexicographic order, whose triangles share a point, found by testing all
    of them."""
    tris = rep.scaled[1]
    return [t for t in itertools.combinations(sorted(tris), 3)
            if common_signed_height([tris[v] for v in t]) >= 0]


def face_faults_by_loop(rep: Representation, T: planar.Triangulation
                        ) -> tuple[bool, list[tuple[tuple[int, ...], str]]]:
    """Reference for `verify.check_face_condition`: (ok, [(face, reason)])
    from a loop over T's inner faces, in T's order, that tests each face
    against every other triangle of `rep`, in `rep`'s order, exactly.

    A gap candidate is a negative homothet bounded by one side line of each
    face triangle (`gap_candidates`); it is valid when its interior meets no
    other triangle.  The face passes iff exactly one candidate is valid and
    every triangle outside the face that meets one of the gap's three strips
    (the positive homothets of the gap's height mirrored across its sides)
    stays strictly off that side's line, so that a probe of positive height
    fits against every gap side.  A face failing on a strip names the first
    offender, strips taken in the order hypotenuse, vertical, horizontal
    side.
    """
    tris = rep.scaled[1]
    failures = []
    for face in (tuple(sorted(f)) for f in T.inner_faces):
        others = [(v, t) for v, t in tris.items() if v not in face]
        cands = [g for g, _roles in gap_candidates([tris[v] for v in face])]
        valid = [g for g in cands if not any(neg_interior_hits(g, t) for _v, t in others)]
        why = None
        if not cands:
            why = f"no gap candidate for face {list(face)}"
        elif not valid:
            why = f"no valid gap for face {list(face)}"
        elif len(valid) > 1:
            why = f"gap for face {list(face)} is not unique"
        else:
            gap = valid[0]
            X, Y, H = gap.x, gap.y, gap.h
            # (strip, how far a triangle stays beyond the gap side)
            strips = ((Tri(X - H, Y - H, H), lambda t: gap.hyp_level - t.s),
                      (Tri(X, Y - H, H), lambda t: t.x - X),
                      (Tri(X - H, Y, H), lambda t: t.y - Y))
            why = next((f"triangle {v} touches a gap side of face {list(face)}"
                        for strip, depth in strips for v, t in others
                        if signed_height(strip, t) >= 0 and depth(t) <= 0), None)
        if why is not None:
            failures.append((face, why))
    return (not failures), failures


def contact_layout(piece: planar.Triangulation, gap: NegTri, roles) -> dict[int, Tri]:
    """The exact contact layout of the wood `solve_wood` settles on: every
    adjacency at signed height 0, mapped from the unit gap into `gap`."""
    wood, P = solver._final_wood(piece, roles)
    return {v: Tri(gap.x + gap.h * x, gap.y + gap.h * y, gap.h * (s - x - y))
            for v, (x, y, s) in sorted(P.items()) if v in wood}


def _canvas(piece: planar.Triangulation, outer_tris):
    canvas, role_idx = canvas_with_roles([outer_tris[v] for v in piece.outer])
    return canvas, {r: piece.outer[i] for r, i in role_idx.items()}


def solve_in_canvas(piece: planar.Triangulation, outer_tris, epsilon=Fraction(1)
                    ) -> Representation:
    """The contact layout of `piece` in the canvas of its boundary triangles,
    its roles named by vertex, as `represent` passes them, with the
    boundary triangles and the budget `epsilon`."""
    return Representation({**outer_tris, **contact_layout(piece, *_canvas(piece, outer_tris))},
                          piece.outer, epsilon)


def open_in_canvas(piece: planar.Triangulation, outer_tris, epsilon=Fraction(1)
                   ) -> Representation:
    """As `solve_in_canvas`, with the overlapping layout `solve_wood` gives
    the piece in place of its contact layout: the wood path of `represent`,
    also for an octahedron, without the post-check."""
    canvas, roles = _canvas(piece, outer_tris)
    return Representation({**outer_tris, **solve_wood(piece, outer_tris, canvas, roles, epsilon)},
                          piece.outer, epsilon)


def dense_solve(wood, roles, weights=None):
    """Reference for `solver._solve_unit`: the same 3(n - 3) equations, one
    dense row each, by Gauss-Jordan elimination on `Fraction`s; given
    `weights`, the rates of the overlap solve."""
    fixed = ({roles["hyp"]: (-1, -1, -1), roles["vertical"]: (0, -1, 0),
              roles["horizontal"]: (-1, 0, 0)} if weights is None
             else dict.fromkeys(roles.values(), (0, 0, 0)))
    inner = sorted(wood)
    col = {v: 3 * i for i, v in enumerate(inner)}
    n = 3 * len(inner)
    rows = []
    for v in inner:
        x, y, s = col[v], col[v] + 1, col[v] + 2
        r, g, b = wood[v]
        # x + y - s_r = 0, s - x - y_g = 0 and s - y - x_b = 0
        # with overlaps t w: x + y - s_r = -w, s - x - y_g = w and s - y - x_b = w
        for colour, (plus, minus, t, k, sign) in enumerate((((x, y), (), r, 2, -1),
                                                            ((s,), (x,), g, 1, 1),
                                                            ((s,), (y,), b, 0, 1))):
            row = [Fraction(0)] * (n + 1)
            for c in plus:
                row[c] += 1
            for c in minus:
                row[c] -= 1
            if weights is not None:
                row[n] = Fraction(sign * weights.get((v, colour), 1))
            if t in fixed:
                row[n] += fixed[t][k]
            else:
                row[col[t] + k] -= 1
            rows.append(row)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [e / rows[c][c] for e in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [e - rows[r][c] * f for e, f in zip(rows[r], rows[c])]
    return {v: tuple(rows[col[v] + k][n] for k in range(3)) for v in inner}


def zero_hole_faces(rep: Representation, piece: planar.Triangulation) -> list[list[int]]:
    """The inner faces of `piece` whose three triangles in `rep` meet in one
    point, each as its sorted vertices, in order."""
    return sorted(sorted(f) for f in piece.inner_faces
                  if common_signed_height([rep.tri(v) for v in f]) == 0)


def opened_by_reference(piece: planar.Triangulation, boundary, gap: NegTri, roles, epsilon
                        ) -> dict[int, Tri]:
    """Reference for `solve_wood(piece, boundary, gap, roles, epsilon)`, on
    `Fraction`s in the global frame, with the boundary triangles: the
    contact layout plus t times the rates of the overlap solve
    (`dense_solve` with the contacts of the zero-hole faces at the first
    weight W from OPEN_WEIGHT up, by doubling, that opens them all), t the
    largest power of two at most half the smallest of epsilon / (W gap.h),
    each non-adjacent separation and positive face hole over its slope, and
    each shrinking height over its rate."""
    T = piece
    wood, _P = solver._final_wood(T, roles)
    contact = Representation({**boundary, **contact_layout(T, gap, roles)}, T.outer, epsilon)
    zero = zero_hole_faces(contact, T)
    heavy = [(u, c) for f in zero for c, (_t, u) in solver._cyclic(wood, frozenset(f)).items()]

    def falls(f):
        # the face's common signed height falls as t leaves 0
        ts = [contact.tri(v) for v in f]
        ms, mx, my = min(t.s for t in ts), max(t.x for t in ts), max(t.y for t in ts)
        return (min(rate[v][2] for v, t in zip(f, ts) if t.s == ms)
                - max(rate[v][0] for v, t in zip(f, ts) if t.x == mx)
                - max(rate[v][1] for v, t in zip(f, ts) if t.y == my)) < 0

    weight = solver.OPEN_WEIGHT // 2
    while True:
        weight *= 2
        assert weight <= solver.MAX_WEIGHT
        unit = dense_solve(wood, roles, dict.fromkeys(heavy, weight))
        rate = {v: tuple(gap.h * d for d in unit[v]) if v in wood else (0, 0, 0)
                for v in T.vertices()}
        if all(falls(f) for f in zero):
            break

    def slope(vs):
        return sum(max(abs(rate[v][k]) for v in vs) for k in range(3))

    bounds = [epsilon / weight / gap.h]
    for vs in itertools.chain(([u, v] for u, v in itertools.combinations(T.vertices(), 2)
                               if not T.has_edge(u, v) and not {u, v} <= T.outer_set),
                              map(list, T.inner_faces)):
        apart = -common_signed_height([contact.tri(v) for v in vs])
        if apart > 0 and slope(vs) > 0:
            bounds.append(apart / slope(vs))
    for v in wood:
        dx, dy, ds = rate[v]
        if ds - dx - dy < 0:
            bounds.append(contact.tri(v).h / (dx + dy - ds))
    t = pow2_floor(min(bounds) / 2)
    return {v: Tri(c.x + t * rate[v][0], c.y + t * rate[v][1],
                   c.h + t * (rate[v][2] - rate[v][0] - rate[v][1]))
            for v, c in contact.triangles.items()}


# the arithmetic, comparison and conversion methods of Fraction that the
# Fraction-work guards count (with __new__)
FRACTION_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__", "__bool__",
    "__float__", "__int__", "__floor__", "__ceil__", "__trunc__", "__round__")


def octahedron_graph() -> planar.Triangulation:
    """K_{2,2,2} with outer face (0, 1, 2); antipodal pairs (0,3), (1,4), (2,5)."""
    edges = [
        (0, 1), (0, 2), (1, 2),
        (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4),
        (3, 4), (3, 5), (4, 5),
    ]
    return planar.validate(6, edges, (0, 1, 2))


def bench_corpus(workload: str) -> list[tuple[str, planar.Triangulation]]:
    """The benchmark's corpus `workload` (perfbench/corpus.py), in name order."""
    path = Path(__file__).parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return sorted(corpus.WORKLOADS[workload](), key=lambda item: item[0])


def implant_faces(T: planar.Triangulation, indices) -> planar.Triangulation:
    """T with an octahedron implanted in its inner face of each index in
    turn, indexing the current inner faces in sorted order."""
    for k in indices:
        T = planar.implant_octahedron(T, sorted(sorted(f) for f in T.inner_faces)[k])
    return T


def implant_double_wheel(T: planar.Triangulation, face, k: int = 5) -> planar.Triangulation:
    """T with the inner face `face` replaced by double_wheel(k), whose outer
    face it becomes: a piece of k + 2 vertices, which for k >= 5
    `solve_wood` places."""
    D = planar.double_wheel(k)
    name = dict(zip(D.outer, sorted(face)))
    name.update((v, T.n + i) for i, v in enumerate(sorted(set(D.vertices()) - D.outer_set)))
    new = [frozenset(name[v] for v in f) for f in D.faces if f != D.outer_set]
    return planar._from_faces([f for f in T.faces if f != frozenset(face)] + new, T.outer)


def newest_face(T: planar.Triangulation) -> list[int]:
    """The first inner face, in sorted order, that holds T's newest vertex."""
    return sorted(sorted(f) for f in T.inner_faces if T.n - 1 in f)[0]


def stacking_chain(n) -> planar.Triangulation:
    """K4, then vertices 4..n-1, each stacked into the first face holding the
    previous one: a stacked triangulation nested n - 3 levels deep."""
    T = planar.validate(4, list(itertools.combinations(range(4), 2)), (0, 1, 2))
    while T.n < n:
        T = planar.stack_vertex(T, newest_face(T))
    return T


def chain(n, seed, depth) -> planar.Triangulation:
    """gen_stacked(n, seed) with an octahedron in its first inner face, then
    `depth` rounds of stack_vertex + implant_octahedron, each into the first
    face holding the newest vertex (the benchmark's `nested` chains)."""
    host = planar.gen_stacked(n, seed)
    T = planar.implant_octahedron(host, sorted(sorted(f) for f in host.inner_faces)[0])
    for _ in range(depth):
        T = planar.stack_vertex(T, newest_face(T))
        T = planar.implant_octahedron(T, newest_face(T))
    return T


def implanted(n, seed, implants) -> planar.Triangulation:
    """gen_stacked(n, seed) with octahedra implanted in seeded inner faces
    (the benchmark's `nested` host is implanted(100, 3, 20))."""
    T = planar.gen_stacked(n, seed)
    faces = random.Random(seed).sample(sorted(sorted(f) for f in T.inner_faces), implants)
    for f in faces:
        T = planar.implant_octahedron(T, f)
    return T


def represent_in(T: planar.Triangulation, outer) -> Representation:
    """represent(T) with `outer` mapping T's boundary vertices to their
    triangles; on a K4, the boundary and the medial child of its gap."""
    return represent(T, PipelineConfig(outer=tuple(outer[v] for v in T.outer)))


def stacked_by_peeling(T: planar.Triangulation, outer) -> dict[int, Tri]:
    """Reference construction of a whole stacked triangulation, with `outer`
    mapping T's boundary vertices to their triangles.

    Peels inner degree-3 vertices (smallest id first), then puts them back in
    reverse order, each as the medial inscribed homothet of its face's gap,
    which leaves three subgaps.  Raises ValueError when T is not stacked.
    """
    adj = {v: set(nbrs) for v, nbrs in T.adjacency().items()}
    inner = set(T.vertices()) - set(T.outer)
    order = []
    while inner:
        v = min((u for u in inner if len(adj[u]) == 3), default=None)
        if v is None:
            raise ValueError("no inner vertex of degree 3; not stacked")
        order.append((v, frozenset(adj[v])))
        for u in adj.pop(v):
            adj[u].discard(v)
        inner.remove(v)

    canvas, role_idx = canvas_with_roles([outer[v] for v in T.outer])
    gaps = {frozenset(T.outer): (canvas, {r: T.outer[i] for r, i in role_idx.items()})}
    triangles = dict(outer)
    for v, face in reversed(order):
        if face not in gaps:
            raise ValueError(f"vertex {v} was stacked into {sorted(face)}, not a gap face")
        gap, roles = gaps.pop(face)
        half = gap.h / 2
        triangles[v] = Tri(gap.x - half, gap.y - half, half)
        vh, vv, vz = roles["hyp"], roles["vertical"], roles["horizontal"]
        gaps[frozenset((v, vv, vz))] = (NegTri(gap.x, gap.y, half),
                                        {"hyp": v, "vertical": vv, "horizontal": vz})
        gaps[frozenset((vh, vv, v))] = (NegTri(gap.x, gap.y - half, half),
                                        {"hyp": vh, "vertical": vv, "horizontal": v})
        gaps[frozenset((vh, v, vz))] = (NegTri(gap.x - half, gap.y, half),
                                        {"hyp": vh, "vertical": v, "horizontal": vz})
    return triangles


@pytest.fixture
def outer_map():
    return {0: tri(0, 0, 4), 1: tri(1, 3, 2), 2: tri(3, 1, 2)}


@pytest.fixture
def k4():
    return planar.validate(4, list(itertools.combinations(range(4), 2)), (0, 1, 2))


@pytest.fixture
def octahedron():
    return octahedron_graph()


@pytest.fixture
def k222_triple_rep():
    """Exact contact representation of the octahedron with a single point
    shared by the three inner triangles at (7/3, 7/3); all 12 adjacencies are
    exact single-point contacts and the 3 antipodal pairs are separated."""
    F = Fraction
    return Representation({
        0: tri(0, 0, 4),
        1: tri(1, 3, 2),
        2: tri(3, 1, 2),
        3: tri(F(7, 3), F(7, 3), F(2, 3)),
        4: tri(F(7, 3), F(5, 3), F(2, 3)),
        5: tri(F(5, 3), F(7, 3), F(2, 3)),
    }, (0, 1, 2), F(1))


def in_triangle(p, t: Tri) -> bool:
    """Independent membership test (used by the sampling oracles)."""
    return p[0] >= t.x and p[1] >= t.y and p[0] + p[1] <= t.x + t.y + t.h


def grid_points(t1: Tri, t2: Tri, k: int):
    """Rational grid over the joint bounding box of two triangles."""
    xlo = min(t1.x, t2.x)
    xhi = max(t1.x + t1.h, t2.x + t2.h)
    ylo = min(t1.y, t2.y)
    yhi = max(t1.y + t1.h, t2.y + t2.h)
    for i in range(k + 1):
        x = xlo + (xhi - xlo) * Fraction(i, k)
        for j in range(k + 1):
            yield (x, ylo + (yhi - ylo) * Fraction(j, k))
