import itertools
import random
from fractions import Fraction

import pytest

from tricontact import planar
from tricontact.assemble import PipelineConfig, represent
from tricontact.geometry import (
    NegTri,
    Point,
    Tri,
    common_signed_height,
    frac,
    gap_candidates,
    neg_interior_hits,
    signed_height,
)
from tricontact.core import Representation
from tricontact.solver import canvas_with_roles, solve_wood
from tricontact.verify import intersection_graph


def tri(x, y, h) -> Tri:
    return Tri(frac(x), frac(y), frac(h))


def ntri(x, y, h) -> NegTri:
    return NegTri(frac(x), frac(y), frac(h))


def point(x, y) -> Point:
    return Point(frac(x), frac(y))


def graph_triangles(rep: Representation) -> list[tuple[int, int, int]]:
    """Triangles of the intersection graph of `rep`, in lexicographic order:
    what triple removal scans, for representations not built by `represent`."""
    return planar.triangles_of(planar.adjacency_of(rep.triangles, intersection_graph(rep)))


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


def solve_in_canvas(piece: planar.Triangulation, outer_tris, epsilon=Fraction(1)
                    ) -> Representation:
    """The contact layout `solve_wood` gives `piece` in the canvas of its
    boundary triangles, its roles named by vertex, as `represent` passes
    them, with the boundary triangles and the budget `epsilon`."""
    canvas, role_idx = canvas_with_roles([outer_tris[v] for v in piece.outer])
    roles = {r: piece.outer[i] for r, i in role_idx.items()}
    return Representation({**outer_tris, **solve_wood(piece, canvas, roles)}, piece.outer,
                          epsilon)


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
