"""Combinatorial side: triangulation model, separating-triangle machinery, generators.

A triangulation here is a simple maximal planar graph with a distinguished
outer face.  For maximal planar graphs with n >= 4 the face set is unique
(they are 3-connected), so faces are stored as plain vertex sets.  The
generators and the decomposition know their faces and build from them
(`_from_faces`); only `validate`, for graphs from outside the program, reads
the faces off a planarity-test embedding.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

import networkx as nx


class GraphError(ValueError):
    """Input graph fails a structural requirement (with a diagnostic message)."""


Edge = tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def adjacency_of(vertices: Iterable[int], edges: Iterable[Edge]) -> dict[int, set[int]]:
    """Neighbour sets of a graph given by its vertices and edges."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


@dataclass(frozen=True)
class Triangulation:
    """A triangulation or a piece of one.  A piece keeps its parent's vertex
    labels, so its labels need not be 0..n-1: `n` is one past the largest,
    and `vertices()` lists those in use."""

    n: int
    edges: frozenset[Edge]
    outer: tuple[int, int, int]
    faces: tuple[frozenset[int], ...]

    @property
    def outer_set(self) -> frozenset[int]:
        return frozenset(self.outer)

    @property
    def inner_faces(self) -> tuple[frozenset[int], ...]:
        return tuple(f for f in self.faces if f != self.outer_set)

    def adjacency(self) -> dict[int, set[int]]:
        return adjacency_of(self.vertices(), self.edges)

    @cached_property
    def _labels(self) -> tuple[int, ...]:
        # read off the faces once; the cache sits outside the dataclass
        # fields, so equality and hashing ignore it
        return tuple(sorted(set().union(*self.faces)))

    def vertices(self) -> tuple[int, ...]:
        return self._labels

    def has_edge(self, u: int, v: int) -> bool:
        return _edge(u, v) in self.edges

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "outer": list(self.outer),
            "edges": sorted([list(e) for e in self.edges]),
        }


def _from_faces(faces: Iterable[frozenset[int]], outer: tuple[int, int, int]) -> Triangulation:
    """The triangulation with these faces, which the caller knows to be
    those of a triangulation, in the order of their sorted vertex lists.

    Its edges are the faces' sides.  Every constructor ends here; only
    `validate` first takes the faces from a planarity test."""
    faces = tuple(sorted(faces, key=sorted))
    edges = frozenset(_edge(u, v) for f in faces for u, v in combinations(f, 2))
    return Triangulation(n=max(max(f) for f in faces) + 1, edges=edges, outer=outer, faces=faces)


def _faces_from_embedding(emb: nx.PlanarEmbedding) -> list[tuple[int, ...]]:
    faces = []
    seen: set[tuple[int, int]] = set()
    for u, v in emb.edges():
        if (u, v) in seen:
            continue
        face = emb.traverse_face(u, v, mark_half_edges=seen)
        faces.append(tuple(face))
    return faces


def validate(n: int, edges: Iterable[Sequence[int]], outer: Sequence[int]) -> Triangulation:
    """Check raw vertex/edge/outer data and return a Triangulation.

    Raises GraphError for: loops/multi-edges, out-of-range vertices, too few
    vertices, non-planar graphs, non-maximal graphs, and an outer triple that
    is not a face.
    """
    if n < 4:
        raise GraphError(f"need at least 4 vertices, got {n}")
    eset: set[Edge] = set()
    for e in edges:
        if len(e) != 2:
            raise GraphError(f"malformed edge {e!r}")
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        key = _edge(u, v)
        if key in eset:
            raise GraphError(f"duplicate edge ({u},{v})")
        eset.add(key)
    if len(outer) != 3 or len(set(outer)) != 3:
        raise GraphError(f"outer must be three distinct vertices, got {outer!r}")
    outer_t = (int(outer[0]), int(outer[1]), int(outer[2]))
    for u, v in combinations(outer_t, 2):
        if _edge(u, v) not in eset:
            raise GraphError(f"outer vertices {u},{v} are not adjacent")

    if len(eset) != 3 * n - 6:
        raise GraphError(f"not maximal planar: {len(eset)} edges, expected {3 * n - 6}")

    g = nx.Graph(sorted(eset))
    g.add_nodes_from(range(n))
    if not nx.is_connected(g):
        raise GraphError("graph is not connected")
    ok, emb = nx.check_planarity(g)
    if not ok:
        raise GraphError("graph is not planar")

    faces_raw = _faces_from_embedding(emb)
    if any(len(f) != 3 for f in faces_raw):
        raise GraphError("embedding has a non-triangular face")
    faces = {frozenset(f) for f in faces_raw}
    if len(faces) != 2 * n - 4:
        raise GraphError(f"face count {len(faces)} != 2n-4 = {2 * n - 4}")
    if frozenset(outer_t) not in faces:
        raise GraphError(f"outer triple {outer_t} is not a face")
    return _from_faces(faces, outer_t)


def from_json(data: dict) -> Triangulation:
    """The triangulation a graph JSON object describes.  Its vertex count and
    every vertex id must be JSON integers: no float, string or boolean is
    read as one."""
    try:
        n, edges, outer = data["n"], data["edges"], data["outer"]
        for x in (n, *outer, *(v for e in edges for v in e)):
            if type(x) is not int:
                raise GraphError(f"malformed graph JSON: {x!r} is not an integer")
        return validate(n, edges, outer)
    except KeyError as e:
        raise GraphError(f"graph JSON missing key {e}") from e
    except TypeError as e:  # a list or null where an object, list or pair belongs
        raise GraphError(f"malformed graph JSON: {e}") from e


# ---------------------------------------------------------------------------
# Separating triangles and decomposition
# ---------------------------------------------------------------------------

def triangles_of(adj: Mapping[int, set[int]]) -> list[tuple[int, int, int]]:
    """All 3-cliques (u, v, w), u < v < w, of the graph with neighbour sets
    `adj`, in lexicographic order.

    Edge-based listing (after Chiba and Nishizeki, 1985): each edge uv,
    u < v, is closed by the vertices w > v adjacent to both ends.  The set
    intersection scans the smaller of the two neighbour sets, so the listing
    is O(a * m) for m edges and arboricity a (at most 3 for planar graphs),
    plus the sort.
    """
    out = []
    for u, nu in adj.items():
        for v in nu:
            if u < v:
                for w in nu & adj[v]:
                    if w > v:
                        out.append((u, v, w))
    out.sort()
    return out


def separating_triangles(T: Triangulation) -> list[tuple[int, int, int]]:
    """3-cycles that are not faces; empty iff the piece is 4-connected
    in the sense used here (K4 qualifies)."""
    face_sets = set(T.faces)
    return [t for t in triangles_of(T.adjacency()) if frozenset(t) not in face_sets]


def peel(T: Triangulation) -> tuple[Triangulation, list[tuple[int, frozenset[int]]]]:
    """Remove inner degree-3 vertices until none is left.

    Returns the remainder and the peeled vertices in peel order, each with
    the face its three neighbours bound once it is gone.  Removing an inner
    degree-3 vertex leaves a triangulation, and degrees only fall, so a work
    queue of the inner vertices whose degree reaches 3 peels in linear time.
    The remainder is T itself when nothing peels, and the outer triangle
    alone (its one face) exactly when T is stacked.  Its separating
    triangles are T's, less the neighbourhoods of the peeled vertices.
    """
    adj = T.adjacency()
    outer = T.outer_set
    queue = deque(v for v in T.vertices() if v not in outer and len(adj[v]) == 3)
    peeled = []
    while queue:
        v = queue.popleft()
        nbrs = adj.pop(v)
        peeled.append((v, frozenset(nbrs)))
        for u in nbrs:
            adj[u].discard(v)
            if len(adj[u]) == 3 and u not in outer:
                queue.append(u)
    if not peeled:
        return T, peeled
    gone = {v for v, _ in peeled}
    faces = {f for f in T.faces if f.isdisjoint(gone)}
    faces.update(f for _, f in peeled if f.isdisjoint(gone))
    return _from_faces(faces, T.outer), peeled


@dataclass(frozen=True)
class SeparationTree:
    """Decomposition into pieces without separating triangles.

    links = (parent_index, child_index, shared triangle) triples; the shared
    triangle is an inner face of the parent piece and the outer face of the
    child piece.  Piece 0 contains the input's outer face.
    """
    pieces: tuple[Triangulation, ...]
    links: tuple[tuple[int, int, tuple[int, int, int]], ...]


def _decompose_laminar(T: Triangulation) -> list[Triangulation]:
    """Pieces of T, the root piece first, then one per separating triangle
    in `separating_triangles` order, read off one traversal of the dual graph.

    The family of separating triangles is laminar: an edge cannot join the
    inside of a 3-cycle of a plane triangulation to its outside, so two
    3-cycles are nested or disjoint.  A DFS tree of the dual graph, rooted at
    the outer face, decides in O(1) whether a face lies inside a 3-cycle t:
    the tree path from the root crosses t once per edge of t that is a tree
    edge above the face (Jordan curve theorem), so the face is inside iff
    that count is odd.  Walking the faces in preorder then gives each face
    its innermost separating triangle: across the tree edge e, the triangles
    through e that hold the parent face are exactly the innermost entries of
    its nesting chain (pop them), and those that hold the child face are
    pushed outermost first.  A triangle's nesting parent is the chain entry
    below it.  After the triangle listing, time is O(F + S log S) for F faces
    and S separating triangles.
    """
    seps = separating_triangles(T)
    if not seps:
        return [T]
    faces = T.faces
    face_edges: list[tuple[Edge, Edge, Edge]] = []
    edge_faces: dict[Edge, list[int]] = {}
    face_at: dict[int, int] = {}
    for i, f in enumerate(faces):
        a, b, c = sorted(f)
        face_edges.append(((a, b), (a, c), (b, c)))
        for e in face_edges[i]:
            edge_faces.setdefault(e, []).append(i)
        for v in f:
            face_at[v] = i

    # DFS tree of the dual graph: visit order is the preorder; below[e] is the
    # face a tree edge crossing primal edge e leads to
    pre = [-1] * len(faces)
    order: list[int] = []
    tree_parent: dict[int, int] = {}
    via: dict[int, Edge] = {}
    stack: list[tuple[int, int, Edge | None]] = [(faces.index(T.outer_set), -1, None)]
    while stack:
        f, p, e = stack.pop()
        if pre[f] >= 0:
            continue
        pre[f] = len(order)
        order.append(f)
        if e is not None:
            tree_parent[f], via[f] = p, e
        for e2 in face_edges[f]:
            for g in edge_faces[e2]:
                if pre[g] < 0:
                    stack.append((g, f, e2))
    size = [1] * len(faces)
    for f in reversed(order[1:]):
        size[tree_parent[f]] += size[f]
    below = {e: f for f, e in via.items()}

    def inside(g: int, t: tuple[int, int, int]) -> bool:
        a, b, c = t
        crossings = 0
        for e in ((a, b), (a, c), (b, c)):
            h = below.get(e)
            if h is not None and pre[h] <= pre[g] < pre[h] + size[h]:
                crossings += 1
        return crossings % 2 == 1

    def nesting(s: tuple[int, int, int], t: tuple[int, int, int]) -> int:
        # s and t share an edge; s is outer iff t's third vertex is inside s
        (v,) = set(t) - set(s)
        return -1 if inside(face_at[v], s) else 1

    through: dict[Edge, list[tuple[int, int, int]]] = {}
    for t in seps:
        a, b, c = t
        for e in ((a, b), (a, c), (b, c)):
            through.setdefault(e, []).append(t)

    innermost: list[tuple[int, int, int] | None] = [None] * len(faces)
    nest_parent: dict[tuple[int, int, int], tuple[int, int, int] | None] = {}
    for g in order[1:]:
        crossing = through.get(via[g], ())
        t = innermost[tree_parent[g]]
        entering = [s for s in crossing if inside(g, s)]
        for _ in range(len(crossing) - len(entering)):
            t = nest_parent[t]
        for s in sorted(entering, key=cmp_to_key(nesting)):
            nest_parent[s] = t
            t = s
        innermost[g] = t

    members: dict[tuple[int, int, int] | None, set[frozenset[int]]] = {}
    for f, t in zip(faces, innermost):
        members.setdefault(t, set()).add(f)
    for t in seps:
        members.setdefault(nest_parent[t], set()).add(frozenset(t))
        members.setdefault(t, set()).add(frozenset(t))
    return [_from_faces(members[None], T.outer)] + [_from_faces(members[t], t) for t in seps]


def decompose(T: Triangulation) -> SeparationTree:
    """Decompose into pieces without separating triangles.

    The piece set is canonical (independent of split order); the tree links
    each piece to the piece holding its outer triangle as an inner face.
    Pieces are numbered in preorder, children ordered by sorted vertex triple.
    """
    root, *rest = _decompose_laminar(T)
    by_label = {p.outer_set: p for p in rest}

    pieces: list[Triangulation] = []
    links: list[tuple[int, int, tuple[int, int, int]]] = []
    stack: list[tuple[Triangulation, int | None, tuple[int, int, int] | None]] = [
        (root, None, None)]
    while stack:
        piece, parent, label = stack.pop()
        idx = len(pieces)
        pieces.append(piece)
        if parent is not None:
            links.append((parent, idx, label))
        child_labels = sorted(
            (f for f in piece.faces if f != piece.outer_set and f in by_label),
            key=sorted, reverse=True,
        )
        stack.extend((by_label.pop(lab), idx, tuple(sorted(lab))) for lab in child_labels)
    if by_label:
        raise GraphError("decomposition produced unlinked pieces")  # pragma: no cover
    return SeparationTree(pieces=tuple(pieces), links=tuple(links))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

FLIPS_PER_VERTEX = 12  # random diagonal flips per vertex in gen_triangulation
FOUR_CONNECTED_TRIES = 400  # random starts before gen_four_connected gives up
_OUTER_EDGES = frozenset({(0, 1), (0, 2), (1, 2)})  # gen_stacked's outer face, which flips keep


def gen_stacked(n: int, seed: int) -> Triangulation:
    """Stacked triangulation: repeatedly insert a degree-3 vertex into a
    uniformly chosen inner face, starting from K4 with outer (0, 1, 2)."""
    if n < 4:
        raise GraphError(f"gen_stacked needs n >= 4, got {n}")
    rng = random.Random(seed)
    faces = [frozenset(f) for f in combinations(range(4), 3)]
    for v in range(4, n):
        f = faces.pop(1 + rng.randrange(len(faces) - 1))  # faces[0] is the outer face
        faces.extend(frozenset((a, b, v)) for a, b in combinations(sorted(f), 2))
    return _from_faces(faces, (0, 1, 2))


def edge_faces(T: Triangulation) -> dict[Edge, set[frozenset[int]]]:
    """Each edge (u, v), u < v, of T with the two faces on its sides."""
    out: dict[Edge, set[frozenset[int]]] = {}
    for f in T.faces:
        for side in combinations(sorted(f), 2):
            out.setdefault(side, set()).add(f)
    return out


def _flip(edges: list[Edge], faces: dict[Edge, set[frozenset[int]]], e: Edge) -> bool:
    """Replace the edge e = uv by pq, where upq and vpq are its two faces,
    unless pq is already an edge.  Updates the sorted `edges` and the map
    `faces` of each edge to its two faces in place, and returns whether it
    flipped."""
    u, v = e
    f1, f2 = faces[e]
    (p,), (q,) = f1 - {u, v}, f2 - {u, v}
    if _edge(p, q) in faces:
        return False
    del edges[bisect_left(edges, e)]
    insort(edges, _edge(p, q))
    # each old face leaves the face set of each of its sides, each new one joins
    for f in (f1, f2, frozenset((u, p, q)), frozenset((v, p, q))):
        for side in combinations(sorted(f), 2):
            faces.setdefault(side, set()).symmetric_difference_update((f,))
    del faces[e]
    return True


def gen_triangulation(n: int, seed: int) -> Triangulation:
    """Random maximal planar graph: stacked start plus FLIPS_PER_VERTEX * n
    random diagonal flips.

    Flips never touch the outer face's edges and never create parallel edges.
    """
    T = gen_stacked(n, seed)
    rng = random.Random(seed ^ 0x9E3779B97F4A7C15)
    edges, faces = sorted(T.edges), edge_faces(T)
    for _ in range(FLIPS_PER_VERTEX * n):
        e = rng.choice(edges)
        if e not in _OUTER_EDGES:
            _flip(edges, faces, e)
    return _from_faces(set().union(*faces.values()), T.outer)


def gen_four_connected(n: int, seed: int) -> Triangulation:
    """Random triangulation filtered/repaired to have no separating triangle."""
    if n == 5:  # K5 - e, the one 5-vertex triangulation, has a separating triangle
        raise GraphError("no triangulation on 5 vertices is 4-connected")
    rng = random.Random(seed ^ 0xA5A5A5A5)
    for attempt in range(FOUR_CONNECTED_TRIES):
        T = gen_triangulation(n, seed + 1000 * attempt)
        edges, faces = sorted(T.edges), edge_faces(T)
        # flip-repair: flipping an edge of a separating triangle removes that cycle
        for _ in range(40 * n):
            T = _from_faces(set().union(*faces.values()), T.outer)
            seps = separating_triangles(T)
            if not seps:
                return T
            tri = seps[rng.randrange(len(seps))]
            cand = [e for e in combinations(tri, 2) if e not in _OUTER_EDGES]
            rng.shuffle(cand)
            if not any(_flip(edges, faces, e) for e in cand):
                break
    raise GraphError(f"no 4-connected triangulation found for n={n}, seed={seed}")


# ---------------------------------------------------------------------------
# Instance-building helpers for composed fixtures
# ---------------------------------------------------------------------------

def _inner_face(T: Triangulation, face: Sequence[int]) -> frozenset[int]:
    fset = frozenset(int(v) for v in face)
    if fset not in T.faces or fset == T.outer_set:
        raise GraphError(f"{tuple(sorted(fset))} is not an inner face")
    return fset


def stack_vertex(T: Triangulation, face: Sequence[int]) -> Triangulation:
    """Insert a new degree-3 vertex into an inner face."""
    fset = _inner_face(T, face)
    new = [frozenset((a, b, T.n)) for a, b in combinations(fset, 2)]
    return _from_faces([f for f in T.faces if f != fset] + new, T.outer)


def implant_octahedron(T: Triangulation, face: Sequence[int]) -> Triangulation:
    """Replace an inner face (u, v, w) by an octahedron whose outer face it is.

    Adds three vertices u', v', w' with u' adjacent to {v, w, v', w'} etc.,
    so (u, v, w) becomes a separating triangle with a 4-connected inside.
    The octahedron's faces take one vertex of each antipodal pair (u, u'),
    (v, v'), (w, w'); all but (u, v, w) replace the face.
    """
    fset = _inner_face(T, face)
    pairs = [(x, T.n + i) for i, x in enumerate(sorted(fset))]
    new = [frozenset(f) for f in product(*pairs)][1:]  # the first is (u, v, w)
    return _from_faces([f for f in T.faces if f != fset] + new, T.outer)


def augment_to_triangulation(n: int, edges: Iterable[Sequence[int]]) -> Triangulation:
    """Embed a simple connected planar graph into a triangulation by adding a
    fresh vertex inside every non-triangular face (star triangulation).

    No edge is ever added between two input vertices, so the input is the
    induced subgraph of the result on 0..n-1; added vertices are n..T.n-1.
    The heuristic is simple, not optimized.
    """
    if n < 3:
        raise GraphError("augmentation needs at least 3 vertices")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"bad edge ({u},{v})")
        g.add_edge(u, v)
    if not nx.is_connected(g):
        raise GraphError("augmentation needs a connected graph")

    for _ in range(4 * n + 16):
        m = g.number_of_nodes()
        ok, emb = nx.check_planarity(g)
        if not ok:
            raise GraphError("graph is not planar")
        faces = _faces_from_embedding(emb) if g.number_of_edges() else []
        big = [f for f in faces if len(f) != 3 or len(set(f)) != 3]
        if not big and m >= 4 and g.number_of_edges() == 3 * m - 6:
            face_list = sorted({frozenset(f) for f in faces}, key=lambda f: sorted(f))
            outer = tuple(sorted(face_list[0]))
            return validate(m, sorted(tuple(sorted(e)) for e in g.edges()), outer)
        if big:
            walk = min(big, key=lambda f: tuple(f))
        else:
            walk = min(faces, key=lambda f: tuple(f))  # grow a triangle to K4
        distinct = sorted(set(walk))
        apex = m
        g.add_node(apex)
        for v in distinct:
            g.add_edge(apex, v)
    raise GraphError("augmentation did not converge")  # pragma: no cover


def double_wheel(k: int) -> Triangulation:
    """Cycle of length k plus two apexes adjacent to every cycle vertex.

    4-connected (no separating triangle) for k >= 4; k = 4 is the octahedron.
    """
    if k < 4:
        raise GraphError("double_wheel needs k >= 4")
    rim = list(range(2, k + 2))
    faces = [frozenset((apex, rim[i - 1], rim[i])) for apex in (0, 1) for i in range(k)]
    return _from_faces(faces, (0, rim[0], rim[1]))
