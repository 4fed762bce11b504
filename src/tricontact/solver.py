"""Placement: the exact medial child for every stacked vertex (peeled, or
the inner vertex of a K4 piece), an exact closed-form layout for every
octahedron piece, and for every larger piece the exact contact layout of a
Schnyder wood (`solve_wood`), inflated into a robust one (`robustify`).

No float enters a representation; the module imports no numpy.  An
octahedron's layout is final: its adjacencies overlap and its inner face
leaves a gap.  A larger piece has no separating triangle, so it is
4-connected and has a unique contact representation in its gap (Gonçalves,
Lévêque and Pinlou, DCG 2012), the solution of the linear system of some
Schnyder wood (Schrezenmaier, WG 2017).  `solve_wood` finds that wood by
face flips and cycle reversals, solving each wood's system exactly on
integers; `robustify` checks its inflation pair by pair on the integers of
`Representation.scaled`.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from tricontact import planar
from tricontact.core import Representation
from tricontact.geometry import (
    NegTri,
    Tri,
    common_intersection,
    common_signed_height,
    gap_candidates,
    inflate,
    pow2_floor,
    signed_height,
)


class CanvasError(ValueError):
    """The three boundary triangles do not bound a usable gap."""


class SolveFailure(RuntimeError):
    """The wood loop found no contact layout; `diagnostics` names the
    vertices of nonpositive height in its last solve."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class RobustifyError(RuntimeError):
    """A layout that `robustify` cannot inflate into a robust one."""


def check_outer_hypothesis(ts: Sequence[Tri]) -> None:
    """Boundary triangles must pairwise intersect with empty common intersection."""
    if len(ts) != 3:
        raise CanvasError("need exactly three boundary triangles")
    for a, b in combinations(ts, 2):
        if signed_height(a, b) < 0:
            raise CanvasError("boundary triangles must pairwise intersect")
    if not common_intersection(list(ts)).is_empty:
        raise CanvasError("boundary triangles must not have a common point")


def canvas_with_roles(ts: Sequence[Tri]) -> tuple[NegTri, dict[str, int]]:
    check_outer_hypothesis(ts)
    cands = gap_candidates(ts)
    if not cands:
        raise CanvasError("no valid side assignment bounds a gap (boundary overlaps too large)")
    if len(cands) > 1:
        raise CanvasError(f"gap assignment not unique ({len(cands)} candidates)")
    return cands[0]


# ---------------------------------------------------------------------------
# Exact placement of stacked vertices and octahedra
# ---------------------------------------------------------------------------

def solve_stacked(v: int, gap: NegTri, roles: Mapping[str, int]
                  ) -> tuple[Tri, dict[frozenset[int], tuple[NegTri, dict[str, int], Fraction]]]:
    """Place a stacked vertex v exactly, as the medial child of `gap`.

    `roles` names the vertex whose triangle supplies each gap side.  t(v) is
    the inscribed homothet tangent to all three gap sides at their midpoints,
    so it touches each of them with signed height exactly 0.  Returns t(v)
    and the three gaps it leaves, by face, each with its roles and its
    recursion budget: a sub-gap is half as tall as `gap`, keeps one corner
    of it, and has a side of t(v) in place of the gap side opposite that
    corner; its budget is half its height, the one `perturb.face_gap_with_roles`
    finds in the K4 of v and the three triangles of `roles`.
    """
    half = gap.h / 2
    x, y, budget = gap.x - half, gap.y - half, half / 2
    vh, vv, vz = roles["hyp"], roles["vertical"], roles["horizontal"]
    return Tri(x, y, half), {
        frozenset((v, vv, vz)): (NegTri(gap.x, gap.y, half),
                                 {"hyp": v, "vertical": vv, "horizontal": vz}, budget),
        frozenset((vh, vv, v)): (NegTri(gap.x, y, half),
                                 {"hyp": vh, "vertical": vv, "horizontal": v}, budget),
        frozenset((vh, v, vz)): (NegTri(x, gap.y, half),
                                 {"hyp": vh, "vertical": v, "horizontal": vz}, budget),
    }


def solve_octahedron(piece: planar.Triangulation, gap: NegTri, roles: Mapping[str, int],
                     epsilon: Fraction) -> dict[int, Tri]:
    """Place the three inner vertices of an octahedron piece in `gap`, in
    their final layout: every adjacency a positive overlap below `epsilon`,
    every non-adjacency apart, and no point in three triangles.

    With gap = NegTri(X, Y, H), every inner vertex v sits in the corner of
    `gap` opposite its one boundary non-neighbour.  The layout is exact and
    needs no inflation or triple removal.  With the boundary triangles
    fixed, the octahedron's only contact layout (inner heights H/3) has its
    three inner triangles meet in one point, so the final layout overlaps
    instead.  g is the largest power of two at most min(epsilon, H/2)/16,
    q = floor(H / 3g) >= 10, P = qg and r = H - 3P, in [0, 3g).  The
    antipodes A of roles["hyp"], B of roles["vertical"] and C of
    roles["horizontal"] are

        A = Tri(X - P,           Y - P + g,  P + g),       s = X + Y - P + 2g
        B = Tri(X - H + P - 4g,  Y - P + 3g, P + 8g),      s = X + Y - H + P + 7g
        C = Tri(X - H + 2P - 2g, Y - 2P + g, H - 2P + 3g), s = X + Y - 2P + 2g

    P is a multiple of g, so the layout adds only the power of two g to the
    gap's denominators, where H/3 would add a factor of 3 per nesting level;
    the remainder r lands in C alone.  Why it holds.  The boundary triangles bound `gap`
    (`gap_candidates`): the hypotenuse one Th has s = X + Y - H and x, y at
    most X - H and Y - H; the vertical one Tv has x = X, y <= Y - H and
    s >= X + Y; the horizontal one Tz has y = Y, x <= X - H and s >= X + Y.
    Reading off min s - max x - max y with q >= 10, the signed heights are
    A.B = 4g - r, A.C = g, B.C = g + r, all in [g, 4g]; A.Tv = g,
    A.Tz = 2g, B.Th = g, B.Tz = 11g, C.Th = C.Tv = g, all below epsilon;
    the non-edges A.Th <= -P - r - g, B.Tv <= 4g - P - r and
    C.Tz <= 4g + r - P, all below -3g; and the inner face A.B.C = -g.  The
    six faces with a boundary vertex are empty too (at most 7g - P), and so
    is every triple holding a non-edge.  Every inner triangle has x > X - H,
    y > Y - H and s < X + Y, while every boundary corner has x <= X - H,
    y <= Y - H or x + y >= X + Y, so no boundary corner enters one; and each
    lies in gap.expand(11g).  `assemble` re-checks all of this exactly.
    """
    X, Y, H = gap.x, gap.y, gap.h
    g = pow2_floor(min(epsilon, H / 2) / 16)
    P = math.floor(H / (3 * g)) * g
    place = {"hyp": Tri(X - P, Y - P + g, P + g),
             "vertical": Tri(X - H + P - 4 * g, Y - P + 3 * g, P + 8 * g),
             "horizontal": Tri(X - H + 2 * P - 2 * g, Y - 2 * P + g, H - 2 * P + 3 * g)}
    out = {}
    for v in piece.vertices():
        if v not in piece.outer_set:
            (role,) = [r for r, u in roles.items() if not piece.has_edge(u, v)]
            out[v] = place[role]
    return out


# ---------------------------------------------------------------------------
# Exact contact layouts from Schnyder woods
# ---------------------------------------------------------------------------

# A wood maps each inner vertex v to its three out-neighbours [r, g, b], by
# colour.  In the contact layout, v's right-angle corner lies on the
# hypotenuse of t(r), its top corner on the horizontal side of t(g) and its
# east corner on the vertical side of t(b); the boundary vertices
# roles["hyp"], roles["horizontal"] and roles["vertical"] take every red,
# green and blue edge, and supply the gap's sides instead.
RED, GREEN, BLUE = 0, 1, 2
# Counter-clockwise around an inner vertex come out red, in green, out blue,
# in red, out green, in blue: each out-edge's successor among the out-edges,
# and the colour of the in-edges that follow it.
NEXT_OUT = {RED: BLUE, BLUE: GREEN, GREEN: RED}
IN_AFTER = {RED: GREEN, BLUE: RED, GREEN: BLUE}
MAX_ROUNDS = 200  # exact solves before the wood loop gives up


def _orient(piece: planar.Triangulation, a: int, b: int) -> dict[tuple[int, int], int]:
    """nxt[(u, v)] = w for each inner face (u, v, w) in counter-clockwise
    order, where the outer face runs a, b and its third vertex
    counter-clockwise: around u, w comes right after v."""
    sides = planar.edge_faces(piece)
    nxt: dict[tuple[int, int], int] = {}
    stack = [(a, b, *(f - {a, b})) for f in sides[min(a, b), max(a, b)] if f != piece.outer_set]
    while stack:
        p, q, r = stack.pop()
        if (p, q) in nxt:
            continue
        nxt[(p, q)], nxt[(q, r)], nxt[(r, p)] = r, p, q
        # the face across an edge runs it the other way
        for u, v in ((p, q), (q, r), (r, p)):
            for f in sides[min(u, v), max(u, v)] - {piece.outer_set, frozenset((p, q, r))}:
                stack.append((v, u, *(f - {u, v})))
    return nxt


def _ring(nxt: Mapping[tuple[int, int], int], v: int, start: int) -> list[int]:
    """v's neighbours counter-clockwise from `start`: all of them round an
    inner vertex, up to the other boundary neighbour round a boundary one."""
    ring = [start]
    while (v, ring[-1]) in nxt and nxt[(v, ring[-1])] != start:
        ring.append(nxt[(v, ring[-1])])
    return ring


def _canonical_wood(piece: planar.Triangulation, nxt, roles: Mapping[str, int]
                    ) -> dict[int, list[int]]:
    """The wood of a canonical order (de Fraysseix, Pach and Pollack, 1990)
    with v1 = roles["hyp"], v2 = roles["vertical"] and vn =
    roles["horizontal"], built from vn down: each vertex is one of the
    outer cycle's vertices with no chord, and its lower neighbours run from
    the leftmost, its red target, to the rightmost, its blue target; those
    in between send it their green edges."""
    A, B, C = roles["hyp"], roles["vertical"], roles["horizontal"]
    adj = piece.adjacency()
    wood = {v: [0, 0, 0] for v in piece.vertices() if v not in piece.outer_set}
    cycle, removed = {A, B, C}, set()
    v: int | None = C
    while v is not None:
        removed.add(v)
        # v's removed neighbours are one run of its ring, so a ring that
        # starts in that run lists the lower neighbours left to right
        lower = [u for u in _ring(nxt, v, A if v == C else min(adj[v] & removed))
                 if u not in removed]
        if v != C:
            wood[v][RED], wood[v][BLUE] = lower[0], lower[-1]
        for u in lower[1:-1]:
            wood[u][GREEN] = v
        cycle.discard(v)
        cycle.update(lower)
        v = min((w for w in cycle if w != A and w != B and len(adj[w] & cycle) == 2),
                default=None)
    return wood


def _cyclic(wood: Mapping[int, list[int]], face: frozenset[int]
            ) -> dict[int, tuple[int, int]] | None:
    """colour -> (tail, head) of the edges of `face` if they form a directed
    cycle, whose three colours then differ, else None."""
    edges = {}
    for u in face:
        out = [c for c, t in enumerate(wood.get(u, ())) if t in face]
        if len(out) != 1:
            return None
        edges[out[0]] = (u, wood[u][out[0]])
    return edges


def _flip(wood: dict[int, list[int]], face: frozenset[int], edges) -> None:
    """Reverse a cyclic face: each of its vertices keeps the colour of its
    out-edge, which moves to the face's third vertex."""
    for c, (u, t) in edges.items():
        (wood[u][c],) = face - {u, t}


def _flip_to_maximal(wood: dict[int, list[int]], faces) -> None:
    """Flip cyclic faces until in each the green edge leaves the blue edge's
    head (a counter-clockwise cycle): the maximal wood of the flip lattice
    (Felsner, 2004), the same whatever the canonical order."""
    flipped = True
    while flipped:
        flipped = False
        for f in faces:
            edges = _cyclic(wood, f)
            if edges is not None and edges[GREEN][0] != edges[BLUE][1]:
                _flip(wood, f, edges)
                flipped = True


def _solve_unit(wood: Mapping[int, list[int]], roles: Mapping[str, int]
                ) -> dict[int, tuple[Fraction, Fraction, Fraction]]:
    """The wood's layout in the unit gap NegTri(0, 0, 1), v -> (x, y, s) for
    every vertex; the boundary vertices stand for the unit triangles that
    bound the gap along their sides.

    The 3(n - 3) equations of the inner vertices are x + y = s_r,
    s - x = y_g and s - y = x_b.  They are solved by sparse elimination on
    integer rows, each divided by the gcd of its entries after every step,
    then by back substitution on `Fraction`s."""
    fixed = {roles["hyp"]: (-1, -1, -1), roles["vertical"]: (0, -1, 0),
             roles["horizontal"]: (-1, 0, 0)}
    out = {v: tuple(map(Fraction, t)) for v, t in fixed.items()}
    inner = sorted(wood)
    col = {v: 3 * i for i, v in enumerate(inner)}
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    rank: dict[int, int] = {}
    for v in inner:
        i = col[v]
        for row, t, k in zip(({i: 1, i + 1: 1}, {i + 2: 1, i: -1}, {i + 2: 1, i + 1: -1}),
                             wood[v], (2, 1, 0)):
            if t in fixed:
                rhs = fixed[t][k]
            else:
                rhs, row[col[t] + k] = 0, -1
            while done := [c for c in row if c in pivots]:
                c = min(done, key=rank.__getitem__)
                prow, prhs = pivots[c]
                a, p = row[c], prow[c]
                new = {j: p * e for j, e in row.items()}
                for j, e in prow.items():
                    e = new.get(j, 0) - a * e
                    if e:
                        new[j] = e
                    else:
                        del new[j]
                rhs = p * rhs - a * prhs
                d = math.gcd(rhs, *new.values())
                row, rhs = ({j: e // d for j, e in new.items()}, rhs // d) if d > 1 else (new, rhs)
            c = min(row)
            pivots[c], rank[c] = (row, rhs), len(rank)
    val: dict[int, Fraction] = {}
    for c in sorted(rank, key=rank.__getitem__, reverse=True):
        row, rhs = pivots[c]
        val[c] = (rhs - sum(e * val[j] for j, e in row.items() if j != c)) / Fraction(row[c])
    out.update((v, (val[i], val[i + 1], val[i + 2])) for v, i in col.items())
    return out


def _is_layout(wood: Mapping[int, list[int]], P: Mapping[int, tuple[Fraction, ...]]) -> bool:
    """Every height positive and every corner on its target's side segment."""
    for v, (r, g, b) in wood.items():
        x, y, s = P[v]
        xr, yr, _ = P[r]
        xg, yg, sg = P[g]
        xb, yb, sb = P[b]
        if not (s - x - y > 0 and x >= xr and y >= yr
                and xg <= x <= sg - yg and yb <= y <= sb - xb):
            return False
    return True


def _key(wood: Mapping[int, list[int]]) -> tuple:
    return tuple(tuple(wood[v]) for v in sorted(wood))


def _recolour(out: Mapping[int, set[int]], nxt, roles: Mapping[str, int]) -> dict[int, list[int]]:
    """The wood of a 3-orientation: the in-edges of a boundary vertex take
    its colour, and each vertex's colours follow, round it, from one
    out-edge whose colour is known (`NEXT_OUT`, `IN_AFTER`)."""
    sink = {roles["hyp"]: RED, roles["horizontal"]: GREEN, roles["vertical"]: BLUE}
    known = {u: (t, sink[t]) for u in sorted(out) for t in sorted(out[u]) if t in sink}
    queue, wood = list(known), {}
    while queue:
        u = queue.pop()
        if u in wood:
            continue
        start, colour = known[u]
        wood[u] = [0, 0, 0]
        for w in _ring(nxt, u, start)[1:]:
            if w in out[u]:
                colour = NEXT_OUT[colour]
                wood[u][colour] = w
            elif w not in known:
                known[w] = (u, IN_AFTER[colour])
                queue.append(w)
        wood[u][known[u][1]] = start
    return wood


def _reverse_cycle(wood: Mapping[int, list[int]], v: int, nxt, roles: Mapping[str, int]
                   ) -> dict[int, list[int]] | None:
    """The wood after reversing the shortest directed cycle through v
    (breadth first, out-edges in colour order), or None if v lies on no
    directed cycle.  Reversing a directed cycle keeps every out-degree, so
    the result is again a 3-orientation, which `_recolour` colours."""
    parent = {v: v}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for t in wood.get(u, ()):
            if t == v:
                out = {w: set(ts) for w, ts in wood.items()}
                while True:
                    out[u].discard(t)
                    out[t].add(u)
                    if u == v:
                        return _recolour(out, nxt, roles)
                    u, t = parent[u], u
            if t not in parent:
                parent[t] = u
                queue.append(t)
    return None


def _moves(wood: Mapping[int, list[int]], P, faces, nxt, roles: Mapping[str, int]):
    """The woods to try after `wood`, whose layout P is not one, in turn:
    `wood` with an edge-disjoint set of its cyclic faces of negative hole
    x_b + y_g - s_r flipped (r, g and b the face's red, green and blue
    heads), most negative first, if it has any; then, or else, `wood` with
    the shortest directed cycle through each vertex of nonpositive height
    reversed, most negative first (None where there is none)."""
    holes = []
    for f in faces:
        e = _cyclic(wood, f)
        if e is not None:
            hole = P[e[BLUE][1]][0] + P[e[GREEN][1]][1] - P[e[RED][1]][2]
            if hole < 0:
                holes.append((hole, sorted(f), f, e))
    if holes:
        flipped, used = {v: list(ts) for v, ts in wood.items()}, set()
        for _hole, _order, f, e in sorted(holes):
            sides = {frozenset(pair) for pair in combinations(f, 2)}
            if not sides & used:
                used |= sides
                _flip(flipped, f, e)
        yield flipped
    for _h, v in _nonpositive(P):
        yield _reverse_cycle(wood, v, nxt, roles)


def _nonpositive(P) -> list[tuple[Fraction, int]]:
    """(h, v) for each vertex v of nonpositive height h in the layout P,
    most negative first; the boundary's unit triangles have height 1."""
    return sorted((s - x - y, v) for v, (x, y, s) in P.items() if s - x - y <= 0)


def solve_wood(piece: planar.Triangulation, gap: NegTri, roles: Mapping[str, int]
               ) -> dict[int, Tri]:
    """The exact contact layout of a piece's inner vertices in `gap`: every
    adjacency at signed height 0, every non-adjacency apart.

    `roles` names the boundary vertex that supplies each gap side.  The loop
    starts from the maximal wood (`_canonical_wood`, `_flip_to_maximal`) and
    solves each wood's system exactly in the unit gap (`_solve_unit`).  A
    layout with every height positive and every corner on its side segment
    is the answer, mapped into `gap` by the homothety that takes the unit
    gap there.  Otherwise the loop goes on with the first wood of `_moves`
    that it has not solved yet, and raises SolveFailure, naming the vertices
    of nonpositive height, when there is none or after MAX_ROUNDS solves.
    Schrezenmaier (WG 2017) shows that flips reach the right wood; this
    move rule is only measured.
    """
    nxt = _orient(piece, roles["hyp"], roles["vertical"])
    faces = sorted(piece.inner_faces, key=sorted)
    wood = _canonical_wood(piece, nxt, roles)
    _flip_to_maximal(wood, faces)
    seen = set()
    for rounds in range(1, MAX_ROUNDS + 1):
        seen.add(_key(wood))
        P = _solve_unit(wood, roles)
        if _is_layout(wood, P):
            return {v: Tri(gap.x + gap.h * x, gap.y + gap.h * y, gap.h * (s - x - y))
                    for v, (x, y, s) in sorted(P.items()) if v in wood}
        wood = next((w for w in _moves(wood, P, faces, nxt, roles)
                     if w is not None and _key(w) not in seen), None)
        if wood is None:
            break
    nonpositive = [v for _h, v in _nonpositive(P)]
    raise SolveFailure(
        f"no contact layout for the piece inside {piece.outer} after {rounds} exact solves; "
        f"vertices with h <= 0: {nonpositive}", {"rounds": rounds, "nonpositive": nonpositive})


# ---------------------------------------------------------------------------
# Contact layout -> robust layout
# ---------------------------------------------------------------------------

def robustify(rep: Representation, piece: planar.Triangulation) -> Representation:
    """Inflate every inner triangle of an exact contact layout by one power
    of two, iota, so that every adjacent pair overlaps strictly, below the
    budget `rep.epsilon`, and every non-adjacent pair stays strictly apart.

    iota is the largest power of two at most 1/8 of the smallest of the
    budget, the smallest positive face hole (minus the common signed height
    of a face's three triangles) and the smallest non-adjacent separation.
    Inflating moves every side out by iota, so a signed height grows by at
    most 3 iota: every separation and positive hole stays open, and every
    contact becomes an overlap below the budget.  A face of hole 0 (three
    triangles through one point) becomes a bad triple, which triple removal
    clears.  The pairs are checked exactly on the integers of
    `Representation.scaled`: the non-adjacent ones before, all of them after."""
    outer = piece.outer_set
    vs = piece.vertices()
    pairs = [(u, v, piece.has_edge(u, v)) for i, u in enumerate(vs) for v in vs[i + 1:]
             if not (u in outer and v in outer)]
    S, tris = rep.scaled
    least = [rep.epsilon * S]
    for u, v, edge in pairs:
        if not edge:
            s = signed_height(tris[u], tris[v])
            if s >= 0:
                raise RobustifyError(f"non-adjacent pair ({u},{v}) meets in the contact layout")
            least.append(-s)
    least += [-common_signed_height([tris[v] for v in f]) for f in piece.inner_faces]
    iota = pow2_floor(Fraction(min(h for h in least if h > 0), 8 * S))

    out = Representation({v: t if v in outer else inflate(t, iota)
                          for v, t in rep.triangles.items()}, rep.outer, rep.epsilon)
    S, tris = out.scaled
    eps = rep.epsilon * S
    for u, v, edge in pairs:
        s = signed_height(tris[u], tris[v])
        if edge and s <= 0:
            raise RobustifyError(f"inflation failed to open overlap for edge ({u},{v})")
        if not edge and s >= 0:
            raise RobustifyError(f"inflation created a spurious intersection ({u},{v})")
        if s >= 0 and s >= eps:
            raise RobustifyError(f"overlap for ({u},{v}) reached the epsilon budget")
    return out
