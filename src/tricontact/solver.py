"""Placement: the exact medial child for every stacked vertex (peeled, or
the inner vertex of a K4 piece), an exact closed-form layout for every
octahedron piece, and for every larger piece the exact contact layout of a
Schnyder wood, opened into overlaps by one more exact solve of the same
wood (`solve_wood`).

No float enters a representation; the module imports no numpy.  An
octahedron's layout is final: its adjacencies overlap and its inner face
leaves a gap.  A larger piece has no separating triangle, so it is
4-connected and has a unique contact representation in its gap (Gonçalves,
Lévêque and Pinlou, DCG 2012), the solution of the linear system of some
Schnyder wood (Schrezenmaier, WG 2017).  The wood loop (`_final_wood`)
finds that wood by face flips and cycle reversals from the wood of a
canonical order, solving each wood's system exactly on integers.
`solve_wood` solves that wood's system once more with every contact
overlapping by a prescribed weight, and steps from the contact layout
along that solution by one power of two, chosen on integers so that no
non-adjacent pair meets and no face stays shut.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from tricontact import planar
from tricontact.geometry import (
    NegTri,
    Tri,
    gap_candidates,
    pow2_floor,
)


class CanvasError(ValueError):
    """The three boundary triangles do not bound a usable gap."""


class SolveFailure(RuntimeError):
    """No layout for a larger piece.  `diagnostics` names the vertices of
    nonpositive height in the wood loop's last solve, or the face that the
    overlaps leave shut."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def canvas_with_roles(ts: Sequence[Tri]) -> tuple[NegTri, dict[str, int]]:
    """The gap that the three boundary triangles `ts` bound, and the index
    in `ts` of the triangle supplying each of its sides (`gap_candidates`),
    which must be unique.

    A candidate also proves the boundary hypothesis, that the three
    triangles meet pairwise but have no common point.  With gap =
    NegTri(X, Y, H) and Th, Tv and Tz supplying its hypotenuse, vertical
    and horizontal sides, each corner of the gap lies on two of those
    sides: (X, Y) in Tv and Tz, (X, Y - H) in Th and Tv, (X - H, Y) in Th
    and Tz.  And a common point would have x >= X (in Tv), y >= Y (in Tz)
    and x + y <= X + Y - H (in Th), which H > 0 forbids.
    """
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
    final, and skips the wood solve.  With the boundary triangles
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
OPEN_WEIGHT = 8    # first overlap weight of the contacts that open a zero-hole face
MAX_WEIGHT = 1024  # the weight at which `solve_wood` gives up a face that stays shut


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


def _solve_unit(wood: Mapping[int, list[int]], roles: Mapping[str, int],
                weights: Mapping[tuple[int, int], int] | None = None
                ) -> dict[int, tuple[Fraction, Fraction, Fraction]]:
    """The wood's layout in the unit gap NegTri(0, 0, 1), v -> (x, y, s) for
    every vertex; the boundary vertices stand for the unit triangles that
    bound the gap along their sides.

    The 3(n - 3) equations of the inner vertices are x + y = s_r,
    s - x = y_g and s - y = x_b.  They are solved by sparse elimination on
    integer rows, each divided by the gcd of its entries after every step,
    then by back substitution on integer numerators and denominators.
    Given `weights` by (vertex, colour) contact, it solves instead for the
    layout's rate of change when every contact overlaps by t times its
    weight (1 where `weights` has none) and the boundary stays: the
    right-hand sides are -w, w and w."""
    fixed = ({roles["hyp"]: (-1, -1, -1), roles["vertical"]: (0, -1, 0),
              roles["horizontal"]: (-1, 0, 0)} if weights is None
             else dict.fromkeys(roles.values(), (0, 0, 0)))
    out = {v: tuple(map(Fraction, t)) for v, t in fixed.items()}
    inner = sorted(wood)
    col = {v: 3 * i for i, v in enumerate(inner)}
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    rank: dict[int, int] = {}
    for v in inner:
        i = col[v]
        for colour, (row, t, sign) in enumerate(zip(
                ({i: 1, i + 1: 1}, {i + 2: 1, i: -1}, {i + 2: 1, i + 1: -1}), wood[v], (-1, 1, 1))):
            k = 2 - colour  # the target's s, y or x
            rhs = 0 if weights is None else sign * weights.get((v, colour), 1)
            if t in fixed:
                rhs += fixed[t][k]
            else:
                row[col[t] + k] = -1
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
    val: dict[int, tuple[int, int]] = {}  # column -> (numerator, denominator > 0)
    for c in sorted(rank, key=rank.__getitem__, reverse=True):
        row, rhs = pivots[c]
        terms = [(e, *val[j]) for j, e in row.items() if j != c]
        den = math.lcm(*(d for _e, _n, d in terms))
        num = rhs * den - sum(e * n * (den // d) for e, n, d in terms)
        den *= row[c]
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        val[c] = (num // g, den // g)
    out.update((v, tuple(Fraction(*val[i + k]) for k in range(3))) for v, i in col.items())
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


def _final_wood(piece: planar.Triangulation, roles: Mapping[str, int]
                ) -> tuple[dict[int, list[int]], dict[int, tuple[Fraction, Fraction, Fraction]]]:
    """(wood, P): the first wood the loop meets whose layout P in the unit
    gap (`_solve_unit`) has every height positive and every corner on its
    side segment.

    The loop starts from the wood of a canonical order (`_canonical_wood`).
    Otherwise it goes on with the first wood of `_moves` that it has not
    solved yet, and raises SolveFailure, naming the vertices of nonpositive
    height, when there is none or after MAX_ROUNDS solves.  Schrezenmaier
    (WG 2017) shows that flips reach the right wood from any wood; this move
    rule and its start are only measured.  Starting from the maximal wood of
    the flip lattice (Felsner, 2004) instead took 109 solves where this takes
    77 on the benchmark's fourconn corpus, and ran out of solves on the
    8x8 grid.
    """
    nxt = _orient(piece, roles["hyp"], roles["vertical"])
    faces = sorted(piece.inner_faces, key=sorted)
    wood = _canonical_wood(piece, nxt, roles)
    seen = set()
    for rounds in range(1, MAX_ROUNDS + 1):
        seen.add(_key(wood))
        P = _solve_unit(wood, roles)
        if _is_layout(wood, P):
            return wood, P
        wood = next((w for w in _moves(wood, P, faces, nxt, roles)
                     if w is not None and _key(w) not in seen), None)
        if wood is None:
            break
    nonpositive = [v for _h, v in _nonpositive(P)]
    raise SolveFailure(
        f"no contact layout for the piece inside {piece.outer} after {rounds} exact solves; "
        f"vertices with h <= 0: {nonpositive}", {"rounds": rounds, "nonpositive": nonpositive})


def _integers(coords: Mapping[int, Sequence[Fraction]]) -> tuple[int, dict[int, tuple[int, ...]]]:
    """(D, every coordinate times D), D the least common denominator."""
    den = math.lcm(*(c.denominator for t in coords.values() for c in t))
    return den, {v: tuple(c.numerator * (den // c.denominator) for c in t)
                 for v, t in coords.items()}


def _slope(d: Sequence[tuple[int, ...]]) -> int:
    """The most a signed height over triangles moving at rates d = (dx, dy,
    ds) changes per unit step: it is min s - max x - max y."""
    return sum(max(abs(r[k]) for r in d) for k in range(3))


def _opening(A: Mapping[int, tuple[int, ...]], B: Mapping[int, tuple[int, ...]],
             face: frozenset[int]) -> int:
    """The rate at which the common signed height of `face` changes as t
    leaves 0, for coordinates A + t B: the min s, max x and max y move with
    the fastest-falling s and the fastest-rising x and y among the
    triangles that attain them at t = 0."""
    ms, mx, my = (f(A[v][k] for v in face) for f, k in ((min, 2), (max, 0), (max, 1)))
    return (min(B[v][2] for v in face if A[v][2] == ms)
            - max(B[v][0] for v in face if A[v][0] == mx)
            - max(B[v][1] for v in face if A[v][1] == my))


def solve_wood(piece: planar.Triangulation, boundary: Mapping[int, Tri], gap: NegTri,
               roles: Mapping[str, int], epsilon: Fraction) -> dict[int, Tri]:
    """The final layout of a piece's inner vertices in `gap`, bounded by the
    triangles `boundary`: its wood's contact layout with every contact
    opened into an overlap below `epsilon`, and every face open.

    The layout is P0 + t P1 in the unit gap, mapped into `gap`.  P0 is the
    contact layout of `_final_wood`'s wood.  P1 solves the same wood's
    system with every contact overlapping by its weight w (`_solve_unit`
    with weights): x + y = s_r - t w, s - x = y_g + t w and s - y = x_b + t w.
    The system is linear, so P0 + t P1 solves it for the overlaps t w.

    Weights.  A zero-hole face is an inner face whose three triangles meet
    in one point in P0; with every weight 1, their common signed height is
    exactly t.  Each of its vertices u takes weight W on its out-contact of
    the colour of the face edge that enters u, and every other contact
    weight 1.  W starts at OPEN_WEIGHT and doubles while some zero-hole face
    stays shut, that is, while its common signed height does not fall as t
    leaves 0 (`_opening`).  That height is concave in t (a min of linear
    functions minus two maxes), so a face that falls there stays open at
    every t > 0.  On the pieces measured W = 8 opens every face but the
    three of one embedding of the cube graph, which need 16; weights of 4
    or less leave a face shut.  A zero-hole face that is not a cyclic face
    of the wood, or that is still shut at MAX_WEIGHT, raises SolveFailure
    naming it.

    Step.  t is the largest power of two at most half the smallest of
      - e / W, where e = epsilon / gap.h is the budget in the unit gap;
      - each non-adjacent pair's separation over its slope;
      - each face's positive hole over its slope;
      - h0 / -h1 for each inner triangle whose height h0 + t h1 shrinks.
    Why it holds.  Every coordinate is linear in t, and a signed height,
    min s - max x - max y over its triangles, moves by at most t times its
    slope: the largest |ds|, |dx| and |dy| of P1 among them, summed
    (`_slope`).  So each non-adjacent pair stays half its separation apart,
    each face of positive hole keeps half its hole, and each height keeps
    half its value in P0.  Every adjacency with an inner end is one contact
    of the wood, and its signed height is at most the overlap t w that its
    equation sets (a min is at most s_r, a max at least x and y; likewise
    for green and blue), so at most W t <= e / 2, below the budget.  That
    each contact does overlap and that no boundary corner enters an inner
    triangle, the bounds do not give: `assemble` decides them, and all of
    the above, in its exact post-check.  All of it runs on the integers of
    two frames, P0 with the boundary triangles in the unit gap, and P1.
    """
    wood, P0 = _final_wood(piece, roles)
    unit = {**P0, **{o: ((t.x - gap.x) / gap.h, (t.y - gap.y) / gap.h,
                         (t.s - gap.x - gap.y) / gap.h) for o, t in boundary.items()}}
    D0, A = _integers(unit)
    holes = {f: min(A[v][2] for v in f) - max(A[v][0] for v in f) - max(A[v][1] for v in f)
             for f in sorted(piece.inner_faces, key=sorted)}
    zero = [f for f, hole in holes.items() if hole == 0]
    heavy = []
    for f in zero:
        edges = _cyclic(wood, f)
        if edges is None:
            raise SolveFailure(f"zero-hole face {sorted(f)} of the piece inside {piece.outer} "
                               "is not a cyclic face of its wood", {"face": sorted(f)})
        heavy += [(u, c) for c, (_tail, u) in edges.items()]
    weight = OPEN_WEIGHT
    while True:
        P1 = _solve_unit(wood, roles, dict.fromkeys(heavy, weight))
        D1, B = _integers({v: P1[v] for v in wood})
        B.update(dict.fromkeys(boundary, (0, 0, 0)))
        shut = next((f for f in zero if _opening(A, B, f) >= 0), None)
        if shut is None:
            break
        if weight >= MAX_WEIGHT:
            raise SolveFailure(f"zero-hole face {sorted(shut)} of the piece inside {piece.outer} "
                               f"stays shut at weight {weight}", {"face": sorted(shut)})
        weight *= 2

    least: tuple[int, int] | None = None

    def bound(num: int, den: int) -> None:
        nonlocal least
        if num > 0 and den > 0 and (least is None or num * least[1] < least[0] * den):
            least = (num, den)

    for v in wood:
        (x, y, s), (dx, dy, ds) = A[v], B[v]
        bound(s - x - y, dx + dy - ds)
    for f, hole in holes.items():
        if hole < 0:
            bound(-hole, _slope([B[v] for v in f]))
    adj = piece.adjacency()
    for u, v in combinations(sorted(A), 2):
        if v not in adj[u] and not (u in boundary and v in boundary):
            (xu, yu, su), (xv, yv, sv) = A[u], A[v]
            bound(max(xu, xv) + max(yu, yv) - min(su, sv), _slope([B[u], B[v]]))
    step = epsilon / gap.h / weight
    if least is not None:
        step = min(step, Fraction(least[0] * D1, least[1] * D0))
    t = pow2_floor(step / 2)
    out = {}
    for v in sorted(wood):
        (x0, y0, s0), (x1, y1, s1) = P0[v], P1[v]
        x, y, s = x0 + t * x1, y0 + t * y1, s0 + t * s1
        out[v] = Tri(gap.x + gap.h * x, gap.y + gap.h * y, gap.h * (s - x - y))
    return out
