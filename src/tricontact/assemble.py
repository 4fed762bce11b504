"""End-to-end construction: peel the stacked vertices, decompose the rest,
place each piece inside its gap, then put the peeled vertices back.

`planar.peel` first removes inner degree-3 vertices until none is left, in
linear time.  Only the remainder is decomposed.  Its pieces are placed in
preorder, each inside the gap of its outer face with its three boundary
triangles fixed.  Pieces have no separating triangle, so a stacked piece is
a K4, which survives the peel only as an ancestor of a larger piece.  Its
inner vertex, like every peeled vertex, goes to `solve_stacked`: the exact
medial child of the gap, which leaves three sub-gaps with their budgets.
A 6-vertex piece is the octahedron: `solve_octahedron` places it in its
final layout from its gap and budget.  Any other piece is 4-connected:
`solve_wood` solves the system of its Schnyder wood for the exact contact
layout and once more for overlapping contacts, and steps from the first
towards the second so that every face opens.  Either layout is returned
after one exact post-check.  Every piece is placed in the global frame,
exactly.  Each inner face of a larger piece
takes its gap and budget from `perturb.face_gap_with_roles` when asked.

One map holds the gap of every face still free, with its budget: the
canvas, the medial sub-gaps and the larger pieces' inner faces.  It caps a
face's budget by that of the piece the face lies in (a larger piece's
representation carries it as epsilon), so a piece takes its budget from its
gap alone, and budgets only shrink on the way down.  The peeled vertices go
back in reverse peel order and draw their gaps from the map too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations

from tricontact import perturb, planar
from tricontact.core import Representation
from tricontact.geometry import NegTri, Tri, common_signed_height, frac, inside_neg, signed_height
from tricontact.solver import (
    SolveFailure,
    canvas_with_roles,
    solve_octahedron,
    solve_stacked,
    solve_wood,
)


class PipelineError(RuntimeError):
    pass


def default_outer(scale: Fraction | int = 1) -> tuple[Tri, Tri, Tri]:
    """Boundary triple ((0,0,4), (1,3,2), (3,1,2)) scaled by `scale`:
    pairwise single-point contacts at distinct points, no common point."""
    s = frac(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    return (
        Tri(0 * s, 0 * s, 4 * s),
        Tri(1 * s, 3 * s, 2 * s),
        Tri(3 * s, 1 * s, 2 * s),
    )


@dataclass(frozen=True)
class PipelineConfig:
    outer: tuple[Tri, Tri, Tri] = dc_field(default_factory=default_outer)
    epsilon: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", frac(self.epsilon))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _fault(rep: Representation, piece: planar.Triangulation
           ) -> tuple[str, list[int], str] | None:
    """The first fault of a piece's final layout, as (kind, vertices,
    description), or None, decided on the integers of `rep.scaled`: every
    edge with an inner end must overlap by less than the budget, every
    non-edge stay apart, no face have a common point and no boundary corner
    lie in an inner triangle.  A piece has no separating triangle, so its
    faces are all the triples whose three triangles can meet."""
    S, tris = rep.scaled
    eps = rep.epsilon.numerator * (S // rep.epsilon.denominator)
    for u, v in combinations(piece.vertices(), 2):
        if {u, v} <= piece.outer_set:
            continue
        s = signed_height(tris[u], tris[v])
        if not (0 < s < eps if piece.has_edge(u, v) else s < 0):
            return "pair", [u, v], f"pair ({u},{v}) has signed height {s / S}"
    for f in piece.faces:
        if common_signed_height([tris[v] for v in f]) >= 0:
            return "face", sorted(f), f"face {sorted(f)} has a common point"
    corners = [c for o in piece.outer for c in tris[o].corners]
    for v in piece.vertices():
        if v not in piece.outer_set and any(tris[v].contains(c) for c in corners):
            return "corner", [v], f"a boundary corner enters triangle {v}"
    return None


def _solve_piece(piece: planar.Triangulation, outer_map: dict[int, Tri], gap: NegTri,
                 roles: dict[str, int], epsilon: Fraction, trace_entry: dict) -> Representation:
    """Place a piece larger than a K4 inside its gap, in its final layout:
    an octahedron in closed form, any other piece from its wood, and return
    it after one exact post-check (`_fault`)."""
    # with no separating triangle, a 6-vertex piece is the octahedron
    octahedron = len(piece.vertices()) == 6
    trace_entry["path"] = "octahedron" if octahedron else "wood"
    inner = (solve_octahedron(piece, gap, roles, epsilon) if octahedron
             else solve_wood(piece, outer_map, gap, roles, epsilon))
    rep = Representation({**outer_map, **inner}, piece.outer, epsilon)
    fault = _fault(rep, piece)
    if fault is not None:
        kind, ids, text = fault
        if octahedron:  # the closed form is proved, so this is a fault of the program
            raise PipelineError(f"octahedron {text} inside {piece.outer}")
        raise SolveFailure(f"the overlaps of the piece inside {piece.outer} fail: {text}",
                           {kind: ids})
    return rep


def _escapes(rep: Representation, roles: dict[str, int], vertices) -> int | None:
    """The first of `vertices` whose triangle leaves the piece's gap expanded
    by its budget, or None, decided on the integers of `rep.scaled`: the
    gap's sides are sides of the boundary triangles that `roles` names."""
    S, tris = rep.scaled
    X, Y = tris[roles["vertical"]].x, tris[roles["horizontal"]].y
    allowed = NegTri(X, Y, X + Y - tris[roles["hyp"]].s).expand(
        rep.epsilon.numerator * (S // rep.epsilon.denominator))
    return next((v for v in vertices if not inside_neg(tris[v], allowed)), None)


def represent(T: planar.Triangulation, config: PipelineConfig | None = None,
              trace: list | None = None) -> Representation:
    """Construct a representation of T bounded by the configured outer
    triangles, with every adjacency realized and no point in three triangles.

    Deterministic given the config.  Raises when a piece finds no layout
    (`SolveFailure`) or a hypothesis fails, instead of returning a wrong
    representation.  `trace` receives one entry per piece of the remainder
    that `planar.peel` leaves, in the order the pieces are solved.
    """
    if config is None:
        config = PipelineConfig()
    remainder, peeled = planar.peel(T)
    outer_map = {v: t for v, t in zip(T.outer, config.outer)}
    canvas, role_idx = canvas_with_roles([outer_map[v] for v in T.outer])
    triangles: dict[int, Tri] = dict(outer_map)
    # the faces still free, each with its (gap, roles, budget): the canvas, and
    # every medial child's sub-gaps; a larger piece's inner faces hold the
    # piece's representation, and take their gap and budget from it when asked
    gaps: dict[frozenset[int], tuple | Representation] = {
        T.outer_set: (canvas, {r: T.outer[i] for r, i in role_idx.items()}, config.epsilon)}

    def take(face: frozenset[int]):
        source = gaps.pop(face, None)
        if isinstance(source, Representation):
            gap, roles, budget = perturb.face_gap_with_roles(source, face)
            return gap, roles, min(budget, source.epsilon)
        return source

    def place(v: int, tri: Tri) -> None:
        if v in triangles:
            raise PipelineError(f"vertex {v} placed twice")
        triangles[v] = tri

    def stack(v: int, gap: NegTri, roles: dict[str, int]) -> dict:
        tri, sub_gaps = solve_stacked(v, gap, roles)
        place(v, tri)
        return sub_gaps

    if len(remainder.vertices()) > 3:
        # pieces come in preorder, so each one's outer face is free by the
        # time it comes up; solves and trace entries keep the tree's order
        for idx, piece in enumerate(planar.decompose(remainder).pieces):
            gap, roles, epsilon = take(piece.outer_set)
            entry = {"piece": idx, "n": len(piece.vertices()), "epsilon": epsilon, "canvas": gap}
            inner = [v for v in piece.vertices() if v not in piece.outer_set]
            rep = None
            if len(inner) == 1:
                # a piece has no separating triangle, so a stacked piece is a
                # K4; its faces' budgets are capped by its own
                gaps.update((f, (g, r, min(b, epsilon)))
                            for f, (g, r, b) in stack(inner[0], gap, roles).items())
                entry["path"] = "stacked"
            else:
                rep = _solve_piece(piece, {v: triangles[v] for v in piece.outer}, gap, roles,
                                   epsilon, entry)
                for v in inner:
                    place(v, rep.tri(v))
                gaps.update((f, rep) for f in piece.inner_faces)
            if trace is not None:
                trace.append(entry)
            if idx:  # the root's gap is the canvas, which the boundary check judges
                v = (_escapes(rep, roles, inner) if rep is not None else
                     next((v for v in inner if not inside_neg(triangles[v], gap.expand(epsilon))),
                          None))
                if v is not None:
                    raise PipelineError(
                        f"triangle of vertex {v} escapes the face gap of {piece.outer}")

    # peeled vertices come after every piece and read no budget
    for v, face in reversed(peeled):
        found = take(face)
        if found is None:
            raise PipelineError(f"vertex {v} goes back into {sorted(face)}, which has no gap")
        gaps.update(stack(v, *found[:2]))

    missing = set(T.vertices()) - set(triangles)
    if missing:
        raise PipelineError(f"vertices never placed: {sorted(missing)}")  # pragma: no cover
    return Representation(triangles, T.outer, config.epsilon)


def represent_planar(n: int, edges, config: PipelineConfig | None = None,
                     ) -> tuple[dict[int, Tri], Representation, planar.Triangulation]:
    """Representation of an arbitrary simple connected planar graph.

    Augments the graph to a triangulation (added vertices never connect two
    input vertices, so the input is an induced subgraph), represents the
    triangulation, and returns the input vertices' triangles alongside the
    full representation and the triangulation used.
    """
    T = planar.augment_to_triangulation(n, edges)
    rep = represent(T, config)
    return {v: rep.tri(v) for v in range(n)}, rep, T
