"""End-to-end construction: peel the stacked vertices, decompose the rest,
solve each piece inside its gap, thread boundary triangles and overlap
budgets through the separation tree, then put the peeled vertices back.

`planar.peel` first removes inner degree-3 vertices until none is left, in
linear time.  Only the remainder is decomposed.  Each of its pieces is
solved with its three boundary triangles fixed.  A stacked piece is a K4
(pieces have no separating triangle), and its inner vertex gets the medial
child of the gap, exactly; such a piece survives the peel only as an
ancestor of a larger piece.  Every larger piece goes to the numeric solver
in its canvas's own frame, where a power-of-two scaling makes the canvas 2
to 4 tall, and is exactified and inflated there.  Every piece is then
cleared of triple overlaps.  For every child separating triangle the parent
piece supplies the face gap and the safe recursion budget; the child budget
is the minimum of the parent budget and that gap budget, so budgets only
shrink on the way down.

The peeled vertices go back in reverse peel order, each as the medial child
of its face's gap.  A face of the remainder takes its gap from the piece
that holds it (the canvas, when the remainder is the outer triangle); any
other face is one of the three exact sub-gaps of an earlier medial child.
This is the same placement a K4 piece per peeled vertex would give, without
its triple scan and its face-gap search.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from tricontact import perturb, planar
from tricontact.core import Representation
from tricontact.geometry import NegTri, Tri, frac, inside_neg, intersect
from tricontact.solver import (
    SolverParams,
    _medial_child,
    canvas_with_roles,
    exactify,
    robustify,
    solve_contacts,
    solve_stacked,
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
    solver: SolverParams = dc_field(default_factory=SolverParams)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _solve_piece(piece: planar.Triangulation, outer_map: dict[int, Tri],
                 canvas_roles, epsilon: Fraction, params: SolverParams,
                 trace_entry: dict) -> Representation:
    canvas = canvas_roles[0]
    if len(piece.vertices()) == 4:
        rep = solve_stacked(piece, outer_map, epsilon, canvas)
        trace_entry["path"] = "stacked"
    else:
        # solve in the frame t -> ((x - ox)/lam, (y - oy)/lam, h/lam), lam a power of two:
        # the canvas becomes NegTri(3, 3, H), 2 <= H < 4, and a window 9H tall clips the boundary
        q = canvas.h / 2
        lam = Fraction(2) ** (q.numerator.bit_length() - q.denominator.bit_length())
        lam = lam if lam <= q else lam / 2
        ox, oy, H = canvas.x - 3 * lam, canvas.y - 3 * lam, canvas.h / lam
        window = Tri(3 - 3 * H, 3 - 3 * H, 9 * H)
        local = {v: intersect(Tri((t.x - ox) / lam, (t.y - oy) / lam, t.h / lam), window).region
                 for v, t in outer_map.items()}
        result = solve_contacts(piece, local, params, (NegTri(3, 3, H), canvas_roles[1]))
        local_rep = robustify(exactify(result, epsilon / lam), piece, params, epsilon / lam)
        inner = {v: Tri(lam * t.x + ox, lam * t.y + oy, lam * t.h)
                 for v, t in local_rep.triangles.items() if v not in outer_map}
        rep = Representation({**outer_map, **inner}, piece.outer, epsilon)
        trace_entry["path"] = "solver"
        trace_entry["restarts"] = result.restarts_used
        trace_entry["max_edge_residual"] = result.max_edge_residual
    # the exact medial child, or robustify's pair checks, make the intersection
    # graph the piece's graph; a piece has no separating triangle, so that
    # graph's triangles are exactly the piece's faces
    return perturb.remove_all(rep, [tuple(sorted(f)) for f in piece.faces])


def _medial_gaps(gap: NegTri, roles: dict[str, int], v: int
                 ) -> dict[frozenset[int], tuple[NegTri, dict[str, int]]]:
    """The three gaps that t(v), the medial child of `gap`, leaves, by face.

    The child's corners touch the gap's sides at their midpoints, so each
    sub-gap is half as tall, keeps one corner of `gap`, and has a side of
    t(v) in place of the gap side opposite that corner.
    """
    half = gap.h / 2
    vh, vv, vz = roles["hyp"], roles["vertical"], roles["horizontal"]
    return {
        frozenset((v, vv, vz)): (NegTri(gap.x, gap.y, half),
                                 {"hyp": v, "vertical": vv, "horizontal": vz}),
        frozenset((vh, vv, v)): (NegTri(gap.x, gap.y - half, half),
                                 {"hyp": vh, "vertical": vv, "horizontal": v}),
        frozenset((vh, v, vz)): (NegTri(gap.x - half, gap.y, half),
                                 {"hyp": vh, "vertical": v, "horizontal": vz}),
    }


def _represent_remainder(T: planar.Triangulation, config: PipelineConfig, root_gap,
                         triangles: dict[int, Tri], wanted: set[frozenset[int]],
                         trace: list | None) -> dict[frozenset[int], Representation]:
    """Solve every piece of T inside its gap, the root piece in `root_gap`
    (the canvas and its roles), and add the inner triangles to `triangles`.
    Returns, for each face in `wanted`, the representation of the piece
    that holds it as an inner face."""
    holders: dict[frozenset[int], Representation] = {}
    tree = planar.decompose(T)
    children: dict[int, list[tuple[int, tuple[int, int, int]]]] = {}
    for parent_idx, child_idx, label in tree.links:
        children.setdefault(parent_idx, []).append((child_idx, label))
    # pieces still to place, each with its parent's representation and budget;
    # popped in preorder, so solves and trace entries keep the tree's order
    pending: list[tuple[Representation, Fraction, int, tuple[int, int, int]]] = []

    def place(piece_idx: int, outer_map: dict[int, Tri], epsilon: Fraction,
              canvas_roles) -> None:
        piece = tree.pieces[piece_idx]
        entry = {"piece": piece_idx, "n": len(piece.vertices()),
                 "epsilon": epsilon, "canvas": canvas_roles[0]}
        rep = _solve_piece(piece, outer_map, canvas_roles, epsilon, config.solver, entry)
        if trace is not None:
            trace.append(entry)
        for v in rep.inner_ids():
            if v in triangles:
                raise PipelineError(f"vertex {v} placed twice")
            triangles[v] = rep.tri(v)
        holders.update((f, rep) for f in piece.inner_faces if f in wanted)
        pending.extend((rep, epsilon, c, label)
                       for c, label in reversed(children.get(piece_idx, [])))

    place(0, {v: triangles[v] for v in T.outer}, config.epsilon, root_gap)
    while pending:
        rep, epsilon, child_idx, label = pending.pop()
        gap, roles_by_vertex, eps_prime = perturb.face_gap_with_roles(rep, label)
        if eps_prime <= 0:
            raise PipelineError(f"face {label} has no recursion budget")
        eps_child = min(epsilon, eps_prime)
        place(child_idx, {v: rep.tri(v) for v in label}, eps_child, (gap, roles_by_vertex))
        # only the child's own solve placed its inner vertices
        allowed = gap.expand(eps_child)
        for v in tree.pieces[child_idx].vertices():
            if v in label:
                continue
            if not inside_neg(triangles[v], allowed):
                raise PipelineError(
                    f"triangle of vertex {v} escapes the face gap of {label}")
    return holders


def represent(T: planar.Triangulation, config: PipelineConfig | None = None,
              trace: list | None = None) -> Representation:
    """Construct a representation of T bounded by the configured outer
    triangles, with every adjacency realized and no point in three triangles.

    Deterministic given the config (incl. solver seed).  Raises on solver
    non-convergence or hypothesis violations instead of returning a wrong
    representation.  `trace` receives one entry per piece of the remainder
    that `planar.peel` leaves, in the order the pieces are solved.
    """
    if config is None:
        config = PipelineConfig()
    remainder, peeled = planar.peel(T)
    outer_map = {v: t for v, t in zip(T.outer, config.outer)}
    canvas, role_idx = canvas_with_roles([outer_map[v] for v in T.outer])
    roles_by_vertex = {r: T.outer[i] for r, i in role_idx.items()}
    triangles: dict[int, Tri] = dict(outer_map)
    # the gaps still free for a peeled vertex, and the remainder pieces whose
    # inner faces take one
    if len(remainder.vertices()) == 3:
        gaps, holders = {T.outer_set: (canvas, roles_by_vertex)}, {}
    else:
        gaps, holders = {}, _represent_remainder(remainder, config, (canvas, roles_by_vertex),
                                                 triangles, {f for _, f in peeled}, trace)

    for v, face in reversed(peeled):
        if face in gaps:
            gap, roles = gaps.pop(face)
        elif face in holders:
            gap, roles, eps_prime = perturb.face_gap_with_roles(holders.pop(face), face)
            if eps_prime <= 0:
                raise PipelineError(f"face {sorted(face)} has no recursion budget")
        else:
            raise PipelineError(f"vertex {v} goes back into {sorted(face)}, which has no gap")
        triangles[v] = _medial_child(gap)
        gaps.update(_medial_gaps(gap, roles, v))

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
