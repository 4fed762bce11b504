"""Placement: the exact medial child for every stacked vertex (peeled, or
the inner vertex of a K4 piece), an exact closed-form layout for every
octahedron piece, the numeric contact solver for the other pieces without
separating triangles, and the bridge from a near-contact layout to a robust
one (exactify + robustify).

The numeric stage is the only part of the package whose floats reach the
representation; the verifier screens with floats but decides exactly, and
an input whose pieces are all K4s and octahedra is built without a float.
An octahedron's layout is exact and final: its adjacencies overlap and its
inner face leaves a gap, so it takes no inflation and no triple removal,
and no solver tolerance enters it.  The solver evaluates its
objective once per point, and a line search's candidate steps as one
stacked array.  Everything it outputs is converted to exact rationals
(doubles are dyadic), then inflated by a single rational so that every
adjacency becomes a strictly positive overlap while every non-adjacency
stays strictly negative; the inflation is verified pair by pair on
integers, in the representation's common-denominator frame
(`core.int_frame`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from tricontact import planar
from tricontact.core import Representation, int_frame
from tricontact.geometry import (
    NegTri,
    Tri,
    common_intersection,
    frac,
    gap_candidates,
    inflate,
    pow2_floor,
    signed_height,
)


class CanvasError(ValueError):
    """The three boundary triangles do not bound a usable gap."""


class SolveFailure(RuntimeError):
    """Numeric solver did not converge; carries best-effort diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class RobustifyError(RuntimeError):
    """No feasible inflation exists for the given delta/margin/epsilon."""


@dataclass(frozen=True)
class SolverParams:
    """Tolerances of the numeric solver and of `robustify`, so of the pieces
    that are neither K4s nor octahedra.  Lengths are in the solve's frame;
    under `represent`, one where the canvas is 2 to 4 tall."""
    delta: float = 1e-7        # residual tolerance on adjacency signed heights
    margin: float = 1e-3       # minimum non-adjacent separation (signed-height units)
    h_min: float = 1e-3        # minimum triangle height
    max_iters: int = 300
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.delta < self.margin / 6):
            raise ValueError(f"need 0 < delta < margin/6, got delta={self.delta}, margin={self.margin}")
        if self.h_min <= 0:
            raise ValueError("h_min must be positive")


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
# Numeric contact solver
# ---------------------------------------------------------------------------

@dataclass
class SolveResult:
    piece: planar.Triangulation
    outer_tris: dict[int, Tri]          # exact boundary triangles
    inner: dict[int, tuple[float, float, float]]
    iterations: int
    restarts_used: int
    max_edge_residual: float
    objective_trace: list[float] = field(default_factory=list)


def _pairs(piece: planar.Triangulation) -> list[tuple[int, int, bool]]:
    """All vertex pairs except boundary-boundary, flagged with adjacency."""
    outer = set(piece.outer)
    vs = sorted(piece.vertices())
    out = []
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if u in outer and v in outer:
                continue
            out.append((u, v, piece.has_edge(u, v)))
    return out


def _tutte_positions(piece: planar.Triangulation, anchors: dict[int, tuple[float, float]]) -> dict[int, tuple[float, float]]:
    adj = piece.adjacency()
    inner = sorted(v for v in piece.vertices() if v not in anchors)
    if not inner:
        return dict(anchors)
    idx = {v: i for i, v in enumerate(inner)}
    m = len(inner)
    A = np.zeros((m, m))
    bx = np.zeros(m)
    by = np.zeros(m)
    for v in inner:
        i = idx[v]
        deg = len(adj[v])
        A[i, i] = deg
        for u in adj[v]:
            if u in anchors:
                bx[i] += anchors[u][0]
                by[i] += anchors[u][1]
            else:
                A[i, idx[u]] -= 1.0
    xs = np.linalg.solve(A, bx)
    ys = np.linalg.solve(A, by)
    pos = dict(anchors)
    for v in inner:
        pos[v] = (float(xs[idx[v]]), float(ys[idx[v]]))
    return pos


class _Objective:
    """Piecewise-linear least-squares residual with selector freezing.

    Every term is evaluated for all pairs, vertices and inner edges at once
    through index arrays built here, with the float operations of a
    term-by-term loop in the same order, so the values are reproducible bit
    for bit, at one point or at each row of a stack of points alike.  The
    coordinate table stacks the inner triangles (row i holds z[3i:3i+3],
    vertex inner_ids[i]) above the three boundary triangles.  `system` and
    `check_success` read the evaluation of the current point.
    """

    def __init__(self, outer_f, inner_ids, pairs, canvas_f, params):
        m = len(inner_ids)
        self.m = m
        self.p = params
        self.Xc, self.Yc, self.hyp = canvas_f   # canvas: a <= Xc, b <= Yc, a+b >= hyp
        row = {v: i for i, v in enumerate(inner_ids)}
        row.update((v, m + j) for j, v in enumerate(outer_f))
        self.outer = np.array(list(outer_f.values()), dtype=float).reshape(-1, 3)
        # per table row: its first column in the linear system (the boundary
        # rows share a spare block past the last one), and what it adds to a
        # pair row's constant as the pair's a_s, a_x or a_y: for a boundary
        # row ((0 + x) + y) + h, x and y, for an inner row 0.0
        self.col = 3 * np.minimum(np.arange(m + 3), m)
        self.const = np.zeros((m + 3, 3))
        self.const[m:] = [(sum(t), t[0], t[1]) for t in outer_f.values()]
        self.pair_ids = [(u, v) for u, v, _ in pairs]
        self.pu = np.array([row[u] for u, _, _ in pairs], dtype=np.intp)
        self.pv = np.array([row[v] for _, v, _ in pairs], dtype=np.intp)
        self.edge = np.array([e for _, _, e in pairs], dtype=bool)
        inner_edge = self.edge & (self.pu < m) & (self.pv < m)
        self.eu, self.ev = self.pu[inner_edge], self.pv[inner_edge]
        # the per-vertex hinge rows (x, y, hyp, h_min), flattened vertex by
        # vertex: two unit columns (the spare one for none) and the
        # right-hand side
        i3 = 3 * np.arange(m, dtype=np.intp)[:, None]
        self.vcol1 = (i3 + [0, 1, 0, 2]).ravel()
        self.vcol2 = (i3 + [2, 2, 1, 0]).ravel()
        self.vcol2[3::4] = 3 * m
        # right-hand sides of the inner-edge corner hinges (x, y, hyp), and
        # of all hinge rows in order
        mg = params.margin
        self.erhs = np.array([self.Xc - mg, self.Yc - mg, self.hyp + mg])
        self.hinge_rhs = np.concatenate(([self.Xc, self.Yc, self.hyp, params.h_min] * m,
                                         np.tile(self.erhs, len(self.eu))))

    def _coords(self, z):
        lead = z.shape[:-1]
        T = np.empty((*lead, self.m + 3, 3))
        T[..., :self.m, :] = z.reshape(*lead, self.m, 3)
        T[..., self.m:, :] = self.outer
        X, Y, H = T[..., 0], T[..., 1], T[..., 2]
        return X, Y, H, (X + Y) + H

    def evaluate(self, z):
        """(X, Y, H, S, signed heights, vertex hinges, edge hinges, E) at the
        point z, or at each row of a (k, 3m) stack z, with a leading axis of
        length k on every entry.  The vertex hinges are each inner vertex's
        x, y, hyp and h_min residuals, the edge hinges each inner edge's
        corner residuals; both are views of one row of hinge terms."""
        X, Y, H, S = self._coords(z)
        pu, pv, u, v, m = self.pu, self.pv, self.eu, self.ev, self.m
        # a.take(i, -1) is a[..., i], at a third of its call cost on small arrays
        s = np.minimum(S.take(pu, -1), S.take(pv, -1)) - np.maximum(X.take(pu, -1), X.take(pv, -1))
        s -= np.maximum(Y.take(pu, -1), Y.take(pv, -1))
        lead = s.shape[:-1]
        g = np.empty((*lead, 4 * m + 3 * len(u)))
        vh, eh = g[..., :4 * m].reshape(*lead, m, 4), g[..., 4 * m:].reshape(*lead, len(u), 3)
        x, y, h = X[..., :m], Y[..., :m], H[..., :m]
        vh[..., 0] = (x + h) - self.Xc
        vh[..., 1] = (y + h) - self.Yc
        vh[..., 2] = (self.hyp - x) - y
        vh[..., 3] = self.p.h_min - h
        ca = np.maximum(X.take(u, -1), X.take(v, -1))
        cb = np.maximum(Y.take(u, -1), Y.take(v, -1))
        eh[..., 0] = ca - self.erhs[0]
        eh[..., 1] = cb - self.erhs[1]
        eh[..., 2] = (self.erhs[2] - ca) - cb
        r = np.where(self.edge, s, s + self.p.margin)
        terms = np.concatenate((np.zeros((*lead, 1)), np.where(self.edge | (r > 0), r * r, 0.0),
                                np.where(g > 0, g * g, 0.0)), axis=-1)
        # summed one term after the other; an inactive term is 0.0 and changes nothing
        return X, Y, H, S, s, vh, eh, np.add.accumulate(terms, axis=-1)[..., -1]

    def system(self, ev):
        """The active linear system (M, b) at an evaluated point: a row per
        adjacent pair and per non-adjacent pair inside its margin, then the
        active hinge rows of each inner vertex, then those of each inner edge."""
        m = self.m
        X, Y, _, S, s, vh, eh, _ = ev
        keep = self.edge | (s + self.p.margin > 0)
        ku, kv = self.pu[keep], self.pv[keep]
        a_s = np.where(S[ku] <= S[kv], ku, kv)
        a_x = np.where(X[ku] >= X[kv], ku, kv)
        a_y = np.where(Y[ku] >= Y[kv], ku, kv)
        const = (self.const[a_s, 0] - self.const[a_x, 1]) - self.const[a_y, 2]
        b_pair = np.where(self.edge[keep], -const, -self.p.margin - const)

        u, v = self.eu, self.ev
        ix = self.col[np.where(X[u] >= X[v], u, v)]
        iy = self.col[np.where(Y[u] >= Y[v], u, v)] + 1
        spare = np.full_like(ix, 3 * m)
        active = np.concatenate((vh.ravel() > 0, eh.ravel() > 0))
        col1 = np.concatenate((self.vcol1, np.stack([ix, iy, ix], axis=1).ravel()))[active]
        col2 = np.concatenate((self.vcol2, np.stack([spare, spare, iy], axis=1).ravel()))[active]

        # boundary coefficients and absent second columns land in a spare
        # block past the last column, which is cut off
        M = np.zeros((len(ku) + len(col1), 3 * m + 3))
        rows = np.arange(len(ku))
        c = self.col[a_s]
        M[rows, c] = M[rows, c + 1] = M[rows, c + 2] = 1.0
        M[rows, self.col[a_x]] -= 1.0
        M[rows, self.col[a_y] + 1] -= 1.0
        hrows = np.arange(len(ku), len(M))
        M[hrows, col1] = 1.0
        M[hrows, col2] = 1.0
        return np.ascontiguousarray(M[:, :3 * m]), np.concatenate((b_pair, self.hinge_rhs[active]))

    def check_success(self, ev):
        """(ok, max |edge residual|, worst pair) at an evaluated point."""
        p = self.p
        H, s, vh = ev[2], ev[4], ev[5]
        res = np.abs(s[self.edge])
        worst, worst_pair = 0.0, (-1, -1)
        if res.size and res.max() > 0:
            k = int(np.argmax(res))
            worst = float(res[k])
            worst_pair = self.pair_ids[int(np.flatnonzero(self.edge)[k])]
        ok = not (np.any(res > 0.5 * p.delta)
                  or np.any(s[~self.edge] > -(p.margin + p.delta))
                  or np.any(vh[:, :3] > 0.5 * p.delta)
                  or np.any(H[:self.m] < p.h_min - p.delta))
        return ok, worst, worst_pair


def _anchor_points(canvas: NegTri, roles: dict[str, int]) -> dict[int, tuple[float, float]]:
    """Each boundary vertex sits at the midpoint of its canvas side."""
    X, Y, H = float(canvas.x), float(canvas.y), float(canvas.h)
    return {
        roles["hyp"]: (X - H / 2, Y - H / 2),
        roles["vertical"]: (X, Y - H / 2),
        roles["horizontal"]: (X - H / 2, Y),
    }


ALPHAS = 0.5 ** np.arange(21)  # the line search's steps 1, 1/2, ..., 2^-20, each exact


def _first_descent(obj: _Objective, E: float, cands):
    """(point, evaluation) of the first row of the stack `cands` whose
    objective falls below E, or None.  The first row is evaluated alone, the
    rest as one stack, so an accepted full step costs one evaluation."""
    bar = E * (1 - 1e-14) - 1e-300
    if len(cands):
        ev = obj.evaluate(cands[0])
        if ev[-1] < bar:
            return cands[0], ev
        ev = obj.evaluate(cands[1:])
        hit = np.flatnonzero(ev[-1] < bar)
        if hit.size:
            k = int(hit[0])
            return cands[k + 1], tuple(a[k] for a in ev)
    return None


def solve_contacts(piece: planar.Triangulation, outer_tris: Mapping[int, Tri],
                   params: SolverParams,
                   canvas_roles: tuple[NegTri, dict[str, int]]) -> SolveResult:
    """Near-contact representation of a piece with no separating triangle,
    inside the canvas `canvas_roles` gives with its side roles.

    Minimizes the sum of squared adjacency signed heights plus hinge penalties
    for non-adjacent margins, canvas containment, and minimum heights, by
    selector-freezing iterated least squares with monotone accepted descent.
    Deterministic given params.seed.
    """
    if planar.separating_triangles(piece):
        raise ValueError("solve_contacts requires a piece with no separating triangle")
    outer_ids = tuple(piece.outer)
    if set(outer_tris) != set(outer_ids):
        raise ValueError("outer triangle keys must match the piece's outer vertices")
    check_outer_hypothesis([outer_tris[v] for v in outer_ids])
    canvas, roles = canvas_roles

    inner_ids = sorted(v for v in piece.vertices() if v not in set(outer_ids))
    pairs = _pairs(piece)
    outer_f = {v: (float(t.x), float(t.y), float(t.h)) for v, t in outer_tris.items()}
    canvas_f = (float(canvas.x), float(canvas.y), float(canvas.hyp_level))
    obj = _Objective(outer_f, inner_ids, pairs, canvas_f, params)

    anchors = _anchor_points(canvas, roles)
    base_pos = _tutte_positions(piece, anchors)
    Hf = float(canvas.h)
    n_all = len(list(piece.vertices()))

    best_diag = None
    for attempt in range(params.restarts + 1):
        rng = random.Random((params.seed << 8) ^ attempt)
        h0 = Hf / (2 * n_all)
        z = np.zeros(3 * len(inner_ids))
        for k, v in enumerate(inner_ids):
            px, py = base_pos[v]
            if attempt > 0:
                px += rng.uniform(-Hf / 20, Hf / 20)
                py += rng.uniform(-Hf / 20, Hf / 20)
            hv = h0 * (1.0 if attempt == 0 else rng.uniform(0.6, 1.6))
            i = 3 * k
            z[i] = px - hv / 3
            z[i + 1] = py - hv / 3
            z[i + 2] = hv

        ev = obj.evaluate(z)
        E = float(ev[-1])
        trace = [E]
        ok = False
        iters = 0
        for it in range(params.max_iters):
            iters = it + 1
            ok, worst, worst_pair = obj.check_success(ev)
            if ok:
                break
            M, b = obj.system(ev)
            z_ls = np.linalg.lstsq(M, b, rcond=None)[0]
            step = _first_descent(obj, E, z + ALPHAS[:, None] * (z_ls - z))
            if step is None:
                # subgradient fallback with the frozen pattern
                g = 2.0 * M.T.dot(M.dot(z) - b)
                gn = float(np.dot(g, g))
                if gn == 0.0:
                    break
                betas = []
                beta = E / gn
                while beta >= 1e-18:
                    betas.append(beta)
                    beta *= 0.5
                step = _first_descent(obj, E, z - np.array(betas)[:, None] * g)
            if step is None:
                break
            z, ev = step
            E = float(ev[-1])
            trace.append(E)
        if not ok:
            ok, worst, worst_pair = obj.check_success(ev)
        if ok:
            inner = {v: (float(z[3 * k]), float(z[3 * k + 1]), float(z[3 * k + 2]))
                     for k, v in enumerate(inner_ids)}
            return SolveResult(piece=piece, outer_tris=dict(outer_tris), inner=inner,
                               iterations=iters, restarts_used=attempt,
                               max_edge_residual=worst, objective_trace=trace)
        diag = {"attempt": attempt, "objective": E, "max_edge_residual": worst,
                "worst_pair": worst_pair, "iterations": iters}
        if best_diag is None or diag["objective"] < best_diag["objective"]:
            best_diag = diag
    raise SolveFailure(
        f"no convergence after {params.restarts + 1} attempts "
        f"(best objective {best_diag['objective']:.3e}, worst pair {best_diag['worst_pair']}, "
        f"residual {best_diag['max_edge_residual']:.3e})",
        best_diag,
    )


# ---------------------------------------------------------------------------
# Float -> exact
# ---------------------------------------------------------------------------

def exactify(result: SolveResult, epsilon: Fraction = Fraction(1)) -> Representation:
    """Convert solver floats to exact rationals (no rounding; doubles are
    dyadic).  Boundary triangles keep their exact values."""
    tris: dict[int, Tri] = dict(result.outer_tris)
    for v, (x, y, h) in result.inner.items():
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(h)):
            raise ValueError(f"non-finite solver output for vertex {v}")
        tris[v] = Tri(Fraction(x), Fraction(y), Fraction(h))
    return Representation(tris, tuple(result.piece.outer), epsilon)


def choose_iota(delta: Fraction, margin: Fraction, epsilon: Fraction) -> Fraction:
    """A rational inflation with 2*iota > delta and delta + 3*iota < min(margin, epsilon).

    The lower end uses 2*iota (not 3) because a boundary-adjacent pair gains
    only 2*iota when just the inner triangle inflates.  Picks a dyadic near
    the geometric midpoint of the feasible interval.
    """
    cap = min(margin, epsilon)
    lo = delta / 2
    hi = (cap - delta) / 3
    if lo >= hi:
        raise RobustifyError(
            f"no feasible inflation: delta={float(delta):.3e} vs min(margin, eps)={float(cap):.3e}")
    mid = math.sqrt(float(lo) * float(hi))
    iota = Fraction(mid) if math.isfinite(mid) and mid > 0 else (lo + hi) / 2
    if not (lo < iota < hi):
        iota = (lo + hi) / 2
    return iota


def robustify(rep: Representation, piece: planar.Triangulation,
              params: SolverParams, epsilon: Fraction) -> Representation:
    """Inflate every inner triangle by one rational so that every adjacent
    pair overlaps strictly and every non-adjacent pair stays strictly
    separated.  Every pre- and postcondition is checked exactly, on integers
    in `int_frame`, where the inflated triangle is (x - I, y - I, s + I)."""
    delta = frac(params.delta)
    margin = frac(params.margin)
    pairs = _pairs(piece)

    def signed(frame, u, v):
        (xu, yu, su), (xv, yv, sv) = frame[u], frame[v]
        return min(su, sv) - max(xu, xv) - max(yu, yv)

    # preconditions from the solver contract
    den, frame, (d, mg) = int_frame(rep, delta, margin)
    for u, v, edge in pairs:
        s = signed(frame, u, v)
        if edge and abs(s) > d:
            raise RobustifyError(f"adjacency residual for ({u},{v}) exceeds delta: {s / den:.3e}")
        if not edge and s > -mg:
            raise RobustifyError(f"non-adjacent pair ({u},{v}) closer than margin: {s / den:.3e}")

    iota = choose_iota(delta, margin, epsilon)
    _, frame, (eps, i) = int_frame(rep, epsilon, iota)
    tris = dict(rep.triangles)
    for v in rep.inner_ids():
        tris[v] = inflate(tris[v], iota)
        x, y, s = frame[v]
        frame[v] = (x - i, y - i, s + i)

    for u, v, edge in pairs:
        s = signed(frame, u, v)
        if edge and s <= 0:
            raise RobustifyError(f"inflation failed to open overlap for edge ({u},{v})")
        if not edge and s >= 0:
            raise RobustifyError(f"inflation created a spurious intersection ({u},{v})")
        if s >= 0 and s >= eps:
            raise RobustifyError(f"overlap for ({u},{v}) reached the epsilon budget")
    return Representation(tris, rep.outer, epsilon)
