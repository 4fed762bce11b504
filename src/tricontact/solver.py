"""Per-piece solving: exact constructor for stacked pieces, numeric contact
solver for pieces without separating triangles, and the float-to-exact bridge
(exactify + robustify).

The numeric stage is the only part of the package that uses floating point.
Everything it outputs is converted to exact rationals (doubles are dyadic) and
then inflated by a single rational so that every adjacency becomes a strictly
positive overlap while every non-adjacency stays strictly negative; the
inflation is verified pair by pair in exact arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from tricontact import planar
from tricontact.core import Representation
from tricontact.geometry import (
    NegTri,
    Tri,
    common_intersection,
    frac,
    gap_candidates,
    inflate,
    signed_height,
)


class CanvasError(ValueError):
    """The three boundary triangles do not bound a usable gap."""


class NotStackedError(ValueError):
    """No degree-3 elimination order exists for the piece."""


class SolveFailure(RuntimeError):
    """Numeric solver did not converge; carries best-effort diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class RobustifyError(RuntimeError):
    """No feasible inflation exists for the given delta/margin/epsilon."""


@dataclass(frozen=True)
class SolverParams:
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

    def scaled(self, lam: float) -> "SolverParams":
        """Rescale the absolute tolerances for a piece whose canvas differs in
        size from the reference (height-2) canvas."""
        if lam <= 0:
            raise ValueError("scale must be positive")
        return replace(self, delta=self.delta * lam, margin=self.margin * lam,
                       h_min=self.h_min * lam)


def check_outer_hypothesis(ts: Sequence[Tri]) -> None:
    """Boundary triangles must pairwise intersect with empty common intersection."""
    if len(ts) != 3:
        raise CanvasError("need exactly three boundary triangles")
    for a, b in combinations(ts, 2):
        if signed_height(a, b) < 0:
            raise CanvasError("boundary triangles must pairwise intersect")
    if not common_intersection(list(ts)).is_empty:
        raise CanvasError("boundary triangles must not have a common point")


def canvas_of(ts: Sequence[Tri]) -> NegTri:
    """The negative triangle bounded by one side line of each boundary triangle
    whose interior is disjoint from all three."""
    return canvas_with_roles(ts)[0]


def canvas_with_roles(ts: Sequence[Tri]) -> tuple[NegTri, dict[str, int]]:
    check_outer_hypothesis(ts)
    cands = gap_candidates(ts)
    if not cands:
        raise CanvasError("no valid side assignment bounds a gap (boundary overlaps too large)")
    if len(cands) > 1:
        raise CanvasError(f"gap assignment not unique ({len(cands)} candidates)")
    return cands[0]


# ---------------------------------------------------------------------------
# Exact path for stacked pieces
# ---------------------------------------------------------------------------

def _peel_order(piece: planar.Triangulation) -> list[tuple[int, frozenset[int]]]:
    """Degree-3 elimination order of the inner vertices (smallest id first at
    each step), with each vertex's neighbor triple at removal time."""
    adj = {v: set(nbrs) for v, nbrs in piece.adjacency().items()}
    inner = set(piece.vertices()) - set(piece.outer)
    order = []
    while inner:
        pick = None
        for v in sorted(inner):
            if len(adj[v]) == 3:
                pick = v
                break
        if pick is None:
            raise NotStackedError("piece has no degree-3 inner vertex; not stacked")
        nbrs = frozenset(adj[pick])
        order.append((pick, nbrs))
        for u in adj[pick]:
            adj[u].discard(pick)
        del adj[pick]
        inner.remove(pick)
    return order


def _medial_child(gap: NegTri) -> Tri:
    """The inscribed homothet tangent to all three gap sides."""
    half = gap.h / 2
    return Tri(gap.x - half, gap.y - half, half)


def _subgaps(gap: NegTri, roles: dict[str, int], v: int) -> list[tuple[frozenset[int], NegTri, dict[str, int]]]:
    """The three gaps left after placing the medial child of `gap` for vertex v."""
    half = gap.h / 2
    vh, vv, vz = roles["hyp"], roles["vertical"], roles["horizontal"]
    return [
        (frozenset((v, vv, vz)), NegTri(gap.x, gap.y, half),
         {"hyp": v, "vertical": vv, "horizontal": vz}),
        (frozenset((vh, vv, v)), NegTri(gap.x, gap.y - half, half),
         {"hyp": vh, "vertical": vv, "horizontal": v}),
        (frozenset((vh, v, vz)), NegTri(gap.x - half, gap.y, half),
         {"hyp": vh, "vertical": v, "horizontal": vz}),
    ]


def solve_stacked(piece: planar.Triangulation, outer_tris: Mapping[int, Tri],
                  epsilon: Fraction = Fraction(1),
                  canvas_roles: tuple[NegTri, dict[str, int]] | None = None) -> Representation:
    """Exact contact representation of a stacked piece.

    Each stacked vertex receives the medial inscribed homothet of its face
    gap; every adjacent pair ends with signed height exactly 0 and every
    non-adjacent pair strictly below 0, all in rational arithmetic.
    """
    outer_ids = tuple(piece.outer)
    if set(outer_tris) != set(outer_ids):
        raise ValueError("outer triangle keys must match the piece's outer vertices")
    order = _peel_order(piece)

    ts = [outer_tris[v] for v in outer_ids]
    if canvas_roles is None:
        canvas, role_idx = canvas_with_roles(ts)
        roles = {r: outer_ids[i] for r, i in role_idx.items()}
    else:
        canvas, roles = canvas_roles

    gaps: dict[frozenset[int], tuple[NegTri, dict[str, int]]] = {
        frozenset(outer_ids): (canvas, roles)
    }
    triangles: dict[int, Tri] = dict(outer_tris)
    for v, face in reversed(order):
        if face not in gaps:
            raise NotStackedError(f"vertex {v} was stacked into {sorted(face)}, which is not a gap face")
        gap, gap_roles = gaps.pop(face)
        triangles[v] = _medial_child(gap)
        for key, sub, sub_roles in _subgaps(gap, gap_roles, v):
            gaps[key] = (sub, sub_roles)
    return Representation(triangles, outer_ids, epsilon)


# ---------------------------------------------------------------------------
# Numeric contact solver
# ---------------------------------------------------------------------------

@dataclass
class SolveResult:
    piece: planar.Triangulation
    outer_tris: dict[int, Tri]          # exact boundary triangles
    inner: dict[int, tuple[float, float, float]]
    canvas: NegTri
    params: SolverParams
    converged: bool
    iterations: int
    restarts_used: int
    max_edge_residual: float
    worst_pair: tuple[int, int]
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
    """Piecewise-linear least-squares residual with selector freezing."""

    def __init__(self, piece, outer_f, inner_ids, pairs, canvas_f, params):
        self.outer_f = outer_f                  # vertex -> (x, y, h) floats, boundary
        self.inner_ids = inner_ids
        self.index = {v: 3 * i for i, v in enumerate(inner_ids)}
        self.pairs = pairs
        self.Xc, self.Yc, self.hyp = canvas_f   # canvas: a <= Xc, b <= Yc, a+b >= hyp
        self.p = params
        self.inner_edges = [(u, v) for u, v, e in pairs if e
                            and u in self.index and v in self.index]

    def vals(self, z, v):
        if v in self.index:
            i = self.index[v]
            return z[i], z[i + 1], z[i + 2]
        return self.outer_f[v]

    def signed(self, z, u, v):
        xu, yu, hu = self.vals(z, u)
        xv, yv, hv = self.vals(z, v)
        return min(xu + yu + hu, xv + yv + hv) - max(xu, xv) - max(yu, yv)

    def value(self, z) -> float:
        E = 0.0
        for u, v, edge in self.pairs:
            s = self.signed(z, u, v)
            if edge:
                E += s * s
            else:
                r = s + self.p.margin
                if r > 0:
                    E += r * r
        for v in self.inner_ids:
            x, y, h = self.vals(z, v)
            for g in (x + h - self.Xc, y + h - self.Yc, self.hyp - x - y):
                if g > 0:
                    E += g * g
            r = self.p.h_min - h
            if r > 0:
                E += r * r
        for u, v in self.inner_edges:
            xu, yu, _ = self.vals(z, u)
            xv, yv, _ = self.vals(z, v)
            ca, cb = max(xu, xv), max(yu, yv)
            for g in (ca - (self.Xc - self.p.margin),
                      cb - (self.Yc - self.p.margin),
                      (self.hyp + self.p.margin) - ca - cb):
                if g > 0:
                    E += g * g
        return E

    def _pair_row(self, z, u, v):
        """Linear row for the frozen signed height of pair (u, v): coef, const."""
        xu, yu, hu = self.vals(z, u)
        xv, yv, hv = self.vals(z, v)
        coef = {}
        const = 0.0
        a_s = u if xu + yu + hu <= xv + yv + hv else v
        a_x = u if xu >= xv else v
        a_y = u if yu >= yv else v
        if a_s in self.index:
            i = self.index[a_s]
            coef[i] = coef.get(i, 0.0) + 1.0
            coef[i + 1] = coef.get(i + 1, 0.0) + 1.0
            coef[i + 2] = coef.get(i + 2, 0.0) + 1.0
        else:
            const += sum(self.vals(z, a_s))
        if a_x in self.index:
            i = self.index[a_x]
            coef[i] = coef.get(i, 0.0) - 1.0
        else:
            const -= self.vals(z, a_x)[0]
        if a_y in self.index:
            i = self.index[a_y] + 1
            coef[i] = coef.get(i, 0.0) - 1.0
        else:
            const -= self.vals(z, a_y)[1]
        return coef, const

    def rows(self, z):
        """Active linear system rows (coef dict, rhs) at the current point."""
        rows = []
        for u, v, edge in self.pairs:
            coef, const = self._pair_row(z, u, v)
            if edge:
                rows.append((coef, -const))
            else:
                s = self.signed(z, u, v)
                if s + self.p.margin > 0:
                    rows.append((coef, -self.p.margin - const))
        for v in self.inner_ids:
            x, y, h = self.vals(z, v)
            i = self.index[v]
            if x + h - self.Xc > 0:
                rows.append(({i: 1.0, i + 2: 1.0}, self.Xc))
            if y + h - self.Yc > 0:
                rows.append(({i + 1: 1.0, i + 2: 1.0}, self.Yc))
            if self.hyp - x - y > 0:
                rows.append(({i: 1.0, i + 1: 1.0}, self.hyp))
            if self.p.h_min - h > 0:
                rows.append(({i + 2: 1.0}, self.p.h_min))
        for u, v in self.inner_edges:
            xu, yu, _ = self.vals(z, u)
            xv, yv, _ = self.vals(z, v)
            ax = u if xu >= xv else v
            ay = u if yu >= yv else v
            ca, cb = max(xu, xv), max(yu, yv)
            ix, iy = self.index[ax], self.index[ay] + 1
            if ca - (self.Xc - self.p.margin) > 0:
                rows.append(({ix: 1.0}, self.Xc - self.p.margin))
            if cb - (self.Yc - self.p.margin) > 0:
                rows.append(({iy: 1.0}, self.Yc - self.p.margin))
            if (self.hyp + self.p.margin) - ca - cb > 0:
                rows.append(({ix: 1.0, iy: 1.0} if ix != iy else {ix: 2.0},
                             self.hyp + self.p.margin))
        return rows

    def check_success(self, z):
        """(ok, max |edge residual|, worst pair)."""
        worst = 0.0
        worst_pair = (-1, -1)
        ok = True
        for u, v, edge in self.pairs:
            s = self.signed(z, u, v)
            if edge:
                if abs(s) > worst:
                    worst, worst_pair = abs(s), (u, v)
                if abs(s) > 0.5 * self.p.delta:
                    ok = False
            else:
                if s > -(self.p.margin + self.p.delta):
                    ok = False
        for v in self.inner_ids:
            x, y, h = self.vals(z, v)
            if (x + h - self.Xc > 0.5 * self.p.delta
                    or y + h - self.Yc > 0.5 * self.p.delta
                    or self.hyp - x - y > 0.5 * self.p.delta
                    or h < self.p.h_min - self.p.delta):
                ok = False
        return ok, worst, worst_pair


def _anchor_points(canvas: NegTri, roles: dict[str, int]) -> dict[int, tuple[float, float]]:
    """Each boundary vertex sits at the midpoint of its canvas side."""
    X, Y, H = float(canvas.x), float(canvas.y), float(canvas.h)
    return {
        roles["hyp"]: (X - H / 2, Y - H / 2),
        roles["vertical"]: (X, Y - H / 2),
        roles["horizontal"]: (X - H / 2, Y),
    }


def solve_contacts(piece: planar.Triangulation, outer_tris: Mapping[int, Tri],
                   params: SolverParams,
                   canvas_roles: tuple[NegTri, dict[str, int]] | None = None) -> SolveResult:
    """Near-contact representation of a piece with no separating triangle.

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
    ts = [outer_tris[v] for v in outer_ids]
    if canvas_roles is None:
        canvas, role_idx = canvas_with_roles(ts)
        roles = {r: outer_ids[i] for r, i in role_idx.items()}
    else:
        canvas, roles = canvas_roles
        check_outer_hypothesis(ts)

    inner_ids = sorted(v for v in piece.vertices() if v not in set(outer_ids))
    pairs = _pairs(piece)
    outer_f = {v: (float(t.x), float(t.y), float(t.h)) for v, t in outer_tris.items()}
    canvas_f = (float(canvas.x), float(canvas.y), float(canvas.hyp_level))
    obj = _Objective(piece, outer_f, inner_ids, pairs, canvas_f, params)

    anchors = _anchor_points(canvas, roles)
    base_pos = _tutte_positions(piece, anchors)
    Hf = float(canvas.h)
    n_all = len(list(piece.vertices()))

    best_diag = None
    for attempt in range(params.restarts + 1):
        rng = random.Random((params.seed << 8) ^ attempt)
        h0 = Hf / (2 * n_all)
        z = np.zeros(3 * len(inner_ids))
        for v in inner_ids:
            px, py = base_pos[v]
            if attempt > 0:
                px += rng.uniform(-Hf / 20, Hf / 20)
                py += rng.uniform(-Hf / 20, Hf / 20)
            hv = h0 * (1.0 if attempt == 0 else rng.uniform(0.6, 1.6))
            i = obj.index[v]
            z[i] = px - hv / 3
            z[i + 1] = py - hv / 3
            z[i + 2] = hv

        E = obj.value(z)
        trace = [E]
        converged = False
        iters = 0
        for it in range(params.max_iters):
            iters = it + 1
            ok, worst, worst_pair = obj.check_success(z)
            if ok:
                converged = True
                break
            rows = obj.rows(z)
            M = np.zeros((len(rows), len(z)))
            b = np.zeros(len(rows))
            for r, (coef, rhs) in enumerate(rows):
                for i, c in coef.items():
                    M[r, i] = c
                b[r] = rhs
            z_ls = np.linalg.lstsq(M, b, rcond=None)[0]
            d = z_ls - z
            stepped = False
            alpha = 1.0
            while alpha >= 2.0 ** -20:
                cand = z + alpha * d
                Ec = obj.value(cand)
                if Ec < E * (1 - 1e-14) - 1e-300:
                    z, E = cand, Ec
                    trace.append(E)
                    stepped = True
                    break
                alpha *= 0.5
            if not stepped:
                # subgradient fallback with the frozen pattern
                g = 2.0 * M.T.dot(M.dot(z) - b)
                gn = float(np.dot(g, g))
                if gn == 0.0:
                    break
                beta = E / gn if gn > 0 else 0.0
                while beta >= 1e-18:
                    cand = z - beta * g
                    Ec = obj.value(cand)
                    if Ec < E * (1 - 1e-14) - 1e-300:
                        z, E = cand, Ec
                        trace.append(E)
                        stepped = True
                        break
                    beta *= 0.5
            if not stepped:
                break
        ok, worst, worst_pair = obj.check_success(z)
        if ok:
            inner = {v: (float(z[obj.index[v]]), float(z[obj.index[v] + 1]),
                         float(z[obj.index[v] + 2])) for v in inner_ids}
            return SolveResult(piece=piece, outer_tris=dict(outer_tris), inner=inner,
                               canvas=canvas, params=params, converged=True,
                               iterations=iters, restarts_used=attempt,
                               max_edge_residual=worst, worst_pair=worst_pair,
                               objective_trace=trace)
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

def exactify(result: SolveResult | Representation,
             epsilon: Fraction = Fraction(1)) -> Representation:
    """Convert solver floats to exact rationals (no rounding; doubles are
    dyadic).  Boundary triangles keep their exact values; idempotent on
    already-exact representations."""
    if isinstance(result, Representation):
        return result
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
    separated; all postconditions are re-verified exactly."""
    delta = frac(params.delta)
    margin = frac(params.margin)
    outer = set(rep.outer)

    # preconditions from the solver contract
    for u, v, edge in _pairs(piece):
        s = signed_height(rep.tri(u), rep.tri(v))
        if edge and abs(s) > delta:
            raise RobustifyError(f"adjacency residual for ({u},{v}) exceeds delta: {float(s):.3e}")
        if not edge and s > -margin:
            raise RobustifyError(f"non-adjacent pair ({u},{v}) closer than margin: {float(s):.3e}")

    iota = choose_iota(delta, margin, epsilon)
    tris = dict(rep.triangles)
    for v in rep.inner_ids():
        tris[v] = inflate(tris[v], iota)
    out = Representation(tris, rep.outer, epsilon)

    for u, v, edge in _pairs(piece):
        s = signed_height(out.tri(u), out.tri(v))
        if edge and s <= 0:
            raise RobustifyError(f"inflation failed to open overlap for edge ({u},{v})")
        if not edge and s >= 0:
            raise RobustifyError(f"inflation created a spurious intersection ({u},{v})")
        if s >= 0 and s >= epsilon:
            raise RobustifyError(f"overlap for ({u},{v}) reached the epsilon budget")
    return out
