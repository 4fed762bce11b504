"""Removal of points (or small regions) shared by three triangles, plus the
face-gap computation that feeds the recursion over separating triangles.

All moves are exact, and each is applied (`_moved`) from the same per-step
rates (`_DELTAS`) that its event analysis reads.  Before a move, every
forbidden event (a non-intersecting pair starting to touch, an intersecting
pair separating, a third triangle joining an intersection, a boundary-overlap
budget being exhausted, a boundary corner being swallowed) is located exactly
as the first sign change of a piecewise-linear function of the step size; the
step uses half the earliest event time.  After each move the full invariant
set is re-verified.  Every scan and check runs on Python ints, in the
representation's integer frame (`core.Representation.scaled`); only what
leaves the module (step sizes, a bad triple's anchor point, a face gap and
its budget) is built in `Fraction`s.  A face gap's budget is the face's own;
`assemble`'s map of free faces caps it by the budget of the face's piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from tricontact.core import Frame, Representation
from tricontact.geometry import (
    NegTri,
    Point,
    Tri,
    common_signed_height,
    gap_candidates,
    intersect,
    neg_interior_hits,
    signed_height,
)


class PerturbError(RuntimeError):
    """Triple removal cannot proceed (degenerate input or exhausted retries)."""


class QuadrupleIntersection(PerturbError):
    """Four triangles share a point; outside the regime this engine handles."""


class ClaimViolation(PerturbError):
    """A step's postcondition failed for the attempted budget."""


class ZeroClearance(PerturbError):
    """An event already sits at distance zero from the move."""


class GapError(RuntimeError):
    """No valid face gap exists (upstream conditions violated)."""


# ---------------------------------------------------------------------------
# Bad triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BadTriple:
    """Three triangles with a nonempty common intersection I.

    Roles follow the geometry of I = {a >= mx, b >= my, a+b <= ms}:
    u supplies the hypotenuse bound (and is the triangle slid down later),
    v the vertical bound, w the horizontal bound; p = (mx, my) is the right
    corner of I.
    """
    u: int
    v: int
    w: int
    p: Point

    @property
    def ids(self) -> frozenset[int]:
        return frozenset((self.u, self.v, self.w))


def _assign_roles(ids: Sequence[int], tris: Sequence[Tri]) -> tuple[int, int, int]:
    """Role assignment for a triple with nonempty common intersection
    I = {a >= mx, b >= my, a+b <= ms}.

    In the canonical configuration each triangle sits flush against two of
    I's bounds and misses the third by its own height: u misses the x bound
    (east corner at I's east corner), v the hypotenuse bound (right corner at
    I's right corner), w the y bound (top corner at I's top corner).  The
    largest deficit per bound identifies the roles robustly even when the
    near-ties are perturbed.  For single-point intersections the exact corner
    structure is verified.  Only comparisons decide, so any common frame
    serves.
    """
    ms = min(t.s for t in tris)
    mx = max(t.x for t in tris)
    my = max(t.y for t in tris)
    by_id = dict(zip(ids, tris))

    u = max(ids, key=lambda i: (mx - by_id[i].x, -i))
    v = max(ids, key=lambda i: (by_id[i].s - ms, -i))
    w = max(ids, key=lambda i: (my - by_id[i].y, -i))
    if len({u, v, w}) != 3:
        raise PerturbError(
            f"triple {sorted(ids)} has no distinct east/right/top role assignment; "
            "configuration is degenerate")

    if ms - mx - my == 0:
        tu, tv, tw = by_id[u], by_id[v], by_id[w]
        point_ok = (tu.y == my and tu.s == ms
                    and tv.x == mx and tv.y == my
                    and tw.x == mx and tw.s == ms)
        if not point_ok:
            raise PerturbError(
                f"triple {sorted(ids)} meets in a point without the corner structure "
                "(east/right/top corners); configuration is degenerate")
    return u, v, w


def find_bad_triples(rep: Representation,
                     triangles: Sequence[tuple[int, int, int]]) -> list[BadTriple]:
    """All vertex triples whose triangles share a common point or region.

    Only triangles of the intersection graph can qualify (a pairwise-empty
    pair forces an empty common intersection); `triangles` lists them.
    Errors out if any four triangles share a point.  The scans run in the
    integer frame; only a bad triple's anchor point is built in `Fraction`s.
    """
    out = []
    S, tris = rep.scaled
    all_ids = sorted(tris)
    for a, b, c in triangles:
        ts = [tris[a], tris[b], tris[c]]
        if common_signed_height(ts) < 0:
            continue
        for z in all_ids:
            if z in (a, b, c):
                continue
            if common_signed_height(ts + [tris[z]]) >= 0:
                raise QuadrupleIntersection(
                    f"triangles {a},{b},{c},{z} share a point")
        u, v, w = _assign_roles((a, b, c), ts)
        p = Point(Fraction(max(t.x for t in ts), S), Fraction(max(t.y for t in ts), S))
        out.append(BadTriple(u=u, v=v, w=w, p=p))
    return out


def select_bad(triples: Sequence[BadTriple]) -> BadTriple:
    """Highest anchor point first; ties to the left; then sorted vertex triple."""
    if not triples:
        raise ValueError("no bad triples to select")
    return min(triples, key=lambda t: (-t.p.y, t.p.x, tuple(sorted(t.ids))))


# ---------------------------------------------------------------------------
# Exact piecewise-linear event analysis
# ---------------------------------------------------------------------------

PUSH_VERTICAL = "push_vertical"
PUSH_HORIZONTAL = "push_horizontal"
TRANSLATE_DOWN = "translate_down"

# (dx, dy, ds) per unit step: the rates of x, y and s = x + y + h.
_DELTAS = {
    PUSH_VERTICAL: (-1, 0, 0),
    PUSH_HORIZONTAL: (0, -1, 0),
    TRANSLATE_DOWN: (0, -1, -1),
}
# Every rate is 0 or -1, so in a frame where every coordinate is an integer
# two lines of one term cross at an integer step (`_breakpoints`), and every
# knot value is an integer; only an interpolated crossing is a fraction.  A
# signed height's slope is then -1, 0, 1 or 2, so where every coordinate is
# even, as in `Representation.scaled`, the crossings are integers too.
assert all(d in (0, -1) for ds in _DELTAS.values() for d in ds)

Move = Mapping[int, str]  # vertex -> primitive kind


def _lines_for(frame: Frame, move: Move, ids: Sequence[int]):
    """Per-term line lists (value, slope) for the signed height of `ids`."""
    s_lines, x_lines, y_lines = [], [], []
    for i in ids:
        x, y, s = frame[i]
        dx, dy, ds = _DELTAS[move[i]] if i in move else (0, 0, 0)
        s_lines.append((s, ds))
        x_lines.append((x, dx))
        y_lines.append((y, dy))
    return s_lines, x_lines, y_lines


def _breakpoints(groups) -> list[int]:
    """Steps t > 0 where two lines of one term cross: a line of slope -1
    meets one of slope 0 where t is the first's value minus the second's."""
    ts = set()
    for lines in groups:
        for (a1, s1), (a2, s2) in combinations(lines, 2):
            if s1 != s2:
                t = a1 - a2 if s1 else a2 - a1
                if t > 0:
                    ts.add(t)
    return sorted(ts)


def _eval_signed(groups, t: int) -> int:
    s_lines, x_lines, y_lines = groups
    return (min(a + s * t for a, s in s_lines)
            - max(a + s * t for a, s in x_lines)
            - max(a + s * t for a, s in y_lines))


def _quotient(num: int, den: int) -> int | Fraction:
    """num / den, as an int whenever den divides num."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _first_reach(groups, thresh: int, upward: bool,
                 stop: int | Fraction | None = None) -> int | Fraction | None:
    """Smallest t > 0 where the piecewise-linear signed height reaches thresh
    from below (upward=True) or drops below it (upward=False); None if never.

    Knots are evaluated lazily.  Past the first segment every crossing lies
    at or beyond the segment's start, so the scan returns None at the first
    knot at or beyond `stop`: an event there cannot come before `stop`.
    """
    t0, f0 = 0, _eval_signed(groups, 0)
    for t1 in _breakpoints(groups):
        f1 = _eval_signed(groups, t1)
        if (f1 >= thresh) if upward else (f1 < thresh):
            if f1 == f0:  # a flat first segment already past thresh
                return t1 if upward else t0
            return _quotient(t0 * (f1 - f0) + (thresh - f0) * (t1 - t0), f1 - f0)
        if stop is not None and t1 >= stop:
            return None
        t0, f0 = t1, f1
    # unbounded last segment
    slope = _eval_signed(groups, t0 + 1) - f0
    if (slope > 0) if upward else (slope < 0):
        return _quotient(t0 * slope + thresh - f0, slope)
    return None


def _corner_entry(corner: tuple[int, int], t: tuple[int, int, int], kind: str) -> int | None:
    """First step at which `corner` enters the moved triangle t = (x, y, s);
    None if never."""
    cx, cy = corner
    x, y, s = t
    dx, dy, ds = _DELTAS[kind]
    # g >= 0 constraints: cx - x(t), cy - y(t), s(t) - (cx + cy); slopes are 0 or +-1
    cons = ((cx - x, -dx), (cy - y, -dy), (s - cx - cy, ds))
    lo = 0
    hi = None
    for g0, slope in cons:
        if slope == 0:
            if g0 < 0:
                return None
        elif slope > 0:
            if g0 < 0:
                lo = max(lo, -g0)
        else:
            if g0 < 0:
                return None
            hi = g0 if hi is None else min(hi, g0)  # g decreasing: feasible for t <= g0
    if hi is not None and lo > hi:
        return None
    return lo


def _scaled_epsilon(rep: Representation) -> int:
    """The boundary budget in the frame `rep.scaled`, an integer: the
    frame's common denominator includes epsilon's."""
    return rep.epsilon.numerator * (rep.scaled[0] // rep.epsilon.denominator)


def safe_epsilon(rep: Representation, move: Move,
                 triangles: Sequence[tuple[int, int, int]],
                 exclude_triple: frozenset[int] | None = None
                 ) -> Fraction:
    """Step budget for the move: half its clearance, the earliest
    forbidden-event time, capped by the moved heights.

    Events: a currently-disjoint pair reaching contact, a currently-intersecting
    pair separating, a currently-empty triple of mutually intersecting
    triangles gaining a common point, a boundary overlap reaching the epsilon
    budget, and a boundary corner entering a moved triangle.  `triangles` are
    the triangles of the intersection graph.  Raises ZeroClearance when an
    event already sits at zero.

    The analysis runs in the integer frame `rep.scaled`, where every event
    is an integer, and the budget is divided by 2S once at the end.
    Clearance = min(events and cap), so a scan may stop at the smallest
    event found so far.
    """
    outer = set(rep.outer)
    for i in move:
        if i in outer:
            raise PerturbError(f"move targets boundary triangle {i}")
    moved = set(move)
    S, tris = rep.scaled
    eps = _scaled_epsilon(rep)
    frame = {v: (t.x, t.y, t.s) for v, t in tris.items()}
    best = min(tris[i].h for i in moved)  # cap: moved heights

    # every pair holding a moved triangle, in the order of sorted pairs
    for a, b in sorted({(min(i, v), max(i, v)) for i in moved for v in frame if v != i}):
        groups = _lines_for(frame, move, (a, b))
        if _eval_signed(groups, 0) < 0:
            ev = _first_reach(groups, 0, upward=True, stop=best)
        else:
            ev = _first_reach(groups, 0, upward=False, stop=best)
            if (a in outer) != (b in outer):       # boundary overlap budget
                ev2 = _first_reach(groups, eps, upward=True, stop=best)
                if ev2 is not None:
                    best = min(best, ev2)
        if ev is not None:
            best = min(best, ev)

    for a, b, c in triangles:
        if not ({a, b, c} & moved):
            continue
        if exclude_triple is not None and frozenset((a, b, c)) == exclude_triple:
            continue
        groups = _lines_for(frame, move, (a, b, c))
        if _eval_signed(groups, 0) < 0:
            ev = _first_reach(groups, 0, upward=True, stop=best)
            if ev is not None:
                best = min(best, ev)

    for o in outer:
        for c in tris[o].corners:
            for i in moved:
                ev = _corner_entry((c.x, c.y), frame[i], move[i])
                if ev is not None:
                    best = min(best, ev)

    if best <= 0:
        raise ZeroClearance(f"an event sits at zero clearance for move {dict(move)}")
    return Fraction(best, 2 * S)


# ---------------------------------------------------------------------------
# The three steps
# ---------------------------------------------------------------------------

def _check_graph_preserved(before: Representation, after: Representation,
                           touched: Iterable[int]) -> None:
    # signs do not depend on the frame, so each side is read in its own
    touched = set(touched)
    t0, t1 = before.scaled[1], after.scaled[1]
    for a in touched:
        for b in t0:
            if b == a or (b in touched and b < a):
                continue
            if (signed_height(t0[a], t0[b]) >= 0) != (signed_height(t1[a], t1[b]) >= 0):
                raise ClaimViolation(f"pair ({a},{b}) changed intersection status")


def _check_boundary_budget(rep: Representation, touched: Iterable[int]) -> None:
    outer = set(rep.outer)
    tris, eps = rep.scaled[1], _scaled_epsilon(rep)
    for i in touched:
        if i in outer:
            continue
        ti = tris[i]
        for o in outer:
            if signed_height(ti, tris[o]) >= eps:
                raise ClaimViolation(f"boundary overlap ({i},{o}) reached epsilon")
            for corner in tris[o].corners:
                if ti.contains(corner):
                    raise ClaimViolation(f"boundary corner of {o} entered triangle {i}")


def _single_point_contact(t: Tri, z: Tri) -> Point | None:
    ov = intersect(t, z)
    return ov.point if ov.kind == "point" else None


def _moved(rep: Representation, move: Move, e: Fraction) -> Representation:
    """Apply `move` with step e from its `_DELTAS` rates: (x, y, s) +=
    e*(dx, dy, ds), so h += e*(ds - dx - dy).  The intersection graph, the
    boundary budget and the boundary corners are re-verified."""
    for i in move:
        if i in rep.outer:
            raise PerturbError(f"move targets boundary triangle {i}")
    if e <= 0:
        raise ValueError(f"a move needs a positive step, got {e}")
    out = rep
    for i, kind in move.items():
        t = rep.tri(i)
        dx, dy, ds = _DELTAS[kind]
        out = out.with_triangle(i, Tri(t.x + e * dx, t.y + e * dy, t.h + e * (ds - dx - dy)))
    _check_graph_preserved(rep, out, move)
    _check_boundary_budget(out, move)
    return out


def step1_widen(rep: Representation, triple: BadTriple, e1: Fraction) -> Representation:
    """Push the vertical side of t(u) left; east corner and hypotenuse stay.

    Postcondition (beyond `_moved`'s): the (new) top corner of t(u) is not a
    single-point contact.
    """
    u = triple.u
    out = _moved(rep, {u: PUSH_VERTICAL}, e1)
    tris = out.scaled[1]
    q = tris[u].top_corner
    for z, tz in tris.items():
        if z != u and _single_point_contact(tris[u], tz) == q:
            raise ClaimViolation(f"top corner of {u} is a contact point with {z}")
    return out


def _hyp_point_contacts(rep: Representation, u: int) -> list[int]:
    """Triangles touching t(u) in a single point of its hypotenuse above its
    east corner (top corner included)."""
    tris = rep.scaled[1]
    tu = tris[u]
    contacts = {z: _single_point_contact(tu, tz) for z, tz in tris.items() if z != u}
    return [z for z, c in contacts.items()
            if c is not None and c.x + c.y == tu.s and tu.x <= c.x < tu.x + tu.h]


def _translation_hazards(rep: Representation, triple: BadTriple) -> list[int]:
    """Triangles whose intersection with t(u) shrinks at unit rate when t(u)
    slides down: they meet t(u) across its hypotenuse (their hypotenuse level
    and horizontal side at or above t(u)'s), with depth at most twice the
    triple's overlap.

    Single-point contacts strictly inside the upper hypotenuse are the depth-0
    members; shallow region overlaps (arising after inflation) are their
    positive-depth analogues and are equally lost by a slide deeper than they
    are.
    """
    tris = rep.scaled[1]
    cap = 2 * max(common_signed_height([tris[i] for i in sorted(triple.ids)]), 0)
    tu = tris[triple.u]
    out = []
    for z in sorted(tris):
        if z in triple.ids:
            continue
        tz = tris[z]
        if tz.s < tu.s or tz.y < tu.y:
            continue
        s = signed_height(tu, tz)
        if 0 <= s <= cap:
            out.append(z)
    return out


def step2_clear(rep: Representation, triple: BadTriple, e2: Fraction) -> Representation:
    """Push down every triangle that meets t(u) in a single point of its open
    upper hypotenuse or in a region too shallow to survive the coming slide,
    deepening those meetings into slide-proof overlaps.

    Postcondition (beyond `_moved`'s): no single-point contact remains on the
    hypotenuse of t(u) above its east corner (top corner included).
    """
    out = _moved(rep, {z: PUSH_HORIZONTAL for z in _translation_hazards(rep, triple)}, e2)
    if _hyp_point_contacts(out, triple.u):
        raise ClaimViolation(f"a contact point remains on the upper hypotenuse of {triple.u}")
    return out


def step3_separate(rep: Representation, triple: BadTriple, e3: Fraction) -> Representation:
    """Slide t(u) down while pushing the vertical side of t(v) left.

    Postcondition (beyond `_moved`'s): the triple's common intersection
    becomes empty.
    """
    out = _moved(rep, {triple.u: TRANSLATE_DOWN, triple.v: PUSH_VERTICAL}, e3)
    ids = sorted(triple.ids)
    tris = out.scaled[1]
    if common_signed_height([tris[i] for i in ids]) >= 0:
        raise ClaimViolation(f"triple {ids} still has a common intersection")
    return out


STEP_RETRIES = 20  # halvings of the step budgets before a triple counts as stuck


def remove_all(rep: Representation, triangles: Sequence[tuple[int, int, int]]
               ) -> Representation:
    """Remove every bad triple: find, select highest, apply the three steps
    with exact safe budgets; retry a round with halved budgets, at most
    STEP_RETRIES times, when a postcondition recheck fails.  A round that
    does not leave strictly fewer bad triples fails its recheck, so there
    are at most as many rounds as initial bad triples.

    `triangles` are the triangles of the intersection graph of `rep`, in
    lexicographic order.  Every step keeps that graph
    (`_check_graph_preserved`), so they serve every scan and budget."""
    bad = find_bad_triples(rep, triangles)
    while bad:
        sel = select_bad(bad)
        prev_ids = {t.ids for t in bad}
        shrink = Fraction(1)
        for _attempt in range(STEP_RETRIES):
            try:
                work = rep
                e1 = safe_epsilon(work, {sel.u: PUSH_VERTICAL}, triangles, exclude_triple=sel.ids)
                e1 *= shrink
                work = step1_widen(work, sel, e1)
                zs = _translation_hazards(work, sel)
                if zs:
                    move2 = {z: PUSH_HORIZONTAL for z in zs}
                    e2 = safe_epsilon(work, move2, triangles, exclude_triple=sel.ids)
                    e2 *= shrink
                    work = step2_clear(work, sel, e2)
                move3 = {sel.u: TRANSLATE_DOWN, sel.v: PUSH_VERTICAL}
                e3 = safe_epsilon(work, move3, triangles, exclude_triple=sel.ids)
                e3 *= shrink
                S, tris = work.scaled
                sig = common_signed_height([tris[i] for i in sorted(sel.ids)])
                if e3 * S <= sig:
                    raise PerturbError(
                        f"safe budget {float(e3):.3e} cannot clear triple overlap "
                        f"{sig / S:.3e}")
                work = step3_separate(work, sel, e3)
                new_bad = find_bad_triples(work, triangles)
                new_ids = {t.ids for t in new_bad}
                if len(new_bad) >= len(bad) or not new_ids <= prev_ids - {sel.ids}:
                    raise ClaimViolation("a new triple appeared after the three steps")
                rep, bad = work, new_bad
                break
            except ClaimViolation:
                shrink /= 2
        else:
            raise PerturbError(f"could not clear triple {sorted(sel.ids)} after retries")
    return rep


# ---------------------------------------------------------------------------
# Face gaps and the recursion budget
# ---------------------------------------------------------------------------

def face_gap_with_roles(rep: Representation, face: Iterable[int]
                        ) -> tuple[NegTri, dict[str, int], Fraction]:
    """The negative triangle nestled between the three triangles of an inner
    face, the role map (which face vertex supplies which gap side), and the
    safe probe budget for recursing into the gap.

    The budget is half the smallest exact clearance from any gap side to a
    non-face triangle (capped by the gap height): a probe homothet of that
    height with a side in a gap side cannot reach any triangle outside the
    face.  Every test runs in the integer frame `rep.scaled`; the gap and
    the budget are mapped back to the original frame.
    """
    ids = sorted(set(int(v) for v in face))
    if len(ids) != 3:
        raise GapError(f"face must have three vertices, got {face!r}")
    S, tris = rep.scaled
    others = [v for v in sorted(tris) if v not in ids]
    valid = [(cand, role_idx) for cand, role_idx in gap_candidates([tris[v] for v in ids])
             if not any(neg_interior_hits(cand, tris[v]) for v in others)]
    if not valid:
        raise GapError(f"no valid gap for face {ids}")
    if len(valid) > 1:
        raise GapError(f"gap for face {ids} is not unique")
    gap, role_idx = valid[0]
    roles = {r: ids[i] for r, i in role_idx.items()}

    X, Y, H = gap.x, gap.y, gap.h
    strips = (
        (Tri(X - H, Y - H, H), lambda t: gap.hyp_level - t.s),   # through the hypotenuse side
        (Tri(X, Y - H, H), lambda t: t.x - X),                    # through the vertical side
        (Tri(X - H, Y, H), lambda t: t.y - Y),                    # through the horizontal side
    )
    clearance = H
    for probe, depth in strips:
        for v in others:
            tv = tris[v]
            if signed_height(probe, tv) < 0:
                continue
            d = depth(tv)
            if d <= 0:
                raise GapError(f"triangle {v} touches a gap side of face {ids}")
            clearance = min(clearance, d)
    return (NegTri(Fraction(X, S), Fraction(Y, S), Fraction(H, S)), roles,
            Fraction(clearance, 2 * S))
