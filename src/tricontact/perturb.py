"""The face gap of an inner face: the negative triangle nestled between its
three triangles, which side of it each face vertex supplies, and the budget
for recursing into it.  It feeds `assemble`'s recursion over separating
triangles.

The scans run on Python ints, in the representation's integer frame
(`core.Representation.scaled`); only the gap and its budget are built in
`Fraction`s.  A face gap's budget is the face's own; `assemble`'s map of
free faces caps it by the budget of the face's piece.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from tricontact.core import Representation
from tricontact.geometry import NegTri, Tri, gap_candidates, neg_interior_hits, signed_height


class GapError(RuntimeError):
    """No valid face gap exists (upstream conditions violated)."""


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
