"""The representation type and its intersection graph, shared by the
constructor and the verifier."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tricontact.geometry import Tri, frac, frac_str, signed_height


@dataclass(frozen=True)
class Representation:
    """Map vertex -> triangle, the boundary vertices, and the overlap budget."""

    triangles: dict[int, Tri]
    outer: tuple[int, ...]
    epsilon: Fraction

    def inner_ids(self) -> list[int]:
        out = set(self.outer)
        return sorted(v for v in self.triangles if v not in out)

    def tri(self, v: int) -> Tri:
        return self.triangles[v]

    def with_triangle(self, v: int, t: Tri) -> "Representation":
        d = dict(self.triangles)
        d[v] = t
        return Representation(d, self.outer, self.epsilon)

    def to_json(self) -> dict:
        return {
            "epsilon": frac_str(self.epsilon),
            "outer": list(self.outer),
            "triangles": {
                str(v): [frac_str(t.x), frac_str(t.y), frac_str(t.h)]
                for v, t in sorted(self.triangles.items())
            },
        }

    @staticmethod
    def from_json(data: dict) -> "Representation":
        tris = {
            int(v): Tri(frac(x), frac(y), frac(h))
            for v, (x, y, h) in data["triangles"].items()
        }
        return Representation(tris, tuple(data["outer"]), frac(data["epsilon"]))


def intersection_graph(rep: Representation) -> set[tuple[int, int]]:
    """Edge uv (u < v) iff the triangles of u and v intersect (signed height >= 0).

    A conservative float screen skips pairs that are far apart; every
    undecided pair is settled exactly.
    """
    vs = sorted(rep.triangles)
    fl = {}
    scale = 1.0
    for v in vs:
        t = rep.tri(v)
        fl[v] = (float(t.x), float(t.y), float(t.s))
        scale = max(scale, abs(fl[v][0]), abs(fl[v][1]), abs(fl[v][2]))
    screen = -1e-9 * scale
    out = set()
    for i, u in enumerate(vs):
        xu, yu, su = fl[u]
        tu = rep.tri(u)
        for v in vs[i + 1:]:
            xv, yv, sv = fl[v]
            if min(su, sv) - max(xu, xv) - max(yu, yv) < screen:
                continue
            if signed_height(tu, rep.tri(v)) >= 0:
                out.add((u, v))
    return out
