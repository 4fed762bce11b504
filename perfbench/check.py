"""Exact re-check of a serialized representation, from the definitions alone.

It reads the JSON that `tricontact run` writes, parses every `"num/den"`
string into a `Fraction`, and uses no predicate of `tricontact`.  A triangle
is its right corner (x, y) and height h; with s = x + y + h, a set of
triangles has a common point iff min(s) - max(x) - max(y) >= 0.
"""

from __future__ import annotations

from fractions import Fraction


def _q(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _meet(ts) -> Fraction:
    """min(s) - max(x) - max(y) over (x, y, s) triples: >= 0 iff they share a point."""
    return min(t[2] for t in ts) - max(t[0] for t in ts) - max(t[1] for t in ts)


def check(rep_json: dict, n: int, edges, outer) -> list[str]:
    """Problems found in `rep_json` as a representation of the triangulation
    with vertices 0..n-1, `edges` and outer face `outer`; empty when none."""
    tris = {}
    for v, (x, y, h) in rep_json["triangles"].items():
        x, y, h = _q(x), _q(y), _q(h)
        if h <= 0:
            return [f"triangle {v} has height {h}"]
        tris[int(v)] = (x, y, x + y + h)
    if set(tris) != set(range(n)):
        return ["vertex set differs from the graph's"]
    if list(rep_json["outer"]) != list(outer):
        return ["outer face differs from the graph's"]
    eps = _q(rep_json["epsilon"])
    problems = []

    # Intersection graph.  A float screen drops pairs that are far apart;
    # its margin exceeds any rounding error by many orders of magnitude.
    fl = [(float(x), float(y), float(s)) for x, y, s in (tris[v] for v in range(n))]
    tau = 1e-9 * max(1.0, max(abs(c) for t in fl for c in t))
    found = set()
    for u in range(n):
        xu, yu, su = fl[u]
        for v in range(u + 1, n):
            xv, yv, sv = fl[v]
            if min(su, sv) - max(xu, xv) - max(yu, yv) < -tau:
                continue
            if _meet((tris[u], tris[v])) >= 0:
                found.add((u, v))
    want = {(min(e), max(e)) for e in edges}
    if found != want:
        problems.append(f"intersection graph: {len(want - found)} edges missing, "
                        f"{len(found - want)} extra")

    # No point in three triangles: only triples that meet pairwise can.
    nbrs = {v: set() for v in range(n)}
    for u, v in found:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for u, v in sorted(found):
        for w in sorted(nbrs[u] & nbrs[v]):
            if w > v and _meet((tris[u], tris[v], tris[w])) >= 0:
                problems.append(f"triangles {u},{v},{w} share a point")

    # Inner-boundary overlaps stay below epsilon; no boundary corner lies in
    # an inner triangle.
    inner = [v for v in range(n) if v not in set(outer)]
    for o in outer:
        xo, yo, so = tris[o]
        corners = ((xo, yo), (xo, so - xo), (so - yo, yo))
        for v in inner:
            if _meet((tris[v], tris[o])) >= eps:
                problems.append(f"inner {v} overlaps boundary {o} by epsilon or more")
            x, y, s = tris[v]
            for cx, cy in corners:
                if cx >= x and cy >= y and cx + cy <= s:
                    problems.append(f"corner ({cx}, {cy}) of boundary {o} lies in {v}")
    return problems

