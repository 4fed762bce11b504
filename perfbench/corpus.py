"""Fixed corpora of triangulations, one per workload.

Every instance is built with the generators in `tricontact.planar` from
seeds written here, so a corpus is the same on every run and machine.  The
benchmark's `--seed` only fixes the order in which a run visits the
instances; it never changes which instances there are.
"""

from __future__ import annotations

import random

from tricontact import planar

STACKED_HOSTS = ((300, 1),)                     # (n, gen_stacked seed)
# gen_four_connected (n, seed) for n in 12, 14, 16 and seeds 0-3, except
# (16, 0): it alone takes 13.5 s (three restarts), three times the rest of
# the corpus.  g4_14_0 (one restart) and dw12 (six) keep restarts measured.
FOURCONN = tuple((n, s) for n in (12, 14, 16) for s in range(4) if (n, s) != (16, 0))
DOUBLE_WHEELS = tuple(range(5, 13))             # double_wheel k
IMPLANTED_HOSTS = ((100, 3, 20),)               # (n, gen_stacked seed, implants)
CHAIN_HOSTS = ((20, 5), (20, 6), (20, 7))       # (n, gen_stacked seed)
CHAIN_DEPTHS = (2, 4, 6)  # stack/implant rounds; depth 7 raises SolveFailure (README.md)


def stacked() -> list[tuple[str, planar.Triangulation]]:
    return [(f"stacked{n}_{s}", planar.gen_stacked(n, s)) for n, s in STACKED_HOSTS]


def fourconn() -> list[tuple[str, planar.Triangulation]]:
    out = [(f"g4_{n}_{s}", planar.gen_four_connected(n, s)) for n, s in FOURCONN]
    out += [(f"dw{k}", planar.double_wheel(k)) for k in DOUBLE_WHEELS]
    return out


def _inner_faces(T: planar.Triangulation) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(f)) for f in T.inner_faces)


def implanted(n: int, seed: int, implants: int) -> planar.Triangulation:
    """gen_stacked(n, seed) with an octahedron implanted in `implants`
    distinct inner faces of the host, chosen with a fixed generator."""
    T = planar.gen_stacked(n, seed)
    faces = random.Random(seed).sample(_inner_faces(T), implants)
    for f in faces:
        T = planar.implant_octahedron(T, f)
    return T


def _newest_face(T: planar.Triangulation) -> list[int]:
    return sorted(sorted(f) for f in T.inner_faces if T.n - 1 in f)[0]


def chain(n: int, seed: int, depth: int) -> planar.Triangulation:
    """gen_stacked(n, seed) with an octahedron in its first inner face, then
    `depth` rounds of stack_vertex + implant_octahedron, each into the first
    face that holds the newest vertex."""
    host = planar.gen_stacked(n, seed)
    T = planar.implant_octahedron(host, _inner_faces(host)[0])
    for _ in range(depth):
        T = planar.stack_vertex(T, _newest_face(T))
        T = planar.implant_octahedron(T, _newest_face(T))
    return T


def nested() -> list[tuple[str, planar.Triangulation]]:
    out = [(f"implant{n}_{s}x{k}", implanted(n, s, k)) for n, s, k in IMPLANTED_HOSTS]
    out += [(f"chain{n}_{s}d{d}", chain(n, s, d))
            for n, s in CHAIN_HOSTS for d in CHAIN_DEPTHS]
    return out


WORKLOADS = {"stacked": stacked, "fourconn": fourconn, "nested": nested}


def warmup_instance(workload: str) -> planar.Triangulation:
    """A small instance that takes the same code paths as the workload."""
    if workload == "stacked":
        return planar.gen_stacked(12, 0)
    if workload == "fourconn":
        return planar.double_wheel(5)
    return chain(8, 0, 1)
