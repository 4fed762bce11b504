import itertools
from fractions import Fraction

import pytest

from tricontact import planar
from tricontact.geometry import Tri, tri
from tricontact.core import Representation


@pytest.fixture
def outer_map():
    return {0: tri(0, 0, 4), 1: tri(1, 3, 2), 2: tri(3, 1, 2)}


@pytest.fixture
def k4():
    return planar.validate(4, list(itertools.combinations(range(4), 2)), (0, 1, 2))


@pytest.fixture
def octahedron():
    return planar.octahedron()


@pytest.fixture
def k222_triple_rep():
    """Exact contact representation of the octahedron with a single point
    shared by the three inner triangles at (7/3, 7/3); all 12 adjacencies are
    exact single-point contacts and the 3 antipodal pairs are separated."""
    F = Fraction
    return Representation({
        0: tri(0, 0, 4),
        1: tri(1, 3, 2),
        2: tri(3, 1, 2),
        3: tri(F(7, 3), F(7, 3), F(2, 3)),
        4: tri(F(7, 3), F(5, 3), F(2, 3)),
        5: tri(F(5, 3), F(7, 3), F(2, 3)),
    }, (0, 1, 2), F(1))


def in_triangle(p, t: Tri) -> bool:
    """Independent membership test (used by the sampling oracles)."""
    return p[0] >= t.x and p[1] >= t.y and p[0] + p[1] <= t.x + t.y + t.h


def grid_points(t1: Tri, t2: Tri, k: int):
    """Rational grid over the joint bounding box of two triangles."""
    xlo = min(t1.x, t2.x)
    xhi = max(t1.x + t1.h, t2.x + t2.h)
    ylo = min(t1.y, t2.y)
    yhi = max(t1.y + t1.h, t2.y + t2.h)
    for i in range(k + 1):
        x = xlo + (xhi - xlo) * Fraction(i, k)
        for j in range(k + 1):
            yield (x, ylo + (yhi - ylo) * Fraction(j, k))
