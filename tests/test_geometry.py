import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

from tricontact.geometry import (
    NegTri,
    Point,
    Tri,
    common_intersection,
    common_signed_height,
    frac,
    frac_str,
    gap_candidates,
    inside_neg,
    intersect,
    orientation,
    segment_intersection_kind,
    signed_height,
)
from conftest import grid_points, in_triangle, ntri, point, tri

F = Fraction


def rand_tri(rng, span=10, den=8):
    x = F(rng.randint(-span * den, span * den), den)
    y = F(rng.randint(-span * den, span * den), den)
    h = F(rng.randint(1, span * den), den)
    return Tri(x, y, h)


def oracle_agrees(t1, t2, k=20):
    """Dense-sampling membership oracle vs the closed-form classification."""
    ov = intersect(t1, t2)
    for p in grid_points(t1, t2, k):
        both = in_triangle(p, t1) and in_triangle(p, t2)
        if ov.kind == "empty":
            if both:
                return False
        elif ov.kind == "point":
            if both and (p[0], p[1]) != (ov.point.x, ov.point.y):
                return False
        else:
            if both != in_triangle(p, ov.region):
                return False
    return True


class TestSignedHeight:
    def test_tangent(self):
        assert signed_height(tri(0, 0, 2), tri(1, 1, 2)) == 0

    def test_overlapping(self):
        assert signed_height(tri(0, 0, 3), tri(1, 1, 3)) == 1
        assert oracle_agrees(tri(0, 0, 3), tri(1, 1, 3))

    def test_disjoint(self):
        assert signed_height(tri(0, 0, 1), tri(5, 5, 1)) == -9

    def test_symmetry_random(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b = rand_tri(rng), rand_tri(rng)
            assert signed_height(a, b) == signed_height(b, a)


class TestIntersect:
    def test_single_point(self):
        ov = intersect(tri(0, 0, 2), tri(1, 1, 2))
        assert ov.kind == "point" and ov.point == point(1, 1)

    def test_region(self):
        ov = intersect(tri(0, 0, 3), tri(1, 1, 3))
        assert ov.kind == "region" and ov.region == tri(1, 1, 1)
        assert oracle_agrees(tri(0, 0, 3), tri(1, 1, 3), k=101)  # >= 10^4 grid points

    def test_containment(self):
        small = tri("1/2", "1/2", 1)
        ov = intersect(tri(0, 0, 4), small)
        assert ov.kind == "region" and ov.region == small
        big = tri(0, 0, 4)
        for c in small.corners:
            assert big.contains(c)

    def test_oracle_random_pairs(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b = rand_tri(rng), rand_tri(rng)
            assert oracle_agrees(a, b, k=12)


class TestCommonIntersection:
    def test_triple_point(self):
        ts = [tri(0, 2, 2), tri(2, 2, 2), tri(2, 0, 2)]
        ov = common_intersection(ts)
        assert ov.kind == "point" and ov.point == point(2, 2)
        # each pair meets only at (2, 2)
        for a, b in combinations(ts, 2):
            pair = intersect(a, b)
            assert pair.kind == "point" and pair.point == point(2, 2)

    def test_identity(self):
        t = tri(0, 0, 3)
        ov = common_intersection([t])
        assert ov.kind == "region" and ov.region == t

    def test_disjoint(self):
        assert common_intersection([tri(0, 0, 1), tri(5, 5, 1), tri(0, 5, 1)]).is_empty

    def test_sublist_antimonotone(self):
        # the intersection of a sublist contains that of the full list
        rng = random.Random(3)
        for _ in range(120):
            ts = [rand_tri(rng, span=4) for _ in range(3)]
            full = common_signed_height(ts)
            for a, b in combinations(ts, 2):
                assert signed_height(a, b) >= full


class TestNegTri:
    def test_inside_examples(self):
        n = ntri(3, 3, 2)
        assert not inside_neg(tri(1, 1, 1), n)       # x+y = 2 < 4
        assert inside_neg(tri(2, 2, 1), n)           # boundary-touching containment
        assert not inside_neg(tri(0, 0, 10), n)      # too large

    def test_inside_sampling(self):
        n = ntri(3, 3, 2)
        t = tri(1, 1, 1)
        # some sampled point of t must fall outside n
        escaped = False
        for i in range(11):
            for j in range(11):
                a = t.x + t.h * F(i, 10)
                b = t.y + t.h * F(j, 10)
                if in_triangle((a, b), t) and not n.contains(Point(a, b)):
                    escaped = True
        assert escaped

    def test_expand(self):
        n = ntri(3, 3, 2)
        e = n.expand(F(1, 2))
        assert e == ntri("7/2", "7/2", "7/2")
        assert e.hyp_level == n.hyp_level - F(1, 2)

    def test_positive_height_required(self):
        with pytest.raises(ValueError):
            ntri(0, 0, 0)
        with pytest.raises(ValueError):
            tri(0, 0, 0)


class TestTriS:
    def test_value(self):
        rng = random.Random(5)
        for _ in range(50):
            t = rand_tri(rng, span=4)
            assert t.s == t.x + t.y + t.h
            assert t.s == t.x + t.y + t.h  # second read from the cache

    def test_cache_ignored_by_eq_and_hash(self):
        a, b = tri(F(1, 3), F(2, 5), F(3, 7)), tri(F(1, 3), F(2, 5), F(3, 7))
        assert a.s == F(1, 3) + F(2, 5) + F(3, 7)
        assert "s" in vars(a) and "s" not in vars(b)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_replace_recomputes(self):
        t = tri(0, 0, 2)
        assert t.s == 2
        u = dataclasses.replace(t, h=F(5))
        assert "s" not in vars(u)
        assert u.s == 5 and t.s == 2


class TestGapCandidates:
    def test_default_outer_unique(self):
        cands = gap_candidates([tri(0, 0, 4), tri(1, 3, 2), tri(3, 1, 2)])
        assert len(cands) == 1
        gap, roles = cands[0]
        assert gap == ntri(3, 3, 2)
        assert roles == {"hyp": 0, "vertical": 2, "horizontal": 1}

    def test_scaling(self):
        cands = gap_candidates([tri(0, 0, 8), tri(2, 6, 4), tri(6, 2, 4)])
        assert len(cands) == 1 and cands[0][0] == ntri(6, 6, 4)


class TestSerialization:
    def test_frac_str_roundtrip(self):
        for v in (F(1, 2), F(-3, 7), F(5), F(0)):
            assert frac(frac_str(v)) == v

    def test_frac_exact_floats(self):
        assert frac(0.5) == F(1, 2)
        assert frac(0.1) == F(3602879701896397, 36028797018963968)


class TestSegments:
    def test_orientation(self):
        assert orientation(point(0, 0), point(1, 0), point(0, 1)) == 1
        assert orientation(point(0, 0), point(0, 1), point(1, 0)) == -1
        assert orientation(point(0, 0), point(1, 1), point(2, 2)) == 0

    def test_kinds(self):
        a, b = point(0, 0), point(2, 2)
        assert segment_intersection_kind(a, b, point(0, 2), point(2, 0)) == "cross"
        assert segment_intersection_kind(a, b, point(2, 2), point(3, 0)) == "endpoint"
        assert segment_intersection_kind(a, b, point(1, 1), point(3, 0)) == "touch"
        assert segment_intersection_kind(a, b, point(3, 3), point(4, 4)) == "none"
        assert segment_intersection_kind(a, b, point(1, 1), point(3, 3)) == "cross"  # collinear overlap
        assert segment_intersection_kind(a, b, point(2, 2), point(3, 3)) == "endpoint"
