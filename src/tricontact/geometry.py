"""Exact kernel for homothets of the right triangle with corners (0,0), (0,1), (1,0).

A positive homothet is stored as its right corner (x, y) plus its height h > 0;
its point set is exactly {(a, b) : a >= x, b >= y, a + b <= x + y + h}.  A
negative homothet (used for the gaps between three mutually touching positive
ones) is stored as its top corner plus height.

Everything here is decided exactly: the predicates are plain arithmetic and
comparisons on the coordinates, so they serve ints and `fractions.Fraction`s
alike, and no tolerance appears anywhere in this module.  The constructor
builds triangles in `Fraction`s; its post-check, the face gaps and the
verifier decide in one integer frame (`core.Representation.scaled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import ClassVar, Sequence, Union

RationalLike = Union[int, float, str, Fraction]


def frac(v: RationalLike) -> Fraction:
    """Coerce ints, floats, 'num/den' strings and Fractions to Fraction.

    Floats convert exactly (binary doubles are dyadic rationals).
    """
    if isinstance(v, Fraction):
        return v
    return Fraction(v)


def pow2_floor(q: Fraction) -> Fraction:
    """The largest power of two at most q > 0."""
    p = Fraction(2) ** (q.numerator.bit_length() - q.denominator.bit_length())
    return p if p <= q else p / 2


def frac_str(v: Fraction) -> str:
    """Canonical 'num/den' serialization (lowest terms, den > 0)."""
    return f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


@dataclass(frozen=True)
class Tri:
    """Positive homothet: right corner (x, y), height h > 0."""

    x: Fraction
    y: Fraction
    h: Fraction

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"triangle height must be positive, got {self.h}")

    @cached_property
    def s(self) -> Fraction:
        """Hypotenuse level x + y + h: the set is {a+b <= s} within the corner cone.

        Computed once per triangle; the cache sits outside the dataclass
        fields, so equality and hashing ignore it."""
        return self.x + self.y + self.h

    @property
    def right_corner(self) -> Point:
        return Point(self.x, self.y)

    @property
    def top_corner(self) -> Point:
        return Point(self.x, self.y + self.h)

    @property
    def east_corner(self) -> Point:
        return Point(self.x + self.h, self.y)

    @property
    def corners(self) -> tuple[Point, Point, Point]:
        return (self.right_corner, self.top_corner, self.east_corner)

    def contains(self, p: Point) -> bool:
        """Closed-set membership."""
        return p.x >= self.x and p.y >= self.y and p.x + p.y <= self.s

    def __repr__(self) -> str:
        return f"Tri({self.x}, {self.y}, {self.h})"


@dataclass(frozen=True)
class NegTri:
    """Negative homothet: top corner (x, y), height h > 0.

    Point set {(a, b) : a <= x, b <= y, a + b >= x + y - h}.
    """

    x: Fraction
    y: Fraction
    h: Fraction

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"gap triangle height must be positive, got {self.h}")

    @property
    def hyp_level(self) -> Fraction:
        """The set is {a+b >= hyp_level} within the top-corner cone."""
        return self.x + self.y - self.h

    @property
    def top_corner(self) -> Point:
        return Point(self.x, self.y)

    def contains(self, p: Point) -> bool:
        return p.x <= self.x and p.y <= self.y and p.x + p.y >= self.hyp_level

    def expand(self, eta: Fraction) -> "NegTri":
        """Move all three sides outward by eta (>= 0)."""
        if eta < 0:
            raise ValueError("expansion must be nonnegative")
        if eta == 0:
            return self
        return NegTri(self.x + eta, self.y + eta, self.h + 3 * eta)

    def __repr__(self) -> str:
        return f"NegTri({self.x}, {self.y}, {self.h})"


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Overlap:
    """Intersection of positive homothets: empty, a single point, or a homothet.

    Two positive homothets can never meet in a segment: their intersection is
    again of the three-half-plane form {a >= mx, b >= my, a+b <= ms}, so it is
    classified exactly by the sign of ms - mx - my.
    """

    kind: str  # "empty" | "point" | "region"
    point: Point | None = None
    region: Tri | None = None

    EMPTY: ClassVar["Overlap"]

    @staticmethod
    def single(p: Point) -> "Overlap":
        return Overlap("point", point=p)

    @staticmethod
    def of_region(t: Tri) -> "Overlap":
        return Overlap("region", region=t)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    @property
    def right_corner(self) -> Point:
        """Right corner of the intersection (defined for point and region kinds)."""
        if self.kind == "point":
            return self.point
        if self.kind == "region":
            return self.region.right_corner
        raise ValueError("empty overlap has no corner")


Overlap.EMPTY = Overlap("empty")


def signed_height(t1: Tri, t2: Tri) -> Fraction:
    """min(s1, s2) - max(x1, x2) - max(y1, y2).

    > 0 iff interiors overlap, = 0 iff the triangles meet in exactly one
    point, < 0 iff disjoint.  Symmetric in its arguments.
    """
    return min(t1.s, t2.s) - max(t1.x, t2.x) - max(t1.y, t2.y)


def intersect(t1: Tri, t2: Tri) -> Overlap:
    """Exact intersection of two positive homothets."""
    mx = max(t1.x, t2.x)
    my = max(t1.y, t2.y)
    h = min(t1.s, t2.s) - mx - my
    if h < 0:
        return Overlap.EMPTY
    if h == 0:
        return Overlap.single(Point(mx, my))
    return Overlap.of_region(Tri(mx, my, h))


def common_intersection(ts: Sequence[Tri]) -> Overlap:
    """Intersection of a nonempty list of positive homothets (same formula)."""
    if not ts:
        raise ValueError("common_intersection needs at least one triangle")
    mx = max(t.x for t in ts)
    my = max(t.y for t in ts)
    h = min(t.s for t in ts) - mx - my
    if h < 0:
        return Overlap.EMPTY
    if h == 0:
        return Overlap.single(Point(mx, my))
    return Overlap.of_region(Tri(mx, my, h))


def common_signed_height(ts: Sequence[Tri]) -> Fraction:
    return min(t.s for t in ts) - max(t.x for t in ts) - max(t.y for t in ts)


# ---------------------------------------------------------------------------
# Positive vs negative homothets
# ---------------------------------------------------------------------------

def inside_neg(t: Tri, n: NegTri) -> bool:
    """True iff the positive homothet t lies inside the negative homothet n.

    Three exact linear tests: x+h <= X, y+h <= Y, x+y >= X+Y-H.
    """
    return t.x + t.h <= n.x and t.y + t.h <= n.y and t.x + t.y >= n.hyp_level


def neg_interior_hits(n: NegTri, t: Tri) -> bool:
    """True iff the interiors of n and t intersect.

    The joint system {x < a < X, y < b < Y, X+Y-H < a+b < s} is feasible iff
    each of the three gaps is positive.
    """
    return t.x < n.x and t.y < n.y and n.hyp_level < t.s


# ---------------------------------------------------------------------------
# Gap triangles between three mutually intersecting homothets
# ---------------------------------------------------------------------------

def gap_candidates(ts: Sequence[Tri]) -> list[tuple[NegTri, dict[str, int]]]:
    """All ways to bound a negative homothet by one side line of each of three
    positive homothets, keeping only geometrically valid ones.

    A candidate assigns roles: one triangle contributes its hypotenuse line
    (a+b = s), one its vertical side line (a = x), one its horizontal side
    line (b = y).  Validity requires positive height and each gap side to be a
    sub-segment of the contributing triangle's side.  Roles map role name ->
    index into ts.  By construction the candidate's interior never meets the
    three contributing triangles.
    """
    if len(ts) != 3:
        raise ValueError("gap_candidates needs exactly three triangles")
    out = []
    for ih, iv, iz in permutations(range(3)):
        th, tv, tz = ts[ih], ts[iv], ts[iz]
        gx = tv.x
        gy = tz.y
        gh = gx + gy - th.s
        if gh <= 0:
            continue
        # side-segment containment in the contributing sides
        if not (th.x <= gx - gh and gx <= th.x + th.h):       # hypotenuse span
            continue
        if not (tv.y <= gy - gh and gy <= tv.y + tv.h):       # vertical span
            continue
        if not (tz.x <= gx - gh and gx <= tz.x + tz.h):       # horizontal span
            continue
        out.append((NegTri(gx, gy, gh), {"hyp": ih, "vertical": iv, "horizontal": iz}))
    return out


# ---------------------------------------------------------------------------
# Exact segment predicates (used by the drawing checks)
# ---------------------------------------------------------------------------

def orientation(o: Point, a: Point, b: Point) -> int:
    """Sign of the cross product (a-o) x (b-o): 1 ccw, -1 cw, 0 collinear."""
    v = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def on_segment(a: Point, b: Point, p: Point) -> bool:
    """p collinear with ab assumed; True iff p lies on the closed segment ab."""
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segment_intersection_kind(a: Point, b: Point, c: Point, d: Point) -> str:
    """Classify the intersection of closed segments ab and cd.

    Returns one of:
      "none"     - disjoint
      "endpoint" - exactly one common point, an endpoint of both segments
      "touch"    - exactly one common point, interior to at least one segment
      "cross"    - proper crossing or collinear overlap of positive length
    """
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)

    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return "cross"

    # Collect boundary incidences.
    hits = []
    if o1 == 0 and on_segment(a, b, c):
        hits.append(c)
    if o2 == 0 and on_segment(a, b, d):
        hits.append(d)
    if o3 == 0 and on_segment(c, d, a):
        hits.append(a)
    if o4 == 0 and on_segment(c, d, b):
        hits.append(b)

    if not hits:
        if o1 != o2 and o3 != o4:
            return "cross"
        return "none"

    distinct = []
    for p in hits:
        if p not in distinct:
            distinct.append(p)
    if len(distinct) > 1:
        return "cross"  # collinear overlap
    p = distinct[0]
    a_end = p == a or p == b
    c_end = p == c or p == d
    if a_end and c_end:
        return "endpoint"
    return "touch"
