"""The representation type and its integer frame, shared by the constructor
and the verifier, and the slack of every float screen of the verifier."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from tricontact.geometry import Tri, frac, frac_str

ROUNDOFF = 2.0 ** -53  # unit roundoff of IEEE doubles (round to nearest)
TINY = 2.0 ** -1000    # exceeds the sum of any few underflow errors (2^-1075 each)

Frame = dict[int, tuple[int, int, int]]  # vertex -> (x, y, s), scaled to integers


def float_pad(m: float) -> float:
    """Slack of every linear float screen (bounding boxes, gap and strip
    tests) over floats whose magnitudes are at most `m`.

    Let u = 2^-53.  Each screened quantity is built from at most six
    converted values, each within u*m of its exact value when the exact
    magnitude is at most m (2u*m for a gap height, which is at most 2m), and
    at most six float additions or subtractions, each rounding by at most
    u times a result of magnitude at most 4m.  The worst case, the strip
    screen of `verify.check_face_condition`, stays within 17u*m of its exact
    value (7u*m from its inputs, where H can enter twice, and 10u*m from its
    six roundings); the bounding-box comparisons within 3u*m.  So 2^7 u*m
    covers every screen with room for the second-order terms, and `TINY`
    covers underflow.  The pad scales with the coordinates, so a deep piece,
    whose coordinates are tiny, is screened as sharply as a shallow one.
    """
    return 2.0 ** 7 * ROUNDOFF * m + TINY


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

    @cached_property
    def scaled(self) -> tuple[int, dict[int, Tri]]:
        """(S, every triangle times S), the integer frame of the pieces'
        post-check, the face gaps and the verifier: S is `int_frame`'s D
        over every coordinate and epsilon, times 2^6, so every grid point
        of the drawing (down to 1/64 of a height) is integral.

        Built once per representation; like `Tri.s`, the cache sits outside
        the dataclass fields."""
        den, frame, _ = int_frame(self, self.epsilon)
        return den << 6, {v: Tri(x << 6, y << 6, (s - x - y) << 6)
                          for v, (x, y, s) in frame.items()}

    @cached_property
    def float_table(self) -> tuple[list[int], np.ndarray, float]:
        """(the vertices, their triangles' rows (x, y, s, x + h, y + h) of
        nearest doubles, the `float_pad` of linear screens over them), built
        once from `scaled` for every float screen of the verifier; read-only."""
        S, tris = self.scaled
        table = np.array([(t.x / S, t.y / S, t.s / S, (t.x + t.h) / S, (t.y + t.h) / S)
                          for t in tris.values()], dtype=float).reshape(-1, 5)
        table.flags.writeable = False
        return list(tris), table, float_pad(float(np.abs(table).max(initial=0.0)))

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
        try:
            tris = {
                int(v): Tri(frac(x), frac(y), frac(h))
                for v, (x, y, h) in data["triangles"].items()
            }
            outer = tuple(data["outer"])
            epsilon = frac(data["epsilon"])
        except (AttributeError, TypeError) as e:  # a list or number where an object belongs
            raise ValueError(f"malformed representation JSON: {e}") from e
        if not (all(type(v) is int and v in tris for v in outer) and len(set(outer)) == 3
                and len(outer) == 3):
            raise ValueError("malformed representation JSON: outer must name three "
                             f"distinct triangles, got {data['outer']!r}")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        return Representation(tris, outer, epsilon)


def int_frame(rep: Representation, *extra: Fraction) -> tuple[int, Frame, tuple[int, ...]]:
    """(D, frame, the extras times D): D is the least common denominator of
    every x, y and h in `rep` and of the extra rationals, and the frame holds
    every triangle's (x, y, s) times D."""
    den = lcm(*(c.denominator for c in extra),
              *(c.denominator for t in rep.triangles.values() for c in (t.x, t.y, t.h)))

    def scaled(c: Fraction) -> int:
        return c.numerator * (den // c.denominator)

    frame = {}
    for v, t in rep.triangles.items():
        x, y = scaled(t.x), scaled(t.y)
        frame[v] = (x, y, x + y + scaled(t.h))
    return den, frame, tuple(scaled(c) for c in extra)
