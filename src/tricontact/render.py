"""Static SVG rendering of representations (display only, never re-ingested)."""

from __future__ import annotations

from tricontact.core import Representation
from tricontact.geometry import intersect
from tricontact.verify import Drawing, intersection_graph


def _fmt(v: float, precision: int) -> str:
    return f"{v:.{precision}f}"


def _color(v: int, total: int) -> str:
    hue = (v * 360.0 / max(total, 1) + 47.0 * v) % 360.0
    return f"hsl({hue:.0f},62%,62%)"


def render_svg(rep: Representation, drawing: Drawing | None = None,
               show_contacts: bool = False, precision: int = 6,
               size: float = 800.0) -> str:
    """One polygon per triangle, y-axis flipped for screen coordinates;
    optional overlays for pairwise contacts and a planar drawing."""
    tris = rep.triangles
    xs = [float(t.x) for t in tris.values()] + [float(t.x + t.h) for t in tris.values()]
    ys = [float(t.y) for t in tris.values()] + [float(t.y + t.h) for t in tris.values()]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    span = max(xhi - xlo, yhi - ylo, 1e-12)
    pad = 0.03 * span
    scale = size / (span + 2 * pad)

    def sx(x: float) -> float:
        return (x - xlo + pad) * scale

    def sy(y: float) -> float:
        return (yhi - y + pad) * scale  # flip

    height = (yhi - ylo + 2 * pad) * scale
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size, 1)}" '
        f'height="{_fmt(height, 1)}" viewBox="0 0 {_fmt(size, 1)} {_fmt(height, 1)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    n = len(tris)
    outer = set(rep.outer)
    for v in sorted(tris):
        t = tris[v]
        pts = " ".join(
            f"{_fmt(sx(float(p.x)), precision)},{_fmt(sy(float(p.y)), precision)}"
            for p in t.corners
        )
        style = 'fill-opacity="0.35" stroke="black" stroke-width="1"'
        if v in outer:
            style = 'fill-opacity="0.15" stroke="black" stroke-width="1.5"'
        out.append(f'<polygon points="{pts}" fill="{_color(v, n)}" {style}>'
                   f'<title>vertex {v}</title></polygon>')

    if show_contacts:
        for u, v in sorted(intersection_graph(rep)):
            c = intersect(tris[u], tris[v]).right_corner
            out.append(
                f'<circle cx="{_fmt(sx(float(c.x)), precision)}" '
                f'cy="{_fmt(sy(float(c.y)), precision)}" r="2.5" fill="red"/>')

    if drawing is not None:
        for u, v, path in drawing.polylines:
            pts = " ".join(
                f"{_fmt(sx(float(p.x)), precision)},{_fmt(sy(float(p.y)), precision)}"
                for p in path
            )
            out.append(f'<polyline points="{pts}" fill="none" stroke="#1040c0" '
                       f'stroke-width="1.2"/>')
        for v, p in sorted(drawing.points.items()):
            out.append(
                f'<circle cx="{_fmt(sx(float(p.x)), precision)}" '
                f'cy="{_fmt(sy(float(p.y)), precision)}" r="3" fill="#1040c0"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
