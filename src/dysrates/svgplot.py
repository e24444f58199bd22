"""Hand-rolled SVG emission for symbol-region figures.

No plotting dependency: figures are assembled from circles, polylines and
point clouds with fixed 6-decimal coordinate formatting, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Arc, Segment

_W, _H = 640, 640
_MARGIN = 40.0


def _fmt(x: float) -> str:
    return f"{x:.6f}"


@dataclass
class SvgFigure:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    elements: list = field(default_factory=list)

    def _map(self, x, y):
        """Figure coordinates of (x, y); elementwise on arrays."""
        sx = (_W - 2 * _MARGIN) / (self.xmax - self.xmin)
        sy = (_H - 2 * _MARGIN) / (self.ymax - self.ymin)
        s = min(sx, sy)
        cx = 0.5 * (self.xmin + self.xmax)
        cy = 0.5 * (self.ymin + self.ymax)
        return (_W / 2 + (x - cx) * s, _H / 2 - (y - cy) * s)

    def add_axes(self):
        x0, y0 = self._map(self.xmin, 0.0)
        x1, _ = self._map(self.xmax, 0.0)
        self.elements.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
            f'y2="{_fmt(y0)}" stroke="#888888" stroke-width="1"/>')
        xv, yv0 = self._map(0.0, self.ymin)
        _, yv1 = self._map(0.0, self.ymax)
        self.elements.append(
            f'<line x1="{_fmt(xv)}" y1="{_fmt(yv0)}" x2="{_fmt(xv)}" '
            f'y2="{_fmt(yv1)}" stroke="#888888" stroke-width="1"/>')

    def _coords(self, zs) -> tuple:
        """Mapped coordinates of an array of points as the flat Python
        tuple (x0, y0, x1, y1, ...), ready for one %-format."""
        zs = np.asarray(zs)
        px, py = self._map(zs.real, zs.imag)
        xy = np.empty(2 * zs.size)
        xy[0::2] = px
        xy[1::2] = py
        return tuple(xy.tolist())

    def add_points(self, zs, color: str, radius: float = 0.8):
        xy = self._coords(zs)
        if not xy:
            return
        point = ('<circle cx="%.6f" cy="%.6f" r="' + _fmt(radius)
                 + '" fill="' + color + '"/>')
        # one element string per cloud; render() joins elements with "\n"
        self.elements.append("\n".join([point] * (len(xy) // 2)) % xy)

    def add_circle(self, center: complex, radius: float, color: str,
                   width: float = 1.5):
        px, py = self._map(center.real, center.imag)
        pr, _ = self._map(center.real + radius, center.imag)
        self.elements.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(pr - px)}" '
            f'fill="none" stroke="{color}" stroke-width="{width}"/>')

    def add_piece_outline(self, piece, color: str, width: float = 1.0):
        if isinstance(piece, Arc):
            n = max(16, int(piece.length * 64))
            # scalar t, so each point comes from cmath.exp as before
            pts = np.array([piece.point_at(i / n) for i in range(n + 1)])
        elif isinstance(piece, Segment):
            pts = np.array([piece.p0, piece.p1])
        else:
            raise TypeError(f"unknown piece {piece!r}")
        xy = self._coords(pts)
        coords = " ".join(["%.6f,%.6f"] * (len(xy) // 2)) % xy
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')

    def add_legend(self, entries):
        y = _MARGIN / 2.0
        x = _MARGIN
        for label, color in entries:
            self.elements.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y - 8)}" width="12" '
                f'height="12" fill="{color}"/>')
            self.elements.append(
                f'<text x="{_fmt(x + 16)}" y="{_fmt(y + 2)}" '
                f'font-family="monospace" font-size="12">{label}</text>')
            x += 16.0 + 8.0 * len(label) + 24.0

    def render(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
                f'height="{_H}" viewBox="0 0 {_W} {_H}">\n'
                f'<rect width="{_W}" height="{_H}" fill="white"/>\n')
        return head + "\n".join(self.elements) + "\n</svg>\n"


def bounds_for(points, radius: float) -> tuple:
    """(xmin, xmax, ymin, ymax) of an array of points and the circle
    |z| = radius, padded by a tenth of the larger extent."""
    points = np.asarray(points)
    xs = np.append(points.real, (radius, -radius))
    ys = np.append(points.imag, (radius, -radius))
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    pad = 0.1 * max(xmax - xmin, ymax - ymin, 1e-9)
    return (xmin - pad, xmax + pad, ymin - pad, ymax + pad)
