"""Hand-rolled SVG emission for symbol-region figures.

No plotting dependency: figures are assembled from circles, polylines and
point clouds, so identical inputs produce byte-identical files. Axes,
outline, circle and legend write their coordinates with 6 decimals; an arc
of the outline is drawn through at most _ARC_POINTS points. A point cloud
is one group scaled by 0.01, whose <circle> rows give each centre in whole
centipixels: every coordinate is '%05.0f' % (v * 100.0) of its mapped
float v, within 0.005 px of it. A figure whose bounds or scale leave the
floating-point range is refused when it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .geometry import Arc, Segment

_W, _H = 640, 640
_MARGIN = 40.0
# Most points of an arc's polyline: chords within 0.0014 px at radius 280 px
_ARC_POINTS = 1024

# A cloud row; each coordinate is its centipixels, rounded half to even
_ROW = '<circle cx="%05.0f" cy="%05.0f" r="80"/>\n'
_ZERO_ROW = (_ROW % (0, 0)).encode()
# The cx and cy digits of each row in a buffer of _ZERO_ROW
_DIGITS = np.dtype({"names": ["x", "y"], "formats": ["S5", "S5"],
                    "offsets": [_ZERO_ROW.index(b"00000"),
                                _ZERO_ROW.rindex(b"00000")],
                    "itemsize": len(_ZERO_ROW)})
# _FIVE[k] is b'%05d' % k, for 0 <= k < 100000
_FIVE = np.empty((100, 1000), [("hi", "S2"), ("lo", "S3")])
_FIVE["hi"] = np.array([b"%02d" % k for k in range(100)])[:, None]
_FIVE["lo"] = [b"%03d" % k for k in range(1000)]
_FIVE = _FIVE.view("S5").ravel()


def _fmt(x: float) -> str:
    return f"{x:.6f}"


@dataclass
class SvgFigure:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    elements: list = field(default_factory=list)

    def __post_init__(self):
        self._s = min((_W - 2 * _MARGIN) / (self.xmax - self.xmin),
                      (_H - 2 * _MARGIN) / (self.ymax - self.ymin))
        self._cx = 0.5 * (self.xmin + self.xmax)
        self._cy = 0.5 * (self.ymin + self.ymax)
        # a finite centre has finite bounds
        if not (0.0 < self._s < math.inf and math.isfinite(self._cx)
                and math.isfinite(self._cy)):
            raise PreconditionError(
                "a figure's bounds and scale in floating-point range",
                f"bounds {(self.xmin, self.xmax, self.ymin, self.ymax)!r}, "
                f"scale {self._s!r}")

    def _map(self, x, y):
        """Figure coordinates of (x, y); elementwise on arrays."""
        return (_W / 2 + (x - self._cx) * self._s,
                _H / 2 - (y - self._cy) * self._s)

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

    def add_points(self, zs, color: str):
        """Append the cloud as one element: a group of fill `color` scaled
        by 0.01 around one _ROW per point, its coordinates 100 times the
        point's mapped floats. If every coordinate rounds into 0..99999, as
        for any cloud inside the canvas, the rows are _ZERO_ROW copies with
        each coordinate's digits copied in from _FIVE; any other cloud is
        %-formatted whole. No points append nothing."""
        zs = np.asarray(zs).ravel()
        if not zs.size:
            return
        q = np.stack(self._map(zs.real, zs.imag))
        with np.errstate(over="ignore"):  # such a cloud is %-formatted
            q *= 100.0
        np.rint(q, out=q)  # '%05.0f' prints the digits of v as of rint(v)
        head = f'<g fill="{color}" transform="scale(0.01)">\n'
        if (q < 1e5).all() and not np.signbit(q).any():
            head = head.encode()
            buf = bytearray().join((head, _ZERO_ROW * zs.size, b"</g>"))
            digits = np.frombuffer(buf, _DIGITS, zs.size, len(head))
            for name, k in zip("xy", q.astype(np.int32)):
                digits[name] = _FIVE[k]
            self.elements.append(buf.decode())
        else:
            self.elements.append(
                head + _ROW * zs.size % tuple(q.T.ravel().tolist()) + "</g>")

    def add_circle(self, center: complex, radius: float, color: str):
        px, py = self._map(center.real, center.imag)
        pr, _ = self._map(center.real + radius, center.imag)
        self.elements.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(pr - px)}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>')

    def add_piece_outline(self, piece, color: str):
        if isinstance(piece, Arc):
            n = int(min(max(16.0, piece.length * 64), _ARC_POINTS - 1))
            pts = piece.point_at(np.arange(n + 1) / n)
        elif isinstance(piece, Segment):
            pts = np.array([piece.p0, piece.p1])
        else:
            raise TypeError(f"unknown piece {piece!r}")
        xy = self._coords(pts)
        coords = " ".join(["%.6f,%.6f"] * (len(xy) // 2)) % xy
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.0"/>')

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
        # one join, so the document is copied once
        return "\n".join([
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
            f'height="{_H}" viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            *self.elements, "</svg>", ""])


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
