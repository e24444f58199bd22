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

# ASCII of 0..999 as three digits packed little-endian into a uint64; in
# _INT3 the leading zeros are the pad byte 0, which add_points drops.
_N3 = np.arange(1000)[:, None]
_D3 = _N3 // np.array([100, 10, 1]) % 10 + ord("0")
_PACK3 = np.array([1, 1 << 8, 1 << 16])
_ASCII3 = (_D3 * _PACK3).sum(axis=1).astype(np.uint64)
_INT3 = (np.where(_N3 < [100, 10, 0], 0, _D3) * _PACK3).sum(axis=1).astype(
    np.uint64)
# The first 40 bytes of every cloud row, as five 8-byte words: word 1 ends
# in the x integer slots and ".", word 2 starts with the x decimals, and
# words 3 and 4 hold y the same way.
_ROW_HEAD = b'<circle cx="\0\0\0.\0\0\0\0\0\0" cy="\0\0\0.\0\0\0\0\0\0'
# Rows per cloud element; a block's buffer, bytes and str then fit in L2.
_BLOCK_ROWS = 4096


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _micro_units(v):
    """(ok, q) for an array of coordinates: where ok, q = rint(v * 1e6) as
    int64 is exactly the digit string of '%.6f' % v without its point,
    with at most 3 integer digits; elsewhere q is 0.

    For finite 0 <= v < 1000 the float product v * 1e6 is within 1.2e-7 of
    the exact one, so away from a .5 tie it rounds as '%.6f' does
    (correctly, half to even). ok is False for a negative or -0.0, a
    non-finite, a too large value, and a product within 1e-6 of a tie."""
    ok = np.isfinite(v) & ~np.signbit(v) & (v < 1000.0)
    p = np.where(ok, v, 0.0) * 1e6
    r = np.rint(p)
    ok &= (np.abs(p - r) < 0.5 - 1e-6) & (r < 1e9)
    return ok, np.where(ok, r, 0.0).astype(np.int64)


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
        """Append the cloud as elements of `_BLOCK_ROWS` rows: a <circle> row
        per point, rows joined by newlines, each coordinate exactly '%.6f' %
        of its mapped float.

        A block's rows are written into one buffer, 8-byte words at a time,
        with the digits of `_micro_units` from 3-digit tables. The buffer is
        cut at each row with a coordinate `_micro_units` leaves out; the
        runs, pad bytes dropped, are joined with those rows %-formatted."""
        zs = np.asarray(zs).ravel()
        px, py = self._map(zs.real, zs.imag)
        tail = f'" r="{_fmt(radius)}" fill="{color}"/>\n'
        (okx, qx), (oky, qy) = _micro_units(px), _micro_units(py)
        fast = okx & oky & ("\0" not in tail)

        row = _ROW_HEAD + tail.encode()
        template = np.frombuffer(row + b"\0" * (-len(row) % 8), "<u8")
        width = 8 * template.size
        point = '<circle cx="%.6f" cy="%.6f' + tail
        for lo in range(0, zs.size, _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            words = np.tile(template, (len(fast[block]), 1))
            for col, q in ((1, qx[block]), (3, qy[block])):
                ip = q // 1_000_000
                fp = q - ip * 1_000_000
                words[:, col] |= _INT3[ip] << np.uint64(32)
                words[:, col + 1] |= (_ASCII3[fp // 1000]
                                      | _ASCII3[fp % 1000] << np.uint64(24))
            body = words.tobytes()
            parts, start = [], 0
            for i in np.flatnonzero(~fast[block]).tolist():
                parts += [body[start:i * width].replace(b"\0", b"").decode(),
                          point % (px[lo + i], py[lo + i])]
                start = (i + 1) * width
            parts.append(body[start:].replace(b"\0", b"").decode())
            self.elements.append("".join(parts)[:-1])

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
            pts = piece.point_at(np.arange(n + 1) / n)
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
