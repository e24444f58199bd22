"""Hand-rolled SVG emission for symbol-region figures.

No plotting dependency: figures are assembled from circles, polylines and
point clouds, so identical inputs produce byte-identical files. Axes,
outline, circle and legend write their coordinates with 6 decimals. A
point cloud is one group scaled by 0.01, whose <circle> rows give each
centre in whole centipixels: every coordinate is '%05.0f' % (v * 100.0)
of its mapped float v, within 0.005 px of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Arc, Segment

_W, _H = 640, 640
_MARGIN = 40.0

# ASCII of 0..99 in bytes 0-1 and of 0..999 in bytes 2-4 of a little-endian
# uint64, so _D2[q // 1000] | _D3[q % 1000] spells 0 <= q < 100000 as the
# five digits of '%05.0f' % q.
_N = np.arange(1000)
_D2 = (_N[:100] // 10 + 48 | (_N[:100] % 10 + 48) << 8).astype(np.uint64)
_D3 = ((_N // 100 + 48) << 16 | (_N // 10 % 10 + 48) << 24
       | (_N % 10 + 48) << 32).astype(np.uint64)
# Byte offsets of the cx and cy digits in a cloud row
_CX, _CY = len('<circle cx="'), len('<circle cx="00000" cy="')


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
        """Append the cloud as one element: a group of fill `color` scaled
        by 0.01, with a <circle> row per point, rows joined by newlines.
        Each coordinate is '%05.0f' % of 100 times its mapped float, and r
        is the radius in whole centipixels. No points append nothing.

        The rows have one width, so they are written into one buffer: the
        8 bytes at each coordinate, its five digits and the three template
        bytes after them, as one uint64 from the digit tables. A row with a
        coordinate that does not round into 0..99999 is %-formatted and
        spliced in at its place."""
        zs = np.asarray(zs).ravel()
        if not zs.size:
            return
        px, py = self._map(zs.real, zs.imag)
        r = round(radius * 100.0)
        point = '<circle cx="%05.0f" cy="%05.0f' + f'" r="{r}"/>\n'
        row = (point % (0, 0)).encode()
        head = f'<g fill="{color}" transform="scale(0.01)">\n'.encode()
        q = np.stack([px, py])
        with np.errstate(over="ignore"):  # such a row is %-formatted
            q *= 100.0
        np.rint(q, out=q)
        fast = ((q >= 0.0) & (q < 1e5) & ~np.signbit(q)).all(axis=0)
        q[:, ~fast] = 0.0
        hi, lo = np.divmod(q.astype(np.int32), 1000)

        buf = bytearray().join((head, row * zs.size, b"</g>"))
        words = np.frombuffer(buf, np.dtype({
            "names": ["x", "y"], "formats": ["<u8", "<u8"],
            "offsets": [_CX, _CY], "itemsize": len(row)}),
            count=zs.size, offset=len(head))
        for name, at, h, l in zip("xy", (_CX, _CY), hi, lo):
            after = int.from_bytes(row[at + 5:at + 8], "little") << 40
            words[name] = (_D2 | np.uint64(after))[h] | _D3[l]
        parts, start = [], 0
        for i in np.flatnonzero(~fast).tolist():
            at = len(head) + i * len(row)
            x, y = px[i].item(), py[i].item()  # as floats, inf is no warning
            parts += [buf[start:at], (point % (x * 100.0, y * 100.0)).encode()]
            start = at + len(row)
        if parts:
            buf = b"".join([*parts, buf[start:]])
        self.elements.append(buf.decode())

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
