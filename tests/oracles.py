"""Reference implementations that tests compare the package against.

They are deliberately simple, scalar and independent of the package's
vectorized kernels.
"""

import cmath
import math

import numpy as np
import pytest

from dysrates import (Arc, Disk, HalfPlane, Region, Segment, boundary_pieces,
                      zeta)

TWO_PI = 2.0 * math.pi


def project(piece, w: complex) -> complex:
    """Nearest point of an Arc or a Segment to w."""
    if isinstance(piece, Arc):
        v = w - piece.center
        if v == 0:
            return piece.point_at(0.0)
        # normalize the angle of v into [angle_start, angle_start + 2*pi)
        ang = piece.angle_start + (cmath.phase(v) - piece.angle_start) % TWO_PI
        if ang <= piece.angle_end:
            return piece.center + piece.radius * v / abs(v)
        p0, p1 = piece.point_at(0.0), piece.point_at(1.0)
        return p0 if abs(w - p0) <= abs(w - p1) else p1
    if isinstance(piece, Segment):
        d = piece.p1 - piece.p0
        denom = abs(d) ** 2
        if denom == 0.0:
            return piece.p0
        t = ((w - piece.p0).real * d.real
             + (w - piece.p0).imag * d.imag) / denom
        return piece.point_at(min(1.0, max(0.0, t)))
    raise TypeError(f"unknown piece {piece!r}")


def _arc_probe_points(region: Region, n_samples: int) -> np.ndarray:
    """Boundary samples for the refuting check; unbounded regions are
    clipped by a generous probe disk first (membership is still tested
    against the original region, so refutations remain sound)."""
    probe = region
    if not region.bounded:
        reach = 1.0
        for a in region.atoms:
            if isinstance(a, HalfPlane):
                reach = max(reach, abs(a.threshold))
            else:
                reach = max(reach, abs(a.center) + a.radius)
        probe = Region(region.atoms + (Disk(0.0, 10.0 * reach),))
    pieces = boundary_pieces(probe)
    total = sum(p.length for p in pieces) or 1.0
    return np.concatenate(
        [p.sample(max(2, int(round(n_samples * p.length / total))) - 1)
         for p in pieces])


def arc_sampling_refuter(region: Region, n_samples: int, n_theta: int,
                         tol: float, left: bool) -> bool:
    """False when some sampled boundary point's arc leaves the region
    (sound); True otherwise (heuristic certificate only).

    The right-hand arc of z = r e^{i phi} sweeps r e^{i (1 - 2 theta) phi};
    the left-hand arc sweeps the angles from phi to sign(phi)*pi, and the
    mirror half follows from real-axis symmetry of the regions.  All
    sampled points and their arcs are tested as one array.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    thetas = np.linspace(0.0, 1.0, n_theta)
    zs = _arc_probe_points(region, n_samples)
    zs = zs[(zs != 0) & region.contains(zs, tol)]
    r, phi = np.abs(zs)[:, None], np.angle(zs)[:, None]
    if left:
        target = np.where(phi >= 0, math.pi, -math.pi)
        angles = phi + thetas * (target - phi)
    else:
        angles = (1.0 - 2.0 * thetas) * phi
    return bool(region.contains(r * np.exp(1j * angles), tol).all())


def farthest(piece, w: complex) -> complex:
    """Farthest point of an Arc or a Segment from w (the first endpoint
    when every point of an arc is equally far)."""
    p0, p1 = piece.point_at(0.0), piece.point_at(1.0)
    if isinstance(piece, Arc):
        v = piece.center - w
        if v == 0:
            return p0
        # normalize the angle of v into [angle_start, angle_start + 2*pi)
        ang = piece.angle_start + (cmath.phase(v) - piece.angle_start) % TWO_PI
        if ang <= piece.angle_end:
            return piece.center + piece.radius * v / abs(v)
    return p0 if abs(w - p0) >= abs(w - p1) else p1


def disk_hull_radius(region: Region) -> float:
    """Radius of the smallest real-centered disk containing a bounded
    region, by a ternary search over the center m of the distance from m to
    the farthest point of the boundary (a convex function of m)."""
    pieces = boundary_pieces(region)

    def radius_for(m):
        return max(abs(farthest(p, m) - m) for p in pieces)

    disk = region.smallest_disk_atom()
    lo, hi = disk.center - disk.radius, disk.center + disk.radius
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if radius_for(m1) <= radius_for(m2):
            hi = m2
        else:
            lo = m1
    return radius_for(0.5 * (lo + hi))


def zeta_partials(z_a, z_b, z_c, params):
    """Complex partial derivatives (d/dz_A, d/dz_B, d/dz_C) of zeta."""
    lam, alpha = params.lam, params.alpha
    w = 2.0 - alpha * z_c
    return (-lam + lam * w * z_b,
            -lam + lam * w * z_a,
            -lam * alpha * z_a * z_b)


def shifted_modulus_sq(z_a, z_b, z_c, params):
    g = zeta(z_a, z_b, z_c, params) - params.shift
    return (g * np.conj(g)).real


def grad_shifted_modulus_sq(z_a, z_b, z_c, params):
    """Euclidean gradients of |zeta - s|^2 in each argument, as complex
    numbers G with d|zeta - s|^2 = Re(conj(G) dz).

    For g holomorphic in z, the plane gradient of |g|^2 is 2*g*conj(g').
    Acceptance criterion 10 checks it against central differences of the
    squared modulus.
    """
    g = zeta(z_a, z_b, z_c, params) - params.shift
    da, db, dc = zeta_partials(z_a, z_b, z_c, params)
    return (2.0 * g * np.conj(da),
            2.0 * g * np.conj(db),
            2.0 * g * np.conj(dc))


def rotation_value(m: np.ndarray) -> complex:
    """The complex number a scaled-rotation matrix multiplies by."""
    return complex(m[0, 0], m[1, 0])


def lipschitz_bound_coarse(enclosure_a, enclosure_b, enclosure_c,
                           params) -> float:
    """Triangle-inequality Lipschitz bound of |zeta - s| on three disk
    enclosures: lam*(1 + (2 + alpha*sup|z_C|)*sup|z_B|) per coordinate,
    monotone in alpha and in each enclosure (unit disks at alpha = lam = 1
    give sqrt(33) < 6)."""
    lam, alpha = params.lam, params.alpha
    sa, sb, sc = (abs(d.center) + d.radius
                  for d in (enclosure_a, enclosure_b, enclosure_c))
    m_a = lam * (1.0 + (2.0 + alpha * sc) * sb)
    m_b = lam * (1.0 + (2.0 + alpha * sc) * sa)
    m_c = lam * alpha * sa * sb
    return math.sqrt(m_a * m_a + m_b * m_b + m_c * m_c)


def assert_matches(got, expected, where):
    """Same structure and types as expected, with floats equal to
    rel=1e-15."""
    if isinstance(expected, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(expected, rel=1e-15), where
    elif isinstance(expected, dict):
        assert sorted(got) == sorted(expected), where
        for key in expected:
            assert_matches(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_matches(g, e, f"{where}[{i}]")
    else:
        assert type(got) is type(expected) and got == expected, where


def svg_points_reference(fig, zs, color: str, radius: float = 0.8) -> str:
    """The element string `SvgFigure.add_points` appends for a cloud: one
    `%`-formatted <circle> row per point, each coordinate mapped alone
    through `fig._map`, rows joined by newlines ("" for no points)."""
    rows = []
    for z in np.asarray(zs).ravel().tolist():
        x, y = fig._map(z.real, z.imag)
        rows.append('<circle cx="%.6f" cy="%.6f" r="%.6f" fill="%s"/>'
                    % (x, y, radius, color))
    return "\n".join(rows)
