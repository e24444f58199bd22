"""Reference implementations that tests compare the package against.

They are deliberately simple, scalar and independent of the package's
vectorized kernels.
"""

import cmath
import json
import math

import numpy as np
import pytest

from dysrates import (Arc, Averaged, Cocoercive, Disk, HalfPlane, Lipschitz,
                      Monotone, Region, Segment, StronglyMonotone,
                      boundary_pieces, zeta)

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


def distance_to_hull(w: complex, vertices) -> float:
    """Distance from w to the convex hull of a few points, 0 inside it:
    Andrew's monotone chain gives the hull counterclockwise, and outside it
    the nearest point lies on an edge."""
    pts = [complex(*q) for q in sorted({(v.real, v.imag) for v in vertices})]

    def turn(o, a, b):  # > 0 when o, a, b turn counterclockwise
        return ((a - o).conjugate() * (b - o)).imag

    def chain(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    hull = chain(pts) + chain(pts[::-1]) or pts[:1]
    edges = list(zip(hull, hull[1:] + hull[:1]))
    if len(hull) >= 3 and all(turn(a, b, w) >= 0 for a, b in edges):
        return 0.0
    return min(abs(w - project(Segment(a, b), w)) for a, b in edges)


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


def thm33_ball(alpha, lam, beta_c, mu_c):
    """(center, radius) of Theorem 3.3's enlargement ball for a cocoercive
    and strongly monotone C: (2 - lam)/alpha and R/alpha, with
    R^2 = (2 - lam)(2 - lam - 2 (1 - eta) alpha mu_C) and
    eta = alpha/(2 beta_C (2 - lam))."""
    eta = alpha / (2.0 * beta_c * (2.0 - lam))
    r_sq = (2.0 - lam) * (2.0 - lam - 2.0 * (1.0 - eta) * alpha * mu_c)
    return (2.0 - lam) / alpha, math.sqrt(r_sq) / alpha


def thm32_rho(alpha, lam, l_lip, mu_sm):
    """Theorem 3.2's factor with the second min numerator in the proof's
    grouping, mu (2 - lam) + L (2 - lam + 2 alpha mu), where the statement
    displays (2 - lam)(mu + L) + 2 alpha mu L."""
    tail = 2.0 - lam + 2.0 * alpha * mu_sm
    first = (2.0 * alpha * mu_sm * lam * (2.0 - lam)
             / ((1.0 + alpha ** 2 * l_lip ** 2) * tail))
    second = (2.0 * alpha * lam * (mu_sm * (2.0 - lam) + l_lip * tail)
              / ((1.0 + alpha * l_lip) ** 2 * tail))
    return math.sqrt(1.0 - min(first, second))


def thm41_theta(alpha, mu, l_c):
    """Theorem 4.1's averagedness theta = 2/(4 - alpha L_C^2/mu)."""
    return 2.0 / (4.0 - alpha * l_c ** 2 / mu)


def thm41_ball(alpha, mu, l_c):
    """(center, radius) of Theorem 4.1's enlargement ball for a monotone
    and L_C-Lipschitz C: b/alpha and sqrt(b^2 + alpha^2 L_C^2)/alpha, with
    b = 2 - 1/theta."""
    base = 2.0 - 1.0 / thm41_theta(alpha, mu, l_c)
    return base / alpha, math.sqrt(base ** 2 + (alpha * l_c) ** 2) / alpha


def atom_min_real(atom) -> float:
    """Smallest Re z over a class atom's region, from each class's own
    definition rather than from its region atom: the class is certainly
    monotone when this is >= 0."""
    if isinstance(atom, Monotone):
        return 0.0
    if isinstance(atom, StronglyMonotone):
        return atom.mu
    if isinstance(atom, Cocoercive):
        return 0.0
    if isinstance(atom, Lipschitz):
        return -atom.L
    if isinstance(atom, Averaged):
        return 1.0 - 2.0 * atom.theta
    return atom.center - atom.radius


def zeta_partials(z_a, z_b, z_c, params):
    """Complex partial derivatives (d/dz_A, d/dz_B, d/dz_C) of zeta."""
    lam, alpha = params.lam, params.alpha
    w = 2.0 - alpha * z_c
    return (-lam + lam * w * z_b,
            -lam + lam * w * z_a,
            -lam * alpha * z_a * z_b)


def shifted_modulus(z_a, z_b, z_c, params):
    """|zeta - s|, the quantity the search maximizes."""
    return np.abs(zeta(z_a, z_b, z_c, params) - params.shift)


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


def polish_every_row(starts, pieces_triple, params, first=0):
    """Cyclic per-coordinate maximization of |zeta - s| in which every row
    takes every step until two steps in a row move no row, the schedule
    that search.coordinate_polish retires idle rows from.  Each step
    maximizes one coordinate on every piece with the package's closed-form
    piece maximizer and moves a row when it gains more than POLISH_TOL.
    Returns (best_value, best_point, evaluations), the first row winning a
    tie."""
    from dysrates.geometry import _piece_maximizer
    from dysrates.search import (POLISH_MAX_SWEEPS, POLISH_TOL,
                                 _affine_in)
    rows = np.array(starts, dtype=complex).reshape(-1, 3).tolist()
    maximizers = [[_piece_maximizer(p) for p in pieces]
                  for pieces in pieces_triple]
    values = [abs(zeta(*x, params) - params.shift) for x in rows]
    evals, idle = len(rows), 0
    for step in range(3 * POLISH_MAX_SWEEPS):
        idx = (first + step) % 3
        moved = False
        for i, x in enumerate(rows):
            p, q = _affine_in(idx, *x, params)
            best = -math.inf
            for far in maximizers[idx]:
                trial = list(x)
                trial[idx] = far(p, q)
                value = abs(zeta(*trial, params) - params.shift)
                if value > best:
                    best, point = value, trial
            if best > values[i] + POLISH_TOL:
                rows[i], values[i], moved = point, best, True
        evals += len(rows) * len(maximizers[idx])
        idle = 0 if moved else idle + 1
        if idle >= 2 and step >= 2 - first:
            break
    i = max(range(len(rows)), key=values.__getitem__)
    return values[i], tuple(rows[i]), evals


def realize_stacked(z) -> np.ndarray:
    """The scaled rotation [[re, -im], [im, re]] of z, or an (n, 2, 2)
    stack of them, built with np.stack."""
    z = np.asarray(z, dtype=complex)
    return np.stack([np.stack([z.real, -z.imag], -1),
                     np.stack([z.imag, z.real], -1)], -2)


def operator_stacked(z_j, alpha: float) -> np.ndarray:
    """((realize z_j)^{-1} - I)/alpha, on (n, 2, 2) stacks."""
    return (realize_stacked(1.0 / np.asarray(z_j, dtype=complex))
            - np.eye(2)) / alpha


def dys_matrix_stacked(j_a, j_b, c, alpha: float, lam: float) -> np.ndarray:
    """T = I - lam J_B + lam J_A (2 J_B - I - alpha C J_B) with numpy's @
    on (n, 2, 2) stacks."""
    i2 = np.eye(2)
    return i2 - lam * j_b + lam * j_a @ (2.0 * j_b - i2 - alpha * c @ j_b)


def membership_margins(m: np.ndarray, atom) -> np.ndarray:
    """How far each matrix of a stack is inside an atom's defining
    inequality (negative outside), from numpy.linalg: the smallest
    eigenvalue of a symmetric part, or a bound less a spectral norm.  The
    cocoercive check is sym(M) - beta M^T M psd, with M^T M taken by @."""
    def min_sym_eig(x):
        return np.linalg.eigvalsh(0.5 * (x + np.swapaxes(x, -1, -2)))[..., 0]

    def norm(x):
        return np.linalg.norm(x, 2, axis=(-2, -1))
    i2 = np.eye(2)
    if isinstance(atom, Monotone):
        return min_sym_eig(m)
    if isinstance(atom, StronglyMonotone):
        return min_sym_eig(m) - atom.mu
    if isinstance(atom, Lipschitz):
        return atom.L - norm(m)
    if isinstance(atom, Cocoercive):
        return min_sym_eig(m - atom.beta * (np.swapaxes(m, -1, -2) @ m))
    if isinstance(atom, Averaged):
        return atom.theta - norm(m - (1.0 - atom.theta) * i2)
    return atom.radius - norm(m - atom.center * i2)


def rotation_value(m: np.ndarray) -> complex:
    """The complex number a scaled-rotation matrix multiplies by."""
    return complex(m[0, 0], m[1, 0])


def _sup_abs(disk) -> float:
    return abs(disk.center) + disk.radius


def _sup_affine(w0: float, rw: float, b0: float, rb: float) -> float:
    """Upper bound for sup |w*z - 1| over w in Disk(w0, rw), z in Disk(b0, rb),
    exact whenever either radius vanishes."""
    return abs(w0 * b0 - 1.0) + abs(b0) * rw + (abs(w0) + rw) * rb


def lipschitz_bound(enclosure_a, enclosure_b, enclosure_c, params) -> float:
    """Certified Lipschitz constant of |zeta - s| on the product of the
    three disk enclosures, in the Euclidean product metric.

    Combines per-coordinate suprema M_X >= sup |d zeta / d z_X| as
    sqrt(M_A^2 + M_B^2 + M_C^2); the per-coordinate bounds are exact for
    degenerate (zero-radius) enclosures and never exceed the coarse
    triangle-inequality bound lam*(1 + (2 + alpha*sup|z_C|)*sup|z_B|).
    The search's boundary-measured two-coordinate constant is never
    larger.
    """
    lam, alpha = params.lam, params.alpha
    w0 = 2.0 - alpha * enclosure_c.center
    rw = alpha * enclosure_c.radius
    m_a = lam * _sup_affine(w0, rw, enclosure_b.center, enclosure_b.radius)
    m_b = lam * _sup_affine(w0, rw, enclosure_a.center, enclosure_a.radius)
    m_c = lam * alpha * _sup_abs(enclosure_a) * _sup_abs(enclosure_b)
    return math.sqrt(m_a * m_a + m_b * m_b + m_c * m_c)


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


def rerecorded(fresh, committed):
    """The entry a golden re-record writes: the committed one while the
    fresh one, read back from JSON, still passes assert_matches against it,
    so an entry that moved by an ulp stays as committed; otherwise the
    fresh one."""
    fresh = json.loads(json.dumps(fresh))
    if committed is None:
        return fresh
    try:
        assert_matches(fresh, committed, "")
    except AssertionError:
        return fresh
    return committed


def svg_points_reference(fig, zs, color: str) -> str:
    """The element string `SvgFigure.add_points` appends for a cloud: a
    group of fill `color` scaled by 0.01 around one `%`-formatted <circle>
    row per point, each coordinate mapped alone through `fig._map` and
    written in centipixels, lines joined by newlines ("" for no points)."""
    rows = []
    for z in np.asarray(zs).ravel().tolist():
        x, y = fig._map(z.real, z.imag)
        rows.append('<circle cx="%05.0f" cy="%05.0f" r="80"/>'
                    % (x * 100.0, y * 100.0))
    if not rows:
        return ""
    return "\n".join([f'<g fill="{color}" transform="scale(0.01)">', *rows,
                      "</g>"])
