"""Inversive geometry of real-axis-symmetric regions in the complex plane.

A Region is a finite intersection of three kinds of atoms, all with real
centers / thresholds:

* ``Disk(c, r)``          -- closed disk ``|z - c| <= r``
* ``DiskExterior(c, r)``  -- closed complement ``|z - c| >= r``
* ``HalfPlane(a)``        -- ``Re z >= a``

This family is closed under translation by reals, scaling by nonzero reals
(except that a negative scale of a half-plane is rejected), and the
inversion ``z -> 1/z`` of generalized circles.  Regions carry an exact
boundary decomposition into circular arcs and vertical segments, which is
what the max-modulus search consumes; the arc-property checks are exact
1-D tests on the circles about 0.

The point at infinity of the extended plane is never materialized: all
certificates downstream operate on bounded regions, and operations that
would need an unbounded boundary raise instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    EmptyRegionError,
    UnboundedRegionError,
    UnsupportedInversionError,
    UnsupportedOrientationError,
)

TWO_PI = 2.0 * math.pi

# Tolerance for classifying tangency / boundary-degenerate configurations
# (|c| = r case splits, radical-line degeneracies).
DEGENERACY_TOL = 1e-12
# Angular span below which an arc is a tangency point, not a piece.
MIN_ARC_SPAN = 1e-9
MIN_SEGMENT_LEN = 1e-12


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disk:
    center: float
    radius: float

    def __post_init__(self):
        _check_atom(self.center, self.radius)

    def contains(self, z, tol: float = 0.0):
        return abs(z - self.center) <= self.radius + tol


@dataclass(frozen=True)
class DiskExterior:
    center: float
    radius: float

    def __post_init__(self):
        _check_atom(self.center, self.radius)

    def contains(self, z, tol: float = 0.0):
        return abs(z - self.center) >= self.radius - tol


@dataclass(frozen=True)
class HalfPlane:
    threshold: float

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ValueError("half-plane threshold must be finite")

    def contains(self, z, tol: float = 0.0):
        return z.real >= self.threshold - tol


RegionAtom = Union[Disk, DiskExterior, HalfPlane]


def _check_atom(center: float, radius: float) -> None:
    if not (math.isfinite(center) and math.isfinite(radius)):
        raise ValueError("atom parameters must be finite")
    if radius <= 0.0:
        raise ValueError(f"atom radius must be positive, got {radius}")


def _atom_sort_key(atom: RegionAtom):
    if isinstance(atom, Disk):
        return (0, atom.center, atom.radius)
    if isinstance(atom, DiskExterior):
        return (1, atom.center, atom.radius)
    return (2, atom.threshold, 0.0)


# ---------------------------------------------------------------------------
# Region
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Intersection of atoms; always symmetric about the real axis."""

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a region needs at least one atom")
        # canonical order + dedupe gives deterministic boundary traversal
        unique = sorted(set(self.atoms), key=_atom_sort_key)
        object.__setattr__(self, "atoms", tuple(unique))

    @property
    def bounded(self) -> bool:
        return any(isinstance(a, Disk) for a in self.atoms)

    def contains(self, z, tol: float = 0.0):
        """Membership of a point, or a mask over an array of points."""
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        inside = True
        for a in self.atoms:
            inside = inside & a.contains(z, tol)
        return inside

    def smallest_disk_atom(self) -> Disk:
        disks = [a for a in self.atoms if isinstance(a, Disk)]
        if not disks:
            raise UnboundedRegionError(
                "region has no disk atom; intersect with a bounding disk first")
        return min(disks, key=lambda d: (d.radius, d.center))

    # -- transforms ---------------------------------------------------------

    def translate(self, a: float) -> "Region":
        return Region(tuple(_translate_atom(atom, a) for atom in self.atoms))

    def scale(self, a: float) -> "Region":
        if a == 0.0:
            raise ValueError("scale factor must be nonzero")
        return Region(tuple(_scale_atom(atom, a) for atom in self.atoms))

    def invert(self) -> "Region":
        """Image under z -> 1/z.  Inversion is a bijection of the extended
        plane, so the image of the intersection is the intersection of the
        atom images."""
        return Region(tuple(_invert_atom(atom) for atom in self.atoms))


def _translate_atom(atom: RegionAtom, a: float) -> RegionAtom:
    if isinstance(atom, Disk):
        return Disk(atom.center + a, atom.radius)
    if isinstance(atom, DiskExterior):
        return DiskExterior(atom.center + a, atom.radius)
    return HalfPlane(atom.threshold + a)


def _scale_atom(atom: RegionAtom, a: float) -> RegionAtom:
    if isinstance(atom, Disk):
        return Disk(a * atom.center, abs(a) * atom.radius)
    if isinstance(atom, DiskExterior):
        return DiskExterior(a * atom.center, abs(a) * atom.radius)
    if a < 0.0:
        raise UnsupportedOrientationError(
            "negative scale of a half-plane produces {Re z <= a}, which is "
            "not representable")
    return HalfPlane(a * atom.threshold)


def _invert_atom(atom: RegionAtom) -> RegionAtom:
    if isinstance(atom, HalfPlane):
        a = atom.threshold
        if a <= DEGENERACY_TOL:
            raise UnsupportedInversionError(
                f"cannot invert HalfPlane({a}): 0 on or inside the "
                "half-plane signals an invalid class input upstream")
        return Disk(1.0 / (2.0 * a), 1.0 / (2.0 * a))

    c, r = atom.center, atom.radius
    d = c * c - r * r  # power of 0 with respect to the circle
    if abs(abs(c) - r) <= DEGENERACY_TOL:
        # 0 on the circle: image of the circle is the line Re w = 1/(2c)
        if isinstance(atom, Disk):
            if c > 0:
                return HalfPlane(1.0 / (2.0 * c))
            raise UnsupportedInversionError(
                "inverting a disk through 0 with nonpositive center gives a "
                "left half-plane")
        if c < 0:
            return HalfPlane(1.0 / (2.0 * c))
        raise UnsupportedInversionError(
            "inverting a disk exterior through 0 with nonnegative center "
            "gives a left half-plane")

    new_c = c / d
    new_r = r / abs(d)
    if isinstance(atom, Disk):
        # 0 outside the disk keeps it a disk; 0 inside flips it inside out.
        return Disk(new_c, new_r) if d > 0 else DiskExterior(new_c, new_r)
    return DiskExterior(new_c, new_r) if d > 0 else Disk(new_c, new_r)


# ---------------------------------------------------------------------------
# Boundary pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    """Circular arc, counterclockwise from angle_start to angle_end.

    Angles are radians with angle_start < angle_end; the interval may pass
    through pi (e.g. [3*pi/4, 5*pi/4]) for arcs wrapping the negative real
    axis.  A full circle is [-pi, pi].
    """

    center: float
    radius: float
    angle_start: float
    angle_end: float

    @property
    def length(self) -> float:
        return (self.angle_end - self.angle_start) * self.radius

    def point_at(self, t):
        """The point at parameter t in [0, 1]; an array of t gives an array."""
        ang = (1.0 - t) * self.angle_start + t * self.angle_end
        exp = np.exp if isinstance(ang, np.ndarray) else cmath.exp
        return self.center + self.radius * exp(1j * ang)

    def sample(self, n_intervals: int) -> np.ndarray:
        angs = np.linspace(self.angle_start, self.angle_end, n_intervals + 1)
        return self.center + self.radius * np.exp(1j * angs)


@dataclass(frozen=True)
class Segment:
    p0: complex
    p1: complex

    @property
    def length(self) -> float:
        return abs(self.p1 - self.p0)

    def point_at(self, t):
        """The point at parameter t in [0, 1]; an array of t gives an array."""
        return (1.0 - t) * self.p0 + t * self.p1

    def sample(self, n_intervals: int) -> np.ndarray:
        ts = np.linspace(0.0, 1.0, n_intervals + 1)
        return (1.0 - ts) * self.p0 + ts * self.p1


BoundaryPiece = Union[Arc, Segment]


def _cos_bounds_on_circle(c: float, r: float,
                          others: Sequence[RegionAtom]):
    """Feasible set of angles t on the circle z = c + r e^{it} subject to
    membership in every other atom, expressed as bounds lo <= cos t <= hi.

    All atom centers are real, so every constraint is monotone in cos t.
    Returns (lo, hi) or None when the circle contributes nothing.
    """
    lo, hi = -1.0, 1.0
    for other in others:
        if isinstance(other, HalfPlane):
            lo = max(lo, (other.threshold - c) / r)
            continue
        c2, r2 = other.center, other.radius
        d = c - c2
        if abs(d) <= DEGENERACY_TOL:
            # concentric: constraint holds for every t or for none
            if isinstance(other, Disk):
                if r > r2 + DEGENERACY_TOL:
                    return None
            else:
                if r < r2 - DEGENERACY_TOL:
                    return None
            continue
        u = (r2 * r2 - r * r - d * d) / (2.0 * r * d)
        if isinstance(other, Disk):
            # |z - c2|^2 = r^2 + d^2 + 2 r d cos t <= r2^2
            if d > 0:
                hi = min(hi, u)
            else:
                lo = max(lo, u)
        else:
            if d > 0:
                lo = max(lo, u)
            else:
                hi = min(hi, u)
    if lo > hi + DEGENERACY_TOL:
        return None
    # a tangency can leave lo up to DEGENERACY_TOL above 1 (or hi below -1)
    return min(max(lo, -1.0), 1.0), max(min(hi, 1.0), -1.0)


def _circle_pieces(c: float, r: float, others: Sequence[RegionAtom]):
    bounds = _cos_bounds_on_circle(c, r, others)
    if bounds is None:
        return []
    lo, hi = bounds
    if lo <= -1.0 + DEGENERACY_TOL and hi >= 1.0 - DEGENERACY_TOL:
        return [Arc(c, r, -math.pi, math.pi)]
    t1 = math.acos(hi)  # in [0, pi]
    t2 = math.acos(lo)
    if t2 - t1 <= MIN_ARC_SPAN:
        return []  # tangency point
    if t1 <= MIN_ARC_SPAN:
        return [Arc(c, r, -t2, t2)]
    if math.pi - t2 <= MIN_ARC_SPAN:
        return [Arc(c, r, t1, TWO_PI - t1)]
    return [Arc(c, r, t1, t2), Arc(c, r, -t2, -t1)]


def _line_pieces(a: float, others: Sequence[RegionAtom]):
    """Pieces of the vertical line Re z = a inside every other atom.
    Constraints reduce to bounds on s^2 for z = a + i s."""
    s2_lo, s2_hi = 0.0, math.inf
    for other in others:
        if isinstance(other, HalfPlane):
            if a < other.threshold - DEGENERACY_TOL:
                return []
            continue
        m2 = other.radius ** 2 - (a - other.center) ** 2
        if isinstance(other, Disk):
            if m2 < -DEGENERACY_TOL:
                return []
            s2_hi = min(s2_hi, max(m2, 0.0))
        else:
            s2_lo = max(s2_lo, m2)
    if s2_hi < s2_lo - DEGENERACY_TOL:
        return []
    if math.isinf(s2_hi):
        raise UnboundedRegionError(
            "half-plane boundary line is unbounded within the region; "
            "intersect with a bounding disk first")
    s_hi = math.sqrt(max(s2_hi, 0.0))
    s_lo = math.sqrt(max(s2_lo, 0.0))
    if s_hi - s_lo <= MIN_SEGMENT_LEN:
        return []
    if s_lo <= MIN_SEGMENT_LEN:
        return [Segment(complex(a, -s_hi), complex(a, s_hi))]
    return [Segment(complex(a, s_lo), complex(a, s_hi)),
            Segment(complex(a, -s_hi), complex(a, -s_lo))]


def _feasible_probe_points(region: Region) -> list:
    """Pairwise boundary intersections and per-atom extreme real points:
    the candidates for a one-point region, and the points whose moduli
    bound the radius intervals of the arc-property test."""
    pts = []
    for atom in region.atoms:
        if isinstance(atom, (Disk, DiskExterior)):
            pts += [complex(atom.center - atom.radius, 0.0),
                    complex(atom.center + atom.radius, 0.0)]
        else:
            pts.append(complex(atom.threshold, 0.0))
    atoms = region.atoms
    for i, a1 in enumerate(atoms):
        for a2 in atoms[i + 1:]:
            pts += _pairwise_boundary_intersections(a1, a2)
    return pts


def _pairwise_boundary_intersections(a1: RegionAtom, a2: RegionAtom) -> list:
    circ1 = None if isinstance(a1, HalfPlane) else (a1.center, a1.radius)
    circ2 = None if isinstance(a2, HalfPlane) else (a2.center, a2.radius)
    if circ1 is None and circ2 is None:
        return []
    if circ1 is None or circ2 is None:
        (c, r) = circ1 or circ2
        a = a1.threshold if circ1 is None else a2.threshold
        m2 = r * r - (a - c) ** 2
        if m2 < 0:
            return []
        m = math.sqrt(m2)
        return [complex(a, m), complex(a, -m)]
    (c1, r1), (c2, r2) = circ1, circ2
    d = c2 - c1
    if abs(d) <= DEGENERACY_TOL:
        return []
    # radical line: x relative to c1
    x = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    y2 = r1 * r1 - x * x
    if y2 < 0:
        return []
    y = math.sqrt(y2)
    return [complex(c1 + x, y), complex(c1 + x, -y)]


def boundary_pieces(region: Region) -> list:
    """Decompose the region boundary into arcs and segments.

    The pieces pairwise intersect only at endpoints; circle-circle corners
    come out of the closed-form radical-line construction, and a circle or
    line that several atoms share is emitted once.  Any number of atoms is
    supported.  Raises EmptyRegionError when the atoms have empty
    intersection and UnboundedRegionError when the boundary contains an
    infinite line.
    """
    atoms = region.atoms
    pieces: list = []
    curves: list = []
    for i, atom in enumerate(atoms):
        # a circle or line that several atoms share is one boundary curve
        curve = ((atom.threshold,) if isinstance(atom, HalfPlane)
                 else (atom.center, atom.radius))
        if any(len(c) == len(curve) and math.dist(c, curve) <= DEGENERACY_TOL
               for c in curves):
            continue
        curves.append(curve)
        others = atoms[:i] + atoms[i + 1:]
        if isinstance(atom, (Disk, DiskExterior)):
            pieces += _circle_pieces(atom.center, atom.radius, others)
        else:
            pieces += _line_pieces(atom.threshold, others)
    if not pieces:
        # tangency can shrink the region to a single point (e.g. mu = L
        # classes); represent its boundary as a zero-length segment
        feasible = sorted(
            (p for p in _feasible_probe_points(region)
             if region.contains(p, DEGENERACY_TOL)),
            key=lambda z: (z.real, z.imag))
        if not feasible:
            raise EmptyRegionError(f"atoms have empty intersection: {atoms}")
        return [Segment(feasible[0], feasible[0])]
    return pieces


# ---------------------------------------------------------------------------
# Boundary sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryGrid:
    """Deterministic boundary sample with its guaranteed covering radius."""

    points: np.ndarray
    covering_radius: float
    pieces: tuple


def boundary_grid(region: Region, eps: float) -> BoundaryGrid:
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not region.bounded:
        raise UnboundedRegionError(
            "cannot sample the boundary of an unbounded region; intersect "
            "with a bounding atom first")
    pieces = boundary_pieces(region)
    chunks = []
    max_gap = 0.0
    for piece in pieces:
        n = max(1, math.ceil(piece.length / eps))
        chunks.append(piece.sample(n))
        max_gap = max(max_gap, piece.length / n)
    points = np.concatenate(chunks)
    # samples are spaced <= max_gap along each piece, so every boundary
    # point is within max_gap/2 in arc length, hence in chord distance
    return BoundaryGrid(points, 0.5 * max_gap, tuple(pieces))


# ---------------------------------------------------------------------------
# Arc properties
# ---------------------------------------------------------------------------

def _arc_property(region: Region, left: bool) -> bool:
    """Exact arc-property test.

    All centers are real, so the region meets the circle |z| = r in the
    angles with lo <= cos <= hi (_cos_bounds_on_circle).  The right-hand
    arc of every such point stays in the region iff hi = 1, the left-hand
    arc iff lo = -1.  Both answers can change only at the moduli of the
    pairwise boundary corners and the real boundary points, so probing
    those radii, one radius inside each gap between them and one beyond
    each end decides the property, for bounded and unbounded regions.
    """
    radii = sorted({abs(p) for p in _feasible_probe_points(region)} - {0.0})
    probes = [1.0]
    if radii:
        probes = (radii + [0.5 * (a + b) for a, b in zip(radii, radii[1:])]
                  + [0.5 * radii[0], 2.0 * radii[-1]])
    for r in probes:
        bounds = _cos_bounds_on_circle(0.0, r, region.atoms)
        if bounds is None:
            continue
        lo, hi = bounds
        if (1.0 + lo if left else 1.0 - hi) > DEGENERACY_TOL:
            return False
    return True


def has_right_arc_property(region: Region) -> bool:
    """True when every point's right-hand arc (through the positive real
    axis, on the circle about 0 through the point) stays in the region."""
    return _arc_property(region, left=False)


def has_left_arc_property(region: Region) -> bool:
    """Mirror of has_right_arc_property, with arcs through the negative
    real axis."""
    return _arc_property(region, left=True)


# ---------------------------------------------------------------------------
# Largest |P z + Q| over one piece
# ---------------------------------------------------------------------------

def _max_on_piece(piece, p_coef, q_coef):
    """Point of one boundary piece maximizing |P z + Q|, elementwise over
    arrays P and Q of one shape.

    On a segment |P z + Q| is convex in the parameter, so an endpoint wins.
    On an arc z = c + r e^{it}, P z + Q = W + P r e^{it} with W = P c + Q,
    which reaches |W| + |P| r at t = arg W - arg P; off that angle the value
    falls monotonically, so outside the arc an endpoint wins.  Where P = 0
    or W = 0 the value is constant on the piece and its first endpoint is
    taken.
    """
    e0, e1 = piece.point_at(0.0), piece.point_at(1.0)
    far = np.where(np.abs(p_coef * e1 + q_coef) > np.abs(p_coef * e0 + q_coef),
                   e1, e0)
    if isinstance(piece, Arc):
        w = p_coef * piece.center + q_coef
        ang = piece.angle_start + (np.angle(w) - np.angle(p_coef)
                                   - piece.angle_start) % TWO_PI
        on_arc = (ang <= piece.angle_end) & (p_coef != 0) & (w != 0)
        far = np.where(on_arc, piece.center + piece.radius * np.exp(1j * ang),
                       np.where((p_coef == 0) | (w == 0), e0, far))
    return far


def _value_on_piece(piece, p_coef, q_coef):
    """Largest |P z + Q| over one boundary piece, elementwise over arrays P
    and Q, without locating the maximizer.

    The value |W| + |P| r of an arc (W = P c + Q) is reached when the angle
    arg(W conj P) lies on the arc, and always on a full circle; otherwise,
    and on a segment, the larger endpoint modulus.  Where P = 0 or W = 0
    the value is constant on the piece, and |W| + |P| r is that constant.
    With P = 1 and Q = -m it is the distance from m to the farthest point
    of the piece.
    """
    if isinstance(piece, Arc):
        w = p_coef * piece.center + q_coef
        crest = np.abs(w) + np.abs(p_coef) * piece.radius
        span = piece.angle_end - piece.angle_start
        if span >= TWO_PI:
            return crest
        on_arc = ((np.angle(w * np.conj(p_coef)) - piece.angle_start)
                  % TWO_PI <= span)
    ends = np.maximum(np.abs(p_coef * piece.point_at(0.0) + q_coef),
                      np.abs(p_coef * piece.point_at(1.0) + q_coef))
    return np.where(on_arc, crest, ends) if isinstance(piece, Arc) else ends
