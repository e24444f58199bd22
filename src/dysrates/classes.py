"""Operator-class descriptions and their SRG / resolvent-SRG regions.

A class is an intersection of elementary atoms (monotone, strongly
monotone, cocoercive, Lipschitz, averaged, shifted Lipschitz ball).  Each
atom carries its spec-file name, ``kind``, and its scaled-relative-graph
region on the complex plane, ``region()``; the region of an intersection is
the intersection of the atom regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from . import geometry
from .errors import InvalidClassError, UnboundedRegionError
from .geometry import Disk, HalfPlane, Region, RegionAtom
from .symbol import DysParams


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monotone:
    kind: ClassVar[str] = "monotone"

    def region(self) -> RegionAtom:
        return HalfPlane(0.0)


@dataclass(frozen=True)
class StronglyMonotone:
    kind: ClassVar[str] = "strongly_monotone"
    mu: float

    def __post_init__(self):
        _positive("mu", self.mu)

    def region(self) -> RegionAtom:
        return HalfPlane(self.mu)


@dataclass(frozen=True)
class Cocoercive:
    kind: ClassVar[str] = "cocoercive"
    beta: float

    def __post_init__(self):
        _positive("beta", self.beta)
        if not math.isfinite(1.0 / (2.0 * self.beta)):
            # a subnormal beta puts the disk's center past the largest float
            raise InvalidClassError(
                f"1/(2 beta) must be finite, got beta = {self.beta}")

    def region(self) -> RegionAtom:
        h = 1.0 / (2.0 * self.beta)
        return Disk(h, h)


@dataclass(frozen=True)
class Lipschitz:
    kind: ClassVar[str] = "lipschitz"
    L: float

    def __post_init__(self):
        _positive("L", self.L)

    def region(self) -> RegionAtom:
        return Disk(0.0, self.L)


@dataclass(frozen=True)
class Averaged:
    kind: ClassVar[str] = "averaged"
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and 0.0 < self.theta < 1.0):
            raise InvalidClassError(f"theta must lie in (0, 1), got {self.theta}")

    def region(self) -> RegionAtom:
        return Disk(1.0 - self.theta, self.theta)


@dataclass(frozen=True)
class ShiftedLipschitzBall:
    """The class c*I + L_r, whose region is Disk(c, r)."""

    kind: ClassVar[str] = "shifted_lipschitz_ball"
    center: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.radius)):
            raise InvalidClassError("ball parameters must be finite")
        if self.radius <= 0.0:
            raise InvalidClassError(f"ball radius must be positive, got {self.radius}")

    def region(self) -> RegionAtom:
        return Disk(self.center, self.radius)


ATOMS = (Monotone, StronglyMonotone, Cocoercive, Lipschitz, Averaged,
         ShiftedLipschitzBall)


def _positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidClassError(f"{name} must be a positive real, got {value}")


# ---------------------------------------------------------------------------
# Class spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorClassSpec:
    """Intersection of class atoms."""

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise InvalidClassError("a class needs at least one atom")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not all(isinstance(a, ATOMS) for a in self.atoms):
            raise InvalidClassError(f"unknown class atom in {self.atoms!r}")
        lo, hi = real_extent(self.atoms)
        # the allowance absorbs the rounding of a disk's ends, as in
        # cocoercive 1/beta = 2 h against strongly monotone mu = 1/beta
        if lo > hi + 1e-15:
            raise InvalidClassError(
                f"inconsistent class: empty region, its real extent "
                f"[lo, hi] has lo = {lo} > hi = {hi}")

    def intersect(self, other: "OperatorClassSpec") -> "OperatorClassSpec":
        return OperatorClassSpec(self.atoms + other.atoms)

    # The tightest constant of each kind, so that the order of the atoms
    # does not matter; None when no atom carries one.

    @property
    def mu(self) -> Optional[float]:
        return max((a.mu for a in self.atoms
                    if isinstance(a, StronglyMonotone)), default=None)

    @property
    def L(self) -> Optional[float]:
        return min((a.L for a in self.atoms if isinstance(a, Lipschitz)),
                   default=None)

    @property
    def beta(self) -> Optional[float]:
        return max((a.beta for a in self.atoms if isinstance(a, Cocoercive)),
                   default=None)


def monotone() -> OperatorClassSpec:
    return OperatorClassSpec((Monotone(),))


def strongly_monotone(mu: float) -> OperatorClassSpec:
    return OperatorClassSpec((StronglyMonotone(mu),))


def cocoercive(beta: float) -> OperatorClassSpec:
    return OperatorClassSpec((Cocoercive(beta),))


def lipschitz(L: float) -> OperatorClassSpec:
    return OperatorClassSpec((Lipschitz(L),))


def averaged(theta: float) -> OperatorClassSpec:
    return OperatorClassSpec((Averaged(theta),))


def shifted_lipschitz_ball(center: float, radius: float) -> OperatorClassSpec:
    return OperatorClassSpec((ShiftedLipschitzBall(center, radius),))


# ---------------------------------------------------------------------------
# SRG regions
# ---------------------------------------------------------------------------

def srg(spec: OperatorClassSpec) -> Region:
    """Region of the class on the complex plane."""
    return Region(tuple(a.region() for a in spec.atoms))


def resolvent_srg(spec: OperatorClassSpec, alpha: float) -> Region:
    """Region of (I + alpha*class)^{-1}, via scale, shift and inversion."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return srg(spec).scale(alpha).translate(1.0).invert()


def real_extent(atoms) -> tuple:
    """(lo, hi): the real interval that the region of a class with these
    atoms meets, lo > hi when the region is empty.

    Every atom's region is a half-plane Re z >= a or a real-centred disk,
    so convex and symmetric about the real axis; so is their intersection,
    and a point z of it puts Re z = (z + conj z)/2 in it too.  The region
    is therefore empty exactly when the atoms' real intervals do not meet:
    lo is the largest lower end and hi the smallest upper end."""
    regions = [a.region() for a in atoms]
    lo = max(r.threshold if isinstance(r, HalfPlane) else r.center - r.radius
             for r in regions)
    hi = min((r.center + r.radius for r in regions if isinstance(r, Disk)),
             default=math.inf)
    return lo, hi


def is_monotone_class(spec: OperatorClassSpec) -> bool:
    """True when the class's region lies in Re z >= 0: lo >= 0 (see
    real_extent)."""
    return real_extent(spec.atoms)[0] >= 0.0


# ---------------------------------------------------------------------------
# Applicability preflight
# ---------------------------------------------------------------------------

class PreflightReport(NamedTuple):
    """The SRG theorem's three hypotheses, in the order of STATEMENTS."""

    resolvent_a_right_arc: bool
    operands_monotone: bool
    c_side_arc: bool

    STATEMENTS = ("(i) I + alpha A has the right-arc property",
                  "(ii) A and B are monotone",
                  "(iii) (2 - lambda/(1 - s)) I - alpha C has an arc property")

    @property
    def applicable(self) -> bool:
        return all(self)

    @property
    def failed(self) -> tuple:
        """The statements of the false hypotheses, in order."""
        return tuple(h for h, holds in zip(self.STATEMENTS, self) if not holds)


def c_side_mirror_region(c_spec: OperatorClassSpec,
                         params: DysParams) -> Region:
    """Region of alpha*srg(C) - sigma, the negation of sigma - alpha*srg(C).

    Negation swaps the two arc properties, so checking either arc property
    on this representable region decides whether sigma*I - alpha*C has an
    arc property (left half-planes never need to be materialized).
    """
    return srg(c_spec).scale(params.alpha).translate(-params.sigma)


def dys_preflight(a_spec: OperatorClassSpec, b_spec: OperatorClassSpec,
                  c_spec: OperatorClassSpec,
                  params: DysParams) -> PreflightReport:
    """Check the main-theorem hypotheses for the triple (A, B, C).

    (i)  I + alpha*A has the right-arc property,
    (ii) A and B are monotone classes,
    (iii) (2 - lambda/(1-s))*I - alpha*C has an arc property.
    A false (iii) means only the enlarged-class upper-bound route applies.
    The search and enlarge_C refuse an unbounded region themselves.
    """
    shifted_a = srg(a_spec).scale(params.alpha).translate(1.0)
    right_arc = geometry.has_right_arc_property(shifted_a)
    monotone_ok = is_monotone_class(a_spec) and is_monotone_class(b_spec)
    mirror = c_side_mirror_region(c_spec, params)
    c_arc = geometry.has_left_arc_property(mirror) or \
        geometry.has_right_arc_property(mirror)
    return PreflightReport(right_arc, monotone_ok, c_arc)


# ---------------------------------------------------------------------------
# Class enlargement
# ---------------------------------------------------------------------------

def _farthest_distance(pieces, m):
    """Distance from the real m (or each of an array of them) to the
    farthest point of the pieces: the piece maximum of |z - m|, in closed
    form."""
    return np.max([geometry._value_on_piece(p, 1.0, -m) for p in pieces],
                  axis=0)


def _disk_hull(region: Region) -> Optional[ShiftedLipschitzBall]:
    """Smallest real-centered disk containing a bounded region.

    max-distance-to-m is convex in the real center m, so its minimizer
    lies within one grid step of the grid point with the smallest value.
    Each round keeps those two steps of a 16-step grid, shrinking the span
    of the smallest disk atom 8-fold; 20 rounds reach float resolution.
    None for a one-point region, which is its own hull.
    """
    pieces = geometry.boundary_pieces(region)
    disk = region.smallest_disk_atom()
    lo, hi = disk.center - disk.radius, disk.center + disk.radius
    for _ in range(20):
        ms = np.linspace(lo, hi, 17)
        k = int(np.argmin(_farthest_distance(pieces, ms)))
        lo, hi = ms[max(k - 1, 0)], ms[min(k + 1, 16)]
    return _ball(pieces, float(0.5 * (lo + hi)))


def _ball(pieces, center: float) -> Optional[ShiftedLipschitzBall]:
    """The smallest disk about center containing the pieces; None when
    they are the one point center."""
    radius = float(_farthest_distance(pieces, center))
    return ShiftedLipschitzBall(center, radius) if radius > 0.0 else None


def enlarge_C(c_spec: OperatorClassSpec, params: DysParams,
              mode: str) -> OperatorClassSpec:
    """Replace a bounded C by a larger class C' whose shifted-and-negated
    region is a real-centered disk, restoring an arc property.

    Modes: 'disk_hull', the smallest real-centered disk over srg(C); and
    'thm33' and 'thm41', both the smallest disk about the C-side shift
    sigma/alpha, sigma = 2 - lambda/(1 - s), which makes the mirror region
    alpha*C' - sigma a disk about 0.  At s = 0 it is Theorem 3.3's ball,
    center (2 - lambda)/alpha; at lambda = 1 and s = 1 - theta, Theorem
    4.1's, center (2 - 1/theta)/alpha.  A C whose region is the one point
    at the ball's center is returned unchanged.
    """
    region = srg(c_spec)
    if not region.bounded:
        raise UnboundedRegionError(
            "C's region is unbounded, so no ball contains it")
    if mode == "disk_hull":
        if len(region.atoms) == 1 and isinstance(region.atoms[0], Disk):
            return c_spec  # already a real-centered disk
        ball = _disk_hull(region)
    elif mode in ("thm33", "thm41"):
        ball = _ball(geometry.boundary_pieces(region),
                     params.sigma / params.alpha)
    else:
        raise ValueError(f"unknown enlargement mode {mode!r}")
    return c_spec if ball is None else OperatorClassSpec((ball,))
