"""Operator-class descriptions and their SRG / resolvent-SRG regions.

A class is an intersection of elementary atoms (monotone, strongly
monotone, cocoercive, Lipschitz, averaged, shifted Lipschitz ball).  Each
atom has a known scaled-relative-graph region on the complex plane, and
the region of an intersection is the intersection of the atom regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import geometry
from .errors import InvalidClassError, PreconditionError
from .geometry import Disk, HalfPlane, Region
from .symbol import DysParams


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monotone:
    pass


@dataclass(frozen=True)
class StronglyMonotone:
    mu: float

    def __post_init__(self):
        _positive("mu", self.mu)


@dataclass(frozen=True)
class Cocoercive:
    beta: float

    def __post_init__(self):
        _positive("beta", self.beta)


@dataclass(frozen=True)
class Lipschitz:
    L: float

    def __post_init__(self):
        _positive("L", self.L)


@dataclass(frozen=True)
class Averaged:
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and 0.0 < self.theta < 1.0):
            raise InvalidClassError(f"theta must lie in (0, 1), got {self.theta}")


@dataclass(frozen=True)
class ShiftedLipschitzBall:
    """The class c*I + L_r, whose region is Disk(c, r)."""

    center: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.radius)):
            raise InvalidClassError("ball parameters must be finite")
        if self.radius <= 0.0:
            raise InvalidClassError(f"ball radius must be positive, got {self.radius}")


ClassAtom = Union[Monotone, StronglyMonotone, Cocoercive, Lipschitz,
                  Averaged, ShiftedLipschitzBall]


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
        mus = [a.mu for a in self.atoms if isinstance(a, StronglyMonotone)]
        lips = [a.L for a in self.atoms if isinstance(a, Lipschitz)]
        betas = [a.beta for a in self.atoms if isinstance(a, Cocoercive)]
        if mus and lips and max(mus) > min(lips):
            raise InvalidClassError(
                f"inconsistent class: mu = {max(mus)} exceeds L = {min(lips)}")
        if mus and betas and max(mus) > 1.0 / max(betas) + 1e-15:
            raise InvalidClassError(
                f"inconsistent class: mu = {max(mus)} exceeds 1/beta = "
                f"{1.0 / max(betas)}")

    def intersect(self, other: "OperatorClassSpec") -> "OperatorClassSpec":
        return OperatorClassSpec(self.atoms + other.atoms)

    def param(self, kind, field: str) -> Optional[float]:
        for a in self.atoms:
            if isinstance(a, kind):
                return getattr(a, field)
        return None

    @property
    def mu(self) -> Optional[float]:
        return self.param(StronglyMonotone, "mu")

    @property
    def L(self) -> Optional[float]:
        return self.param(Lipschitz, "L")

    @property
    def beta(self) -> Optional[float]:
        return self.param(Cocoercive, "beta")


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

def _atom_region(atom: ClassAtom) -> geometry.RegionAtom:
    if isinstance(atom, Monotone):
        return HalfPlane(0.0)
    if isinstance(atom, StronglyMonotone):
        return HalfPlane(atom.mu)
    if isinstance(atom, Cocoercive):
        h = 1.0 / (2.0 * atom.beta)
        return Disk(h, h)
    if isinstance(atom, Lipschitz):
        return Disk(0.0, atom.L)
    if isinstance(atom, Averaged):
        return Disk(1.0 - atom.theta, atom.theta)
    if isinstance(atom, ShiftedLipschitzBall):
        return Disk(atom.center, atom.radius)
    raise InvalidClassError(f"unknown class atom {atom!r}")


def srg(spec: OperatorClassSpec) -> Region:
    """Region of the class on the complex plane."""
    return Region(tuple(_atom_region(a) for a in spec.atoms))


def resolvent_srg(spec: OperatorClassSpec, alpha: float) -> Region:
    """Region of (I + alpha*class)^{-1}, via scale, shift and inversion."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return srg(spec).scale(alpha).translate(1.0).invert()


def _atom_min_real(atom: ClassAtom) -> float:
    """Smallest Re z over the atom's region (certainly monotone iff >= 0)."""
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


def is_monotone_class(spec: OperatorClassSpec) -> bool:
    """True when some atom already forces Re z >= 0 over the class region."""
    return max(_atom_min_real(a) for a in spec.atoms) >= 0.0


# ---------------------------------------------------------------------------
# Applicability preflight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreflightReport:
    resolvent_a_right_arc: bool
    operands_monotone: bool
    c_side_arc: bool
    search_domain_bounded: bool

    @property
    def triple(self):
        return (self.resolvent_a_right_arc, self.operands_monotone,
                self.c_side_arc)

    @property
    def applicable(self) -> bool:
        return all(self.triple)


def c_side_shift(params: DysParams) -> float:
    """The real number sigma with sigma*I - alpha*C the class whose arc
    property gates applicability; sigma = 2 - lambda/(1-s) = 2 - 1/t."""
    return 2.0 - 1.0 / params.t


def c_side_mirror_region(c_spec: OperatorClassSpec,
                         params: DysParams) -> Region:
    """Region of alpha*srg(C) - sigma, the negation of sigma - alpha*srg(C).

    Negation swaps the two arc properties, so checking either arc property
    on this representable region decides whether sigma*I - alpha*C has an
    arc property (left half-planes never need to be materialized).
    """
    sigma = c_side_shift(params)
    return srg(c_spec).scale(params.alpha).translate(-sigma)


def dys_preflight(a_spec: OperatorClassSpec, b_spec: OperatorClassSpec,
                  c_spec: OperatorClassSpec,
                  params: DysParams) -> PreflightReport:
    """Check the main-theorem hypotheses for the triple (A, B, C).

    (i)  I + alpha*A has the right-arc property,
    (ii) A and B are monotone classes,
    (iii) (2 - lambda/(1-s))*I - alpha*C has an arc property,
    plus boundedness of the three boundary-search regions.  A false (iii)
    means only the enlarged-class upper-bound route applies.
    """
    shifted_a = srg(a_spec).scale(params.alpha).translate(1.0)
    right_arc = geometry.has_right_arc_property(shifted_a)
    monotone_ok = is_monotone_class(a_spec) and is_monotone_class(b_spec)
    mirror = c_side_mirror_region(c_spec, params)
    c_arc = geometry.has_left_arc_property(mirror) or \
        geometry.has_right_arc_property(mirror)
    try:
        bounded = (resolvent_srg(a_spec, params.alpha).bounded
                   and resolvent_srg(b_spec, params.alpha).bounded
                   and srg(c_spec).bounded)
    except geometry.UnsupportedInversionError:
        bounded = False
    return PreflightReport(right_arc, monotone_ok, c_arc, bounded)


# ---------------------------------------------------------------------------
# Class enlargement
# ---------------------------------------------------------------------------

def _disk_hull(region: Region) -> ShiftedLipschitzBall:
    """Smallest real-centered disk containing a bounded region.

    max-distance-to-m is convex in the real center m, so its minimizer
    lies within one grid step of the grid point with the smallest value.
    Each round keeps those two steps of a 16-step grid, shrinking the span
    of the smallest disk atom 8-fold; 20 rounds reach float resolution.
    The distance from m to the farthest point of a piece is the piece
    maximum of |z - m|, in closed form.
    """
    pieces = geometry.boundary_pieces(region)

    def radius_for(m):
        return np.max([geometry._value_on_piece(p, 1.0, -m) for p in pieces],
                      axis=0)

    disk = region.smallest_disk_atom()
    lo, hi = disk.center - disk.radius, disk.center + disk.radius
    for _ in range(20):
        ms = np.linspace(lo, hi, 17)
        k = int(np.argmin(radius_for(ms)))
        lo, hi = ms[max(k - 1, 0)], ms[min(k + 1, 16)]
    m = float(0.5 * (lo + hi))
    return ShiftedLipschitzBall(m, float(radius_for(m)))


def enlarge_C(c_spec: OperatorClassSpec, params: DysParams, mode: str,
              mu: Optional[float] = None) -> OperatorClassSpec:
    """Replace C by a larger class C' whose shifted-and-negated region is a
    real-centered disk, restoring an arc property.

    Modes: 'disk_hull' (smallest real-centered disk over srg(C), always
    applicable to bounded C), 'thm33' (the cocoercive-and-strongly-monotone
    construction with R = sqrt((2-lam)(2-lam - 2(1-eta) alpha mu_C)) and
    eta = alpha/(2 beta_C (2-lam))), and 'thm41' (the Lipschitz-C
    construction with R = sqrt((2 - 1/theta)^2 + alpha^2 L_C^2) and
    theta = 2/(4 - alpha L_C^2 / mu), mu taken from A or B).
    """
    alpha, lam = params.alpha, params.lam
    if mode == "disk_hull":
        region = srg(c_spec)
        if len(region.atoms) == 1 and isinstance(region.atoms[0], Disk):
            return c_spec  # already a real-centered disk
        ball = _disk_hull(region)
        return OperatorClassSpec((ball,))

    if mode == "thm33":
        mu_c = c_spec.mu
        beta_c = c_spec.beta
        if mu_c is None or beta_c is None:
            raise PreconditionError(
                "C carries mu_C and beta_C",
                "thm33 enlargement needs StronglyMonotone and Cocoercive atoms")
        if not lam < 2.0 - alpha / (2.0 * beta_c):
            raise PreconditionError("lambda < 2 - alpha/(2 beta_C)")
        if not 0.0 < mu_c <= 1.0 / beta_c:
            raise PreconditionError("0 < mu_C <= 1/beta_C")
        eta = alpha / (2.0 * beta_c * (2.0 - lam))
        r_sq = (2.0 - lam) * (2.0 - lam - 2.0 * (1.0 - eta) * alpha * mu_c)
        if r_sq <= 0.0:
            raise PreconditionError(
                "enlargement radius R > 0",
                "degenerate thm33 enlargement: R = 0")
        ball = ShiftedLipschitzBall((2.0 - lam) / alpha,
                                    math.sqrt(r_sq) / alpha)
        return OperatorClassSpec((ball,))

    if mode == "thm41":
        l_c = c_spec.L
        if l_c is None:
            raise PreconditionError(
                "C carries L_C", "thm41 enlargement needs a Lipschitz atom")
        if mu is None:
            raise PreconditionError(
                "mu of A or B supplied", "thm41 enlargement needs mu")
        if not 0.0 < alpha < 2.0 * mu / l_c ** 2:
            raise PreconditionError("0 < alpha < 2 mu / L_C^2")
        theta = 2.0 / (4.0 - alpha * l_c ** 2 / mu)
        base = 2.0 - 1.0 / theta
        radius = math.sqrt(base ** 2 + (alpha * l_c) ** 2)
        ball = ShiftedLipschitzBall(base / alpha, radius / alpha)
        return OperatorClassSpec((ball,))

    raise ValueError(f"unknown enlargement mode {mode!r}")
